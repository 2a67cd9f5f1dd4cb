"""Run configuration: validation, defaults, and initial-datum construction.

A config is a plain JSON mapping; validate() normalizes it (fills defaults,
checks every field) and returns the canonical dict that gets hashed into all
outputs. Fourier initial data is validated for convexity on the actual grid
before any stepping, so a bad datum dies with exit code 2 instead of a guard
trip halfway through a run.
"""

import copy
import itertools
import os

import numpy as np

from .errors import ConfigError
from .flow import StepControl, is_number
from .grids import grid_shape, make_grid
from .io import load_snapshot, read_json
from .support import (convexity_margin, ellipsoid_shape_matrix, ellipsoid_support,
                      fourier_support)

DEFAULTS = {"seed": 0, "output": "run", "renormalize": False}

# config fields that hold StepControl values: top level, and under 'stops'
STEPPING = ("scheme", "cfl", "dt_max", "t_end", "snapshot_interval")
STOPS = ("extinction_radius", "blowup_radius", "convexity_floor")


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def validate(raw):
    """Normalize and validate a config mapping; returns the canonical dict."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    cfg = copy.deepcopy(raw)
    for key, val in DEFAULTS.items():
        cfg.setdefault(key, val)

    known = {"n", "resolution", "initial", "stops", *STEPPING} | set(DEFAULTS)
    unknown = set(cfg) - known
    _require(not unknown, f"unknown config fields: {sorted(unknown)}")

    _require(is_number(cfg.get("n")) and cfg["n"] in (1, 2), "'n' must be 1 or 2")
    n = cfg["n"]
    res = cfg.get("resolution")
    grid_shape(n, res)

    stops = cfg.get("stops", {})
    _require(isinstance(stops, dict), "'stops' must be an object")
    extra = set(stops) - set(STOPS)
    _require(not extra, f"unknown stop thresholds: {sorted(extra)}")
    # StepControl checks the values and fills the defaults; its floats go back
    control = StepControl(**{k: cfg[k] for k in STEPPING if k in cfg}, **stops)
    cfg.update((k, getattr(control, k)) for k in STEPPING)
    cfg["stops"] = {k: getattr(control, k) for k in STOPS}

    _require(isinstance(cfg["seed"], int) and not isinstance(cfg["seed"], bool)
             and cfg["seed"] >= 0, "'seed' must be a nonnegative integer")
    _require(isinstance(cfg["output"], str) and cfg["output"],
             "'output' must be a nonempty string")
    _require(isinstance(cfg["renormalize"], bool), "'renormalize' must be a bool")

    init = cfg.get("initial")
    _require(isinstance(init, dict) and "kind" in init,
             "'initial' must be an object with a 'kind'")
    kind = init["kind"]
    params = init.get("params", {})
    _require(isinstance(params, dict), "'initial.params' must be an object")
    if kind == "ellipsoid":
        has_m, has_r = "matrix" in params, "radius" in params
        _require(has_m != has_r,
                 "ellipsoid initial takes exactly one of 'matrix' or 'radius'")
        if has_r:
            _require(is_number(params["radius"]) and params["radius"] > 0,
                     "'radius' must be positive")
        else:
            rows = params["matrix"]
            _require(isinstance(rows, list)
                     and all(isinstance(r, list) and all(is_number(x) for x in r)
                             for r in rows), "'matrix' must be a list of rows of numbers")
            ellipsoid_shape_matrix(rows, n + 1)
    elif kind == "fourier":
        _require(n == 1, "fourier initial data is only defined for n=1")
        _require("c0" in params, "fourier initial needs 'c0'")
        _require(is_number(params["c0"]) and params["c0"] > 0, "'c0' must be positive")
        for key in ("a", "b"):
            coeffs = params.get(key, [])
            _require(isinstance(coeffs, list)
                     and all(is_number(c) for c in coeffs),
                     f"fourier '{key}' must be a list of numbers")
            _require(len(coeffs) < res // 2,
                     f"fourier '{key}' has more modes than the grid resolves")
    elif kind == "file":
        _require(isinstance(params.get("path"), str) and params["path"],
                 "file initial needs a 'path'")
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")

    return cfg


def step_control(cfg):
    """The StepControl of a validated config."""
    return StepControl(**{k: cfg[k] for k in STEPPING}, **cfg["stops"])


def ellipsoid_matrix(cfg):
    """Shape matrix Q (s(p)^2 = p^T Q p) of a validated ellipsoid initial datum."""
    params = cfg["initial"].get("params", {})
    if "radius" in params:
        return float(params["radius"]) ** 2 * np.eye(cfg["n"] + 1)
    return np.asarray(params["matrix"], dtype=float)


def build_initial(cfg):
    """SupportField of a validated config's initial datum; convexity-checks it."""
    grid = make_grid(cfg["n"], cfg["resolution"])
    init = cfg["initial"]
    kind, params = init["kind"], init.get("params", {})
    if kind == "ellipsoid":
        field = ellipsoid_support(grid, ellipsoid_matrix(cfg))
    elif kind == "fourier":
        field = fourier_support(grid, params["c0"],
                                a=params.get("a", ()), b=params.get("b", ()))
    else:  # file
        path = params["path"]
        if not os.path.exists(path):
            raise ConfigError(f"initial snapshot file not found: {path}")
        _, field, _ = load_snapshot(path, grid)
    if field.min_s() <= 0:
        raise ConfigError(f"{kind} initial datum has non-positive support")
    bmin = convexity_margin(field)
    if bmin <= cfg["stops"]["convexity_floor"]:
        raise ConfigError(
            f"{kind} initial datum is not uniformly convex (min curvature "
            f"eigenvalue {bmin:.3e})")
    return field


def load_config_file(path):
    """The raw config mapping at path; callers fold in overrides, then validate."""
    return read_json(path, "config")


# ---------- sweeps ----------

# 'parallelism' is validated (an int >= 1) but does not change how cells run:
# cmd_sweep runs them one after another, in input order
SWEEP_DEFAULTS = {"parallelism": 4, "max_cells": 64}


def _walk_path(obj, path):
    """Yield (container, key) pairs along a dotted path; int segments index lists."""
    parts = path.split(".")
    for k, part in enumerate(parts):
        key = int(part) if part.lstrip("-").isdigit() else part
        if isinstance(obj, list):
            _require(isinstance(key, int) and -len(obj) <= key < len(obj),
                     f"sweep path {path!r}: bad list index {part!r}")
        else:
            _require(isinstance(obj, dict) and key in obj,
                     f"sweep path {path!r}: no field {part!r}")
        if k == len(parts) - 1:
            return obj, key
        obj = obj[key]
    raise ConfigError(f"empty sweep path {path!r}")


def set_by_path(cfg, path, value):
    container, key = _walk_path(cfg, path)
    container[key] = value


def validate_sweep(raw):
    _require(isinstance(raw, dict), "sweep spec must be a JSON object")
    spec = copy.deepcopy(raw)
    for key, val in SWEEP_DEFAULTS.items():
        spec.setdefault(key, val)
    unknown = set(spec) - {"base", "axes", "parallelism", "max_cells"}
    _require(not unknown, f"unknown sweep fields: {sorted(unknown)}")
    _require(isinstance(spec.get("base"), dict), "sweep needs a 'base' config")
    base = validate(spec["base"])
    axes = spec.get("axes", [])
    _require(isinstance(axes, list), "'axes' must be a list")
    size = 1
    for ax in axes:
        _require(isinstance(ax, dict) and isinstance(ax.get("path"), str)
                 and isinstance(ax.get("values"), list) and ax["values"],
                 "each axis needs a 'path' and a nonempty 'values' list")
        _walk_path(base, ax["path"])  # path must resolve in the base config
        size *= len(ax["values"])
    for key in ("parallelism", "max_cells"):
        _require(isinstance(spec[key], int) and not isinstance(spec[key], bool)
                 and spec[key] >= 1, f"'{key}' must be a positive integer")
    _require(size <= spec["max_cells"],
             f"sweep would run {size} cells, cap is {spec['max_cells']}")
    spec["base"] = base
    return spec


def sweep_cells(spec):
    """Cartesian product of the axes, first axis slowest: (overrides, validated
    config) per cell, deep copies of its values set into a deep copy of the base."""
    axes = spec.get("axes", [])
    paths = [ax["path"] for ax in axes]
    cells = []
    for values in itertools.product(*(ax["values"] for ax in axes)):
        cfg = copy.deepcopy(spec["base"])
        for path, v in zip(paths, values):
            set_by_path(cfg, path, copy.deepcopy(v))
        cells.append((dict(zip(paths, values)), cfg))
    # value substitution must leave the config valid; each cell runs and
    # hashes the canonical form, as evolve does
    return [(overrides, validate(cfg)) for overrides, cfg in cells]
