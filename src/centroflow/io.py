"""Disk formats: snapshot JSON, series CSV, metadata, and the config hash.

Node-ordering contract (must stay bit-stable across runs):
  n=1: values is the flat list s[k] at theta_k = 2 pi k / N, k = 0..N-1.
  n=2: values is a list of 6 faces in the fixed frame order of grids.FACE_FRAMES;
       each face is an M x M nested list, row-major, values[i][j] = s at
       (y1, y2) = (ys[i], ys[j]).

Floats are serialized with repr (shortest round trip), so identical configs
reproduce byte-identical files. Every artifact embeds the config hash so a
report can refuse to pair with a trajectory it was not computed from.
"""

import csv
import hashlib
import json
import os
from itertools import chain

import numpy as np

from .errors import ConfigError
from .flow import TERMINATIONS, FlowState, Trajectory, is_number
from .grids import grid_shape, make_grid
from .support import SupportField, require_single

SNAP_DIR = "snapshots"
SERIES_NAME = "series.csv"
META_NAME = "metadata.json"
REPORT_NAME = "report.json"


def config_hash(config):
    """Short content hash of a config mapping (order-insensitive).

    The output path is excluded: the hash identifies the run itself, so the
    same physics written to two directories produces byte-identical data files.
    """
    scrubbed = {k: v for k, v in config.items() if k != "output"}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(v):
    """repr of the float value: the shortest round trip, and "nan" for any NaN."""
    return repr(float(v))


def resolve_outdir(path):
    root = os.environ.get("CENTROFLOW_OUTPUT_ROOT", "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def read_json(path, what, fields=()):
    """The JSON object stored at path, holding every key in fields (the one
    missing-field rule of both run files); ConfigError names `what` if it is not."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable {what} {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    for key in fields:
        if key not in doc:
            raise ConfigError(f"{what} {path} missing field '{key}'")
    return doc


def write_json(path, doc):
    """Indented, key-sorted JSON with a trailing newline, encoded once and written
    once (json.dump would write the pure-Python encoder's chunks one by one)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write_snapshot(path, field, t, cfg_hash):
    """One snapshot file; a batch field raises GridError."""
    require_single(field)
    doc = {"n": field.n, "resolution": field.grid.resolution, "time": float(t),
           "values": field.s.tolist(), "config_hash": cfg_hash}
    # json.dump always runs the pure-Python encoder; json.dumps without indent
    # runs the C one and gives the same bytes, about twice as fast at M=65
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_snapshot(path, grid=None):
    """(t, SupportField, config hash or None) of a snapshot; corrupt -> ConfigError."""
    doc = read_json(path, "snapshot", ("n", "resolution", "time", "values"))
    n, resolution = doc["n"], doc["resolution"]
    try:
        shape = grid_shape(n, resolution)
    except ConfigError as exc:
        raise ConfigError(f"snapshot {path}: {exc}")
    if not is_number(doc["time"]):
        raise ConfigError(f"snapshot {path} holds a non-numeric time {doc['time']!r}")
    cfg_hash = doc.get("config_hash")
    if cfg_hash is not None and not isinstance(cfg_hash, str):
        raise ConfigError(f"snapshot {path} config_hash must be a string or null, "
                          f"got {cfg_hash!r}")
    try:
        values = np.asarray(doc["values"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"snapshot {path} holds non-numeric data: {exc}")
    # the values must fit the header before the header may size a grid
    if values.shape != shape:
        raise ConfigError(f"snapshot {path} has shape {values.shape}, want {shape}")
    # np.asarray reads true as 1.0 and "1.05" as 1.05: only the leaves' types tell
    # them from JSON numbers, and map(type) reads them with no Python loop per value
    leaves = doc["values"]
    for _ in range(values.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {float, int}:
        raise ConfigError(f"snapshot {path} holds values that are not JSON numbers")
    if grid is None:
        grid = make_grid(n, resolution)
    elif grid.n != n or grid.resolution != resolution:
        raise ConfigError(f"snapshot {path} grid mismatch")
    if not np.all(np.isfinite(values)) or np.min(values) <= 0.0:
        raise ConfigError(f"snapshot {path} holds non-positive or non-finite s")
    return float(doc["time"]), SupportField(grid, s=values), cfg_hash


def write_trajectory(outdir, traj, config, cfg_hash, wall_time):
    """Snapshot directory + metadata; returns the snapshot dir path."""
    snapdir = os.path.join(outdir, SNAP_DIR)
    os.makedirs(snapdir, exist_ok=True)
    for k, st in enumerate(traj.snapshots):
        write_snapshot(os.path.join(snapdir, f"snap_{k:06d}.json"),
                       st.field, st.t, cfg_hash)
    meta = {
        "config": config,
        "config_hash": cfg_hash,
        "termination": traj.termination,
        "step_count": traj.step_count,
        "renorm_factors": [float(f) for f in traj.renorm_factors],
        "snapshot_count": len(traj.snapshots),
        "wall_time_s": wall_time,
    }
    write_json(os.path.join(outdir, META_NAME), meta)
    return snapdir


def load_trajectory(outdir):
    """(Trajectory, metadata) of a run directory; the one check of its integrity."""
    meta = read_json(os.path.join(outdir, META_NAME), "metadata", (
        "config", "config_hash", "termination", "step_count", "renorm_factors",
        "snapshot_count"))
    if not (isinstance(meta["config"], dict)
            and meta["config_hash"] == config_hash(meta["config"])):
        raise ConfigError("metadata config hash does not match its config echo")
    snapdir = os.path.join(outdir, SNAP_DIR)
    if not os.path.isdir(snapdir):
        raise ConfigError(f"missing snapshot directory {snapdir}")
    names = sorted(f for f in os.listdir(snapdir) if f.endswith(".json"))
    if not names:
        raise ConfigError(f"no snapshots in {snapdir}")
    count = meta["snapshot_count"]
    if isinstance(count, bool) or not isinstance(count, int) or count != len(names):
        raise ConfigError(f"snapshot_count is {count!r}, but {snapdir} holds "
                          f"{len(names)} snapshot(s)")
    grid = None
    states = []
    for name in names:
        t, field, snap_hash = load_snapshot(os.path.join(snapdir, name), grid)
        if snap_hash != meta["config_hash"]:
            raise ConfigError(f"snapshot {name} hash does not match metadata")
        grid = field.grid
        states.append(FlowState(t=t, field=field, step_count=0))
    if any(b.t <= a.t for a, b in zip(states, states[1:])):
        raise ConfigError("snapshot times are not strictly increasing")
    factors = meta["renorm_factors"]
    if not (isinstance(factors, list) and all(is_number(f) and f > 0 for f in factors)):
        raise ConfigError(f"renorm_factors must be a list of finite positive numbers, "
                          f"got {factors!r}")
    if len(factors) != len(states):
        raise ConfigError("renorm_factors length does not match snapshots")
    termination = meta["termination"]
    if termination not in TERMINATIONS:
        raise ConfigError(f"termination must be one of {TERMINATIONS}, got {termination!r}")
    steps = meta["step_count"]
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 0:
        raise ConfigError(f"step_count must be a nonnegative integer, got {steps!r}")
    return Trajectory(states, termination, steps, [float(f) for f in factors]), meta


def write_csv(path, columns, rows, cfg_hash=None):
    """Header + one line per row (dicts keyed by column), RFC 4180 quoting.

    Floats go through repr (nan as "nan"), anything else through str, so a
    field is quoted only when it holds a comma, quote or line break. With a
    config hash the file starts with a "# config_hash=..." comment line.
    """
    with open(path, "w", newline="") as fh:
        if cfg_hash is not None:
            fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else str(v)
                             for v in (row.get(c, "") for c in columns)])


def write_series_csv(path, rows, cfg_hash):
    write_csv(path, list(rows[0]), rows, cfg_hash)   # a bundle's rows: keys are columns


def write_report(path, report, cfg_hash):
    write_json(path, dict(report.to_dict(), config_hash=cfg_hash))
