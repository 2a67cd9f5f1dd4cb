"""Command line front end.

Subcommands: evolve, diagnose, oracle-compare, sweep, validate-config.
Exit codes: 0 success (including runs that legitimately end in Extinction or
Blowup), 1 a Violated diagnose verdict, an oracle-compare error beyond its
tolerance or a failed sweep cell, 2 configuration or input error, 3 flow
stopped by a numerical guard (ConvexityLost or NumericalBlowup). Outputs are
deterministic for a fixed config: float fields use repr round-tripping and
rows follow input order.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from . import config as cfgmod
from . import diagnostics as diag
from . import io as iomod
from . import oracles
from .errors import CentroflowError, ConfigError
from .flow import SCHEMES, evolve

GUARD_TERMINATIONS = {"ConvexityLost", "NumericalBlowup"}


# evolve's and oracle-compare's config overrides; an absent flag reads None
OVERRIDE_FLAGS = (("resolution", {"type": int}), ("scheme", {"choices": SCHEMES}),
                  ("cfl", {"type": float}), ("t_end", {"type": float}),
                  ("snapshot_interval", {"type": float}), ("seed", {"type": int}),
                  ("output", {"type": str}),
                  ("renormalize", {"action": "store_true", "default": None}))


def _apply_overrides(cfg, args):
    for field, _ in OVERRIDE_FLAGS:
        if getattr(args, field) is not None:
            cfg[field] = getattr(args, field)
    return cfg


def _add_override_flags(p):
    for field, kw in OVERRIDE_FLAGS:
        p.add_argument("--" + field.replace("_", "-"), dest=field, **kw)


def _run_config(cfg, outdir):
    """Evolve per config, write all artifacts; returns (traj, bundle, hash)."""
    cfg_hash = iomod.config_hash(cfg)
    t0 = time.perf_counter()
    field = cfgmod.build_initial(cfg)
    traj = evolve(field, cfgmod.step_control(cfg), renormalize=cfg["renormalize"])
    wall = time.perf_counter() - t0
    os.makedirs(outdir, exist_ok=True)
    iomod.write_trajectory(outdir, traj, cfg, cfg_hash, wall)
    bundle = diag.SeriesBundle(traj)
    iomod.write_series_csv(os.path.join(outdir, iomod.SERIES_NAME),
                           bundle.rows(), cfg_hash)
    return traj, bundle, cfg_hash


def cmd_evolve(args):
    cfg = cfgmod.validate(_apply_overrides(cfgmod.load_config_file(args.config), args))
    outdir = iomod.resolve_outdir(cfg["output"])
    traj, _, _ = _run_config(cfg, outdir)
    print(f"evolve: termination={traj.termination} steps={traj.step_count} "
          f"snapshots={len(traj.snapshots)} -> {outdir}")
    return 3 if traj.termination in GUARD_TERMINATIONS else 0


def cmd_diagnose(args):
    ratio = args.decay_ratio
    if ratio is not None and not (math.isfinite(ratio) and ratio >= 0):
        raise ConfigError(f"--decay-ratio must be a finite number >= 0, got {ratio}")
    outdir = iomod.resolve_outdir(args.trajectory)
    traj, meta = iomod.load_trajectory(outdir)
    cfg_hash = meta.get("config_hash")
    if cfg_hash != iomod.config_hash(meta.get("config", {})):
        raise ConfigError("metadata config hash does not match its config echo")
    bundle = diag.SeriesBundle(traj)
    report = diag.run_report(bundle, decay_ratio=ratio)
    iomod.write_report(os.path.join(outdir, iomod.REPORT_NAME), report, cfg_hash)
    iomod.write_series_csv(os.path.join(outdir, iomod.SERIES_NAME),
                           bundle.rows(), cfg_hash)
    iomod.write_json(os.path.join(outdir, "invariants.json"), bundle.summaries)
    for c in report.checks:
        print(f"diagnose: {c.name}: {c.verdict} (worst margin {c.worst_margin:.3e})")
    print(f"diagnose: classification={report.summary['classification']}")
    return 0 if not report.violated else 1


def cmd_oracle_compare(args):
    cfg = cfgmod.validate(_apply_overrides(cfgmod.load_config_file(args.config), args))
    if cfg["initial"]["kind"] != "ellipsoid":
        raise ConfigError("oracle-compare needs an ellipsoid initial datum")
    if cfg["renormalize"]:
        raise ConfigError("oracle-compare compares a plain (unrescaled) run")
    outdir = iomod.resolve_outdir(cfg["output"])
    traj, bundle, cfg_hash = _run_config(cfg, outdir)

    spec = oracles.EllipsoidSpec(cfgmod.ellipsoid_matrix(cfg))
    radii = spec.semi_axes
    is_sphere = np.allclose(radii, radii[0], rtol=1e-12, atol=0)
    s0 = traj.snapshots[0].field.s
    rows = []
    worst = 0.0
    for k, st in enumerate(traj.snapshots):
        if is_sphere:
            factor = oracles.exact_sphere_radius(radii[0], st.t, cfg["n"]) / radii[0]
        else:
            factor = oracles.exact_ellipsoid_factor(spec.rho0, st.t, cfg["n"])
        err = float(np.max(np.abs(st.field.s / (factor * s0) - 1.0)))
        worst = max(worst, err)
        rows.append({"t": st.t, "factor_exact": factor,
                     "max_rel_err_support": err,
                     "roundness": float(bundle.roundness[k])})
    path = os.path.join(outdir, "oracle_compare.csv")
    iomod.write_csv(path, ("t", "factor_exact", "max_rel_err_support", "roundness"),
                    rows, cfg_hash)
    print(f"oracle-compare: max relative support error {worst:.3e} "
          f"(tolerance {args.tolerance:.3e}) -> {path}")
    if traj.termination in GUARD_TERMINATIONS:
        return 3
    return 0 if worst <= args.tolerance else 1


def _sweep_cell(idx, overrides, cfg, outroot):
    outdir = os.path.join(outroot, f"cell_{idx:03d}")
    row = {path: val for path, val in overrides.items()}
    try:
        cfg = dict(cfg, output=outdir)
        traj, bundle, _ = _run_config(cfg, outdir)
        row.update(termination=traj.termination,
                   classification=diag.classify(bundle),
                   final_roundness=bundle.roundness[-1],
                   final_supT2=bundle.supT2[-1],
                   status="completed")
    except Exception as exc:  # crash isolation: the row records, sweep goes on
        row.update(termination="", classification="",
                   final_roundness="", final_supT2="",
                   status=f"error: {exc}")
    return row


def cmd_sweep(args):
    spec = cfgmod.validate_sweep(iomod.read_json(args.spec, "sweep spec"))
    cells = cfgmod.sweep_cells(spec)
    outroot = iomod.resolve_outdir(args.output or spec["base"]["output"])
    os.makedirs(outroot, exist_ok=True)
    # one cell after another on this thread, in input order: cells are GIL-bound
    rows = [_sweep_cell(i, ov, cfg, outroot) for i, (ov, cfg) in enumerate(cells)]
    axis_paths = [ax["path"] for ax in spec.get("axes", [])]
    cols = axis_paths + ["termination", "classification", "final_roundness",
                         "final_supT2", "status"]
    path = os.path.join(outroot, "sweep.csv")
    iomod.write_csv(path, cols, rows)
    bad = sum(1 for r in rows if r["status"] != "completed")
    print(f"sweep: {len(rows)} cells, {bad} failed -> {path}")
    return 0 if bad == 0 else 1


def cmd_validate_config(args):
    cfg = cfgmod.validate(cfgmod.load_config_file(args.config))
    cfgmod.build_initial(cfg)  # also exercises the convexity validator
    print(f"validate-config: ok (hash {iomod.config_hash(cfg)})")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="centroflow",
        description="Support-function flow laboratory for convex bodies")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evolve", help="run a flow and write its trajectory")
    pe.add_argument("--config", required=True)
    _add_override_flags(pe)
    pe.set_defaults(func=cmd_evolve)

    pd = sub.add_parser("diagnose", help="check every law on a stored trajectory")
    pd.add_argument("--trajectory", required=True)
    pd.add_argument("--decay-ratio", dest="decay_ratio", type=float, default=None)
    pd.set_defaults(func=cmd_diagnose)

    po = sub.add_parser("oracle-compare",
                        help="compare an ellipsoid run against the exact law")
    po.add_argument("--config", required=True)
    po.add_argument("--tolerance", type=float, default=1e-3)
    _add_override_flags(po)
    po.set_defaults(func=cmd_oracle_compare)

    ps = sub.add_parser("sweep", help="run a parameter sweep")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--output", default=None)
    ps.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("validate-config", help="validate a config and exit")
    pv.add_argument("--config", required=True)
    pv.set_defaults(func=cmd_validate_config)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CentroflowError as exc:
        print(f"flow guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
