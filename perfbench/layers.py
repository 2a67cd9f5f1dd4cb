"""Per-layer metrics from the spans of one traced iteration.

Counts are exact. Times are self time (span duration minus the part its child
spans cover) summed over the iteration, except ``grids.make_grid_s``, which
is the whole time spent building grids.
"""

import collections

from . import tracer

# Unit of every per-layer metric; for each, lower is better. README.md lists
# the end-to-end metric each should move and the workload it should move it on.
UNITS = {
    "grids.extend.deg1.per_step": "count",
    "grids.extend.deg1.self_s": "s",
    "grids.extend.scalar.self_s": "s",
    "grids.make_grid_s": "s",
    "grids.deriv.calls": "count",
    "grids.deriv.self_s": "s",
    "support.curvature_matrix.per_snapshot": "count",
    "support.curvature_matrix.self_s": "s",
    "support.embed.per_snapshot": "count",
    "flow.steps": "count",
    "flow.step.self_s": "s",
    "flow.stable_dt.self_s": "s",
    "invariants.compute_invariants.per_snapshot": "count",
    "invariants.compute_invariants.self_s": "s",
    "invariants.t2_evolution_rhs.self_s": "s",
    "oracles.best_fit_ellipsoid.self_s": "s",
    "diagnostics.series_bundle.self_s": "s",
    "diagnostics.run_report.self_s": "s",
    "diagnostics.violated_checks": "count",
    "io.write_snapshot.self_s": "s",
    "io.bytes_written": "bytes",
    "io.load_snapshot.self_s": "s",
    "io.bytes_read": "bytes",
    "config.build_initial.self_s": "s",
    "cli.sweep.cell_cpu_s": "s",
    "cli.sweep.cell_wait_s": "s",
    "trace.overhead_frac.evolve_s": "ratio",
    "trace.overhead_frac.diagnose_s": "ratio",
}

# Entry points every traced iteration of a workload must reach at least once.
# A binding the tracer missed would otherwise read as zero work.
_COMMON = {
    "grids.make_grid", "support.curvature_matrix", "support.embed",
    "flow.evolve", "flow.step", "flow.stable_dt",
    "invariants.compute_invariants", "invariants.t2_evolution_rhs",
    "oracles.best_fit_ellipsoid", "diagnostics.series_bundle",
    "diagnostics.run_report", "io.write_snapshot", "io.load_snapshot",
    "io.write_trajectory", "io.load_trajectory", "io.write_series_csv",
    "io.write_report", "config.build_initial", "cli.cmd_diagnose",
}
_SURFACE = _COMMON | {"grids.extend.deg1", "grids.extend.scalar",
                      "config.load_config_file", "cli.cmd_evolve"}
EXPECTED = {
    "surface-evolve": _SURFACE,
    "surface-dense": _SURFACE,
    "curve-sweep": _COMMON | {"grids.deriv", "cli.cmd_sweep", "cli.sweep_cell"},
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, snapshots, violated):
    """Metrics of one traced iteration (overhead fractions are added by the caller)."""
    own = tracer.self_times(spans)
    count = collections.Counter()
    self_s = collections.defaultdict(float)
    total_s = collections.defaultdict(float)
    value = collections.defaultdict(float)
    for sp in spans:
        count[sp.name] += 1
        self_s[sp.name] += own[sp.id]
        total_s[sp.name] += sp.end - sp.start
        if sp.value is not None:
            value[sp.name] += sp.value
    in_evolve = tracer.has_ancestor(spans, "flow.evolve")
    deg1_stepping = sum(1 for sp in spans
                        if sp.name == "grids.extend.deg1" and in_evolve[sp.id])
    steps = count["flow.step"]
    # "<span name>.self_s" is the summed self time of that span
    out = {m: self_s[m[:-len(".self_s")]] for m in UNITS if m.endswith(".self_s")}
    out.update({
        "grids.extend.deg1.per_step": _ratio(deg1_stepping, steps),
        "grids.make_grid_s": total_s["grids.make_grid"],
        "grids.deriv.calls": count["grids.deriv"],
        "support.curvature_matrix.per_snapshot":
            _ratio(count["support.curvature_matrix"], snapshots),
        "support.embed.per_snapshot": _ratio(count["support.embed"], snapshots),
        "flow.steps": steps,
        "invariants.compute_invariants.per_snapshot":
            _ratio(count["invariants.compute_invariants"], snapshots),
        "diagnostics.violated_checks": len(violated),
        "io.bytes_written": value["io.write_snapshot"] + value["io.write_series_csv"]
                            + value["io.write_report"],
        "io.bytes_read": value["io.load_snapshot"],
        "cli.sweep.cell_cpu_s": value["cli.sweep_cell"],
        "cli.sweep.cell_wait_s": total_s["cli.sweep_cell"] - value["cli.sweep_cell"],
    })
    return out, count


def missing_entry_points(workload, count):
    """Expected entry points the traced iteration never reached."""
    return sorted(name for name in EXPECTED[workload] if count[name] < 1)
