"""Tests of the benchmark itself: inputs, tracer arithmetic, metric names."""

import json
import os

import numpy as np
import pytest

from centroflow import cli, diagnostics, flow, support
from centroflow.grids import CubedSphereGrid, make_grid
from centroflow.support import convexity_margin, fourier_support

from perfbench import inputs, layers, run, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("seed", range(8))
def test_surface_draws_are_convex(seed):
    field, Q = inputs.surface_support(seed, 17)
    assert np.min(field.s) > 0 and convexity_margin(field) > 0
    evals = np.linalg.eigvalsh(Q)
    assert evals[0] > 0 and evals[-1] / evals[0] <= 2


@pytest.mark.parametrize("seed", range(20))
def test_curve_draws_are_convex(seed):
    params = inputs.curve_params(seed, 256)
    field = fourier_support(make_grid(1, 256), params["c0"], params["a"], params["b"])
    assert convexity_margin(field) > 0


@pytest.mark.parametrize("n", (1, 2))
def test_oracle_ellipsoids_are_spd_with_bounded_condition(n):
    for seed in range(10):
        evals = np.linalg.eigvalsh(np.array(inputs.ellipsoid_matrix(seed, n)))
        assert evals[0] > 0 and evals[-1] / evals[0] <= 2


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = (inputs.surface_support(seed, 17)[0].s for seed in (3, 3, 4))
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert inputs.curve_params(3, 256) == inputs.curve_params(3, 256)
    assert inputs.curve_params(3, 256) != inputs.curve_params(4, 256)


def test_digest_ignores_only_wall_time_and_output_path(tmp_path):
    def trajectory(name, wall, snap):
        d = tmp_path / name
        (d / "snapshots").mkdir(parents=True)
        meta = {"config": {"n": 1, "output": str(d)}, "wall_time_s": wall,
                "step_count": 3}
        (d / "metadata.json").write_text(json.dumps(meta))
        (d / "snapshots" / "snap_000000.json").write_text(snap)
        return workloads.digest_tree(str(d))

    first = trajectory("a", 1.0, "[1.0]")
    assert trajectory("b", 2.5, "[1.0]") == first
    assert trajectory("c", 1.0, "[1.0000000000000002]") != first


def test_block_median_averages_blocks_then_takes_the_median():
    assert run.block_median([1, 1, 1, 2, 2, 2, 9, 9, 9, 100]) == 2
    assert run.block_median([1.0, 2.0, 6.0, 3.0], size=2) == pytest.approx(3.0)
    assert run.block_median([1.0, 2.0]) == pytest.approx(1.5)


def _span(sid, parent, name, start, end, value=None):
    return tracer.Span(sid, parent, name, start, end, 0, 0, value)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),       # overlaps a, as a pool thread would
        _span(4, 2, "leaf", 2.0, 3.0),
        _span(5, 1, "late", 9.0, 12.0),   # runs past its parent's end
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({1: 10 - 5 - 1, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0})
    inside = tracer.has_ancestor(spans, "a")
    assert inside == {1: False, 2: False, 3: False, 4: True, 5: False}


def test_layer_metrics_from_a_synthetic_trace():
    spans = [
        _span(1, None, "flow.evolve", 0.0, 10.0),
        _span(2, 1, "flow.step", 1.0, 3.0),
        _span(3, 2, "grids.extend.deg1", 1.5, 2.0),
        _span(4, None, "grids.extend.deg1", 11.0, 12.0),   # outside stepping
        _span(5, None, "io.write_snapshot", 12.0, 12.5, value=100),
        _span(6, None, "cli.sweep_cell", 13.0, 15.0, value=0.5),
    ]
    m, count = layers.layer_metrics(spans, snapshots=2, violated=["x"])
    assert m["flow.steps"] == 1 and m["grids.extend.deg1.per_step"] == 1.0
    assert m["grids.extend.deg1.self_s"] == pytest.approx(1.5)
    assert m["flow.step.self_s"] == pytest.approx(1.5)
    assert m["io.bytes_written"] == 100 and m["diagnostics.violated_checks"] == 1
    assert m["cli.sweep.cell_cpu_s"] == 0.5 and m["cli.sweep.cell_wait_s"] == 1.5
    assert "cli.cmd_sweep" in layers.missing_entry_points("curve-sweep", count)


def test_every_printed_metric_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == layers.UNITS
    printed, _ = layers.layer_metrics([], snapshots=1, violated=[])
    printed = set(printed) | {f"trace.overhead_frac.{k}" for k in ("evolve_s", "diagnose_s")}
    assert printed == set(per_layer)
    assert {w["name"] for w in bench["workloads"]} == set(layers.EXPECTED)


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    originals = (flow.evolve, cli.evolve, support.curvature_matrix,
                 diagnostics.curvature_matrix, CubedSphereGrid.extend)
    tr = tracer.Tracer()
    patch = tracer.install(tr)
    try:
        assert cli.evolve is not originals[1]
        assert diagnostics.curvature_matrix is not originals[3]
        cfg = {"n": 1, "resolution": 64, "t_end": 0.02, "snapshot_interval": 0.01,
               "initial": {"kind": "fourier", "params": inputs.curve_params(0, 64)},
               "output": str(tmp_path / "run")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["evolve", "--config", str(path)]) == 0
        assert cli.main(["diagnose", "--trajectory", str(tmp_path / "run")]) in (0, 1)
    finally:
        patch.restore()
    assert (flow.evolve, cli.evolve, support.curvature_matrix,
            diagnostics.curvature_matrix, CubedSphereGrid.extend) == originals
    names = {sp.name for sp in tr.spans}
    assert {"flow.evolve", "flow.step", "grids.deriv", "support.curvature_matrix",
            "diagnostics.series_bundle", "io.load_snapshot"} <= names
    by_id = {sp.id: sp for sp in tr.spans}
    for sp in tr.spans:
        if sp.name == "flow.step":
            assert by_id[sp.parent].name == "flow.evolve"
