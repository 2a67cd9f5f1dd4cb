import copy
import csv
import io
import json
import os
import threading

import numpy as np
import pytest

from centroflow import cli
from centroflow import io as iomod
from centroflow.cli import main
from centroflow.config import (
    build_initial,
    set_by_path,
    sweep_cells,
    validate,
    validate_sweep,
)
from centroflow.errors import ConfigError
from centroflow.flow import TERMINATIONS
from centroflow.grids import CircleGrid, CubedSphereGrid, make_grid
from centroflow.support import SupportField, ellipsoid_support, fourier_support
from reference import read_csv_rows

FLOWER = {
    "n": 1, "resolution": 64,
    "initial": {"kind": "fourier", "params": {"c0": 1.0, "a": [0.0, 0.0, 0.05]}},
    "t_end": 0.02, "snapshot_interval": 0.01,
}


def flower_cfg(**over):
    cfg = copy.deepcopy(FLOWER)
    cfg.update(over)
    return cfg


RADIUS = {"kind": "ellipsoid", "params": {"radius": 1.0}}

# (initial datum or None for FLOWER's, dotted path of a numeric field, a value
# that is not a finite number: JSON booleans, and an int beyond the float range)
NON_NUMBERS = [
    (None, "n", True),
    (None, "cfl", True),
    (None, "dt_max", True),
    (None, "t_end", True),
    (None, "snapshot_interval", True),
    (RADIUS, "stops.extinction_radius", True),
    (RADIUS, "stops.blowup_radius", True),
    (RADIUS, "stops.convexity_floor", True),
    (RADIUS, "initial.params.radius", True),
    ({"kind": "ellipsoid", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
     "initial.params.matrix.0.0", True),
    (None, "initial.params.c0", True),
    (None, "initial.params.a.0", False),
    ({"kind": "fourier", "params": {"c0": 1.0, "b": [0.0, 0.02]}},
     "initial.params.b.0", False),
    (None, "dt_max", 10 ** 400),
]


def write_cfg(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


class TestValidate:
    def test_defaults_filled(self):
        cfg = validate(flower_cfg())
        assert cfg["scheme"] == "rk4" and cfg["cfl"] == 0.2
        assert cfg["stops"]["blowup_radius"] == 1e3
        assert cfg["renormalize"] is False

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            validate(flower_cfg(tend=0.1))

    def test_bad_dimension(self):
        with pytest.raises(ConfigError, match="'n' must be 1 or 2"):
            validate(flower_cfg(n=3))

    def test_n2_resolution_must_be_odd(self):
        cfg = {"n": 2, "resolution": 32,
               "initial": {"kind": "ellipsoid", "params": {"radius": 1.0}}}
        with pytest.raises(ConfigError, match="odd resolution"):
            validate(cfg)
        cfg["resolution"] = 17
        assert validate(cfg)["resolution"] == 17

    def test_resolution_type(self):
        with pytest.raises(ConfigError):
            validate(flower_cfg(resolution=64.0))
        with pytest.raises(ConfigError):
            validate(flower_cfg(resolution=True))

    def test_cfl_range(self):
        with pytest.raises(ConfigError):
            validate(flower_cfg(cfl=1.5))
        with pytest.raises(ConfigError):
            validate(flower_cfg(cfl=0.0))

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            validate(flower_cfg(scheme="euler"))

    def test_fourier_mode_count_capped(self):
        cfg = flower_cfg()
        cfg["initial"]["params"]["a"] = [0.001] * 32  # res//2 = 32
        with pytest.raises(ConfigError, match="more modes"):
            validate(cfg)

    def test_fourier_only_curves(self):
        cfg = {"n": 2, "resolution": 17, "initial": FLOWER["initial"]}
        with pytest.raises(ConfigError, match="only defined for n=1"):
            validate(cfg)

    def test_ellipsoid_matrix_checks(self):
        base = {"n": 1, "resolution": 64}
        with pytest.raises(ConfigError, match="symmetric"):
            validate(dict(base, initial={"kind": "ellipsoid",
                                         "params": {"matrix": [[1.0, 0.3], [0.0, 1.0]]}}))
        with pytest.raises(ConfigError, match="positive definite"):
            validate(dict(base, initial={"kind": "ellipsoid",
                                         "params": {"matrix": [[1.0, 2.0], [2.0, 1.0]]}}))
        with pytest.raises(ConfigError, match="2x2"):
            validate(dict(base, initial={"kind": "ellipsoid",
                                         "params": {"matrix": [[1.0, 0.0], [0.0]]}}))
        with pytest.raises(ConfigError, match="exactly one"):
            validate(dict(base, initial={"kind": "ellipsoid",
                                         "params": {"radius": 1.0,
                                                    "matrix": [[1.0, 0.0], [0.0, 1.0]]}}))

    def test_one_ellipsoid_matrix_rule(self, tmp_path):
        # asymmetric at 1e-7 relative: refused before the run, as at run time
        matrix = [[4.0, 1.0 + 1e-7], [1.0, 4.0]]
        cfg = {"n": 1, "resolution": 64, "output": str(tmp_path / "sweep"),
               "initial": {"kind": "ellipsoid", "params": {"matrix": matrix}}}
        with pytest.raises(ConfigError, match="symmetric") as at_validate:
            validate(cfg)
        with pytest.raises(ConfigError) as at_run:
            ellipsoid_support(make_grid(1, 64), matrix)
        assert str(at_validate.value) == str(at_run.value)
        spec = {"base": cfg, "axes": [{"path": "cfl", "values": [0.1, 0.2]}]}
        assert main(["sweep", "--spec", write_cfg(tmp_path / "s.json", spec)]) == 2
        assert not os.path.exists(tmp_path / "sweep")

    @pytest.mark.parametrize("n, resolution", [(1, 15), (2, 15), (2, 18)])
    def test_one_resolution_rule(self, tmp_path, n, resolution):
        # config, grid constructor and snapshot header give the same error
        with pytest.raises(ConfigError) as at_config:
            validate({"n": n, "resolution": resolution, "initial": RADIUS})
        with pytest.raises(ConfigError) as at_grid:
            {1: CircleGrid, 2: CubedSphereGrid}[n](resolution)
        shape = (resolution,) if n == 1 else (6, resolution, resolution)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"n": n, "resolution": resolution, "time": 0.0,
                                    "values": np.ones(shape).tolist()}))
        with pytest.raises(ConfigError) as at_header:
            iomod.load_snapshot(str(path))
        message = str(at_config.value)
        assert "resolution >= " in message
        assert str(at_grid.value) == message
        assert str(at_header.value) == f"snapshot {path}: {message}"

    def test_unknown_initial_kind(self):
        with pytest.raises(ConfigError, match="unknown initial kind"):
            validate({"n": 1, "resolution": 64, "initial": {"kind": "star"}})

    def test_stop_threshold_sanity(self):
        with pytest.raises(ConfigError, match="smaller than"):
            validate(flower_cfg(stops={"extinction_radius": 10.0,
                                       "blowup_radius": 2.0}))
        with pytest.raises(ConfigError, match="unknown stop"):
            validate(flower_cfg(stops={"wall_clock": 60}))

    def test_seed(self):
        with pytest.raises(ConfigError):
            validate(flower_cfg(seed=-1))
        with pytest.raises(ConfigError):
            validate(flower_cfg(seed=True))


class TestBuildInitial:
    def test_nonconvex_fourier_rejected(self, tmp_path):
        # s = 1 + 0.9 cos(2 theta) is positive but b = 1 - 2.7 cos(2 theta) < 0;
        # the same datum read from a snapshot file is refused alike
        path = str(tmp_path / "body.json")
        iomod.write_snapshot(path, fourier_support(make_grid(1, 64), 1.0, a=[0.0, 0.9]),
                             0.0, None)
        for initial in ({"kind": "fourier", "params": {"c0": 1.0, "a": [0.0, 0.9]}},
                        {"kind": "file", "params": {"path": path}}):
            cfg = validate({"n": 1, "resolution": 64, "initial": initial})
            with pytest.raises(ConfigError, match="not uniformly convex"):
                build_initial(cfg)

    def test_radius_datum(self):
        cfg = validate({"n": 2, "resolution": 17,
                        "initial": {"kind": "ellipsoid", "params": {"radius": 1.3}}})
        field = build_initial(cfg)
        assert np.max(np.abs(field.s - 1.3)) < 1e-14

    def test_missing_file_datum(self):
        cfg = validate({"n": 1, "resolution": 64,
                        "initial": {"kind": "file",
                                    "params": {"path": "/nonexistent/x.json"}}})
        with pytest.raises(ConfigError, match="not found"):
            build_initial(cfg)


class TestSweepSpec:
    def base_spec(self):
        return {"base": flower_cfg(),
                "axes": [{"path": "initial.params.a.2", "values": [0.02, 0.05]},
                         {"path": "cfl", "values": [0.1, 0.2, 0.4]}]}

    def test_cell_order_first_axis_slowest(self):
        cells = sweep_cells(validate_sweep(self.base_spec()))
        assert len(cells) == 6
        amps = [ov["initial.params.a.2"] for ov, _ in cells]
        assert amps == [0.02, 0.02, 0.02, 0.05, 0.05, 0.05]
        assert [ov["cfl"] for ov, _ in cells][:3] == [0.1, 0.2, 0.4]
        assert cells[3][1]["initial"]["params"]["a"][2] == 0.05

    def test_cells_own_deep_copies_of_their_values(self):
        # a later axis writes into the object an earlier axis sets: each cell
        # writes into its own copy, and the spec keeps its values as given
        params = [{"c0": 1.0, "a": [0.0, 0.0, 0.02]}, {"c0": 1.0, "a": [0.0, 0.0, 0.04]}]
        spec = validate_sweep({"base": flower_cfg(), "axes": [
            {"path": "initial.params", "values": copy.deepcopy(params)},
            {"path": "initial.params.c0", "values": [1.0, 1.1]}]})
        cells = sweep_cells(spec)
        assert [(cfg["initial"]["params"]["a"][2], cfg["initial"]["params"]["c0"])
                for _, cfg in cells] == [(0.02, 1.0), (0.02, 1.1), (0.04, 1.0), (0.04, 1.1)]
        assert [ov["initial.params.c0"] for ov, _ in cells] == [1.0, 1.1, 1.0, 1.1]
        assert spec["axes"][0]["values"] == params
        # no axes: one cell, the base
        assert sweep_cells(validate_sweep({"base": flower_cfg()})) == [
            ({}, validate(flower_cfg()))]

    def test_bad_axis_path(self):
        spec = self.base_spec()
        spec["axes"][0]["path"] = "initial.params.q"
        with pytest.raises(ConfigError, match="no field"):
            validate_sweep(spec)

    def test_cell_cap(self):
        spec = self.base_spec()
        spec["max_cells"] = 4
        with pytest.raises(ConfigError, match="cap is 4"):
            validate_sweep(spec)

    @pytest.mark.parametrize("key", ["parallelism", "max_cells"])
    def test_bool_count_exits_2(self, tmp_path, key):
        spec = dict(self.base_spec(), **{key: True})
        with pytest.raises(ConfigError, match=key):
            validate_sweep(spec)
        assert main(["sweep", "--spec", write_cfg(tmp_path / "s.json", spec)]) == 2

    def test_set_by_path_list_index(self):
        cfg = flower_cfg()
        set_by_path(cfg, "initial.params.a.2", 0.07)
        assert cfg["initial"]["params"]["a"][2] == 0.07
        with pytest.raises(ConfigError, match="bad list index"):
            set_by_path(cfg, "initial.params.a.9", 0.0)


class TestCLI:
    def run_dir(self, tmp_path, cfg, name="run"):
        cfg = dict(cfg, output=str(tmp_path / name))
        path = write_cfg(tmp_path / f"{name}.json", cfg)
        assert main(["evolve", "--config", path]) == 0
        return tmp_path / name

    @pytest.mark.parametrize("command", ["evolve", "oracle-compare"])
    def test_override_flags_set_their_fields_and_absent_ones_none(self, command):
        p = cli.build_parser()
        kept = {"renormalize": True, "cfl": 0.3}
        absent = p.parse_args([command, "--config", "c.json"])
        assert cli._apply_overrides(dict(kept), absent) == kept
        given = p.parse_args([command, "--config", "c.json", "--resolution", "33",
                              "--scheme", "heun", "--cfl", "0.1", "--t-end", "2",
                              "--snapshot-interval", "0.5", "--seed", "4", "--output", "o",
                              "--renormalize"])
        want = {"resolution": 33, "scheme": "heun", "cfl": 0.1, "t_end": 2.0,
                "snapshot_interval": 0.5, "seed": 4, "output": "o", "renormalize": True}
        assert cli._apply_overrides({"renormalize": False}, given) == want
        assert [field for field, _ in cli.OVERRIDE_FLAGS] == list(want)

    def test_validate_config(self, tmp_path):
        good = write_cfg(tmp_path / "good.json", flower_cfg())
        assert main(["validate-config", "--config", good]) == 0
        bad = write_cfg(tmp_path / "bad.json", flower_cfg(cfl=2.0))
        assert main(["validate-config", "--config", bad]) == 2
        ugly = tmp_path / "ugly.json"
        ugly.write_text("{not json")
        assert main(["validate-config", "--config", str(ugly)]) == 2

    @pytest.mark.parametrize("stops", [5, None, [["extinction_radius", 0.1]]])
    @pytest.mark.parametrize("command", ["validate-config", "evolve", "sweep"])
    def test_stops_not_an_object_exits_2(self, tmp_path, capsys, command, stops):
        cfg = flower_cfg(stops=stops, output=str(tmp_path / "o"))
        if command == "sweep":
            argv = ["sweep", "--spec", write_cfg(tmp_path / "s.json", {"base": cfg})]
        else:
            argv = [command, "--config", write_cfg(tmp_path / "c.json", cfg)]
        assert main(argv) == 2
        assert "'stops' must be an object" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_evolve_artifacts(self, tmp_path):
        out = self.run_dir(tmp_path, flower_cfg())
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["termination"] == "ReachedTEnd"
        assert meta["snapshot_count"] == 3
        snaps = sorted(os.listdir(out / "snapshots"))
        assert snaps == ["snap_000000.json", "snap_000001.json", "snap_000002.json"]
        # node-ordering contract: values[k] = s(2 pi k / N)
        doc = json.loads((out / "snapshots" / "snap_000000.json").read_text())
        th = 2.0 * np.pi * np.arange(64) / 64
        want = 1.0 + 0.05 * np.cos(3 * th)
        assert np.max(np.abs(np.asarray(doc["values"]) - want)) < 1e-15
        assert doc["config_hash"] == meta["config_hash"]
        rows, h = read_csv_rows(out / "series.csv")
        assert h == meta["config_hash"] and len(rows) == 3

    def test_evolve_override_flags(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", flower_cfg(output=str(tmp_path / "o")))
        assert main(["evolve", "--config", cfg, "--t-end", "0.01",
                     "--scheme", "heun"]) == 0
        meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
        assert meta["config"]["t_end"] == 0.01
        assert meta["config"]["scheme"] == "heun"

    @pytest.mark.parametrize("command", ["evolve", "oracle-compare"])
    def test_override_completes_config(self, tmp_path, command):
        # the flags are folded into the raw config before it is validated
        cfg = {"n": 1, "initial": RADIUS, "t_end": 0.02, "snapshot_interval": 0.01,
               "output": str(tmp_path / "o")}
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main([command, "--config", path, "--resolution", "64"]) == 0
        meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
        assert meta["config"]["resolution"] == 64

    @pytest.mark.parametrize("command", ["evolve", "oracle-compare"])
    def test_override_leaving_invalid_config_exits_2(self, tmp_path, command):
        cfg = {"n": 2, "initial": RADIUS, "t_end": 0.02, "output": str(tmp_path / "o")}
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main([command, "--config", path, "--resolution", "18"]) == 2
        assert not os.path.exists(tmp_path / "o")

    def test_sweep_cell_hashes_canonical_config(self, tmp_path):
        spec = {"base": flower_cfg(output=str(tmp_path / "sweep")),
                "axes": [{"path": "cfl", "values": [1]}]}
        assert main(["sweep", "--spec", write_cfg(tmp_path / "s.json", spec)]) == 0
        cell = json.loads((tmp_path / "sweep" / "cell_000" / "metadata.json").read_text())
        run = json.loads((self.run_dir(tmp_path, flower_cfg(cfl=1)) / "metadata.json")
                         .read_text())
        assert cell["config"]["cfl"] == 1.0 and isinstance(cell["config"]["cfl"], float)
        assert cell["config_hash"] == run["config_hash"]

    def test_deterministic_across_output_dirs(self, tmp_path):
        a = self.run_dir(tmp_path, flower_cfg(), "a")
        b = self.run_dir(tmp_path, flower_cfg(), "b")
        for rel in ("series.csv", "snapshots/snap_000002.json"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_diagnose_clean_run(self, tmp_path):
        cfg = flower_cfg(t_end=0.02, snapshot_interval=0.0025)
        cfg["initial"]["params"]["a"] = [0.0, 0.0, 0.02]
        out = self.run_dir(tmp_path, cfg)
        assert main(["diagnose", "--trajectory", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        names = {c["name"] for c in rep["checks"]}
        assert "tchebychev_identity" in names
        assert all(c["verdict"] != "Violated" for c in rep["checks"])
        assert os.path.exists(out / "invariants.json")
        # an unreachable decay target must flip the exit code
        assert main(["diagnose", "--trajectory", str(out),
                     "--decay-ratio", "1e-6"]) == 1

    @pytest.fixture
    def unit_sphere_run(self, tmp_path):
        # the n=2 unit sphere, a bitwise fixed point of the flow, at M=17
        return self.run_dir(tmp_path, {"n": 2, "resolution": 17, "initial": RADIUS,
                                       "t_end": 0.01, "snapshot_interval": 0.0025})

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP direction 15: on the n=2 unit sphere tchebychev_identity reads "
        "Violated (margin -0.950) against sup|T|^2 at the grid's truncation floor"))
    def test_diagnose_n2_unit_sphere_exits_0(self, unit_sphere_run):
        assert main(["diagnose", "--trajectory", str(unit_sphere_run)]) == 0

    def test_diagnose_decay_ratio_zero(self, tmp_path):
        out = self.run_dir(tmp_path, flower_cfg())
        assert main(["diagnose", "--trajectory", str(out), "--decay-ratio", "0"]) == 1
        rep = json.loads((out / "report.json").read_text())
        decay = [c for c in rep["checks"] if c["name"] == "tchebychev_decay"]
        assert decay[0]["margins"] == [-rep["summary"]["supT2_final"]]

    @pytest.mark.parametrize("ratio", ["nan", "-0.5", "inf"])
    def test_diagnose_rejects_bad_decay_ratio(self, tmp_path, ratio):
        out = self.run_dir(tmp_path, flower_cfg())
        assert main(["diagnose", "--trajectory", str(out), f"--decay-ratio={ratio}"]) == 2
        assert not os.path.exists(out / "report.json")

    def test_diagnose_rejects_corrupted_snapshot(self, tmp_path):
        out = self.run_dir(tmp_path, flower_cfg())
        snap = out / "snapshots" / "snap_000001.json"
        doc = json.loads(snap.read_text())
        doc["values"][5] = -0.3
        snap.write_text(json.dumps(doc))
        assert main(["diagnose", "--trajectory", str(out)]) == 2

    def test_diagnose_rejects_tampered_metadata(self, tmp_path):
        out = self.run_dir(tmp_path, flower_cfg())
        meta_path = out / "metadata.json"
        meta = json.loads(meta_path.read_text())
        meta["config"]["cfl"] = 0.19  # config echo no longer matches its hash
        meta_path.write_text(json.dumps(meta))
        assert main(["diagnose", "--trajectory", str(out)]) == 2

    def test_guard_termination_exit_code(self, tmp_path):
        cfg = {"n": 1, "resolution": 64,
               "initial": {"kind": "ellipsoid", "params": {"radius": 0.5}},
               "t_end": 1.0, "snapshot_interval": 0.05,
               "stops": {"extinction_radius": 1e-8, "convexity_floor": 0.3},
               "output": str(tmp_path / "guard")}
        path = write_cfg(tmp_path / "guard.json", cfg)
        assert main(["evolve", "--config", path]) == 3
        meta = json.loads((tmp_path / "guard" / "metadata.json").read_text())
        assert meta["termination"] == "ConvexityLost"
        assert meta["snapshot_count"] >= 2  # partial outputs still written

    def test_oracle_compare(self, tmp_path):
        cfg = {"n": 1, "resolution": 64,
               "initial": {"kind": "ellipsoid",
                           "params": {"matrix": [[4.0, 0.0], [0.0, 1.0]]}},
               "t_end": 0.1, "snapshot_interval": 0.05,
               "output": str(tmp_path / "ell")}
        path = write_cfg(tmp_path / "ell.json", cfg)
        assert main(["oracle-compare", "--config", path,
                     "--tolerance", "1e-6"]) == 0
        rows, _ = read_csv_rows(tmp_path / "ell" / "oracle_compare.csv")
        assert rows[0]["factor_exact"] == 1.0
        assert all(r["max_rel_err_support"] <= 1e-6 for r in rows)
        # same run against an impossible tolerance
        assert main(["oracle-compare", "--config", path,
                     "--tolerance", "1e-300"]) == 1

    def test_oracle_compare_needs_ellipsoid(self, tmp_path):
        path = write_cfg(tmp_path / "f.json",
                         flower_cfg(output=str(tmp_path / "f")))
        assert main(["oracle-compare", "--config", path]) == 2

    def test_sweep_isolates_crashed_cell(self, tmp_path):
        seed_dir = self.run_dir(tmp_path, flower_cfg(), "seed")
        good = str(seed_dir / "snapshots" / "snap_000000.json")
        spec = {"base": {"n": 1, "resolution": 64,
                         "initial": {"kind": "file", "params": {"path": good}},
                         "t_end": 0.02, "snapshot_interval": 0.01,
                         "output": str(tmp_path / "sweep")},
                "axes": [{"path": "initial.params.path",
                          "values": [good, str(tmp_path / "missing.json")]}],
                "parallelism": 2}
        path = write_cfg(tmp_path / "sweep.json", spec)
        assert main(["sweep", "--spec", path]) == 1
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("initial.params.path,")
        assert len(lines) == 3
        assert "completed" in lines[1] and "error" in lines[2]
        # the healthy cell still produced its artifacts
        assert os.path.exists(tmp_path / "sweep" / "cell_000" / "metadata.json")
        assert not os.path.exists(tmp_path / "sweep" / "cell_001" / "metadata.json")

    def test_sweep_csv_round_trips_list_values(self, tmp_path):
        values = [[0.0, 0.05], [0.02]]
        spec = {"base": flower_cfg(output=str(tmp_path / "sweep")),
                "axes": [{"path": "initial.params.a", "values": values}],
                "parallelism": 2}
        assert main(["sweep", "--spec", write_cfg(tmp_path / "s.json", spec)]) == 0
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert len(rows) == len(values)
        for row, want in zip(rows, values):
            assert list(row) == reader.fieldnames
            assert None not in row.values()
            assert row["status"] == "completed"
            assert json.loads(row["initial.params.a"]) == want

    def cell_sweep(self, tmp_path, name, parallelism):
        # four flowers, the second not convex: its cell crashes and is recorded
        spec = {"base": flower_cfg(output=str(tmp_path / name)),
                "axes": [{"path": "initial.params.a",
                          "values": [[0.0, 0.0, 0.05], [0.0, 0.9], [0.03], [0.0, 0.02]]}],
                "parallelism": parallelism}
        path = write_cfg(tmp_path / f"{name}.json", spec)
        assert main(["sweep", "--spec", path]) == 1
        return tmp_path / name

    def test_sweep_runs_cells_on_the_calling_thread(self, tmp_path, monkeypatch):
        calls = []
        real = cli._sweep_cell

        def recording(idx, *args):
            calls.append((threading.get_ident(), idx))
            return real(idx, *args)

        monkeypatch.setattr(cli, "_sweep_cell", recording)
        self.cell_sweep(tmp_path, "sweep", 4)
        assert calls == [(threading.get_ident(), i) for i in range(4)]

    def test_sweep_artifacts_do_not_depend_on_parallelism(self, tmp_path):
        one = self.cell_sweep(tmp_path, "one", 1)
        four = self.cell_sweep(tmp_path, "four", 4)
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(four) for p in four.rglob("*") if p.is_file())
        assert "sweep.csv" in map(str, files) and not (one / "cell_001").exists()
        assert sum(p.name == "metadata.json" for p in files) == 3
        for rel in files:
            a, b = (one / rel).read_bytes(), (four / rel).read_bytes()
            if rel.name == "metadata.json":
                a, b = json.loads(a), json.loads(b)
                for meta in (a, b):
                    del meta["wall_time_s"], meta["config"]["output"]
            assert a == b, rel
        rows = (one / "sweep.csv").read_text().splitlines()
        assert [r.rsplit(",", 1)[-1].startswith("error: ") for r in rows[1:]] == [
            False, True, False, False]

    @pytest.mark.parametrize("command, artifact, key, value", [
        ("diagnose", "snapshot", "values", [[1.0, 1.0], [1.0]]),
        ("diagnose", "snapshot", "values", ["x"] * 64),
        ("diagnose", "snapshot", "time", "soon"),
        ("diagnose", "snapshot", "time", None),
        ("diagnose", "metadata", "renorm_factors", ["a", "b", "c"]),
        ("diagnose", "metadata", "renorm_factors", 5),
        ("diagnose", "snapshot", None, 3),
        ("diagnose", "metadata", None, 3),
        ("evolve", "snapshot", "values", [[1.0, 1.0], [1.0]]),
        ("validate-config", "snapshot", "time", [0.0]),
        ("diagnose", "snapshot", "n", True),
        ("diagnose", "snapshot", "resolution", 64.9),
        ("diagnose", "snapshot", "resolution", 128),
        ("diagnose", "metadata", "termination", 123),
        ("diagnose", "metadata", "termination", "Finished"),
        ("diagnose", "metadata", "termination", None),
        ("diagnose", "metadata", "step_count", -1),
        ("diagnose", "metadata", "step_count", True),
        ("diagnose", "metadata", "step_count", 7.0),
        ("diagnose", "metadata", "step_count", "7"),
        ("diagnose", "snapshot", "config_hash", None),
    ], ids=["ragged-values", "text-values", "text-time", "null-time",
            "text-renorm-factors", "scalar-renorm-factors", "number-snapshot",
            "number-metadata", "evolve-from-ragged-file",
            "validate-list-time-file", "bool-n", "float-resolution",
            "resolution-not-values", "number-termination", "unknown-termination",
            "null-termination", "negative-step-count", "bool-step-count",
            "float-step-count", "text-step-count", "null-snapshot-hash"])
    def test_corrupt_artifact_exits_2(self, tmp_path, command, artifact, key, value):
        out = self.run_dir(tmp_path, flower_cfg())
        path = out / ("metadata.json" if artifact == "metadata"
                      else "snapshots/snap_000000.json")
        doc = json.loads(path.read_text())
        if key is None:
            doc = value
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        if command == "diagnose":
            argv = ["diagnose", "--trajectory", str(out)]
        else:
            cfg = flower_cfg(output=str(tmp_path / "from_file"),
                             initial={"kind": "file", "params": {"path": str(path)}})
            argv = [command, "--config", write_cfg(tmp_path / "file.json", cfg)]
        assert main(argv) == 2

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -1.0, True, "1.0", *[
        pytest.param(("all", v), id=f"all-{json.dumps(v)}")
        for v in ([], 0, False, "", {}, None, "111", [True] * 3, ["1.0"] * 3)]])
    def test_bad_renorm_factor_exits_2(self, tmp_path, factor):
        # check_c0 divides each anchor by its factor. ("all", v) replaces the
        # whole list: only a missing key may default to factors of 1.0, and
        # on this renormalized run they would make diagnose report Violated
        out = self.run_dir(tmp_path, flower_cfg(renormalize=True))
        assert main(["diagnose", "--trajectory", str(out)]) == 0
        path = out / "metadata.json"
        doc = json.loads(path.read_text())
        assert len(doc["renorm_factors"]) == 3 and doc["renorm_factors"][0] != 1.0
        if isinstance(factor, tuple):
            doc["renorm_factors"] = factor[1]
        else:
            doc["renorm_factors"][0] = factor
        path.write_text(json.dumps(doc))
        assert main(["diagnose", "--trajectory", str(out)]) == 2

    @pytest.mark.parametrize("key, value", [("time", True), ("time", "0.25"),
                                            ("values", True), ("values", "1.05")],
                             ids=["bool-time", "text-time-number", "bool-value",
                                  "text-value-number"])
    def test_snapshot_non_number_read_as_float_exits_2(self, tmp_path, key, value):
        # float() and np.asarray read true as 1.0 and "0.25" as 0.25; only JSON
        # numbers may pass. On the last snapshot the times still increase
        out = self.run_dir(tmp_path, flower_cfg())
        path = out / "snapshots" / "snap_000002.json"
        doc = json.loads(path.read_text())
        if key == "time":
            doc["time"] = value
        else:
            doc["values"][5] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="non-numeric time|not JSON numbers"):
            iomod.load_snapshot(str(path))
        assert main(["diagnose", "--trajectory", str(out)]) == 2

    def test_nested_snapshot_values_must_be_json_numbers(self, tmp_path):
        # a face value true deep in an n=2 snapshot is refused; integers are numbers
        path = tmp_path / "snap.json"
        values = np.ones((6, 17, 17), dtype=int).tolist()
        path.write_text(json.dumps({"n": 2, "resolution": 17, "time": 0, "values": values}))
        t, field, _ = iomod.load_snapshot(str(path))
        assert t == 0.0 and isinstance(t, float) and np.all(field.s == 1.0)
        values[3][4][5] = True
        path.write_text(json.dumps({"n": 2, "resolution": 17, "time": 0, "values": values}))
        with pytest.raises(ConfigError, match="not JSON numbers"):
            iomod.load_snapshot(str(path))

    @pytest.mark.parametrize("bad", [123, [1, 2], True, {"h": "x"}],
                             ids=["int", "list", "bool", "object"])
    def test_snapshot_hash_of_the_wrong_type_exits_2(self, tmp_path, bad):
        # a standalone datum's hash is compared with nothing, so its type is
        # the only check it gets: a string, or null
        out = self.run_dir(tmp_path, flower_cfg())
        snap = out / "snapshots" / "snap_000000.json"
        snap.write_text(json.dumps(dict(json.loads(snap.read_text()), config_hash=bad)))
        with pytest.raises(ConfigError, match="config_hash must be a string or null"):
            iomod.load_snapshot(str(snap))
        cfg = flower_cfg(output=str(tmp_path / "from_file"),
                         initial={"kind": "file", "params": {"path": str(snap)}})
        path = write_cfg(tmp_path / "f.json", cfg)
        assert main(["validate-config", "--config", path]) == 2
        assert main(["evolve", "--config", path]) == 2
        assert main(["diagnose", "--trajectory", str(out)]) == 2

    def test_every_termination_loads_and_a_datum_file_may_have_a_null_hash(self, tmp_path):
        out = self.run_dir(tmp_path, flower_cfg())
        path = out / "metadata.json"
        doc = json.loads(path.read_text())
        for termination in TERMINATIONS:
            path.write_text(json.dumps(dict(doc, termination=termination, step_count=0)))
            traj, _ = iomod.load_trajectory(str(out))
            assert traj.termination == termination and traj.step_count == 0
        # null is the hash of a standalone initial datum, not of a run's snapshot
        snap = out / "snapshots" / "snap_000000.json"
        snap.write_text(json.dumps(dict(json.loads(snap.read_text()), config_hash=None)))
        with pytest.raises(ConfigError, match="hash does not match"):
            iomod.load_trajectory(str(out))
        cfg = flower_cfg(output=str(tmp_path / "from_file"),
                         initial={"kind": "file", "params": {"path": str(snap)}})
        assert main(["validate-config", "--config", write_cfg(tmp_path / "f.json", cfg)]) == 0

    def test_missing_renorm_factors_default_to_one(self, tmp_path):
        out = self.run_dir(tmp_path, flower_cfg())
        path = out / "metadata.json"
        doc = json.loads(path.read_text())
        assert doc.pop("renorm_factors") == [1.0, 1.0, 1.0]
        path.write_text(json.dumps(doc))
        assert iomod.load_trajectory(str(out))[0].renorm_factors == [1.0, 1.0, 1.0]
        assert main(["diagnose", "--trajectory", str(out)]) == 0

    def test_mismatched_header_builds_no_grid(self, tmp_path, monkeypatch):
        out = self.run_dir(tmp_path, flower_cfg())
        path = out / "snapshots" / "snap_000000.json"
        doc = json.loads(path.read_text())
        doc["resolution"] = 128   # the file holds 64 values
        path.write_text(json.dumps(doc))
        built = []
        monkeypatch.setattr(iomod, "make_grid", lambda *a: built.append(a))
        with pytest.raises(ConfigError, match="shape"):
            iomod.load_snapshot(str(path))
        assert built == []

    @pytest.mark.parametrize("n, resolution", [(1, 16), (2, 17)])
    def test_snapshot_bytes_match_json_dump(self, tmp_path, n, resolution):
        grid = make_grid(n, resolution)
        values = np.resize([0.1, 1.0 / 3.0, 5e-324, 1e16], grid.shape)
        field = SupportField(grid, s=values)
        path = tmp_path / "snap.json"
        iomod.write_snapshot(path, field, 0.1, "abc")
        doc = {"n": n, "resolution": resolution, "time": 0.1,
               "values": field.s.tolist(), "config_hash": "abc"}
        want = io.StringIO()
        json.dump(doc, want)
        want.write("\n")
        assert path.read_text() == want.getvalue()
        assert {5e-324, 1e16} <= set(field.s.reshape(-1).tolist())

    def test_json_and_csv_writers_keep_their_bytes(self, tmp_path):
        # write_json encodes once: the bytes of json.dump's chunks; write_csv's
        # floats are repr, "nan" for any NaN, as with the numpy isnan test
        doc = {"b": [0.1, float("nan"), None, {"z": 1e-320, "a": True}], "a": "x,\"y"}
        iomod.write_json(tmp_path / "doc.json", doc)
        want = io.StringIO()
        json.dump(doc, want, indent=1, sort_keys=True)
        assert (tmp_path / "doc.json").read_text() == want.getvalue() + "\n"
        floats = [0.1, float("nan"), -float("nan"), float("inf"), -0.0, 5e-324,
                  np.float64(1.0 / 3.0), np.float32(0.1), np.float64("nan")]
        cols = [f"c{k}" for k in range(len(floats))] + ["s"]
        iomod.write_csv(tmp_path / "t.csv", cols, [dict(zip(cols, floats + ["a,b"]))])
        want = ["nan" if np.isnan(v) else repr(float(v)) for v in floats] + ['"a,b"']
        assert (tmp_path / "t.csv").read_text().splitlines()[1] == ",".join(want)

    @pytest.mark.parametrize("initial, path, value", NON_NUMBERS,
                             ids=[f"{path}={v if isinstance(v, bool) else '10**400'}"
                                  for _, path, v in NON_NUMBERS])
    def test_non_number_exits_2(self, tmp_path, initial, path, value):
        cfg = validate(flower_cfg(**({"initial": initial} if initial else {})))
        assert main(["validate-config", "--config", write_cfg(tmp_path / "ok.json", cfg)]) == 0
        set_by_path(cfg, path, value)
        bad = write_cfg(tmp_path / "bad.json", cfg)
        assert main(["validate-config", "--config", bad]) == 2

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CENTROFLOW_OUTPUT_ROOT", str(tmp_path))
        assert iomod.resolve_outdir("rel") == str(tmp_path / "rel")
        assert iomod.resolve_outdir("/abs/x") == "/abs/x"
