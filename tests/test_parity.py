"""tools/parity.py: refuses a tree without the package before anything runs, finds
no difference between a tree and itself, and reports what differs by its rule."""

import pathlib

import numpy as np

from conftest import load_tool

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def test_a_tree_without_the_package_exits_2_before_any_command(tmp_path, capsys):
    tool = load_tool("parity")
    assert tool.main([str(tmp_path), str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and str(tmp_path) in err


def test_a_tree_without_the_package_exits_2_before_any_kernel_worker(tmp_path, monkeypatch,
                                                                     capsys):
    tool = load_tool("parity")

    def started(*args):
        raise AssertionError("started before both trees were checked")

    monkeypatch.setattr(tool, "Side", started)
    monkeypatch.setattr(tool, "run_tree", started)
    assert tool.main([SRC, str(tmp_path), "--M", "17", "--N", "256", "--rounds", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and str(tmp_path) in err


def test_a_checkout_root_is_not_its_src():
    tool = load_tool("parity")
    assert tool.imports_from(SRC, str(ROOT / "tests"))
    assert not tool.imports_from(str(ROOT), str(ROOT / "tests"))


def test_same_tree_on_both_sides_has_no_differences(capsys):
    tool = load_tool("parity")
    assert tool.check_kernels(SRC, SRC, [17], [256], 1) == 0
    out = capsys.readouterr().out
    # 34 outputs at M=17 (the three extends, d1 and d2 along both chart axes,
    # the spectrum's determinant and eigenpair, the graph jet, the embedding,
    # its chart jet and the stack's 9 tensor fields among them) and 30 at
    # N=256 (the spectrum, the graph jet, the embedding, its chart jet, the 9
    # tensor fields and the block's refine_max angle and value and value_at
    # among them), each with 5 from one block of bodies; and the arrays of a
    # fresh grid, 19 on the cubed sphere and 14 on the circle
    assert "outputs: 97 compared, 0 difference(s)" in out
    assert "M=17/grid.tables" in out and "N=256/grid.tables" in out
    assert "M=17/step.rk4" in out and "N=256/compute_invariants" in out
    assert "M=17/spectrum" in out and "N=256/spectrum" in out
    assert "M=17/extend.vec3" in out and "N=256/compute_invariants.block" in out
    assert "M=17/d1" in out and "M=17/d2" in out
    assert "M=17/chart_jet" in out and "N=256/chart_jet" in out
    assert "M=17/embed" in out and "N=256/embed" in out
    assert "M=17/graph_jet" in out and "N=256/graph_jet" in out
    assert "N=256/refine_max.block" in out and "N=256/value_at.block" in out


def test_compare_reports_one_ulp_and_a_missing_output():
    tool = load_tool("parity")
    a = {"x": np.linspace(1.0, 2.0, 5), "y": np.asarray(0.5), "z": np.asarray(0.5)}
    b = {k: v.copy() for k, v in a.items()}
    assert tool.compare(a, b) == []
    b["x"][3] = np.nextafter(b["x"][3], 3.0)
    b["y"] = np.asarray(np.nextafter(0.5, 0.0))
    del b["z"]
    lines = tool.compare(a, b)
    assert len(lines) == 3
    assert lines[0].startswith("[diff] x: 1 of 5 values differ, largest |a - b| 2.2")
    assert lines[1].startswith("[diff] y: 1 of 1 values differ")
    assert lines[2] == "[diff] z: only on the base side"


def test_compare_holds_the_circle_max_rows_to_the_numeric_rule():
    tool = load_tool("parity")
    a = {f"N=256/{k}": np.array([0.5, 3.0, 250.0]) for k in tool.NUMERIC_KERNELS}
    b = {k: v.copy() for k, v in a.items()}
    theta, value, interp = sorted(a)
    b[theta][2] *= 1 + 5e-10          # within |a - b| <= 1e-9 max(|a|, 1)
    b[value][0] += 2e-9               # beyond it: |a| < 1 counts as 1
    lines = tool.compare(a, b)
    assert lines == [f"[numeric] {theta}: largest |a - b| / max(|a|, 1) 5e-10",
                     f"[diff] {value}: largest |a - b| / max(|a|, 1) 2e-09"]
    assert interp.endswith("value_at.block")
    # an ulp on any other output is still a difference
    b = {k: v.copy() for k, v in a.items()}
    b["N=256/compute_invariants.norm_T2"] = np.nextafter(np.ones(2), 2.0)
    a["N=256/compute_invariants.norm_T2"] = np.ones(2)
    assert tool.compare(a, b)[0].startswith("[diff] N=256/compute_invariants.norm_T2")


def test_a_traceback_on_either_side_is_a_difference(capsys):
    tool = load_tool("parity")
    broken = "Traceback (most recent call last):\n  ...\nRuntimeError: broken tree\n"
    ok = [(("evolve", "--config", "c.json"), 0, "evolve: 3 snapshots\n", ""),
          (("diagnose", "--trajectory", "runs/c"), 1, "diagnose: 0.5\n", "")]
    diff = tool.Diff()
    tool.compare_commands(ok, ok, diff)
    assert diff.problems == []
    # both sides crash the same way: exit codes and standard output agree
    crash = [(argv, 1, "", broken) for argv, *_ in ok]
    tool.compare_commands(crash, crash, diff)
    assert len(diff.problems) == 4
    assert diff.problems[0] == ("evolve --config c.json: traceback on the base side: "
                                "RuntimeError: broken tree")
    assert diff.problems[1].startswith("evolve --config c.json: traceback on the head side")
    # one side only, and a float in standard output beyond the numeric rule
    diff = tool.Diff()
    tool.compare_commands(ok, [ok[0], (ok[1][0], 1, "diagnose: 0.5000001\n", broken)], diff)
    assert diff.problems == [
        "diagnose --trajectory runs/c: stdout row 0 col 1: 0.5 vs 0.5000001",
        "diagnose --trajectory runs/c: traceback on the head side: RuntimeError: broken tree"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[ok] exit 0/0  centroflow evolve --config c.json"
    assert out[-1] == "[DIFFERS] exit 1/1  centroflow diagnose --trajectory runs/c"
