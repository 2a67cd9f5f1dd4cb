"""tools/kernel_ab.py: the same tree on both sides agrees bit for bit."""

import pathlib
import subprocess
import sys

import numpy as np

from conftest import load_tool

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_ab.py"


def test_same_tree_on_both_sides_has_no_differences():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(TOOL), src, src, "--M", "17", "--N", "256",
                           "--rounds", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    # 34 outputs at M=17 (the three extends, d1 and d2 along both chart axes,
    # the spectrum's determinant and eigenpair, the graph jet, the embedding,
    # its chart jet and the stack's 9 tensor fields among them) and 30 at
    # N=256 (the spectrum, the graph jet, the embedding, its chart jet, the 9
    # tensor fields and the block's refine_max angle and value and value_at
    # among them), each with 5 from one block of bodies; and the arrays of a
    # fresh grid, 19 on the cubed sphere and 14 on the circle
    assert "outputs: 97 compared, 0 difference(s)" in done.stdout
    assert "M=17/grid.tables" in done.stdout and "N=256/grid.tables" in done.stdout
    assert "M=17/step.rk4" in done.stdout and "N=256/compute_invariants" in done.stdout
    assert "M=17/spectrum" in done.stdout and "N=256/spectrum" in done.stdout
    assert "M=17/extend.vec3" in done.stdout and "N=256/compute_invariants.block" in done.stdout
    assert "M=17/d1" in done.stdout and "M=17/d2" in done.stdout
    assert "M=17/chart_jet" in done.stdout and "N=256/chart_jet" in done.stdout
    assert "M=17/embed" in done.stdout and "N=256/embed" in done.stdout
    assert "M=17/graph_jet" in done.stdout and "N=256/graph_jet" in done.stdout
    assert "N=256/refine_max.block" in done.stdout and "N=256/value_at.block" in done.stdout


def test_compare_reports_one_ulp_and_a_missing_output():
    tool = load_tool("kernel_ab")
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
    tool = load_tool("kernel_ab")
    a = {f"N=256/{k}": np.array([0.5, 3.0, 250.0]) for k in tool.NUMERIC}
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
