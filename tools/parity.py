"""Compare two centroflow source trees' artifacts and kernels in one pass.

    python tools/parity.py BASE_SRC HEAD_SRC [--M 17 33 65] [--N 256 1024]
                           [--rounds 15]

BASE_SRC and HEAD_SRC are directories that hold the `centroflow` package
(the `src/` of two checkouts). Before any command or worker starts, each tree
must provide the package itself (not an installed copy, nor a package further
down, as in a checkout root given instead of its src/), or the tool exits 2.
Every subprocess runs with its tree on PYTHONPATH, without
CENTROFLOW_OUTPUT_ROOT, in a temporary working directory.

Both parts judge floats by one numeric rule, |a - b| <= 1e-9 * max(|a|, 1).

Artifacts. The same 33 CLI commands run against each tree, and every file
they write is compared in its stability class:

  byte-identical  snapshots, metadata.json (without wall_time_s and the
                  config's output path) and oracle_compare.csv: the flow
                  and its exact-law comparison;
  numeric         series.csv, invariants.json, report.json and sweep.csv:
                  same structure, strings and verdicts, every float by the
                  numeric rule. Diagnostics may move at round-off when the
                  invariant arithmetic is reordered.

Exit codes and standard output (by the numeric rule) must match too, and a
traceback on standard error is a difference on either side.

Kernels. Each tree runs one worker process. It builds one fixed convex body
per size (per-face M on the cubed sphere, N on the circle) and dumps the
outputs of the kernels in `_kernels`, component-first as the package returns
them: the halo extends and d1/d2 stencils (cubed sphere), the graph jet, the
embedding and its chart jet, grid.spectrum of the chart Hessian, stable_dt,
one RK4 and one Heun step, compute_invariants' area, norm_T2 and TENSORS for
that body and area, norm_T2 and residuals for one block of bodies (as
diagnostics.SeriesBundle reduces them, BLOCK_NODES // nodes bodies), the
circle's refine_max and value_at on that block's norm_T2, and every ndarray
a freshly constructed grid holds (grid.tables.<attribute>[.<entry>], timed
as the constructor, not the shared make_grid). Every output is compared bit
for bit, same shape and same float64 bytes, but for the three
NUMERIC_KERNELS rows: they feed only numeric-class artifacts (supT2, supC2
and the |T|^2 right side), so they are held to the numeric rule and print
their largest relative deviation.

With --rounds R > 0 the two workers then time each kernel per call in R
interleaved rounds: both sides back to back per kernel, the side that goes
first alternating from kernel to kernel and from round to round. A worker
times a batch of calls sized once to take about BATCH_S. The table gives each
side's median per-call time and their ratio. graph_hessian is timed as the
input of spectrum and stable_dt; stable_dt includes the spectrum it reads.

The first line names the domain in which the byte-identical class holds:
numpy's version, the core count, and numpy's CPU baseline and enabled
dispatch targets. Exits 0 when both parts match, 1 on any difference, and 2
when a tree does not provide the package or a kernel worker dies. Runs on
numpy and the standard library only.
"""

import argparse
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

REL_TOL = 1e-9
BATCH_S = 0.02

# artifacts compared by the numeric rule; every other file byte for byte
NUMERIC = {"series.csv", "invariants.json", "report.json", "sweep.csv"}
# kernel outputs compared by the numeric rule; every other output bit for bit
NUMERIC_KERNELS = ("refine_max.block.theta", "refine_max.block.value", "value_at.block")

# InvariantFields tensors dumped besides area and norm_T2 (the frame is the
# embedding and its first derivatives, dumped as embed and chart_jet.X_i)
TENSORS = ("g", "g_inv", "gamma_hat", "gamma", "C_mixed", "C_low", "T_low", "T_up",
           "curvature")


def deviation(a, b):
    """The numeric rule's largest |a - b| / max(|a|, 1) over floats or arrays; a and b
    are equal by the rule when it is at most REL_TOL."""
    return np.max(np.abs(np.subtract(a, b)) / np.maximum(np.abs(a), 1.0))


def in_tree(src, cwd):
    """Keyword arguments of every subprocess of the tree src: src on PYTHONPATH,
    CENTROFLOW_OUTPUT_ROOT removed and cwd (a temporary directory) to work in."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("CENTROFLOW_OUTPUT_ROOT", None)
    return {"env": env, "cwd": cwd}


def imports_from(src, cwd):
    """Whether `import centroflow`, run in cwd with src on PYTHONPATH, loads
    src/centroflow (not an installed copy, nor a package further down)."""
    proc = subprocess.run([sys.executable, "-c", "import centroflow; print(centroflow.__file__)"],
                          capture_output=True, text=True, **in_tree(src, cwd))
    package = os.path.dirname(os.path.abspath(proc.stdout.strip()))
    return proc.returncode == 0 and package == os.path.join(os.path.abspath(src), "centroflow")


def stability_domain():
    """numpy's version, the core count and numpy's CPU baseline and enabled dispatch
    targets: what a byte-identical rerun depends on."""
    from numpy._core import _multiarray_umath as umath

    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"numpy {np.__version__}, {os.cpu_count()} cores, CPU baseline "
            f"{' '.join(umath.__cpu_baseline__)}, dispatch "
            f"{' '.join(enabled) or 'none'}")


# ---------- artifacts ----------

FOURIER = {"n": 1, "resolution": 128,
           "initial": {"kind": "fourier",
                       "params": {"c0": 1.0, "a": [0.0, 0.0, 0.05], "b": [0.0, 0.02]}},
           "t_end": 0.05, "snapshot_interval": 0.01, "output": "runs/fourier"}

# round circles stopped by each radius: classify's termination branches and
# exact-law growth margins at round-off
SHRINK = {"n": 1, "resolution": 64,
          "initial": {"kind": "ellipsoid", "params": {"radius": 0.5}},
          "stops": {"extinction_radius": 0.3},
          "t_end": 0.5, "snapshot_interval": 0.1, "output": "runs/shrink1"}

# a shrinking circle whose curvature radius crosses a raised convexity floor:
# a guard-stopped run (exit 3) with partial outputs
GUARD = dict(SHRINK, stops={"extinction_radius": 1e-8, "convexity_floor": 0.3},
             t_end=1.0, output="runs/guard1")

INPUTS = {
    "fourier.json": FOURIER,
    "ellipsoid2.json": {
        "n": 2, "resolution": 17,
        "initial": {"kind": "ellipsoid",
                    "params": {"matrix": [[1.2, 0.1, 0.0], [0.1, 1.0, 0.05],
                                          [0.0, 0.05, 0.9]]}},
        "t_end": 0.01, "snapshot_interval": 0.0025, "output": "runs/ellipsoid2"},
    "file2.json": {
        "n": 2, "resolution": 17,
        "initial": {"kind": "file", "params": {"path": "body17.json"}},
        "t_end": 0.01, "snapshot_interval": 0.0025, "output": "runs/file2"},
    # the resolution of the surface-evolve benchmark workload
    "file33.json": {
        "n": 2, "resolution": 33,
        "initial": {"kind": "file", "params": {"path": "body33.json"}},
        "t_end": 0.005, "snapshot_interval": 0.0025, "output": "runs/file33"},
    # the resolution of the surface-dense benchmark workload, where the
    # invariant stack is largest: three snapshots, a few RK4 steps apart
    "file65.json": {
        "n": 2, "resolution": 65,
        "initial": {"kind": "file", "params": {"path": "body65.json"}},
        "t_end": 2.4e-4, "snapshot_interval": 1.2e-4, "output": "runs/file65"},
    # the curve-sweep benchmark's resolution with 26 snapshots: SeriesBundle
    # reduces them in two blocks (16 snapshots at N=256, then 10)
    "blocks1.json": dict(FOURIER, resolution=256, t_end=0.125, snapshot_interval=0.005,
                         output="runs/blocks1"),
    # two snapshots: the diagnostics without the |T|^2 right sides
    "two1.json": dict(FOURIER, t_end=0.01, snapshot_interval=0.01, output="runs/two1"),
    "oracle1.json": {
        "n": 1, "resolution": 128,
        "initial": {"kind": "ellipsoid", "params": {"matrix": [[1.69, 0.2], [0.2, 1.0]]}},
        "t_end": 0.1, "snapshot_interval": 0.025, "output": "runs/oracle1"},
    "oracle2.json": {
        "n": 2, "resolution": 17,
        "initial": {"kind": "ellipsoid",
                    "params": {"matrix": [[1.3, 0.0, 0.1], [0.0, 1.0, 0.0],
                                          [0.1, 0.0, 0.8]]}},
        "t_end": 0.005, "snapshot_interval": 0.0025, "output": "runs/oracle2"},
    "radius2.json": {
        "n": 2, "resolution": 17,
        "initial": {"kind": "ellipsoid", "params": {"radius": 1.2}},
        "t_end": 0.005, "snapshot_interval": 0.0025, "output": "runs/radius2"},
    "sweep_c0.json": {
        "base": dict(FOURIER, output="runs/sweep_c0"),
        "axes": [{"path": "initial.params.c0", "values": [0.9, 1.0, 1.2]}],
        "parallelism": 2},
    "sweep_grid.json": {
        "base": {"n": 1, "resolution": 64,
                 "initial": {"kind": "ellipsoid", "params": {"radius": 1.0}},
                 "t_end": 0.05, "snapshot_interval": 0.025, "output": "runs/sweep_grid"},
        "axes": [{"path": "initial.params.radius", "values": [0.8, 1.0, 1.3]},
                 {"path": "scheme", "values": ["rk4", "heun"]}],
        "parallelism": 2},
    # a serial sweep whose second cell is not convex: the bytes of its
    # "error: ..." row in sweep.csv are compared too
    "sweep_crash.json": {
        "base": dict(FOURIER, output="runs/sweep_crash"),
        "axes": [{"path": "initial.params.a", "values": [[0.0, 0.0, 0.05], [0.0, 0.9]]}],
        "parallelism": 1},
    "nonconvex.json": dict(FOURIER, initial={"kind": "fourier",
                                             "params": {"c0": 1.0, "a": [0.0, 0.9]}}),
    "shrink1.json": SHRINK,
    "guard1.json": GUARD,
    "expand1.json": dict(SHRINK, initial={"kind": "ellipsoid", "params": {"radius": 2.0}},
                         stops={"blowup_radius": 3.0}, t_end=1.0, output="runs/expand1"),
}

COMMANDS = (
    ("evolve", "--config", "fourier.json"),
    ("diagnose", "--trajectory", "runs/fourier"),
    ("evolve", "--config", "fourier.json", "--renormalize", "--output", "runs/fourier_renorm"),
    ("diagnose", "--trajectory", "runs/fourier_renorm", "--decay-ratio", "0.5"),
    ("evolve", "--config", "ellipsoid2.json"),
    ("diagnose", "--trajectory", "runs/ellipsoid2"),
    ("validate-config", "--config", "file2.json"),
    ("evolve", "--config", "file2.json", "--renormalize"),
    ("diagnose", "--trajectory", "runs/file2"),
    ("evolve", "--config", "file33.json"),
    ("diagnose", "--trajectory", "runs/file33"),
    ("evolve", "--config", "file65.json"),
    ("diagnose", "--trajectory", "runs/file65"),
    ("evolve", "--config", "blocks1.json"),
    ("diagnose", "--trajectory", "runs/blocks1"),
    ("evolve", "--config", "two1.json"),
    ("diagnose", "--trajectory", "runs/two1"),
    ("oracle-compare", "--config", "oracle1.json", "--tolerance", "1e-5"),
    ("oracle-compare", "--config", "oracle2.json", "--tolerance", "1e-3"),
    ("oracle-compare", "--config", "radius2.json", "--tolerance", "1e-3"),
    ("sweep", "--spec", "sweep_c0.json"),
    ("sweep", "--spec", "sweep_grid.json"),
    ("sweep", "--spec", "sweep_crash.json"),
    ("diagnose", "--trajectory", "runs/sweep_c0/cell_001"),
    ("validate-config", "--config", "nonconvex.json"),
    ("evolve", "--config", "fourier.json", "--scheme", "heun", "--output", "runs/heun"),
    ("evolve", "--config", "shrink1.json"),
    ("diagnose", "--trajectory", "runs/shrink1"),
    ("evolve", "--config", "expand1.json"),
    ("diagnose", "--trajectory", "runs/expand1"),
    ("evolve", "--config", "guard1.json"),
    ("diagnose", "--trajectory", "runs/guard1"),
    ("evolve", "--config", "ellipsoid2.json", "--scheme", "heun", "--output", "runs/heun2"),
)


def _body(M):
    """n=2 snapshot of s = 1 + 0.04 xyz + 0.02 x at per-face resolution M,
    built without the package (the 0.02 x term moves the body off-centre)."""
    ys = [-1.0 + 2.0 * i / (M - 1) for i in range(M)]
    frames = (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((-1, 0, 0), (0, 0, 1), (0, 1, 0)),
              ((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
              ((0, 0, 1), (1, 0, 0), (0, 1, 0)), ((0, 0, -1), (0, 1, 0), (1, 0, 0)))
    values = []
    for a, t1, t2 in frames:
        face = []
        for y1 in ys:
            row = []
            for y2 in ys:
                z = [a[k] + y1 * t1[k] + y2 * t2[k] for k in range(3)]
                r = math.sqrt(sum(c * c for c in z))
                x, y, w = (c / r for c in z)
                row.append(1.0 + 0.04 * x * y * w + 0.02 * x)
            face.append(row)
        values.append(face)
    return {"n": 2, "resolution": M, "time": 0.0, "values": values}


def run_tree(src, workdir):
    """Write the inputs, run every command; returns [(argv, exit code, stdout, stderr)]."""
    bodies = {f"body{M}.json": _body(M) for M in (17, 33, 65)}
    for name, doc in dict(INPUTS, **bodies).items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh)
    results = []
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "centroflow.cli", *argv],
                              capture_output=True, text=True, **in_tree(src, workdir))
        results.append((argv, proc.returncode, proc.stdout, proc.stderr))
    return results


class Diff:
    """Differences found so far, and the largest float deviation seen."""

    def __init__(self):
        self.problems = []
        self.worst = (0.0, None)   # (deviation, where)

    def add(self, where, a, b):
        self.problems.append(f"{where}: {a!r} vs {b!r}")

    def floats(self, a, b, where):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                self.add(where, a, b)
            return
        dev = deviation(a, b)
        if dev > self.worst[0]:
            self.worst = (dev, where)
        if dev > REL_TOL:
            self.add(where, a, b)

    def tokens(self, a, b, where):
        try:
            self.floats(float(a), float(b), where)
        except ValueError:
            if a != b:
                self.add(where, a, b)


def compare_json(a, b, where, diff):
    """Record every difference between two JSON values (numeric rule)."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        if a is not b:
            diff.add(where, a, b)
    elif isinstance(a, float) and isinstance(b, float):
        diff.floats(a, b, where)
    elif type(a) is not type(b):
        diff.add(where, type(a).__name__, type(b).__name__)
    elif isinstance(a, dict):
        if sorted(a) != sorted(b):
            diff.add(where + " keys", sorted(a), sorted(b))
        else:
            for k in a:
                compare_json(a[k], b[k], f"{where}.{k}", diff)
    elif isinstance(a, list):
        if len(a) != len(b):
            diff.add(where + " length", len(a), len(b))
        else:
            for k, (x, y) in enumerate(zip(a, b)):
                compare_json(x, y, f"{where}[{k}]", diff)
    elif a != b:
        diff.add(where, a, b)


def compare_words(rows_a, rows_b, where, diff):
    """Record every difference between two tables of words (numeric rule)."""
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        diff.add(where + " layout", [len(r) for r in rows_a], [len(r) for r in rows_b])
        return
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            diff.tokens(x, y, f"{where} row {i} col {j}")


def _words(text):
    """Standard output word by word, brackets and commas stripped."""
    return [[w.strip("(),") for w in line.split()] for line in text.splitlines()]


def compare_commands(results_a, results_b, diff):
    """Print one line per command and record where its runs differ: the exit code,
    standard output, or a traceback on either side's standard error."""
    for (argv, code_a, out_a, err_a), (_, code_b, out_b, err_b) in zip(results_a, results_b):
        cmd = " ".join(argv)
        before = len(diff.problems)
        if code_a != code_b:
            diff.add(f"{cmd}: exit code", code_a, code_b)
        compare_words(_words(out_a), _words(out_b), f"{cmd}: stdout", diff)
        for side, err in (("base", err_a), ("head", err_b)):
            if "Traceback" in err:
                diff.problems.append(f"{cmd}: traceback on the {side} side: "
                                     f"{err.strip().splitlines()[-1]}")
        status = "ok" if len(diff.problems) == before else "DIFFERS"
        print(f"[{status}] exit {code_a}/{code_b}  centroflow {cmd}")


def _scrub_metadata(text):
    meta = json.loads(text)
    meta.pop("wall_time_s", None)
    meta.get("config", {}).pop("output", None)
    return meta


def compare_file(rel, path_a, path_b, diff):
    """'byte' or 'numeric' for a file present on both sides; records differences."""
    name = os.path.basename(rel)
    if name in NUMERIC:
        with open(path_a) as fa, open(path_b) as fb:
            a, b = fa.read(), fb.read()
        if name.endswith(".json"):
            compare_json(json.loads(a), json.loads(b), rel, diff)
        else:
            compare_words(list(csv.reader(io.StringIO(a))),
                          list(csv.reader(io.StringIO(b))), rel, diff)
        return "numeric"
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if name == "metadata.json":
        if _scrub_metadata(a) != _scrub_metadata(b):
            diff.problems.append(f"{rel}: metadata differs")
    elif a != b:
        diff.problems.append(f"{rel}: bytes differ")
    return "byte"


def _files(root):
    files = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            files.add(os.path.relpath(os.path.join(dirpath, name), root))
    return files


def check_artifacts(base, head):
    """Run the commands against both trees and compare what they write; prints a
    line per command, the differences and the summary; returns the number of
    differences."""
    diff = Diff()
    counts = {"byte": 0, "numeric": 0}
    with tempfile.TemporaryDirectory() as tmp:
        runs, results = {}, {}
        for side, src in (("base", base), ("head", head)):
            os.makedirs(os.path.join(tmp, side))
            runs[side] = os.path.join(tmp, side, "runs")
            results[side] = run_tree(src, os.path.join(tmp, side))
        compare_commands(results["base"], results["head"], diff)
        files_a, files_b = _files(runs["base"]), _files(runs["head"])
        for rel in sorted(files_a ^ files_b):
            diff.problems.append(f"{rel}: only in {'base' if rel in files_a else 'head'}")
        for rel in sorted(files_a & files_b):
            counts[compare_file(rel, os.path.join(runs["base"], rel),
                                os.path.join(runs["head"], rel), diff)] += 1
    for p in diff.problems:
        print(f"  {p}")
    dev, where = diff.worst
    print(f"largest float deviation |a - b| / max(|a|, 1): {dev:.3g}"
          + (f" ({where})" if where else ""))
    print(f"artifact parity: {len(COMMANDS)} commands, {counts['byte']} byte-identical-class "
          f"and {counts['numeric']} numeric-class files compared, "
          f"{len(diff.problems)} difference(s)")
    return len(diff.problems)


# ---------- kernels ----------

def _tables(g):
    """{grid.tables.<attribute>[.<entry>]: array} for every ndarray the grid holds."""
    out = {}
    for name, value in vars(g).items():
        entries = (value.items() if isinstance(value, dict) else
                   enumerate(value) if isinstance(value, tuple) else [(None, value)])
        for key, a in entries:
            if isinstance(a, np.ndarray):
                out[f"grid.tables.{name}" + ("" if key is None else f".{key}")] = a
    return out


def _kernels(kind, res):
    """{name: (call, outputs)}: a zero-argument call per kernel and its outputs."""
    from centroflow.diagnostics import BLOCK_NODES
    from centroflow.flow import FlowState, StepControl, stable_dt, step
    from centroflow.grids import CircleGrid, CubedSphereGrid
    from centroflow.invariants import compute_invariants
    from centroflow.support import SupportField, embed, fourier_support

    cls = CubedSphereGrid if kind == "M" else CircleGrid
    g = cls(res)

    def body(k):
        """The k-th convex body of a family; the kernels run on body 0."""
        if kind == "M":
            p = g.nodes
            return SupportField(g, u=g.sync_duplicates(
                g.w * (1.0 + 0.2 * np.prod(p, axis=-1) + (0.05 + 0.01 * k) * p[..., 2])))
        return fourier_support(g, 1.0, a=[0.0, 0.0, 0.05], b=[0.0, 0.02 + 0.002 * k])

    field = body(0)
    block = SupportField(g, u=np.stack(
        [body(k).u for k in range(max(1, BLOCK_NODES // g.w.size))], axis=-1))
    u = field.u
    D2 = g.graph_hessian(u)
    controls = {s: StepControl(scheme=s) for s in ("rk4", "heun")}

    def one_step(scheme):
        return lambda: step(FlowState(0.0, field), controls[scheme], 1.0)

    calls = {"graph_hessian": lambda: g.graph_hessian(u),
             "spectrum": lambda: g.spectrum(D2),
             "stable_dt": lambda: stable_dt(field, controls["rk4"], g.spectrum(D2)),
             "step.rk4": one_step("rk4"),
             "step.heun": one_step("heun"),
             "compute_invariants": lambda: compute_invariants(field),
             "compute_invariants.block": lambda: compute_invariants(block),
             "grid.tables": lambda: cls(res),
             "graph_jet": lambda: g.graph_jet(u),
             "embed": lambda: embed(field, g.graph_jet(u))}
    X = calls["embed"]()
    calls["chart_jet"] = lambda: g.chart_jet(X)
    if kind == "M":
        ext = g.extend(u, kind="deg1")
        calls = dict({"extend.deg1": lambda: g.extend(u, kind="deg1"),
                      "extend.scalar": lambda: g.extend(field.s),
                      "extend.vec3": lambda: np.array([g.extend(c) for c in X]),
                      "d1": lambda: (g.d1(ext, 1), g.d1(ext, 2)),
                      "d2": lambda: (g.d2(ext, 1), g.d2(ext, 2))}, **calls)
    else:
        T2 = compute_invariants(block).norm_T2
        angles = np.linspace(0.1, 6.0, T2.shape[-1])
        calls.update({"refine_max.block": lambda: g.refine_max(T2),
                      "value_at.block": lambda: g.value_at(T2, angles)})
    det, lo, hi = calls["spectrum"]()
    iv = calls["compute_invariants"]()
    outputs = {"spectrum.det": det, "spectrum.lo": lo, "spectrum.hi": hi,
               "stable_dt": np.float64(calls["stable_dt"]()),
               "step.rk4.u": calls["step.rk4"]()[0].field.u,
               "step.heun.u": calls["step.heun"]()[0].field.u,
               "compute_invariants.area": np.float64(iv.area),
               "compute_invariants.norm_T2": iv.norm_T2, "embed": X, **_tables(g)}
    outputs.update({f"compute_invariants.{name}": getattr(iv, name) for name in TENSORS})
    outputs["chart_jet.X_i"], outputs["chart_jet.X_ij"] = calls["chart_jet"]()
    outputs["graph_jet.Du"], outputs["graph_jet.D2"] = calls["graph_jet"]()
    ivb = calls["compute_invariants.block"]()
    for name in ("area", "norm_T2", "residual_gauss_cross", "residual_C_symmetry",
                 "residual_relsupport"):
        outputs[f"compute_invariants.block.{name}"] = getattr(ivb, name)
    if kind == "M":
        for name in ("extend.deg1", "extend.scalar", "extend.vec3"):
            outputs[name] = calls[name]()
        for name in ("d1", "d2"):
            outputs[f"{name}.axis1"], outputs[f"{name}.axis2"] = calls[name]()
    else:
        theta, value = calls["refine_max.block"]()
        outputs.update({"refine_max.block.theta": theta, "refine_max.block.value": value,
                        "value_at.block": calls["value_at.block"]()})
    return calls, outputs


def _batch(call):
    """Number of calls that take about BATCH_S, from one warm call."""
    call()
    t0 = time.perf_counter()
    call()
    return max(1, int(BATCH_S / max(time.perf_counter() - t0, 1e-9)))


def worker(Ms, Ns):
    """Dump the outputs to outputs.npz in the working directory and print the kernel
    names, then answer each kernel name read on stdin with its per-call time.

    Run as `parity.py SRC SRC --worker --M ... --N ...` with in_tree(SRC, ...).
    """
    timed, dump = {}, {}
    for kind, res in [("M", M) for M in Ms] + [("N", N) for N in Ns]:
        calls, outputs = _kernels(kind, res)
        dump.update({f"{kind}={res}/{k}": np.asarray(v) for k, v in outputs.items()})
        timed.update({f"{kind}={res}/{k}": (c, _batch(c)) for k, c in calls.items()})
    np.savez("outputs.npz", **dump)
    print(json.dumps(list(timed)), flush=True)
    for key in iter(sys.stdin.readline, ""):
        call, reps = timed[key.strip()]
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        print(repr((time.perf_counter() - t0) / reps), flush=True)


class Side:
    """One tree's kernel worker, in a working directory of its own."""

    def __init__(self, name, src, workdir, Ms, Ns):
        self.name, self.workdir = name, workdir
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), src, src, "--worker",
             "--M", *map(str, Ms), "--N", *map(str, Ns)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, **in_tree(src, workdir))

    def expect(self):
        line = self.proc.stdout.readline()
        if not line:
            print(f"parity: the {self.name} kernel worker died", file=sys.stderr)
            raise SystemExit(2)
        return line

    def outputs(self):
        """(outputs, kernel names) once the worker is ready."""
        keys = json.loads(self.expect())
        with np.load(os.path.join(self.workdir, "outputs.npz")) as z:
            return {k: z[k] for k in z.files}, keys

    def time(self, key):
        self.proc.stdin.write(key + "\n")
        self.proc.stdin.flush()
        return float(self.expect())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _bytes(a):
    """The bytes of each value of a, one row per value."""
    return np.atleast_1d(a).reshape(a.size, -1).view(np.uint8)


def compare(a, b):
    """Lines for each output that differs by its rule, "[diff] ..." (its key when
    one side lacks it), and "[numeric] ..." for a NUMERIC_KERNELS output that moved
    within REL_TOL."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x is None or y is None:
            lines.append(f"[diff] {key}: only on the {'head' if x is None else 'base'} side")
        elif x.shape != y.shape or x.dtype != y.dtype:
            lines.append(f"[diff] {key}: {x.dtype}{x.shape} vs {y.dtype}{y.shape}")
        elif key.endswith(NUMERIC_KERNELS) and x.tobytes() != y.tobytes():
            rel = deviation(x, y)
            tag = "numeric" if rel <= REL_TOL else "diff"
            lines.append(f"[{tag}] {key}: largest |a - b| / max(|a|, 1) {rel:.3g}")
        elif x.tobytes() != y.tobytes():
            bad = (_bytes(x) != _bytes(y)).any(axis=1).sum()
            dev = np.max(np.abs(x.astype(float) - y.astype(float)))
            lines.append(f"[diff] {key}: {bad} of {x.size} values differ, "
                         f"largest |a - b| {dev:.3g}")
    return lines


def check_kernels(base, head, Ms, Ns, rounds):
    """Run both trees' kernel workers and compare their outputs; prints the
    differences, the summary and, when rounds > 0, the timing table; returns the
    number of differences. Exits 2 when a worker dies."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        try:
            for name, src in (("base", base), ("head", head)):
                os.makedirs(os.path.join(tmp, name))
                sides.append(Side(name, src, os.path.join(tmp, name), Ms, Ns))
            (base_out, keys), (head_out, head_keys) = (s.outputs() for s in sides)
            keys = [key for key in keys if key in head_keys]   # timed on both sides
            times = {key: ([], []) for key in keys}
            for r in range(rounds):
                for k, key in enumerate(keys):
                    for i in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                        times[key][i].append(sides[i].time(key))
        finally:
            for s in sides:
                s.close()
    lines = compare(base_out, head_out)
    for line in lines:
        print(line)
    diffs = sum(line.startswith("[diff]") for line in lines)
    print(f"outputs: {len(base_out.keys() | head_out.keys())} compared, "
          f"{diffs} difference(s)")
    if rounds:
        print(f"{'kernel':<28}{'base us':>12}{'head us':>12}{'head/base':>11}")
        for key, (tb, th) in times.items():
            tb, th = statistics.median(tb) * 1e6, statistics.median(th) * 1e6
            print(f"{key:<28}{tb:>12.1f}{th:>12.1f}{th / tb:>11.3f}")
    return diffs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--M", type=int, nargs="*", default=[17, 33, 65])
    p.add_argument("--N", type=int, nargs="*", default=[256, 1024])
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        return worker(args.M, args.N)
    with tempfile.TemporaryDirectory() as tmp:
        for src in dict.fromkeys((args.base, args.head)):
            if not imports_from(src, tmp):
                print(f"parity: {src} does not provide the centroflow package "
                      "(pass the src/ of a checkout)", file=sys.stderr)
                return 2
    print(f"parity: {args.base} vs {args.head}; {stability_domain()}; "
          f"{args.rounds} interleaved rounds")
    diffs = check_artifacts(args.base, args.head)
    diffs += check_kernels(args.base, args.head, args.M, args.N, args.rounds)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
