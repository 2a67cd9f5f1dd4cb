"""Compare the on-disk artifacts of two centroflow source trees.

    python tools/artifact_parity.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are directories that hold the `centroflow` package
(the `src/` of two checkouts). The script runs the same 33 CLI commands
against each tree, in a fresh working directory per tree, and compares
every file the commands write, in two stability classes:

  byte-identical  snapshots, metadata.json (without wall_time_s and the
                  config's output path) and oracle_compare.csv: the flow
                  and its exact-law comparison;
  numeric         series.csv, invariants.json, report.json and sweep.csv:
                  same structure, strings and verdicts; every float within
                  |a - b| <= 1e-9 * max(|a|, 1). Diagnostics may move at
                  round-off when the invariant arithmetic is reordered.

Exit codes and standard output of every command must match too (standard
output under the numeric rule). Prints one line per command and per file
that differs, then a summary; exits 0 when everything matches, 1 otherwise,
and 2, before any command runs, when a tree does not provide the package
(a checkout root given instead of its src/, say).
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

REL_TOL = 1e-9

NUMERIC = {"series.csv", "invariants.json", "report.json", "sweep.csv"}

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


def _tree_env(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("CENTROFLOW_OUTPUT_ROOT", None)
    return env


def imports_from(src, cwd):
    """Whether `import centroflow`, run in cwd with src on PYTHONPATH, loads
    src/centroflow (not an installed copy, nor a package further down)."""
    proc = subprocess.run([sys.executable, "-c", "import centroflow; print(centroflow.__file__)"],
                          cwd=cwd, env=_tree_env(src), capture_output=True, text=True)
    package = os.path.dirname(os.path.abspath(proc.stdout.strip()))
    return proc.returncode == 0 and package == os.path.join(os.path.abspath(src), "centroflow")


def run_tree(src, workdir):
    """Write the inputs, run every command; returns [(argv, exit code, stdout)]."""
    bodies = {f"body{M}.json": _body(M) for M in (17, 33, 65)}
    for name, doc in dict(INPUTS, **bodies).items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh)
    env = _tree_env(src)
    results = []
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "centroflow.cli", *argv],
                              cwd=workdir, env=env, capture_output=True, text=True)
        results.append((argv, proc.returncode, proc.stdout))
    return results


class Diff:
    """Differences found so far, and the largest float deviation seen."""

    def __init__(self):
        self.problems = []
        self.worst = (0.0, None)   # (|a - b| / max(|a|, 1), where)

    def add(self, where, a, b):
        self.problems.append(f"{where}: {a!r} vs {b!r}")

    def floats(self, a, b, where):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                self.add(where, a, b)
            return
        dev = abs(a - b) / max(abs(a), 1.0)
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


def _tree(root):
    files = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            files.add(os.path.relpath(os.path.join(dirpath, name), root))
    return files


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/artifact_parity.py BASE_SRC HEAD_SRC", file=sys.stderr)
        return 2
    base_src, head_src = argv
    diff = Diff()
    with tempfile.TemporaryDirectory() as tmp:
        for src in dict.fromkeys(argv):
            if not imports_from(src, tmp):
                print(f"artifact parity: {src} does not provide the centroflow package "
                      "(pass the src/ of a checkout)", file=sys.stderr)
                return 2
        work = {}
        results = {}
        for side, src in (("base", base_src), ("head", head_src)):
            work[side] = os.path.join(tmp, side)
            os.makedirs(work[side])
            results[side] = run_tree(src, work[side])
        for (argv_c, code_a, out_a), (_, code_b, out_b) in zip(results["base"],
                                                              results["head"]):
            cmd = " ".join(argv_c)
            before = len(diff.problems)
            if code_a != code_b:
                diff.add(f"{cmd}: exit code", code_a, code_b)
            # standard output word by word, brackets and commas stripped
            compare_words([[w.strip("(),") for w in line.split()] for line in out_a.splitlines()],
                          [[w.strip("(),") for w in line.split()] for line in out_b.splitlines()],
                          f"{cmd}: stdout", diff)
            status = "ok" if len(diff.problems) == before else "DIFFERS"
            print(f"[{status}] exit {code_a}/{code_b}  centroflow {cmd}")
        runs_a = _tree(os.path.join(work["base"], "runs"))
        runs_b = _tree(os.path.join(work["head"], "runs"))
        for rel in sorted(runs_a ^ runs_b):
            diff.problems.append(f"{rel}: only in {'base' if rel in runs_a else 'head'}")
        counts = {"byte": 0, "numeric": 0}
        for rel in sorted(runs_a & runs_b):
            counts[compare_file(rel, os.path.join(work["base"], "runs", rel),
                                os.path.join(work["head"], "runs", rel), diff)] += 1
    for p in diff.problems:
        print(f"  {p}")
    dev, where = diff.worst
    print(f"largest float deviation |a - b| / max(|a|, 1): {dev:.3g}"
          + (f" ({where})" if where else ""))
    print(f"artifact parity: {len(COMMANDS)} commands, {counts['byte']} byte-identical-class "
          f"and {counts['numeric']} numeric-class files compared, "
          f"{len(diff.problems)} difference(s)")
    return 0 if not diff.problems else 1


if __name__ == "__main__":
    sys.exit(main())
