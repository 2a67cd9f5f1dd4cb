"""centroflow benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload surface-evolve --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory. The seed makes the inputs; the program sees only the
generated snapshot file or Fourier coefficients. For ``--seconds`` seconds it
repeats the workload's CLI commands through ``centroflow.cli.main`` in this
process, checks every output, then runs the exact-law gate.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with tracing off.
--trace 1 alternates untraced and traced iterations on the same inputs and
reports the per-layer metrics (medians over traced iterations) plus the
tracing overhead. The last line of standard output is the JSON result;
a summary, the run record and the (gzipped) spans go to ``perfbench/results/``.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")
WORK = os.path.join(ROOT, "perfbench", "work")

BLOCK = 3   # iterations averaged into one sample of an end-to-end timing
# Set-up is sampled once after every untraced iteration, so its samples span
# the same stretch of machine time as the timings; a run tops up to this many.
SETUP_MIN_SAMPLES = 2 * BLOCK
SETUP_CODE = """import time
t0 = time.perf_counter()
import centroflow
from centroflow.grids import make_grid
make_grid({n}, {res})
print(repr(time.perf_counter() - t0))
"""

END_TO_END = {"setup_s": "s", "evolve_s": "s", "diagnose_s": "s",
              "peak_rss_mb": "MB", "completed_frac": "ratio"}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_sample(n, res):
    """Seconds for `import centroflow` + make_grid(n, res) in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SETUP_CODE.format(n=n, res=res)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _commit():
    """Commit of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_record(nproc):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def block_median(samples, size=BLOCK):
    """Median over the means of consecutive blocks of ``size`` samples.

    Per-iteration times on a shared host are bimodal: an iteration runs
    either at full speed or up to 1.8x slower, and which one comes next
    changes within seconds. The median of single iterations then jumps
    between the two modes from run to run. A block averages over several
    changes, so the median of blocks moves far less. A partial last block
    is dropped; a run shorter than one block reports its mean.
    """
    blocks = [samples[i:i + size] for i in range(0, len(samples) - size + 1, size)]
    return statistics.median(statistics.fmean(b) for b in blocks or [samples])


def percentile_note(samples):
    """Block median, then the per-iteration median and the highest percentile
    with at least ten samples beyond it."""
    n = len(samples)
    note = (f"median of {max(1, n // BLOCK)} blocks {block_median(samples):.6g}; "
            f"per iteration: median {statistics.median(samples):.6g}")
    for p in (99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return f"{note}, p{p} {q:.6g} ({n} samples)"
    return f"{note} ({n} samples; too few for a percentile above it)"


def _median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "centroflow", "__init__.py")):
        print(f"no centroflow sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [SRC, ROOT]
    import centroflow
    if not os.path.abspath(centroflow.__file__).startswith(SRC + os.sep):
        print(f"centroflow imported from {centroflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    return 0


def measure(args, wl, workdir, total):
    """Iterate for args.seconds; returns (untraced, traced, spans, set-up samples).

    With tracing, even iterations run untraced and odd ones traced, so both
    see the same inputs and the same stretch of machine time. Without it,
    a set-up sample follows every iteration.
    """
    from perfbench import layers, tracer

    plain, traced, spans, setup = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        tracing = bool(args.trace) and i % 2 == 1
        outdir = os.path.join(workdir, f"it{i:04d}")
        tr = tracer.Tracer(run=i)
        patch = tracer.install(tr) if tracing else None
        t0 = time.perf_counter()
        try:
            res = wl.iteration(outdir)
        finally:
            if patch:
                patch.restore()
        res["wall_s"] = time.perf_counter() - t0
        shutil.rmtree(outdir, ignore_errors=True)
        total.add(res.pop("outcome"))
        if tracing:
            res["metrics"], count = layers.layer_metrics(tr.spans, res["snapshots"],
                                                         res["violated"])
            missing = layers.missing_entry_points(wl.name, count)
            if missing:
                total.problems.append(f"traced iteration {i} never reached {missing}")
            if res["metrics"]["flow.steps"] != plain[0]["steps"]:
                total.problems.append(f"traced iteration {i} took "
                                      f"{res['metrics']['flow.steps']} steps, "
                                      f"untraced {plain[0]['steps']}")
            traced.append(res)
            spans.append([list(sp) for sp in tr.spans])
        else:
            plain.append(res)
            if not args.trace:
                setup.append(setup_sample(wl.n, wl.resolution))
        i += 1
        typical = statistics.median(r["wall_s"] for r in plain + traced)
        done = traced if args.trace else plain
        if done and time.perf_counter() - start + typical > args.seconds:
            while not args.trace and len(setup) < SETUP_MIN_SAMPLES:
                setup.append(setup_sample(wl.n, wl.resolution))
            return plain, traced, spans, setup


def run(args, workdir):
    from perfbench import layers, tracer, workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    record = run_record(workloads.cpu_count())
    total = workloads.Outcome()
    plain, traced, spans, setup = measure(args, wl, workdir, total)
    gate, gate_text = workloads.oracle_gate(args.seed, workdir)
    total.add(gate)

    notes = []
    if args.trace:
        metrics = {name: statistics.median(r["metrics"][name] for r in traced)
                   for name in traced[0]["metrics"]}
        for key in ("evolve_s", "diagnose_s"):
            metrics[f"trace.overhead_frac.{key}"] = (
                _median_of(traced, key) / _median_of(plain, key) - 1.0)
        units = layers.UNITS
    else:
        metrics = {
            "setup_s": block_median(setup),
            "evolve_s": block_median([r["evolve_s"] for r in plain]),
            "diagnose_s": block_median([r["diagnose_s"] for r in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "completed_frac": (total.attempted - total.failed) / total.attempted,
        }
        units = END_TO_END
        notes = [f"{key}: {percentile_note(samples)}" for key, samples in (
            ("setup_s", setup),
            ("evolve_s", [r["evolve_s"] for r in plain]),
            ("diagnose_s", [r["diagnose_s"] for r in plain]))]

    violated = sorted({name for r in plain + traced for name in r["violated"]})
    summary = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "record": record, "notes": notes,
        "steps_per_iteration": plain[0]["steps"],
        "snapshots_per_iteration": plain[0]["snapshots"],
        "violated_checks": violated, "oracle_gate": gate_text,
        "problems": total.problems, "setup_samples": setup,
        "iterations": [{k: v for k, v in r.items() if k != "metrics"}
                       for r in plain + traced],
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    if spans:
        with gzip.open(stem + "-spans.json.gz", "wt") as fh:
            json.dump({"fields": list(tracer.Span._fields), "runs": spans}, fh)

    for line in notes:
        print(line)
    print(f"violated checks: {violated or 'none'}")
    print(f"run record: {json.dumps(record, sort_keys=True)}")
    for p in total.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not total.problems, "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
