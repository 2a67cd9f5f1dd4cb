"""Compare the step and invariant kernels of two centroflow source trees.

    python tools/kernel_ab.py BASE_SRC HEAD_SRC [--M 17 33 65] [--N 256 1024]
                              [--rounds 15]

BASE_SRC and HEAD_SRC are directories that hold the `centroflow` package
(the `src/` of two checkouts). Each tree runs in its own worker subprocess.
The worker builds one fixed convex body per size (per-face M on the cubed
sphere, N on the circle) and dumps the kernel outputs, component-first
(component axes, then the nodes) as the package returns them:

  extend.deg1         the deg1 halo extend of the graph values (cubed sphere)
  extend.scalar       the scalar halo extend of s (cubed sphere)
  extend.vec3         the scalar halo extends of the 3 components of the
                      embedding, stacked (cubed sphere)
  d1.axis1, d1.axis2, d2.axis1, d2.axis2
                      the 4th-order stencils along each chart axis of the deg1
                      extended graph values (cubed sphere)
  graph_jet.Du, graph_jet.D2
                      the chart gradient (n, nodes) and the chart Hessian of
                      the graph values, as grid.graph_jet returns them
  embed               the embedding X, (n+1, nodes)
  chart_jet.X_i, chart_jet.X_ij
                      the chart jet of the embedding, (n, n+1, nodes) and
                      (n, n, n+1, nodes), each tree fed its own embedding
  spectrum.det, spectrum.lo, spectrum.hi
                      grid.spectrum of the chart Hessian: its determinant and
                      (min, max) eigenvalues
  stable_dt           the step bound from the chart Hessian
  step.rk4, step.heun u after one step of each scheme from t = 0
  compute_invariants  area and norm_T2, and the tensor fields of the stack
                      (TENSORS: the metric and its inverse, both connections,
                      the cubic form mixed and lowered, T lowered and raised,
                      and the frame curvature)
  compute_invariants.block
                      area, norm_T2 and the three residuals of one block of
                      bodies, the batch field diagnostics.SeriesBundle reduces
                      (BLOCK_NODES // nodes bodies, at least one: 16 at N=256,
                      2 at M=17), the first of them the body above
  refine_max.block.theta, refine_max.block.value
                      the circle's polished maximum of that block's norm_T2,
                      each body's angle and value (16 bodies at N=256, 4 at
                      N=1024)
  value_at.block      the circle's interpolant of that block's norm_T2, each
                      body at its own fixed angle
  grid.tables         every ndarray a freshly constructed grid holds, one
                      output per attribute (a tuple's or dict's arrays one
                      per entry, e.g. grid.tables.graph_chart.0): nodes,
                      weights, the halo tables, frameP_inv, ref_det, the
                      duplicate maps and the circle's Fourier multipliers;
                      timed as the constructor, not the shared make_grid

Every output is compared bit for bit: same shape and the same float64 bytes,
but for the three circle max-polish and interpolation rows. Those feed only
the numeric-class artifacts (supT2, supC2 and the |T|^2 right side in
series.csv, report.json and sweep.csv), so they are compared by the README's
numeric-class rule, |a - b| <= 1e-9 * max(|a|, 1) in every value, with the
same shape; a row that passes it prints its largest relative deviation.
Then the two workers time each kernel per call in interleaved rounds. In
each round every kernel is timed by both workers in turn, one right after
the other, and the side that goes first alternates from kernel to kernel
and from round to round, so a load spike on the machine falls on both sides
alike. A worker times a kernel over a batch of calls sized once to take
about 20 ms and reports the batch time over its length. The table gives the
median per-call time of each side over the rounds and their ratio.
graph_hessian is timed too, as the input of spectrum and stable_dt.
A d1 or d2 call differentiates along both chart axes. graph_jet is timed as
the calls that give its two rows, and embed with the derivatives it reads:
graph_jet then embed.

stable_dt is fed what the tree's step feeds it, grid.spectrum of the chart
Hessian, and its time includes the spectrum.

Exits 0 when every output is equal by its rule, 1 when one differs, 2 when
a worker fails. Runs on numpy and the standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

BATCH_S = 0.02
REL_TOL = 1e-9
# outputs compared by the numeric-class rule instead of bit for bit
NUMERIC = ("refine_max.block.theta", "refine_max.block.value", "value_at.block")


def _sizes(Ms, Ns):
    return [("M", M) for M in Ms] + [("N", N) for N in Ns]


# InvariantFields tensors dumped besides area and norm_T2 (the frame is the
# embedding and its first derivatives, dumped as embed and chart_jet.X_i)
TENSORS = ("g", "g_inv", "gamma_hat", "gamma", "C_mixed", "C_low", "T_low", "T_up",
           "curvature")


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


def worker(src, outdir, Ms, Ns):
    """Dump the outputs to outdir/outputs.npz and print the kernel names, then
    answer each kernel name read on stdin with its per-call time.

    Run as `kernel_ab.py SRC OUTDIR --worker`, with SRC first on PYTHONPATH.
    """
    import centroflow

    package = os.path.dirname(os.path.abspath(centroflow.__file__))
    if package != os.path.join(os.path.abspath(src), "centroflow"):
        raise SystemExit(f"centroflow imported from {centroflow.__file__}, not {src}")
    timed, dump = {}, {}
    for kind, res in _sizes(Ms, Ns):
        calls, outputs = _kernels(kind, res)
        dump.update({f"{kind}={res}/{k}": np.asarray(v) for k, v in outputs.items()})
        timed.update({f"{kind}={res}/{k}": (c, _batch(c)) for k, c in calls.items()})
    np.savez(os.path.join(outdir, "outputs.npz"), **dump)
    print(json.dumps(list(timed)), flush=True)
    for key in iter(sys.stdin.readline, ""):
        call, reps = timed[key.strip()]
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        print(repr((time.perf_counter() - t0) / reps), flush=True)


class Side:
    """One tree's worker subprocess."""

    def __init__(self, src, outdir, args):
        self.outdir = outdir
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", src, outdir,
             "--M", *map(str, args.M), "--N", *map(str, args.N)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def expect(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(2)
        return line

    def outputs(self):
        """(outputs, kernel names) once the worker is ready."""
        keys = json.loads(self.expect())
        with np.load(os.path.join(self.outdir, "outputs.npz")) as z:
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
    one side lacks it), and "[numeric] ..." for a NUMERIC output that moved
    within REL_TOL."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x is None or y is None:
            lines.append(f"[diff] {key}: only on the {'head' if x is None else 'base'} side")
        elif x.shape != y.shape or x.dtype != y.dtype:
            lines.append(f"[diff] {key}: {x.dtype}{x.shape} vs {y.dtype}{y.shape}")
        elif key.endswith(NUMERIC) and x.tobytes() != y.tobytes():
            rel = np.max(np.abs(x - y) / np.maximum(np.abs(x), 1.0))
            tag = "numeric" if rel <= REL_TOL else "diff"
            lines.append(f"[{tag}] {key}: largest |a - b| / max(|a|, 1) {rel:.3g}")
        elif x.tobytes() != y.tobytes():
            bad = (_bytes(x) != _bytes(y)).any(axis=1).sum()
            dev = np.max(np.abs(x.astype(float) - y.astype(float)))
            lines.append(f"[diff] {key}: {bad} of {x.size} values differ, "
                         f"largest |a - b| {dev:.3g}")
    return lines


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
        return worker(args.base, args.head, args.M, args.N)
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for name, src in (("base", args.base), ("head", args.head)):
            os.makedirs(os.path.join(tmp, name))
            sides.append(Side(src, os.path.join(tmp, name), args))
        try:
            (base, keys), (head, head_keys) = (s.outputs() for s in sides)
            keys = [key for key in keys if key in head_keys]   # timed on both sides
            lines = compare(base, head)
            times = {key: ([], []) for key in keys}
            for r in range(args.rounds):
                for k, key in enumerate(keys):
                    for i in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                        times[key][i].append(sides[i].time(key))
        finally:
            for s in sides:
                s.close()
    print(f"kernel_ab: {args.base} vs {args.head}; numpy {np.__version__}, "
          f"{os.cpu_count()} cores, {args.rounds} interleaved rounds")
    for line in lines:
        print(line)
    diffs = [line for line in lines if line.startswith("[diff]")]
    print(f"outputs: {len(base.keys() | head.keys())} compared, {len(diffs)} difference(s)")
    if args.rounds:
        print(f"{'kernel':<28}{'base us':>12}{'head us':>12}{'head/base':>11}")
        for key, (tb, th) in times.items():
            tb, th = statistics.median(tb) * 1e6, statistics.median(th) * 1e6
            print(f"{key:<28}{tb:>12.1f}{th:>12.1f}{th / tb:>11.3f}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
