"""In-memory span tracer that wraps the program's entry points from outside.

The package itself is not modified: `install` rebinds each traced function
at every place its name is looked up (each centroflow module namespace that
holds the same function object, since a ``from x import y`` binding is a
separate name) and rebinds traced methods on their class. `Patch.restore`
puts every original back, so untraced runs execute the plain program.

A span is (id, parent, name, start, end, run, thread, value); ``value``
carries a per-span measurement such as bytes written or thread CPU time.
Stacks are kept per thread. A span opened on a thread with an empty stack
(a sweep pool worker) takes as parent the innermost span open on the thread
that created the tracer, which is the command waiting for it.
"""

import collections
import functools
import importlib
import os
import sys
import threading
import time

Span = collections.namedtuple(
    "Span", "id parent name start end run thread value")


class Tracer:
    def __init__(self, run=0):
        self.spans = []
        self.run = run
        self._lock = threading.Lock()
        self._next_id = 1
        self._stacks = {}
        self._main = threading.get_ident()

    def _stack(self):
        tid = threading.get_ident()
        return tid, self._stacks.setdefault(tid, [])

    def open(self, name):
        tid, stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        if stack:
            parent = stack[-1][0]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1][0] if (tid != self._main and main) else None
        stack.append((sid, parent, name, time.perf_counter()))
        return sid

    def close(self, sid, value=None):
        end = time.perf_counter()
        tid, stack = self._stack()
        top = stack.pop()
        if top[0] != sid:
            raise RuntimeError(f"span {top[2]} closed out of order")
        span = Span(sid, top[1], top[2], top[3], end, self.run, tid, value)
        with self._lock:
            self.spans.append(span)

    def record(self, name, fn, args, kwargs, measure=None):
        """Call fn inside a span; measure(args, result, cpu_s) gives its value."""
        sid = self.open(name)
        cpu0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(sid)
            raise
        value = measure(args, result, time.thread_time() - cpu0) if measure else None
        self.close(sid, value)
        return result


def _file_size(args, result, cpu):
    return os.path.getsize(args[0])


def _thread_cpu(args, result, cpu):
    return cpu


def _extend_name(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs.get("kind", "scalar")
    return f"grids.extend.{kind}"


# (module, attribute or Class.method, span name or name function, measure)
TARGETS = (
    ("grids", "make_grid", "grids.make_grid", None),
    ("grids", "CubedSphereGrid.extend", _extend_name, None),
    ("grids", "CircleGrid.deriv", "grids.deriv", None),
    ("support", "curvature_matrix", "support.curvature_matrix", None),
    ("support", "embed", "support.embed", None),
    ("flow", "evolve", "flow.evolve", None),
    ("flow", "step", "flow.step", None),
    ("flow", "stable_dt", "flow.stable_dt", None),
    ("invariants", "compute_invariants", "invariants.compute_invariants", None),
    ("invariants", "t2_evolution_rhs", "invariants.t2_evolution_rhs", None),
    ("oracles", "best_fit_ellipsoid", "oracles.best_fit_ellipsoid", None),
    ("diagnostics", "SeriesBundle.__init__", "diagnostics.series_bundle", None),
    ("diagnostics", "run_report", "diagnostics.run_report", None),
    ("io", "write_snapshot", "io.write_snapshot", _file_size),
    ("io", "load_snapshot", "io.load_snapshot", _file_size),
    ("io", "write_trajectory", "io.write_trajectory", None),
    ("io", "load_trajectory", "io.load_trajectory", None),
    ("io", "write_series_csv", "io.write_series_csv", _file_size),
    ("io", "write_report", "io.write_report", _file_size),
    ("config", "load_config_file", "config.load_config_file", None),
    ("config", "build_initial", "config.build_initial", None),
    ("cli", "cmd_evolve", "cli.cmd_evolve", None),
    ("cli", "cmd_diagnose", "cli.cmd_diagnose", None),
    ("cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("cli", "_sweep_cell", "cli.sweep_cell", _thread_cpu),
)


def _wrapper(tracer, fn, name, measure):
    name_of = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.record(name_of(args, kwargs), fn, args, kwargs, measure)
    return traced


class Patch:
    """The bindings `install` replaced; `restore` puts the originals back."""

    def __init__(self):
        self.replaced = []

    def set(self, owner, attr, value):
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced = []


def _package_modules(package="centroflow"):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def install(tracer, targets=TARGETS, package="centroflow"):
    """Wrap every target at every binding; returns the Patch that undoes it."""
    patch = Patch()
    try:
        for modname, attr, name, measure in targets:
            module = importlib.import_module(f"{package}.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                patch.set(cls, meth, _wrapper(tracer, cls.__dict__[meth], name, measure))
                continue
            fn = getattr(module, attr)
            wrapped = _wrapper(tracer, fn, name, measure)
            for mod in _package_modules(package):
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        patch.set(mod, binding, wrapped)
    except BaseException:
        patch.restore()
        raise
    return patch


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span id: duration minus the part of it its child spans cover."""
    children = collections.defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end))
                for c in children.get(sp.id, ())]
        out[sp.id] = (sp.end - sp.start) - _covered(kids)
    return out


def has_ancestor(spans, name):
    """Per span id: whether some ancestor span carries ``name``."""
    by_id = {sp.id: sp for sp in spans}
    memo = {}

    def inside(sid):
        if sid not in memo:
            parent = by_id[sid].parent
            memo[sid] = parent in by_id and (by_id[parent].name == name
                                             or inside(parent))
        return memo[sid]

    return {sp.id: inside(sp.id) for sp in spans}
