"""The three workloads: inputs, one iteration through the CLI, and its checks.

Each workload is a closed loop with one caller: an iteration runs the CLI
commands one after another in this process through ``centroflow.cli.main``
and times each. An operation is one CLI command or one sweep cell. It fails
on an exception, exit code 2 or 3 (or 1 from evolve or sweep), a sweep cell
not ``completed``, a termination other than ``ReachedTEnd``, or artifacts
that differ from the first iteration's (the same inputs must give
byte-identical files). ``diagnose`` exit 1 is a verdict, not a failure.
"""

import contextlib
import hashlib
import io
import json
import os
import time
import traceback

from centroflow import cli
from centroflow import io as iomod

from . import inputs

# Why each workload exists and what it is sized for is recorded in README.md.
SURFACE_EVOLVE = {"n": 2, "resolution": 33, "t_end": 0.04, "snapshot_interval": 0.02}
SURFACE_DENSE = {"n": 2, "resolution": 65, "t_end": 4.8e-4, "snapshot_interval": 1.2e-4}
CURVE_SWEEP = {"n": 1, "resolution": 256, "t_end": 0.1, "snapshot_interval": 0.005,
               "renormalize": True}
SWEEP_CELLS = 8


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Outcome:
    """Attempted and failed operations, with a line per failure or problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_cli(argv):
    """cli.main(argv) with its output captured; returns (code, wall_s, text)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        buf.write(traceback.format_exc())
    return code, time.perf_counter() - t0, buf.getvalue()


def digest_tree(root):
    """Per file under root: sha256 of its bytes.

    metadata.json is compared without its wall time and its output path,
    the two fields that legitimately differ between runs of one config.
    """
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            if name == "metadata.json":
                meta = json.loads(blob)
                meta.pop("wall_time_s", None)
                meta.get("config", {}).pop("output", None)
                blob = json.dumps(meta, sort_keys=True).encode()
            out[os.path.relpath(path, root)] = hashlib.sha256(blob).hexdigest()
    return out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def violated_checks(report_path):
    return [c["name"] for c in read_json(report_path)["checks"]
            if c["verdict"] == "Violated"]


class Workload:
    """Inputs from a seed, then iterations of evolve (or sweep) and diagnose."""

    name = None
    n = None
    resolution = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.reference = {}         # artifact digests of the first iteration
        os.makedirs(workdir, exist_ok=True)

    def write_json(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        return path

    def iteration(self, outdir):
        """Run the commands once into outdir; returns a result dict."""
        raise NotImplementedError

    def unchanged(self, rundir, key):
        """Whether rundir's artifacts are byte-identical to the first iteration's."""
        digests = digest_tree(rundir)
        return self.reference.setdefault(key, digests) == digests

    def evolved(self, out, rundir, key, failure):
        """Count one evolve or sweep cell; returns its metadata, None on failure.

        ``failure`` says why the command itself failed, or is None.
        """
        meta = None
        if failure is None:
            meta = read_json(os.path.join(rundir, "metadata.json"))
            if meta["termination"] != "ReachedTEnd":
                failure = f"termination {meta['termination']}"
            elif not self.unchanged(rundir, key):
                failure = "artifacts differ from the first iteration"
        out.op(failure is None, f"{key}: {failure}")
        return meta if failure is None else None

    def diagnose(self, out, rundir, key):
        """Run and count one diagnose; returns (wall_s, violated check names)."""
        code, wall, text = run_cli(["diagnose", "--trajectory", rundir])
        key = f"{key} diagnose"
        failure, violated = None, []
        if code not in (0, 1):
            failure = f"exit {code}: {text[-400:]}"
        elif not self.unchanged(rundir, key):
            failure = "artifacts differ from the first iteration"
        else:
            violated = violated_checks(os.path.join(rundir, "report.json"))
        out.op(failure is None, f"{key}: {failure}")
        return wall, violated


class SurfaceWorkload(Workload):
    """One seeded n=2 body: evolve, then diagnose."""

    params = None

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.n, self.resolution = 2, self.params["resolution"]
        field, _ = inputs.surface_support(seed, self.resolution)
        body = os.path.relpath(os.path.join(workdir, "body.json"))
        iomod.write_snapshot(body, field, 0.0, None)
        cfg = dict(self.params, initial={"kind": "file", "params": {"path": body}},
                   output="run")
        self.config = self.write_json("config.json", cfg)

    def iteration(self, outdir):
        out = Outcome()
        code, evolve_s, text = run_cli(["evolve", "--config", self.config,
                                        "--output", outdir])
        failure = None if code == 0 else f"exit {code}: {text[-400:]}"
        meta = self.evolved(out, outdir, "evolve", failure)
        diagnose_s, violated = self.diagnose(out, outdir, "evolve")
        return {"evolve_s": evolve_s, "diagnose_s": diagnose_s,
                "steps": meta["step_count"] if meta else 0,
                "snapshots": meta["snapshot_count"] if meta else 0,
                "violated": violated, "outcome": out}


class SurfaceEvolve(SurfaceWorkload):
    name = "surface-evolve"
    params = SURFACE_EVOLVE


class SurfaceDense(SurfaceWorkload):
    name = "surface-dense"
    params = SURFACE_DENSE


class CurveSweep(Workload):
    """A sweep over seeded n=1 curves, then diagnose on every cell."""

    name = "curve-sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.n, self.resolution = 1, CURVE_SWEEP["resolution"]
        curves = [inputs.curve_params(seed, self.resolution, stream=f"curve{i}")
                  for i in range(SWEEP_CELLS)]
        base = dict(CURVE_SWEEP, initial={"kind": "fourier", "params": curves[0]},
                    output="sweep")
        spec = {"base": base, "parallelism": cpu_count(),
                "axes": [{"path": "initial.params", "values": curves}]}
        self.spec = self.write_json("sweep.json", spec)

    def iteration(self, outdir):
        out = Outcome()
        code, evolve_s, text = run_cli(["sweep", "--spec", self.spec, "--output", outdir])
        out.op(code == 0, f"sweep exit {code}: {text[-400:]}")
        rows = []
        if os.path.exists(os.path.join(outdir, "sweep.csv")):
            with open(os.path.join(outdir, "sweep.csv")) as fh:
                rows = fh.read().splitlines()[1:]
        steps = snapshots = 0
        diagnose_s = 0.0
        violated = []
        for i in range(SWEEP_CELLS):
            cell = os.path.join(outdir, f"cell_{i:03d}")
            completed = i < len(rows) and rows[i].endswith(",completed")
            meta = self.evolved(out, cell, f"cell {i}",
                                None if completed else "status not completed")
            if meta is None:
                continue
            steps += meta["step_count"]
            snapshots += meta["snapshot_count"]
            wall, names = self.diagnose(out, cell, f"cell {i}")
            diagnose_s += wall
            violated += names
        return {"evolve_s": evolve_s, "diagnose_s": diagnose_s, "steps": steps,
                "snapshots": snapshots, "violated": violated, "outcome": out}


WORKLOADS = {w.name: w for w in (SurfaceEvolve, SurfaceDense, CurveSweep)}


def oracle_gate(seed, workdir, tolerance=1e-5):
    """oracle-compare on seeded origin-centred ellipsoids at n=1 and n=2."""
    out = Outcome()
    errors = {}
    for n, res in ((1, 256), (2, 17)):
        cfg = {"n": n, "resolution": res, "t_end": 0.05, "snapshot_interval": 0.025,
               "initial": {"kind": "ellipsoid",
                           "params": {"matrix": inputs.ellipsoid_matrix(seed, n)}},
               "output": os.path.join(workdir, f"oracle_n{n}")}
        path = os.path.join(workdir, f"oracle_n{n}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code, wall, text = run_cli(["oracle-compare", "--config", path,
                                    "--tolerance", repr(tolerance)])
        errors[f"n{n}"] = text.strip().splitlines()[-1] if text.strip() else ""
        out.op(code == 0, f"oracle-compare n={n} exit {code}: {text[-400:]}")
    return out, errors
