"""The command line pipeline end to end: evolve, diagnose, oracle-compare.

Everything the CLI writes is plain JSON and CSV keyed by a config hash, so a
trajectory directory is a self-describing artifact: diagnose refuses to
check snapshots whose hash does not match the metadata, and oracle-compare
recomputes an ellipsoid run against the closed-form scaling law.  This
script drives the real entry point in-process (no subprocesses) on a small
ellipse run and prints what lands on disk.
"""

import json
import tempfile
from pathlib import Path

from centroflow.cli import main as cli


def run(*argv):
    code = cli(list(argv))
    print(f"\n$ centroflow {' '.join(argv)}\n  -> exit code {code}")
    return code


def pipeline(tmp):
    """Write a config under the directory tmp, then run the pipeline on it there."""
    cfg = {
        "n": 1,
        "resolution": 128,
        "initial": {"kind": "ellipsoid",
                    "params": {"matrix": [[1.69, 0.0], [0.0, 1.0]]}},
        "t_end": 0.2,
        "snapshot_interval": 0.05,
        "output": str(tmp / "run"),
    }
    cfg_path = tmp / "ellipse.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    print(f"config: {cfg_path}")

    run("validate-config", "--config", str(cfg_path))
    run("evolve", "--config", str(cfg_path))

    outdir = tmp / "run"
    print(f"\nartifacts in {outdir}:")
    for p in sorted(outdir.iterdir()):
        print(f"  {p.name:20s} {p.stat().st_size:8d} bytes")

    meta = json.loads((outdir / "metadata.json").read_text())
    print(f"\nconfig hash: {meta['config_hash']}")
    print(f"termination: {meta['termination']} after {meta['step_count']} steps")

    print("\nlast lines of series.csv:")
    for line in (outdir / "series.csv").read_text().splitlines()[-3:]:
        print(f"  {line[:100]}{'...' if len(line) > 100 else ''}")

    run("diagnose", "--trajectory", str(outdir))
    report = json.loads((outdir / "report.json").read_text())
    print("  verdicts: " + ", ".join(
        f"{c['name']}={c['verdict']}" for c in report["checks"][:4]) + ", ...")
    print(f"  classification: {report['summary']['classification']}")

    # the ellipse has rho0 = (1.3)^(2/3) > 1, so it expands; the oracle
    # comparison checks the numerical factor against the closed form
    run("oracle-compare", "--config", str(cfg_path), "--tolerance", "1e-5")
    print("\noracle_compare.csv:")
    for line in (outdir / "oracle_compare.csv").read_text().splitlines():
        print(f"  {line}")


def main():
    # the run directory goes when the demo ends
    with tempfile.TemporaryDirectory(prefix="centroflow_demo_") as tmp:
        pipeline(Path(tmp))


if __name__ == "__main__":
    main()
