"""Sweeping the initial radius across the shrink/expand dichotomy.

A sphere of radius R evolves as R(t) = R0^(exp(((n+1)/n) t)): anything below
the unit sphere collapses doubly-exponentially fast, anything above blows
up, and R0 = 1 sits exactly on the razor's edge.  The sweep runner drives
one flow per radius (with crash isolation per cell) and the classifier reads
the verdict off each stored trajectory.
"""

import csv
import json
import tempfile
from pathlib import Path

from centroflow.cli import main as cli


def sweep(tmp):
    """Sweep the radius axis with its cells under the directory tmp."""
    spec = {
        "base": {
            "n": 1,
            "resolution": 64,
            "initial": {"kind": "ellipsoid", "params": {"radius": 1.0}},
            "t_end": 1.3,
            "snapshot_interval": 0.1,
            "output": str(tmp / "cells"),
        },
        "axes": [
            {"path": "initial.params.radius",
             "values": [0.5, 0.9, 1.0, 1.1, 2.0]},
        ],
        "parallelism": 4,
    }
    spec_path = tmp / "radius_sweep.json"
    spec_path.write_text(json.dumps(spec, indent=2))

    code = cli(["sweep", "--spec", str(spec_path), "--output", str(tmp)])
    print(f"\nsweep exit code {code}")

    with open(tmp / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    print(f"\n{'R0':>6}  {'termination':>12}  {'classification':>14}  "
          f"{'final sup|T|^2':>14}")
    for row in rows:
        print(f"{row['initial.params.radius']:>6}  {row['termination']:>12}  "
              f"{row['classification']:>14}  {row['final_supT2']:>14}")

    print("\nthe unit sphere is the only fixed point on this axis; the"
          "\nclassifier calls everything else within the horizon.")


def main():
    # the cells' run directories go when the demo ends
    with tempfile.TemporaryDirectory(prefix="centroflow_sweep_") as tmp:
        sweep(Path(tmp))


if __name__ == "__main__":
    main()
