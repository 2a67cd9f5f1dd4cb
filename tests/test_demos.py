"""Smoke test: the quick demos run to the end against the package as it is."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# 01 and 02 run the flow for seconds; these take about a second together
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[3-6]_*.py"))


def test_the_quick_demos_are_found():
    assert [name[:2] for name in DEMOS] == ["03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    # the CLI demos write their runs under the temporary directory and remove them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert not any(tmp_path.iterdir()), sorted(p.name for p in tmp_path.iterdir())
    if demo.startswith("03"):
        # its n=1 closed forms read a misindexed field as an O(1) error, not a crash
        errs = [float(line.split()[-1]) for line in done.stdout.splitlines()
                if line.lstrip().startswith("closed-form")]
        assert len(errs) == 2 and max(errs) < 1e-9, errs
