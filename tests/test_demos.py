"""The quick demos run standalone and exit cleanly, with warnings as errors.

demos/02 checks that the binomial series reproduces its tables, and
demos/03 that the value grid's exponents are the brute-force distances
to the samples and that the fit reproduces the grid.  demos/04 trains
the full Nim model and runs every task; it is left to the acceptance
suite, which covers the same numbers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["02_mahler_transform.py", "03_learning_a_set.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
