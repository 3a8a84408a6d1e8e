"""Every script in ``examples/`` runs to completion against this checkout.

The examples are the public API's worked documentation; each one runs in
its own interpreter (as a user would start it) and must exit 0.
"""

import glob
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_exits_zero(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    res = subprocess.run([sys.executable, path], cwd=str(tmp_path), env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
