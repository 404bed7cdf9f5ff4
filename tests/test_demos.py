"""Each demo script, and the README quick start, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    """Run the interpreter on ``args`` with the package on the path; assert
    it ends without error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    run_python(str(demo))


def test_readme_quick_start_runs():
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    run_python("-c", code)
