"""Every demo, and every python block of README.md, runs to completion
against the sources in this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_readme_examples_run():
    script = ROOT / "scripts" / "readme_examples.py"
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ran = re.fullmatch(r"README\.md: (\d+) python blocks ran\n", proc.stdout)
    assert ran and int(ran.group(1)) > 0, proc.stdout
