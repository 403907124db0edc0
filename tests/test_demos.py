"""Every script in demos/ runs to completion in a fresh interpreter, and
every python example in README.md in a fresh namespace."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_readme_examples():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
