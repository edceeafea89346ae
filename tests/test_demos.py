"""The self-checking demos 01-05 run clean from a fresh interpreter, and
the import block of README's Library section resolves.

Each demo prints PASS/FAIL lines and ends with "Result: COMPLETE" only
when every check passed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_five_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_completes(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1] == "Result: COMPLETE"


def test_readme_library_imports_resolve():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert block.count("import") >= 5
    exec(compile(block, "README.md", "exec"), {})
