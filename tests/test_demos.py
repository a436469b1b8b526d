"""Every demo script, and every python block of the README, runs to
completion in a fresh interpreter, with every warning raised as an error."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)


def run_clean(script, cwd):
    """The finished process of a script run on src/ under -W error."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
    return subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"


def test_readme_blocks_found():
    assert README_BLOCKS, "no python blocks in README.md"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    proc = run_clean(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs_clean(block, tmp_path):
    script = tmp_path / "readme_block.py"
    script.write_text(block)
    proc = run_clean(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
