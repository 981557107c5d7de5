import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cascade_risk

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert [demo.name for demo in DEMOS] == [
        "complete_graph_case_study.py", "path_profile_and_rewiring.py",
        "simulator_check.py", "sparsity_sweep.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo):
    # the child imports the same package as this process, installed or not
    src = str(Path(cascade_risk.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=demo.parent.parent,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_runs():
    # the README's python block, run as written: one line per pair of
    # the 10-vehicle chain that has not failed (9 pairs, 2 failed)
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.split("```", 1)[0], {})
    lines = out.getvalue().splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"pair {j}" for j in (1, 2, 3, 6, 7, 8, 9)]
