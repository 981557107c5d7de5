import os
import subprocess
import sys
from pathlib import Path

import pytest

import cascade_risk

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
