"""The benchmark harness in ``perfbench/`` runs on this tree.

``perfbench/tracing.py`` wraps library functions by module and name (for
example ``roadflow.platoon_flow.solve_freight_pair`` and
``roadflow.social_optimum.simulate``), and its checks read the outputs
of every workload, so a change that drops a wrapped name or breaks an
output fails here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("command", [["perfbench/run.py", "--smoke"],
                                     ["perfbench/selftest.py"]],
                         ids=["smoke", "selftest"])
def test_perfbench_command_exits_zero(command):
    proc = subprocess.run([sys.executable, *command], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
