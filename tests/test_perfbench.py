"""The benchmark harness in ``perfbench/`` runs on this tree.

``perfbench/tracing.py`` wraps library functions by module and name (for
example ``roadflow.platoon_flow.solve_freight_pair`` and
``roadflow.social_optimum.simulate``), and its checks read the outputs
of every workload, so a change that drops a wrapped name or breaks an
output fails here rather than in a benchmark run.
"""

import json
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


def test_tracer_spans_a_command_call_once():
    # the tracer wraps keygen both on roadflow.cli and on its layer module;
    # a command's call goes through the first only, and uninstalling
    # leaves no wrapper behind on the package root
    code = "\n".join([
        "import json, sys",
        "import numpy as np",
        "sys.path[:0] = ['src', 'perfbench']",
        "from tracing import Tracer",
        "import roadflow, roadflow.cli as cli",
        "tracer = Tracer()",
        "tracer.install(True)",
        "tracer.active = True",
        "cli.keygen(256, np.random.default_rng(0))",
        "tracer.uninstall()",
        "print(json.dumps([[span[0] for span in tracer.spans],",
        "                  roadflow.keygen is roadflow.private_agg.keygen]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans, unwrapped = json.loads(proc.stdout.splitlines()[-1])
    assert spans == ["private_agg.keygen"]
    assert unwrapped
