"""The package root and the command line load a layer only on first use.

A bare ``import roadflow`` or ``import roadflow.cli`` loads no layer
module, and ``roadflow validate`` loads only the layers its scenario kind
builds, a run only those it calls.  Each of these runs in a fresh
interpreter without bytecode files, as a command line run starts.  The
exports resolve to the objects their modules define.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roadflow
import roadflow.cli as cli

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))

#: what every command loads: the package, the command line and the
#: scenario reader
FRONT = {"roadflow", "roadflow.cli", "roadflow.errors", "roadflow.scenario"}
NETWORK = {"roadflow.network", "roadflow.network_sim",
           "roadflow.nonlocal_solver"}
#: the layer modules each scenario kind loads beside FRONT
KIND_LAYERS = {
    "schedule": {"roadflow.scheduler"},
    "schedule-private": {"roadflow.scheduler"},
    "platoon-flow": {"roadflow.nonlocal_solver", "roadflow.platoon_flow"},
    "simulate": NETWORK,
    "equilibrium": NETWORK | {"roadflow.routing"},
    "social-opt": NETWORK | {"roadflow.social_optimum"},
}


def modules_after(code: str) -> set:
    """The ``roadflow`` modules a fresh interpreter holds after ``code``."""
    script = (code + "\nimport json, sys\nprint(json.dumps(sorted("
              "m for m in sys.modules if m.split('.')[0] == 'roadflow')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_bundled_scenarios_cover_every_kind():
    kinds = {json.loads(path.read_text())["kind"] for path in SCENARIOS}
    assert kinds == set(KIND_LAYERS) == set(cli.KINDS)


@pytest.mark.parametrize("code, loaded", [
    ("import roadflow", {"roadflow"}),
    ("import roadflow.cli", FRONT),
], ids=["package", "cli"])
def test_import_loads_no_layer(code, loaded):
    assert modules_after(code) == loaded


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_validate_loads_only_its_kinds_layers(path):
    kind = json.loads(path.read_text())["kind"]
    code = ("from roadflow.cli import main\n"
            f"assert main(['validate', '--scenario', {str(path)!r}]) == 0")
    assert modules_after(code) == FRONT | KIND_LAYERS[kind]


def test_exports_are_their_modules_objects():
    names = set(roadflow.__all__) - {"errors", "__version__"}
    for name in names:
        value = getattr(roadflow, name)
        assert value.__module__.startswith("roadflow."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert roadflow.simulate is roadflow.network_sim.simulate
    assert roadflow.GridSpec is roadflow.nonlocal_solver.GridSpec

    star: dict = {}
    exec("from roadflow import *", star)
    assert all(star[name] is getattr(roadflow, name)
               for name in roadflow.__all__)
    assert set(roadflow.__all__) <= set(dir(roadflow))
    assert roadflow.errors.SchemaError.__module__ == "roadflow.errors"
    assert isinstance(roadflow.__version__, str)
    with pytest.raises(AttributeError, match="no_such_name"):
        roadflow.no_such_name


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_run_loads_only_its_kinds_layers(path, tmp_path):
    kind = json.loads(path.read_text())["kind"]
    argv = [kind, "--scenario", str(path), "--out", str(tmp_path)]
    code = f"from roadflow.cli import main\nassert main({argv!r}) == 0"
    # the private run's ring pass is the one layer its validation skips
    extra = {"roadflow.private_agg"} if kind == "schedule-private" else set()
    assert modules_after(code) == FRONT | KIND_LAYERS[kind] | extra


def test_cli_layer_functions_are_the_packages():
    for name in cli._LAYER_CALLS:
        assert getattr(cli, name) is getattr(roadflow, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
