"""Golden record: the sha256 of every artifact of the bundled scenarios.

Each bundled scenario, and each policy-kind scenario under
``tests/golden/scenarios/``, is rerun in process through ``cli.main`` with
its own seed, and every artifact listed in its manifest must have the
digest stored in ``tests/golden/<scenario stem>.json``.  The policy-kind
scenarios are small ``equilibrium`` runs that together use every routing
policy kind the CLI builds besides ``full_information`` and ``static``.
``run_manifest.json`` itself is not recorded: its wall time and timestamp
are not reproducible.

The digests pin one platform: numpy 2.4.6 on x86_64.  Another numpy or
CPU may round a reduction differently and move the last bits of a float.

A change that is meant to move bytes regenerates the record with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which files moved and why.
"""

import json
import tempfile
from pathlib import Path

import pytest

from roadflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = (sorted(SCENARIO_DIR.glob("*.json"))
             + sorted((GOLDEN_DIR / "scenarios").glob("*.json")))


def run_digests(scenario: Path, out: Path) -> dict:
    """Run ``scenario`` into ``out`` and return its manifest's digests."""
    kind = json.loads(scenario.read_text())["kind"]
    code = main([kind, "--scenario", str(scenario), "--out", str(out)])
    assert code == 0, f"{scenario.name} exited {code}"
    return json.loads((out / "run_manifest.json").read_text())["artifacts"]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_bundled_artifacts_match_golden_record(scenario, tmp_path, capsys):
    expected = json.loads((GOLDEN_DIR / f"{scenario.stem}.json").read_text())
    got = run_digests(scenario, tmp_path)
    assert sorted(got) == sorted(expected), (
        f"{scenario.name}: artifact names differ from the golden record")
    for name in sorted(expected):
        assert got[name] == expected[name], (
            f"{scenario.name}: {name} differs from the golden record")


def write_record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_digests(scenario, Path(tmp))
        with open(GOLDEN_DIR / f"{scenario.stem}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    write_record()
