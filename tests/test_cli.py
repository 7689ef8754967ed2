"""Command line driver: exit codes, artifacts, manifests, determinism."""

import hashlib
import json
from pathlib import Path

from roadflow import cli
from roadflow.cli import main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SINGLE_LINK = SCENARIO_DIR / "single_link_congestion.json"
SOCIAL = SCENARIO_DIR / "departure_spread_social.json"
PRIVATE = SCENARIO_DIR / "private_ring_demo.json"
EQUILIBRIUM = SCENARIO_DIR / "parallel_routes_equilibrium.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_validate_subcommand_accepts_bundled(capsys):
    for p in sorted(SCENARIO_DIR.glob("*.json")):
        assert main(["validate", "--scenario", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok kind=")


def test_kind_mismatch_rejected(capsys):
    code = main(["simulate", "--scenario", str(EQUILIBRIUM)])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "schema"
    assert "equilibrium" in payload["message"]


def test_missing_file_is_schema_error(capsys):
    code = main(["simulate", "--scenario", "no_such_scenario.json"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


def test_validate_only_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never_created"
    code = main(["simulate", "--scenario", str(SINGLE_LINK),
                 "--out", str(out), "--validate-only"])
    assert code == 0
    assert not out.exists()


def test_schema_error_carries_field_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(SINGLE_LINK.read_text())
    doc["grid"]["cells"] = "many"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "grid.cells" in message


def test_simulate_run_writes_manifest_and_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(SINGLE_LINK),
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["kind"] == "simulate"
    assert manifest["scenario_sha256"] == sha256(SINGLE_LINK)
    assert manifest["versions"]["roadflow"]
    for name, digest in manifest["artifacts"].items():
        artifact = out / name
        assert artifact.exists()
        assert sha256(artifact) == digest
    # per-case outputs for both bundled cases
    names = set(manifest["artifacts"])
    assert "mass_report_inflow.csv" in names
    assert "mass_report_slab.csv" in names
    assert any(n.startswith("density_inflow_") for n in names)


def test_rerun_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["social-opt", "--scenario", str(SOCIAL),
                 "--out", str(out1)]) == 0
    assert main(["social-opt", "--scenario", str(SOCIAL),
                 "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "run_manifest.json").read_text())
    m2 = json.loads((out2 / "run_manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]
    for name in m1["artifacts"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_learning_output(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["schedule-private", "--scenario", str(PRIVATE),
                 "--out", str(out1)]) == 0
    assert main(["schedule-private", "--scenario", str(PRIVATE),
                 "--out", str(out2), "--seed", "8"]) == 0
    m1 = json.loads((out1 / "run_manifest.json").read_text())
    m2 = json.loads((out2 / "run_manifest.json").read_text())
    assert m1["seed"] != m2["seed"]
    assert (out1 / "cost_trace.csv").read_bytes() != \
        (out2 / "cost_trace.csv").read_bytes()
    # the ring transcript runs under the overridden seed as well
    assert (out1 / "transcript.csv").read_bytes() != \
        (out2 / "transcript.csv").read_bytes()


def test_threads_flag_does_not_change_social_opt(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["social-opt", "--scenario", str(SOCIAL),
                 "--out", str(out1)]) == 0
    assert main(["social-opt", "--scenario", str(SOCIAL),
                 "--out", str(out2), "--threads", "2"]) == 0
    m1 = json.loads((out1 / "run_manifest.json").read_text())
    m2 = json.loads((out2 / "run_manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]


def test_link_pair_form_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "pair_links.json"
    doc = json.loads(SINGLE_LINK.read_text())
    doc["network"]["links"] = [[0, 1]]
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "schema"
    assert "network.links[0]" in payload["message"]


def test_oversized_key_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "huge_key.json"
    doc = json.loads(PRIVATE.read_text())
    doc["bits"] = 10 ** 9
    bad.write_text(json.dumps(doc))
    code = main(["schedule-private", "--scenario", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)  # exactly one JSON object
    assert payload["error"] == "schema"
    assert "schedule-private.bits" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_runtime_error_in_runner_is_compute_error(tmp_path, capsys,
                                                  monkeypatch):
    def failing_runner(built, out, seed, threads):
        raise RuntimeError("no routing policy converged")

    monkeypatch.setitem(cli.RUNNERS, "simulate", failing_runner)
    code = main(["simulate", "--scenario", str(SINGLE_LINK),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)                  # exactly one JSON object
    assert payload["error"] == "compute"
    assert "no routing policy converged" in payload["message"]
    assert not (tmp_path / "out" / "run_manifest.json").exists()
