"""Command line driver: exit codes, artifacts, manifests, determinism."""

import csv
import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from roadflow import cli
from roadflow.cli import main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SINGLE_LINK = SCENARIO_DIR / "single_link_congestion.json"
SOCIAL = SCENARIO_DIR / "departure_spread_social.json"
PRIVATE = SCENARIO_DIR / "private_ring_demo.json"
EQUILIBRIUM = SCENARIO_DIR / "parallel_routes_equilibrium.json"
SWEDEN = SCENARIO_DIR / "sweden_corridor.json"


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


@pytest.mark.parametrize("kind, field", [("equilibrium", "base_splits"),
                                         ("simulate", "splits")])
# 0.4999999999 makes the row sum 1 - 1e-10: within 1e-9 of 1 but not within
# the simulator's 1e-12; a NaN fraction makes a NaN sum, which no check refused
@pytest.mark.parametrize("fraction", [0.4999999999, math.nan])
def test_row_off_by_more_than_the_simulator_tolerance_is_schema_error(
        kind, field, fraction, tmp_path, capsys):
    doc = json.loads(EQUILIBRIUM.read_text())
    if kind == "simulate":
        doc = {name: doc[name] for name in ("seed", "network", "laws",
                                            "horizon", "grid")}
        doc.update(kind="simulate",
                   commodities=[{"group": "routed", "destination": 4}],
                   cases=[{"name": "run", "sources": [
                       {"node": 0, "link": [0, 1], "commodity": 0,
                        "segments": [[0.0, 2.0, 1.0]]}]}])
    doc[field] = {"1": {"1-2": 0.5, "1-3": fraction},
                  "2": {"2-4": 1.0}, "3": {"3-4": 1.0}}
    scenario = tmp_path / "near_row.json"
    scenario.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(scenario)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert f"{kind}.{field}.1" in message
    out = tmp_path / "out"
    assert main([kind, "--scenario", str(scenario), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)    # exactly one JSON object
    assert payload["error"] == "schema"
    assert not out.exists()


@pytest.mark.parametrize("field, value, expected", [
    ("horizon", math.nan, "equilibrium.horizon: expected a finite number"),
    ("horizon", math.inf, "equilibrium.horizon: expected a finite number"),
    ("alpha", math.nan, "equilibrium.alpha: expected a finite number"),
    # finite, but the state would need ~1.8e13 float64 values
    ("horizon", 1e9, "more than the cap"),
])
def test_non_finite_or_oversized_number_is_schema_error(
        field, value, expected, tmp_path, capsys):
    doc = json.loads(EQUILIBRIUM.read_text())
    doc[field] = value
    scenario = tmp_path / "bad_number.json"
    scenario.write_text(json.dumps(doc))      # writes NaN and Infinity
    for argv in (["validate", "--scenario", str(scenario)],
                 ["equilibrium", "--scenario", str(scenario),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        payload = json.loads(err)              # exactly one JSON object
        assert payload["error"] == "schema"
        assert expected in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("horizon", 1e9),
                                          ("cells", 10 ** 9)])
def test_oversized_platoon_flow_is_schema_error(field, value, tmp_path,
                                                capsys):
    # finite and valid, but one solve would hold ~1e12 or more positions
    doc = json.loads((SCENARIO_DIR / "platoon_velocity.json").read_text())
    doc[field] = value
    scenario = tmp_path / "huge_platoon.json"
    scenario.write_text(json.dumps(doc))
    for argv in (["validate", "--scenario", str(scenario)],
                 ["platoon-flow", "--scenario", str(scenario),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err)  # one JSON object
        assert payload["error"] == "schema"
        assert "particle positions" in payload["message"]
    assert not (tmp_path / "out").exists()


def _first_vehicle(doc, **fields):
    doc["vehicles"][0].update(fields)


def _first_dwell(doc, dwell):
    doc["graph"]["edges"][0][3] = dwell


@pytest.mark.parametrize("source, edit, expected", [
    # 10**9 iterations of 80 vehicles: an 8e10-value trajectory
    (SWEDEN, lambda d: d.update(iterations=10 ** 9), "trajectory"),
    # 2e9 vehicles are refused before one of them is built
    (SWEDEN, lambda d: d.update(vehicles_per_flow=10 ** 9), "trajectory"),
    (SWEDEN, lambda d: d.update(max_delay=10 ** 8), "count grid"),
    (PRIVATE, lambda d: _first_vehicle(d, depart=10 ** 9), "count grid"),
    (PRIVATE, lambda d: _first_vehicle(d, window=[0, 10 ** 12]),
     "count grid"),
    (PRIVATE, lambda d: _first_vehicle(d, depart=10 ** 30), "vehicles[0]"),
    # a walk of 10**15 steps is refused before the vehicle is built
    (PRIVATE, lambda d: _first_dwell(d, 10 ** 15),
     "vehicles[0]: a run would hold a walk of 1000000000000001 values"),
    # a dwell beyond int64 is refused where the graph is built
    (PRIVATE, lambda d: _first_dwell(d, 1e300), "schedule-private.graph"),
])
def test_oversized_schedule_is_schema_error(source, edit, expected, tmp_path,
                                            capsys):
    doc = json.loads(source.read_text())
    edit(doc)
    scenario = tmp_path / "huge_schedule.json"
    scenario.write_text(json.dumps(doc))
    for argv in (["validate", "--scenario", str(scenario)],
                 [doc["kind"], "--scenario", str(scenario),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err)  # one JSON object
        assert payload["error"] == "schema"
        assert expected in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["schedule", "schedule-private"])
@pytest.mark.parametrize("tau0, expected", [
    (1, "initial coordination cost is -inf"),
    (0, "scored a non-finite cost"),
])
def test_non_finite_cost_is_compute_error(kind, tau0, expected, tmp_path,
                                          capsys):
    # weight 0.5 and gamma 1e308: apart, the two vehicles cost -1e308;
    # aligned, -2e308 overflows.  A window of [1, 1] starts them aligned.
    doc = {"kind": kind, "seed": 3, "gamma": 1e308, "iterations": 20,
           "graph": {"edges": [["A", "B", 0.5, 1]]},
           "vehicles": [{"hubs": ["A", "B"], "depart": 0,
                         "window": [tau0, 1]},
                        {"hubs": ["A", "B"], "depart": 1, "window": [0, 1]}]}
    if kind == "schedule-private":
        doc["bits"] = 256
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([kind, "--scenario", str(scenario), "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err)      # one JSON object
    assert payload["error"] == "compute"
    assert expected in payload["message"]
    assert not (out / "cost_trace.csv").exists()


def test_zero_gamma_costs_only_the_delays(tmp_path, capsys):
    # weight 1e308 makes the weighted reward sum overflow to inf; with
    # gamma 0 the platooning term must vanish instead of giving -0.0 * inf
    doc = {"kind": "schedule", "seed": 3, "gamma": 0.0, "iterations": 20,
           "graph": {"edges": [["A", "B", 1e308, 1]]},
           "vehicles": [{"hubs": ["A", "B"], "depart": 0, "window": [1, 2],
                         "delay_cost_slope": 0.5},
                        {"hubs": ["A", "B"], "depart": 1, "window": [0, 1]}]}
    scenario = tmp_path / "zero_gamma.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["schedule", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "cost_trace.csv", newline="") as fh:
        costs = [float(row["cost"]) for row in csv.DictReader(fh)]
    with open(out / "best_delays.csv", newline="") as fh:
        (first, _) = list(csv.DictReader(fh))
    assert costs[0] == 0.5                   # both vehicles start at window_lo
    assert set(costs) <= {0.5, 1.0}
    assert float(first["delay"]) == 1.0      # the cheapest delay, cost 0.5


def test_scalar_initial_profile_fills_the_link(tmp_path, capsys):
    scenario = tmp_path / "scalar_profile.json"
    doc = json.loads(SINGLE_LINK.read_text())
    doc["cases"][1]["initial_density"][0]["profile"] = 0.5
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    with open(out / "mass_report_slab.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    link_length = 1.0
    assert float(row["stored_initial"]) == pytest.approx(0.5 * link_length,
                                                         rel=1e-12)


@pytest.mark.parametrize("error", [RuntimeError, MemoryError])
def test_runtime_error_in_runner_is_compute_error(error, tmp_path, capsys,
                                                  monkeypatch):
    def failing_runner(built, out, seed):
        raise error("no routing policy converged")

    monkeypatch.setitem(cli.RUNNERS, "simulate", failing_runner)
    code = main(["simulate", "--scenario", str(SINGLE_LINK),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)                  # exactly one JSON object
    assert payload["error"] == "compute"
    assert "no routing policy converged" in payload["message"]
    assert not (tmp_path / "out" / "run_manifest.json").exists()


def reference_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_table(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([reference_cell(v) for v in row])


#: values whose text is easy to get wrong: non-finite, signed zero, the
#: smallest subnormal, a large exact integer, a rounding sum, integer floats
AWKWARD = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e22, 0.1 + 0.2, 3.0,
           -2.0, 0.0, 1.0, 123456789.0]


def test_space_time_writer_matches_csv_reference(tmp_path):
    times = np.array([0.0, 0.1 + 0.2, 1e22, -0.0])
    cells = np.array([5e-324, 0.5, 3.0])
    rng = np.random.default_rng(5)
    values = rng.choice(AWKWARD, size=(len(times), 2, len(cells)))
    tail = np.array([np.nan, 7.0, -np.inf, 0.1 + 0.2])
    header = ["t", "x", "rho_0", "rho_1", "speed"]
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    cli._write_space_time(ours, header, cli._reprs(times), cli._reprs(cells),
                          values.transpose(0, 2, 1), tail=tail.tolist())
    reference_table(ref, header,
                    [[times[m], x] + list(values[m, :, c]) + [tail[m]]
                     for m in range(len(times))
                     for c, x in enumerate(cells)])
    assert ours.read_bytes() == ref.read_bytes()


def test_q_table_goes_through_space_time_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    fields = rng.choice(AWKWARD, size=(250, 4))
    sol = SimpleNamespace(times=np.linspace(0.0, 2.0, 250),
                          x_centers=np.array([0.125, 0.375, 0.625, 0.875]),
                          density_fields=lambda: fields)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0])
        return writer(*args, **kwargs)

    writer = cli._write_space_time
    monkeypatch.setattr(cli, "_write_space_time", recording)
    ours, ref = tmp_path / "q.csv", tmp_path / "ref.csv"
    cli._write_q_table(ours, sol)
    assert calls == [ours]
    keep = cli._time_rows(len(sol.times))
    assert len(keep) == cli.TIME_ROW_CAP
    reference_table(ref, ["t", "x", "q"],
                    [[sol.times[m], x, fields[m, c]] for m in keep
                     for c, x in enumerate(sol.x_centers)])
    assert ours.read_bytes() == ref.read_bytes()
