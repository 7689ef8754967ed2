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
from roadflow.network_sim import PATH_CAP

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SINGLE_LINK = SCENARIO_DIR / "single_link_congestion.json"
SOCIAL = SCENARIO_DIR / "departure_spread_social.json"
PRIVATE = SCENARIO_DIR / "private_ring_demo.json"
EQUILIBRIUM = SCENARIO_DIR / "parallel_routes_equilibrium.json"
SWEDEN = SCENARIO_DIR / "sweden_corridor.json"
PLATOON = SCENARIO_DIR / "platoon_velocity.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_refused(doc, expected, tmp_path, capsys):
    """``validate`` and the kind's subcommand both exit 2 with one JSON
    object naming ``expected``, and the run writes no output directory."""
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))      # writes NaN and Infinity
    for argv in (["validate", "--scenario", str(scenario)],
                 [doc["kind"], "--scenario", str(scenario),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err)  # one JSON object
        assert payload["error"] == "schema"
        assert expected in payload["message"]
    assert not (tmp_path / "out").exists()


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
    assert_refused(doc, expected, tmp_path, capsys)


@pytest.mark.parametrize("field, value", [("horizon", 1e9),
                                          ("cells", 10 ** 9)])
def test_oversized_platoon_flow_is_schema_error(field, value, tmp_path,
                                                capsys):
    # finite and valid, but one solve would hold ~1e12 or more positions
    doc = json.loads(PLATOON.read_text())
    doc[field] = value
    assert_refused(doc, "particle positions", tmp_path, capsys)


def _background_window(doc, window):
    doc["background"] = {"law": {"kind": "constant", "speed": 1.0},
                         "initial": 0.0, "window": window}


@pytest.mark.parametrize("source, edit, expected", [
    # np.linspace could not allocate 10**15 time knots
    (PLATOON, lambda d: d["control"].update(t_knots=10 ** 15),
     "platoon-flow.control: a run would hold a knot grid of "
     "5000000000000000 values"),
    (PLATOON, lambda d: _background_window(d, {"lower": 0.7, "upper": 0.3}),
     "platoon-flow.background.window.upper: must be >= 0.7"),
    (SINGLE_LINK, lambda d: d.update(windows={"lower": 0.7, "upper": 0.3}),
     "simulate.windows.upper: must be >= 0.7"),
    (SINGLE_LINK, lambda d: d.update(windows={"upper": 5.0}),
     "simulate.windows: window reaches beyond the link's length 1"),
    (SINGLE_LINK, lambda d: d.update(windows={"7-8": {"lower": 0.5}}),
     "simulate.windows.7-8: window given for a link not in the network"),
])
def test_knot_grid_and_window_faults_are_schema_errors(source, edit, expected,
                                                        tmp_path, capsys):
    doc = json.loads(source.read_text())
    edit(doc)
    assert_refused(doc, expected, tmp_path, capsys)


def _edit_all(entries, **fields):
    for entry in entries:
        entry.update(fields)


def _no_sources(doc):
    doc.pop("sources", None)
    _edit_all(doc["cases"], sources=[])


# Each case names a node, link or value that the run cannot use; the reader
# of that field refuses it, so no run starts.
@pytest.mark.parametrize("source, edit, expected", [
    # nodes and links that are not in the network
    (SOCIAL, lambda d: d.update(theta_controls=[
        {"node": 9, "commodity": 0, "links": ["0-1"]}]),
     "social-opt.theta_controls[0].node: node not in the network"),
    (SOCIAL, lambda d: _edit_all(d["commodities"], destination=9),
     "social-opt.commodities[0].destination: node not in the network"),
    (SINGLE_LINK, lambda d: (_no_sources(d),
                             _edit_all(d["commodities"], destination=9)),
     "simulate.commodities[0].destination: node not in the network"),
    (EQUILIBRIUM, lambda d: d["base_splits"].update({"9": {"1-2": 1.0}}),
     "equilibrium.base_splits.9: node not in the network"),
    (EQUILIBRIUM, lambda d: d.update(routed_policy={
        "kind": "database", "table": {"7-8": [[0.0, 1.0, 1.0]]}}),
     "equilibrium.routed_policy.table.7-8: cost given for a link not in "
     "the network"),
    # the (node, link, commodity) of a demand or source control
    (SOCIAL, lambda d: _edit_all(d["demand"] + d["source_controls"],
                                 link=[0, 2]),
     "social-opt.demand[0].link: link not in the network"),
    (SOCIAL, lambda d: d["source_controls"].append(
        {"node": 0, "link": [0, 2], "commodity": 0}),
     "social-opt.source_controls[1].link: link not in the network"),
    (SOCIAL, lambda d: _edit_all(d["demand"] + d["source_controls"], node=1),
     "social-opt.demand[0].link: link does not leave node 1"),
    (SOCIAL, lambda d: d["demand"].append(dict(d["demand"][0], total=5.0)),
     "social-opt.demand[1]: duplicate demand entry"),
    # routes that cannot exist
    (EQUILIBRIUM, lambda d: d.update(destination=0),
     "equilibrium.destination: cannot be reached beyond the head of "
     "entry_link"),
    (EQUILIBRIUM, lambda d: d.update(destination=1),
     "equilibrium.destination: cannot be reached"),
    (EQUILIBRIUM, lambda d: d["base_splits"]["1"].update({"2-4": 0.3}),
     "equilibrium.base_splits.1: link 2-4 does not leave node 1"),
    (SOCIAL, lambda d: d.update(theta_controls=[
        {"node": 1, "commodity": 0, "links": []}]),
     "social-opt.theta_controls[0].node: node 1 has no out-link"),
    # negative rates, integers too large for a float, lists that are not
    (EQUILIBRIUM, lambda d: d.update(demand_segments=[[0.0, 1.0, -0.5]]),
     "equilibrium.demand_segments[0]: segment must be"),
    (PLATOON, lambda d: d.update(inflow_segments=[[0.0, 1.0, -0.5]]),
     "platoon-flow.inflow_segments[0]: segment must be"),
    (EQUILIBRIUM, lambda d: d["base_splits"]["2"].update({"2-4": 10 ** 400}),
     "equilibrium.base_splits.2.2-4: fraction must be"),
    (SINGLE_LINK, lambda d: d["cases"][0]["sources"][0].update(
        segments=[[0.0, 10 ** 400, 1.0]]),
     "simulate.cases[0].sources[0].segments[0]: segment must be"),
    (SOCIAL, lambda d: d.update(theta_controls=5),
     "social-opt.theta_controls: expected a list"),
    (SINGLE_LINK, lambda d: d["cases"][0].update(initial_density=5),
     "simulate.cases[0].initial_density: expected a list"),
])
def test_network_reference_faults_are_schema_errors(source, edit, expected,
                                                     tmp_path, capsys):
    doc = json.loads(source.read_text())
    edit(doc)
    assert_refused(doc, expected, tmp_path, capsys)


def test_negative_source_rate_is_schema_error(tmp_path, capsys):
    doc = json.loads(SINGLE_LINK.read_text())
    doc["cases"][0]["sources"][0]["segments"] = [[0.0, 1.0, -0.5]]
    assert_refused(doc, "simulate.cases[0].sources", tmp_path, capsys)


def ladder(rungs: int) -> dict:
    """An equilibrium on an entry link into ``rungs`` diamonds in series:
    2 ** rungs simple paths from node 1 to the destination."""
    links, rows = [[0, 1]], {}
    for i in range(rungs):
        a, b, c = 2 * i + 1, 2 * i + 2, 2 * i + 3
        links += [[a, b], [a, c], [b, c]]
        rows[str(a)] = {f"{a}-{b}": 0.5, f"{a}-{c}": 0.5}
        rows[str(b)] = {f"{b}-{c}": 1.0}
    return {"kind": "equilibrium", "seed": 0,
            "network": {"links": [{"tail": t, "head": h} for t, h in links]},
            "laws": {"kind": "constant", "speed": 1.0}, "horizon": 2.0,
            "grid": {"cells": 8}, "entry_link": [0, 1],
            "destination": 2 * rungs + 1,
            "demand_segments": [[0.0, 1.0, 1.0]], "alpha": 0.5, "rounds": 1,
            "base_splits": rows,
            "routed_policy": {"kind": "full_information"},
            "non_routed_policy": {"kind": "static"}}


def test_path_cap_is_compute_error(tmp_path, capsys):
    scenario = tmp_path / "ladder.json"
    scenario.write_text(json.dumps(ladder(7)))          # 128 paths
    out = tmp_path / "out"
    assert main(["equilibrium", "--scenario", str(scenario),
                 "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err)      # one JSON object
    assert payload["error"] == "compute"
    assert f"more than {PATH_CAP} simple paths" in payload["message"]
    assert not (out / "gaps.csv").exists()


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
    assert_refused(doc, expected, tmp_path, capsys)


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
