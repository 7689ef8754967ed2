"""Command line driver: exit codes, artifacts, manifests, determinism."""

import csv
import hashlib
import json
import math
import os
import signal
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from roadflow import cli, forked, private_agg
from roadflow.cli import main
from roadflow.errors import ComputeError
from roadflow.network_sim import PATH_CAP

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SINGLE_LINK = SCENARIO_DIR / "single_link_congestion.json"
SOCIAL = SCENARIO_DIR / "departure_spread_social.json"
PRIVATE = SCENARIO_DIR / "private_ring_demo.json"
EQUILIBRIUM = SCENARIO_DIR / "parallel_routes_equilibrium.json"
SWEDEN = SCENARIO_DIR / "sweden_corridor.json"
PLATOON = SCENARIO_DIR / "platoon_velocity.json"


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:         # no children at all
        return
    pytest.fail(f"a child process is still there (waitpid gave {pid})")


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


@pytest.mark.parametrize("source, edit, expected", [
    # horizon x top speed / (cfl x cell width) is infinite: the step count
    # cannot become an integer
    (SOCIAL, lambda d: d["knots"].__setitem__(4, 1e308), "social-opt.knots: "),
    (EQUILIBRIUM, lambda d: d["laws"]["3-4"].update(speed=1e308),
     "equilibrium.laws: "),
    (EQUILIBRIUM, lambda d: d.update(horizon=1e308), "equilibrium.horizon: "),
])
def test_step_count_overflow_is_schema_error(source, edit, expected, tmp_path,
                                             capsys):
    doc = json.loads(source.read_text())
    edit(doc)
    assert_refused(doc, expected, tmp_path, capsys)


@pytest.mark.parametrize("source, edit", [
    (EQUILIBRIUM, lambda d: d["laws"]["1-2"].update(gain=1e308)),
    (PLATOON, lambda d: d.update(length=1e308)),
])
def test_overflow_in_a_run_writes_only_the_error(source, edit, tmp_path,
                                                 capsys):
    # numpy overflows on the way to the compute error; its warning text
    # would reach stderr ahead of the JSON object
    doc = json.loads(source.read_text())
    edit(doc)
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main([doc["kind"], "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 1
    assert [str(w.message) for w in seen] == []
    payload = json.loads(capsys.readouterr().err)    # exactly one JSON object
    assert payload["error"] == "compute"


@pytest.mark.parametrize("field, value", [("horizon", 1e9),
                                          ("cells", 10 ** 9)])
def test_oversized_platoon_flow_is_schema_error(field, value, tmp_path,
                                                capsys):
    # finite and valid, but one solve would hold ~1e12 or more positions
    doc = json.loads(PLATOON.read_text())
    doc[field] = value
    assert_refused(doc, "particle positions", tmp_path, capsys)


@pytest.mark.parametrize("free_speed, expected", [
    # ~4.4e8 density values (3.5 GB), and ~4.4e12 (a MemoryError)
    (1e5, "platoon-flow.background: a run would hold a density block"),
    (1e9, "platoon-flow.background: a run would hold a density block"),
    # horizon x top speed / (cfl x cell width) is infinite
    (1e308, "platoon-flow.background.law: "),
])
def test_oversized_platoon_background_is_schema_error(free_speed, expected,
                                                      tmp_path, capsys):
    # the trucks fit the cap; the background run at its own speed does not
    doc = json.loads(PLATOON.read_text())
    doc["background"] = {"law": {"kind": "congestion",
                                 "free_speed": free_speed, "gain": 1},
                         "initial": 0.0}
    assert_refused(doc, expected, tmp_path, capsys)


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
    # the road has length 5; the window would be clipped to nothing
    (PLATOON, lambda d: _background_window(d, {"lower": 7, "upper": 9}),
     "platoon-flow.background.window: window reaches beyond the link's "
     "length 5"),
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


def table_jobs(directory: Path, count: int) -> list:
    """``count`` space-time tables, alternately of ``AWKWARD`` and random
    values, in ``directory``."""
    rng = np.random.default_rng(8)
    times = np.array([0.0, 0.1 + 0.2, 1e22, -0.0, 2.5])
    cells = np.array([5e-324, 0.5, 3.0])
    header = ["t", "x", "rho_0", "rho_1", "speed"]
    jobs = []
    for i in range(count):
        shape = (len(times), len(cells), 2)
        values = (rng.choice(AWKWARD, size=shape) if i % 2 == 0
                  else rng.standard_normal(shape) * 10.0 ** rng.integers(
                      -300, 300, size=shape))
        jobs.append((directory / f"table_{i}.csv", header, cli._reprs(times),
                     cli._reprs(cells), values,
                     rng.choice(AWKWARD, size=len(times)).tolist()))
    return jobs


@pytest.mark.parametrize("workers", [1, 2, 3, 9])
def test_table_writers_match_one_process_write(workers, tmp_path,
                                               monkeypatch):
    (tmp_path / "ref").mkdir()
    (tmp_path / "ours").mkdir()
    for job in table_jobs(tmp_path / "ref", 5):
        cli._write_space_time(*job)
    monkeypatch.setattr(forked, "_usable_cpus", lambda: workers)
    cli._write_tables(table_jobs(tmp_path / "ours", 5))
    for i in range(5):
        name = f"table_{i}.csv"
        assert ((tmp_path / "ours" / name).read_bytes()
                == (tmp_path / "ref" / name).read_bytes())


def test_table_failing_in_a_child_is_compute_error(tmp_path, capsys,
                                                   monkeypatch):
    messages = []
    for workers in (1, 2):      # the slab table is the child's with two
        monkeypatch.setattr(forked, "_usable_cpus", lambda: workers)
        out = tmp_path / f"out_{workers}"
        (out / "density_slab_0-1.csv").mkdir(parents=True)
        code = main(["simulate", "--scenario", str(SINGLE_LINK),
                     "--out", str(out)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)   # one JSON object
        assert payload["error"] == "compute"
        messages.append(payload["message"])
        assert not (out / "run_manifest.json").exists()
    assert "IsADirectoryError" in messages[0]
    assert messages[1] == messages[0]


@pytest.mark.parametrize("failing", [(1, 2), (2, 3), (3, 4)])
def test_first_failing_table_in_file_order_is_reported(failing, tmp_path,
                                                       monkeypatch):
    # three workers write tables {0, 3}, {1, 4} and {2, 5}; the parent the
    # first share, a child each of the others
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 3)
    jobs = table_jobs(tmp_path, 6)
    for i in failing:
        jobs[i][0].mkdir()
    with pytest.raises(IsADirectoryError) as info:
        cli._write_tables(jobs)
    assert info.value.filename == str(jobs[failing[0]][0])


def test_failed_fork_is_compute_error_and_closes_its_pipe(tmp_path, capsys,
                                                          monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(forked.os, "fork", no_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    code = main(["simulate", "--scenario", str(SINGLE_LINK),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)     # one JSON object
    assert payload["error"] == "compute"
    assert "Resource temporarily unavailable" in payload["message"]
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_failed_fork_leaves_the_private_run_in_one_process(tmp_path,
                                                           monkeypatch):
    # the helper only shares powers: without it the same bits come out
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    private = ["schedule-private", "--scenario", str(PRIVATE), "--out"]
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
    assert main(private + [str(tmp_path / "forked")]) == 0
    monkeypatch.setattr(forked.os, "fork", no_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert main(private + [str(tmp_path / "unforked")]) == 0
    assert sorted(os.listdir("/proc/self/fd")) == fds
    names = sorted(p.name for p in (tmp_path / "forked").iterdir())
    assert "transcript.csv" in names
    assert sorted(p.name for p in (tmp_path / "unforked").iterdir()) == names
    for name in names:
        if name != "run_manifest.json":
            assert (sha256(tmp_path / "unforked" / name)
                    == sha256(tmp_path / "forked" / name))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runs_leave_no_process_on_any_exit(tmp_path, capsys, monkeypatch):
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(forked.os, "fork", counting_fork)
    private = ["schedule-private", "--scenario", str(PRIVATE), "--out"]
    assert main(private + [str(tmp_path / "ok")]) == 0
    assert len(forks) == 1                  # one helper for the command
    assert_no_child_left()

    real_pass = private_agg.chain_aggregate

    def failing_pass(*args, **kwargs):
        real_pass(*args, **kwargs)
        raise ComputeError("injected after the first ring pass")

    monkeypatch.setattr(private_agg, "chain_aggregate", failing_pass)
    capsys.readouterr()
    assert main(private + [str(tmp_path / "failed")]) == 1
    assert "injected" in json.loads(capsys.readouterr().err)["message"]
    assert_no_child_left()
    assert not private_agg._RUNNING

    out = tmp_path / "tables"
    (out / "density_slab_0-1.csv").mkdir(parents=True)
    assert main(["simulate", "--scenario", str(SINGLE_LINK),
                 "--out", str(out)]) == 1
    assert_no_child_left()


def test_helper_ends_when_its_parent_closes_the_pipe(monkeypatch):
    # the parent sends no stop message: the end of its requests is the stop
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
    helpers = forked.Helpers(lambda items: [2 * x for x in items], 2)
    assert helpers.map([1, 2, 3]) == [2, 4, 6]
    (pid, request_w, result_r), = helpers.pipes
    helpers.pipes = []
    os.close(request_w)
    result_r.close()
    deadline = time.monotonic() + 10
    while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the helper outlived its parent's pipe")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(ended[1]) == 0
    assert_no_child_left()


def test_helper_that_fails_is_an_error_and_is_waited_for(monkeypatch):
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="ended early"):
        with forked.Helpers(lambda items: [1 // x for x in items],
                            2) as helpers:
            assert helpers.map([1, 2]) == [1, 0]
            helpers.map([1, 0])     # the helper's share divides by zero
    assert_no_child_left()


def test_one_usable_cpu_forks_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(forked, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(forked.os, "fork", no_fork)
    for kind, scenario in (("schedule-private", PRIVATE),
                           ("simulate", SINGLE_LINK)):
        assert main([kind, "--scenario", str(scenario),
                     "--out", str(tmp_path / kind)]) == 0
