"""Scenario file loading, schema errors, and the bundled scenario set."""

import json
import math
import sys
from pathlib import Path

import pytest

from roadflow.errors import SchemaError
from roadflow.network import as_split_schedule
from roadflow.network_sim import simulate
from roadflow.platoon_flow import solve_freight_pair, truck_steps
from roadflow.scenario import (_MAX_STATE_VALUES, BUILDERS, KINDS,
                               _parse_link, _state_values, build_profile,
                               load_scenario, validate_scenario)
from roadflow.scheduler import default_horizon

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"


def write(tmp_path, payload, name="s.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if not isinstance(payload, str)
                 else payload)
    return p


def minimal_simulate(**overrides):
    doc = {
        "kind": "simulate",
        "seed": 0,
        "network": {"links": [{"tail": 0, "head": 1}]},
        "laws": {"kind": "constant", "speed": 1.0},
        "horizon": 1.0,
        "grid": {"cells": 16},
        "commodities": [{"destination": 1}],
        "cases": [{"name": "base",
                   "sources": [{"node": 0, "link": [0, 1], "commodity": 0,
                                "segments": [[0.0, 0.5, 1.0]]}]}],
    }
    doc.update(overrides)
    return doc


def test_load_errors(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_scenario(write(tmp_path, "{nope"))
    with pytest.raises(SchemaError, match="top level"):
        load_scenario(write(tmp_path, [1, 2]))
    with pytest.raises(SchemaError, match="kind"):
        load_scenario(write(tmp_path, {"seed": 0}))
    with pytest.raises(SchemaError, match="kind"):
        load_scenario(write(tmp_path, {"kind": "teleport", "seed": 0}))
    with pytest.raises(SchemaError, match="seed"):
        load_scenario(write(tmp_path, {"kind": "simulate", "seed": -1}))
    with pytest.raises(SchemaError, match="seed"):
        load_scenario(write(tmp_path, {"kind": "simulate", "seed": True}))
    # a missing seed defaults to zero instead of failing
    assert load_scenario(write(tmp_path, {"kind": "simulate"})).seed == 0


def test_valid_scenario_loads(tmp_path):
    sc = load_scenario(write(tmp_path, minimal_simulate()))
    assert sc.kind == "simulate"
    assert sc.seed == 0
    validate_scenario(sc)       # raises SchemaError on any defect


def test_error_messages_carry_field_paths(tmp_path):
    doc = minimal_simulate(grid={"cells": "many"})
    with pytest.raises(SchemaError, match=r"grid\.cells"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    doc = minimal_simulate(horizon=-2.0)
    with pytest.raises(SchemaError, match="horizon"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    doc = minimal_simulate()
    del doc["laws"]
    with pytest.raises(SchemaError, match="laws"):
        validate_scenario(load_scenario(write(tmp_path, doc)))


def test_link_forms():
    assert _parse_link([0, 1], "p") == (0, 1)
    assert _parse_link("2-3", "p") == (2, 3)
    for bad in ("2:3", [0], [0, 1, 2], "a-b", 7, [0.5, 1]):
        with pytest.raises(SchemaError):
            _parse_link(bad, "p")


def test_profile_forms():
    assert build_profile(2.5, "p") == 2.5
    slab = build_profile({"kind": "slab", "height": 4.0,
                          "lo": 0.5, "hi": 0.7}, "p")
    assert slab(0.6) == 4.0 and slab(0.4) == 0.0 and slab(0.7) == 0.0
    bump = build_profile({"kind": "bump", "lo": 1.0, "hi": 2.6,
                          "scale": 1.0}, "p")
    assert bump(1.0) == 0.0 and bump(2.6) == 0.0
    assert bump(1.8) == pytest.approx((2.6 - 1.8) * (1.8 - 1.0))
    with pytest.raises(SchemaError):
        build_profile({"kind": "slab", "height": 1.0,
                       "lo": 0.7, "hi": 0.5}, "p")
    with pytest.raises(SchemaError):
        build_profile({"kind": "mesa", "height": 1.0}, "p")
    with pytest.raises(SchemaError):
        build_profile("tall", "p")


def test_unknown_law_and_uncovered_links(tmp_path):
    doc = minimal_simulate(laws={"kind": "warp", "speed": 1.0})
    with pytest.raises(SchemaError, match="law kind"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    doc = minimal_simulate(
        network={"links": [{"tail": 0, "head": 1}, {"tail": 1, "head": 2}]},
        laws={"0-1": {"kind": "constant", "speed": 1.0}},
        commodities=[{"destination": 2}])
    with pytest.raises(SchemaError, match="without a law"):
        validate_scenario(load_scenario(write(tmp_path, doc)))


def test_case_name_rules(tmp_path):
    doc = minimal_simulate()
    doc["cases"] = [dict(doc["cases"][0], name="a b")]
    with pytest.raises(SchemaError, match="separators"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    doc = minimal_simulate()
    doc["cases"] = [doc["cases"][0], dict(doc["cases"][0])]
    with pytest.raises(SchemaError, match="duplicate case"):
        validate_scenario(load_scenario(write(tmp_path, doc)))


def test_split_row_sums_checked(tmp_path):
    doc = minimal_simulate(
        network={"links": [{"tail": 0, "head": 1}, {"tail": 1, "head": 2},
                           {"tail": 1, "head": 3}]},
        commodities=[{"destination": 2}],
        splits={"1": {"1-2": 0.6, "1-3": 0.6}})
    with pytest.raises(SchemaError, match="sums to"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    doc["splits"] = {"1": {"1-2": 0.6, "9-9": 0.4}}
    with pytest.raises(SchemaError, match="not in the network"):
        validate_scenario(load_scenario(write(tmp_path, doc)))


def equilibrium_doc(**overrides):
    doc = {
        "kind": "equilibrium", "seed": 0,
        "network": {"links": [{"tail": 0, "head": 1},
                              {"tail": 1, "head": 2}]},
        "laws": {"kind": "constant", "speed": 1.0},
        "horizon": 4.0,
        "grid": {"cells": 16},
        "entry_link": [0, 1],
        "destination": 2,
        "demand_segments": [[0.0, 1.0, 1.0]],
        "alpha": 0.5,
        "rounds": 2,
        "base_splits": {"1": {"1-2": 1.0}},
        "routed_policy": {"kind": "full_information", "beta": 2.0},
        "non_routed_policy": {"kind": "static"},
    }
    doc.update(overrides)
    return doc


def test_equilibrium_policy_kinds_enforced(tmp_path):
    validate_scenario(load_scenario(write(tmp_path, equilibrium_doc())))
    doc = equilibrium_doc(routed_policy={"kind": "static"})
    with pytest.raises(SchemaError, match="routed policy"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    doc = equilibrium_doc(
        non_routed_policy={"kind": "full_information", "beta": 2.0})
    with pytest.raises(SchemaError, match="non-routed"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    doc = equilibrium_doc(alpha=1.5)
    with pytest.raises(SchemaError, match="alpha"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    doc = equilibrium_doc(entry_link=[5, 6])
    with pytest.raises(SchemaError, match="entry_link"):
        validate_scenario(load_scenario(write(tmp_path, doc)))


def test_kind_specific_payload_mismatch(tmp_path):
    doc = equilibrium_doc()
    doc["kind"] = "simulate"
    with pytest.raises(SchemaError):
        validate_scenario(load_scenario(write(tmp_path, doc)))


def test_bundled_scenarios_all_validate():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 6
    kinds = set()
    for p in paths:
        sc = load_scenario(p)
        validate_scenario(sc)
        kinds.add(sc.kind)
    # the bundle exercises every scenario kind
    assert kinds == set(KINDS)


@pytest.mark.parametrize("spec", [
    {"horizon": math.nan}, {"horizon": math.inf}, {"horizon": 10 ** 400},
    {"grid": {"cells": 16, "cfl": math.nan}},
    {"cases": [{"name": "base", "initial_density": [
        {"link": [0, 1], "commodity": 0, "profile": math.nan}]}]},
    {"cases": [{"name": "base", "sources": [
        {"node": 0, "link": [0, 1], "commodity": 0,
         "segments": [[0.0, 0.5, math.inf]]}]}]},
    {"cases": [{"name": "base", "sources": [
        {"node": 0, "link": [0, 1], "commodity": 0,
         "segments": [[math.nan, 0.5, 1.0]]}]}]},
])
def test_non_finite_numbers_are_refused(spec, tmp_path):
    with pytest.raises(SchemaError, match="finite"):
        validate_scenario(load_scenario(write(tmp_path,
                                              minimal_simulate(**spec))))


def test_infinite_segment_bounds_are_kept(tmp_path):
    doc = minimal_simulate(cases=[{"name": "base", "sources": [
        {"node": 0, "link": [0, 1], "commodity": 0,
         "segments": [[0.0, math.inf, 0.5]]}]}])
    validate_scenario(load_scenario(write(tmp_path, doc)))


def network_scenarios(tmp_path) -> list:
    """Bundled and golden network scenarios, and the full-size benchmark
    scenarios written for two seeds."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    paths = (sorted(SCENARIO_DIR.glob("*.json"))
             + sorted((ROOT / "tests" / "golden" / "scenarios").glob("*.json")))
    for seed in (1, 2):
        for name in ("day-to-day", "shaping"):
            paths += [op.scenario for op in workloads.make_ops(
                name, seed, tmp_path / str(seed))]
    scenarios = [load_scenario(p) for p in paths]
    return [sc for sc in scenarios
            if sc.kind in ("simulate", "equilibrium", "social-opt")]


def test_bundled_and_benchmark_scenarios_fit_the_state_cap(tmp_path):
    scenarios = network_scenarios(tmp_path)
    assert {sc.kind for sc in scenarios} == {"simulate", "equilibrium",
                                             "social-opt"}
    for sc in scenarios:
        validate_scenario(sc)                   # applies the cap
        built = BUILDERS[sc.kind](sc.payload)
        if sc.kind == "social-opt":
            horizon = built["param"].horizon
            n_k = len(built["demand"].commodities())
        elif sc.kind == "simulate":
            horizon, n_k = built["horizon"], len(built["commodities"])
        else:
            horizon, n_k = built["horizon"], 2    # routed and non-routed
        size = _state_values(built["net"], n_k, built["laws"], horizon,
                             built["grid"])
        # the largest, the benchmark's 21-link ladder, needs 479 808
        assert size <= _MAX_STATE_VALUES // 16, sc.path.name


def test_state_cap_counts_the_simulated_grid():
    # the schema's count uses the simulator's own step count
    sc = load_scenario(SCENARIO_DIR / "single_link_congestion.json")
    built = BUILDERS["simulate"](sc.payload)
    case = built["cases"][0]
    state = simulate(built["net"], built["commodities"],
                     as_split_schedule(built["base_rows"],
                                       built["commodities"]),
                     case["sources"], built["laws"],
                     horizon=built["horizon"], grid=built["grid"],
                     initial_density=case["initial"] or None,
                     windows=built["windows"])
    assert _state_values(built["net"], len(built["commodities"]),
                         built["laws"], built["horizon"], built["grid"]) == (
        sum(rho.size for rho in state.rho.values()))


def test_equilibrium_cap_counts_every_state_it_keeps(tmp_path):
    # equilibrium_iterate keeps the first state and one per round
    doc = json.loads((SCENARIO_DIR / "parallel_routes_equilibrium.json")
                     .read_text())
    built = BUILDERS["equilibrium"](doc)
    one = _state_values(built["net"], 2, built["laws"], built["horizon"],
                        built["grid"])
    doc["rounds"] = _MAX_STATE_VALUES // one - 1
    validate_scenario(load_scenario(write(tmp_path, doc)))
    doc["rounds"] += 1
    assert one <= _MAX_STATE_VALUES < (doc["rounds"] + 1) * one
    with pytest.raises(SchemaError, match="density blocks"):
        validate_scenario(load_scenario(write(tmp_path, doc)))


def platoon_positions(built) -> int:
    """Particle positions the schema counts for a built platoon-flow run."""
    pair = built["pair"]
    steps = truck_steps(pair.length, pair.horizon, built["cells"],
                        built["control0"].lam_max)
    particles = built["cells"] + (steps if pair.truck_inflow else 0)
    return (steps + 1) * particles


def test_bundled_and_benchmark_platoon_scenarios_fit_the_particle_cap(
        tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    paths = [SCENARIO_DIR / "platoon_velocity.json"]
    for seed in (1, 2):
        paths += [op.scenario for op in workloads.make_ops(
            "shaping", seed, tmp_path / str(seed)) if op.kind == "platoon-flow"]
    assert len(paths) == 3
    for path in paths:
        sc = load_scenario(path)
        validate_scenario(sc)                   # applies the cap
        # the bundled scenario needs 101 x 100 positions
        assert platoon_positions(BUILDERS[sc.kind](sc.payload)) <= 10_100


def test_particle_cap_counts_inflow_particles(tmp_path):
    doc = json.loads((SCENARIO_DIR / "platoon_velocity.json").read_text())
    # 4000 steps on 4096 cells: 16 388 096 positions, just under the cap
    doc.update(cells=4096, horizon=4.39453125, budget=1)
    validate_scenario(load_scenario(write(tmp_path, doc)))
    # one particle per step with inflow doubles that
    doc["inflow_segments"] = [[0.0, 10.0, 0.1]]
    with pytest.raises(SchemaError, match="particle positions"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    # a small run with inflow at every step holds exactly the counted array
    doc.update(cells=40, horizon=2.0)
    built = BUILDERS["platoon-flow"](load_scenario(write(tmp_path, doc)).payload)
    sol = solve_freight_pair(built["pair"], built["baseline"], cells=40)
    assert sol.positions.size == platoon_positions(built)


def schedule_sizes(built) -> tuple:
    """Trajectory and count-grid values the schema counts for a schedule."""
    assignments = built["assignments"]
    return ((built["iterations"] + 1) * len(assignments),
            len(built["graph"]) * default_horizon(assignments))


def test_bundled_and_benchmark_schedule_scenarios_fit_the_schedule_cap(
        tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    paths = [SCENARIO_DIR / "sweden_corridor.json",
             SCENARIO_DIR / "private_ring_demo.json"]
    for seed in (1, 2):
        for name in ("freight", "freight-private"):
            paths += [op.scenario for op in workloads.make_ops(
                name, seed, tmp_path / str(seed))]
    assert len(paths) == 6
    for path in paths:
        sc = load_scenario(path)
        validate_scenario(sc)                   # applies the cap
        # the largest, the bundled Sweden run, holds 4001 x 80 delays
        assert max(schedule_sizes(BUILDERS[sc.kind](sc.payload))) <= 320_080


def test_schedule_cap_counts_trajectory_and_grid(tmp_path):
    doc = json.loads((SCENARIO_DIR / "sweden_corridor.json").read_text())
    # 64 vehicles: (262 143 + 1) x 64 is the cap exactly
    doc.update(vehicles_per_flow=32, iterations=262_143)
    built = BUILDERS["schedule"](load_scenario(write(tmp_path, doc)).payload)
    assert schedule_sizes(built)[0] == _MAX_STATE_VALUES
    doc["iterations"] += 1
    with pytest.raises(SchemaError, match="trajectory"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
    # 8 edges x 2**21 steps is the cap exactly; the window is 2 million
    # delays wide, and validation builds no cell table for it
    doc.update(iterations=10, max_delay=0)
    built = BUILDERS["schedule"](load_scenario(write(tmp_path, doc)).payload)
    doc["max_delay"] = 2 ** 21 - default_horizon(built["assignments"])
    built = BUILDERS["schedule"](load_scenario(write(tmp_path, doc)).payload)
    assert schedule_sizes(built)[1] == _MAX_STATE_VALUES
    assert all(v._cell_tables == {} for v in built["assignments"])
    doc["max_delay"] += 1
    with pytest.raises(SchemaError, match="count grid"):
        validate_scenario(load_scenario(write(tmp_path, doc)))
