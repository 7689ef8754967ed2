"""Delay-coordination game: costs, potential structure, learning dynamics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from roadflow import scheduler
from roadflow.errors import ComputeError, InfeasibleDelay, InstanceTooLarge
from roadflow.private_agg import chain_aggregate, keygen
from roadflow.scheduler import (CACHE_JOINT_CAP, SWEDEN_EDGES, FreightGraph,
                                ScheduleState, VehicleAssignment,
                                build_sweden_scenario, conditional_scores,
                                coordination_cost, default_horizon, gibbs_row,
                                joint_state_count, occupancy_counts,
                                pair_distance_histogram, pair_distance_ratio,
                                platoon_opportunity_gain, run_learning,
                                square_reward)

from oracles import (brute_force_schedule, exact_gibbs_distribution,
                     interaction_groups, log_linear_step, potential_check,
                     rebuilt_learning, reference_counts,
                     reference_pair_distance_histogram, reference_scores)


def chain_graph():
    return FreightGraph([("A", "B", 1.0, 2), ("B", "C", 2.0, 1)])


def test_graph_validation():
    with pytest.raises(ValueError):
        FreightGraph([])
    with pytest.raises(ValueError):
        FreightGraph([("A", "B", 1.0, 1), ("A", "B", 2.0, 1)])
    with pytest.raises(ValueError):
        FreightGraph([("A", "B", 0.0, 1)])
    with pytest.raises(ValueError):
        FreightGraph([("A", "B", 1.0, 0)])
    g = chain_graph()
    assert len(g) == 2
    assert g.edge_index("A", "B") == 0
    assert g.vertices == ("A", "B", "C")
    with pytest.raises(KeyError):
        g.edge_index("C", "A")


def test_assignment_occupancy_expansion():
    g = chain_graph()
    veh = VehicleAssignment(g, [0, 1], depart=3, window=(0, 2))
    # dwell 2 on the first edge, then 1 on the second
    assert np.array_equal(veh.occupied_edges, [0, 0, 1])
    assert np.array_equal(veh.occupied_steps, [3, 4, 5])
    assert np.array_equal(veh.entry_steps, [3, 5])
    assert np.array_equal(veh.delays(), [0, 1, 2])
    with pytest.raises(ValueError):
        VehicleAssignment(g, [1, 0], 0, (0, 1))     # edges do not chain
    with pytest.raises(ValueError):
        VehicleAssignment(g, [], 0, (0, 1))
    with pytest.raises(ValueError):
        VehicleAssignment(g, [0], 0, (2, 1))        # empty window
    with pytest.raises(ValueError):
        VehicleAssignment(g, [0], 0, (-1, 1))       # backwards shift
    with pytest.raises(InfeasibleDelay):
        veh.check_delay(3)


def test_from_hub_path_matches_edge_seq():
    g = chain_graph()
    a = VehicleAssignment.from_hub_path(g, ["A", "B", "C"], 0, (0, 1))
    b = VehicleAssignment(g, [0, 1], 0, (0, 1))
    assert a.edge_seq == b.edge_seq
    with pytest.raises(ValueError):
        VehicleAssignment.from_hub_path(g, ["A"], 0, (0, 1))
    with pytest.raises(KeyError):
        VehicleAssignment.from_hub_path(g, ["A", "C"], 0, (0, 1))


def test_single_vehicle_cost_by_hand():
    g = FreightGraph([("A", "B", 1.5, 2)])
    veh = VehicleAssignment(g, [0], 0, (0, 2), delay_cost=lambda d: float(d))
    # occupancy 1 on two steps: platoon term = -gamma * 1.5 * (1 + 1)
    cost = coordination_cost(g, [veh], [1], gamma=2.0)
    assert math.isclose(cost, 1.0 - 2.0 * 1.5 * 2.0, rel_tol=1e-15)


def test_alignment_beats_separation():
    g = FreightGraph([("A", "B", 1.0, 1)])
    va = VehicleAssignment(g, [0], 0, (0, 1))
    vb = VehicleAssignment(g, [0], 0, (0, 1))
    aligned = coordination_cost(g, [va, vb], [0, 0])
    apart = coordination_cost(g, [va, vb], [0, 1])
    # counts 2 on one step vs 1 on two steps under the square reward
    assert math.isclose(aligned, -4.0)
    assert math.isclose(apart, -2.0)
    tau, cost = brute_force_schedule(g, [va, vb])
    assert math.isclose(cost, -4.0)
    assert np.array_equal(tau, [0, 0])      # lexicographic tie-break


def test_zero_gamma_reduces_to_delay_costs():
    g = chain_graph()
    vehs = [VehicleAssignment(g, [0, 1], 0, (0, 3),
                              delay_cost=lambda d: 0.7 * d),
            VehicleAssignment(g, [1], 2, (0, 3),
                              delay_cost=lambda d: 1.3 * d)]
    cost = coordination_cost(g, vehs, [2, 3], gamma=0.0)
    assert math.isclose(cost, 0.7 * 2 + 1.3 * 3, rel_tol=1e-15)


def test_cost_invariant_under_vehicle_relabeling():
    g = chain_graph()
    vehs = [VehicleAssignment(g, [0, 1], 0, (0, 2)),
            VehicleAssignment(g, [1], 1, (0, 2)),
            VehicleAssignment(g, [0], 2, (0, 2))]
    tau = [1, 0, 2]
    horizon = default_horizon(vehs)
    perm = [2, 0, 1]
    cost_a = coordination_cost(g, vehs, tau, horizon=horizon)
    cost_b = coordination_cost(g, [vehs[p] for p in perm],
                               [tau[p] for p in perm], horizon=horizon)
    assert cost_a == cost_b


def test_occupancy_counts_truncate_and_exclude():
    g = FreightGraph([("A", "B", 1.0, 2)])
    vehs = [VehicleAssignment(g, [0], 0, (0, 5)),
            VehicleAssignment(g, [0], 1, (0, 5))]
    counts = occupancy_counts(g, vehs, [0, 0], horizon=2)
    assert np.array_equal(counts, [[1, 2]])
    # the second vehicle's step 2 fell off the horizon
    counts = occupancy_counts(g, vehs, [0, 0], horizon=2, exclude=0)
    assert np.array_equal(counts, [[0, 1]])
    # delays outside the window are counted by the same truncation rule
    for tau in ([7, 0], [0, 6], [1, 9]):
        for horizon in (2, 8, 12):
            assert np.array_equal(
                occupancy_counts(g, vehs, tau, horizon=horizon),
                reference_counts(g, vehs, tau, horizon))


def test_potential_equals_unilateral_utility_change():
    rng = np.random.default_rng(20260819)
    g = FreightGraph([("A", "B", 1.7, 2), ("B", "C", 0.6, 1),
                      ("C", "D", 2.4, 3)])
    cube = lambda z: np.abs(np.asarray(z, dtype=float)) ** 3
    worst = 0.0
    for _ in range(200):
        vehs = []
        n = int(rng.integers(2, 5))
        for _ in range(n):
            start = int(rng.integers(0, 2))
            stop = int(rng.integers(start + 1, 4))
            lo = int(rng.integers(0, 3))
            hi = lo + int(rng.integers(0, 3))
            slope = float(rng.uniform(0.0, 2.0))
            vehs.append(VehicleAssignment(
                g, list(range(start, stop)), int(rng.integers(0, 6)),
                (lo, hi), delay_cost=lambda d, s=slope: s * d))
        tau = [int(rng.integers(v.window[0], v.window[1] + 1)) for v in vehs]
        i = int(rng.integers(n))
        tau_prime = int(rng.integers(vehs[i].window[0],
                                     vehs[i].window[1] + 1))
        gamma = float(rng.uniform(0.1, 4.0))
        reward = square_reward if rng.random() < 0.5 else cube
        d_phi, d_util = potential_check(g, vehs, tau, i, tau_prime,
                                        gamma=gamma, reward=reward)
        worst = max(worst, abs(d_phi - d_util))
    assert worst <= 1e-9


def two_vehicle_state(temperature=1.0):
    g = FreightGraph([("A", "B", 1.0, 2), ("B", "C", 1.0, 1)])
    va = VehicleAssignment(g, [0, 1], 0, (0, 3))
    vb = VehicleAssignment(g, [0, 1], 1, (0, 1))
    return ScheduleState(g, (va, vb), np.array([0, 0]),
                         temperature=temperature)


def test_empirical_visits_match_exact_gibbs():
    state = two_vehicle_state(temperature=1.0)
    exact = exact_gibbs_distribution(state)
    result = run_learning(state, 300_000, rng_seed=11)
    emp = result.visit_distribution()
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - emp.get(k, 0.0))
                   for k in set(exact) | set(emp))
    assert tv <= 0.05


def test_hot_limit_is_near_uniform():
    state = two_vehicle_state(temperature=1e7)
    exact = exact_gibbs_distribution(state)
    n = joint_state_count(state.assignments)
    assert all(math.isclose(p, 1.0 / n, rel_tol=1e-3) for p in exact.values())


def test_cold_limit_finds_the_optimum():
    g = FreightGraph([("A", "B", 1.0, 1)])
    va = VehicleAssignment(g, [0], 0, (0, 2),
                           delay_cost=lambda d: 0.01 * d)
    vb = VehicleAssignment(g, [0], 1, (0, 2))
    tau_star, cost_star = brute_force_schedule(g, [va, vb])
    assert np.array_equal(tau_star, [1, 0])
    state = ScheduleState(g, (va, vb), np.array([0, 0]), temperature=1e-3)
    result = run_learning(state, 2000, rng_seed=5)
    assert math.isclose(result.best_cost, cost_star, rel_tol=1e-12)
    assert np.array_equal(result.best_tau, tau_star)


def test_cost_trace_matches_exact_recomputation():
    # the incremental update along the trajectory must not drift
    state = two_vehicle_state(temperature=2.0)
    result = run_learning(state, 400, rng_seed=3)
    horizon = default_horizon(state.assignments)
    for m in range(0, 401, 40):
        exact = coordination_cost(state.graph, state.assignments,
                                  result.trajectory[m], horizon=horizon)
        assert math.isclose(result.cost_trace[m], exact, abs_tol=1e-9)
    assert result.best_cost <= result.cost_trace.min() + 1e-9


def test_learning_is_deterministic_and_validates():
    state = two_vehicle_state()
    a = run_learning(state, 200, rng_seed=42)
    b = run_learning(state, 200, rng_seed=42)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert np.array_equal(a.cost_trace, b.cost_trace)
    c = run_learning(state, 200, rng_seed=43)
    assert not np.array_equal(a.trajectory, c.trajectory)
    with pytest.raises(ValueError):
        run_learning(state, 0, rng_seed=1)


def test_single_step_changes_one_vehicle():
    state = two_vehicle_state()
    out = log_linear_step(state, np.random.default_rng(0))
    assert isinstance(out, ScheduleState)
    changed = np.sum(out.tau != state.tau)
    assert changed <= 1
    for veh, t in zip(out.assignments, out.tau):
        veh.check_delay(int(t))


def test_gibbs_row_equals_the_method_form_bit_for_bit():
    rng = np.random.default_rng(6)
    for _ in range(200):
        scores = np.round(rng.normal(0.0, 1e4, rng.integers(1, 9)),
                          rng.integers(0, 3))
        scores[rng.integers(len(scores))] = scores.min()   # a tie
        for temperature in (1e-3, 1.0, 100.0, 1e7):
            weights = np.exp(-(scores - scores.min()) / temperature)
            assert gibbs_row(scores, temperature).tobytes() == (
                weights.cumsum() / weights.sum()).tobytes()


def test_state_validation():
    g = FreightGraph([("A", "B", 1.0, 1)])
    veh = VehicleAssignment(g, [0], 0, (0, 1))
    with pytest.raises(InfeasibleDelay):
        ScheduleState(g, (veh,), np.array([5]))
    with pytest.raises(ValueError):
        ScheduleState(g, (veh,), np.array([0]), temperature=0.0)
    with pytest.raises(ValueError):
        ScheduleState(g, (veh,), np.array([0]),
                      reward=lambda z: np.asarray(z, dtype=float) + 1.0)
    with pytest.raises(ValueError):
        ScheduleState(g, (veh,), np.array([0, 0]))


def test_default_horizon_covers_latest_shifted_step():
    g = FreightGraph([("A", "B", 1.0, 2)])
    veh = VehicleAssignment(g, [0], 3, (0, 4))
    # last occupied step 4, max delay 4, horizon must reach step 8
    assert default_horizon([veh]) == 9


def test_interaction_groups_split_and_merge():
    g = FreightGraph([("A", "B", 1.0, 1), ("C", "D", 1.0, 1)])
    vehs = [VehicleAssignment(g, [0], 0, (0, 1)),
            VehicleAssignment(g, [0], 1, (0, 1)),
            VehicleAssignment(g, [1], 0, (0, 1)),
            VehicleAssignment(g, [1], 0, (0, 1))]
    assert interaction_groups(g, vehs) == [[0, 1], [2, 3]]
    # same edge but windows too far apart to ever overlap
    far = [VehicleAssignment(g, [0], 0, (0, 1)),
           VehicleAssignment(g, [0], 10, (0, 1))]
    assert interaction_groups(g, far) == [[0], [1]]


def test_pair_distance_histogram_and_ratios():
    g = FreightGraph([("A", "B", 1.0, 3)])
    vehs = [VehicleAssignment(g, [0], 0, (0, 2)),
            VehicleAssignment(g, [0], 0, (0, 2)),
            VehicleAssignment(g, [0], 2, (0, 2))]
    hist = pair_distance_histogram(g, vehs, [0, 0, 0])
    assert hist == {0: {0: 1, 2: 2}}
    aligned = pair_distance_histogram(g, vehs, [2, 2, 0])
    assert aligned == {0: {0: 3}}
    ratios = pair_distance_ratio(aligned, hist)
    assert ratios[0][0] == 3.0
    assert ratios[0][2] == 0.0
    assert math.isclose(platoon_opportunity_gain(aligned, hist), 2.0)
    with pytest.raises(ValueError):
        platoon_opportunity_gain(hist, {0: {2: 5}})
    # scheduled pairs at a distance the baseline never had
    assert pair_distance_ratio({0: {1: 4}}, {})[0][1] == math.inf


@pytest.mark.parametrize("block", [scheduler.PAIR_BLOCK, 7, 1])
def test_pair_histogram_equals_pair_by_pair_reference(block, monkeypatch):
    # blocks of 7 and 1 pairs split each edge's rows into many blocks
    monkeypatch.setattr(scheduler, "PAIR_BLOCK", block)
    rng = np.random.default_rng(41)
    g = FreightGraph([("A", "B", 2.0, 2), ("B", "A", 3.0, 1),
                      ("B", "C", 1.0, 3), ("C", "D", 1.0, 2)])
    # the first and last walks arrive on A->B twice: one vehicle's two
    # arrivals are no pair
    walks = [("A", "B", "A", "B", "C"), ("B", "C", "D"),
             ("A", "B", "C", "D"), ("B", "A", "B")]
    cases = []
    for _ in range(25):
        vehs = [VehicleAssignment.from_hub_path(
            g, walks[int(rng.integers(len(walks)))], int(rng.integers(-5, 6)),
            (0, int(rng.integers(0, 5)))) for _ in range(rng.integers(1, 12))]
        tau = [int(rng.integers(0, v.window[1] + 1)) for v in vehs]
        # the default horizon, and horizons that cut late arrivals
        cases += [(g, vehs, tau, h) for h in (None, int(rng.integers(1, 12)))]
    graph, sweden = build_sweden_scenario()
    cases += [(graph, sweden, rng.integers(0, 4, 80), h) for h in (None, 60)]
    for graph, vehs, tau, horizon in cases:
        hist = pair_distance_histogram(graph, vehs, tau, horizon)
        assert hist == reference_pair_distance_histogram(graph, vehs, tau,
                                                         horizon)
        assert all(type(x) is int for e, row in hist.items()
                   for x in (e, *row, *row.values()))
    assert any(len(hist) > 1 for hist in (
        pair_distance_histogram(*case) for case in cases[:-2]))
    assert pair_distance_histogram(g, [], [], 5) == {}


def test_brute_force_cap():
    g = FreightGraph([("A", "B", 1.0, 1)])
    vehs = [VehicleAssignment(g, [0], 0, (0, 99)) for _ in range(4)]
    assert joint_state_count(vehs) > 10 ** 6
    with pytest.raises(InstanceTooLarge):
        brute_force_schedule(g, vehs)
    with pytest.raises(InstanceTooLarge):
        exact_gibbs_distribution(ScheduleState(g, tuple(vehs),
                                               np.zeros(4, dtype=int)))


def test_sweden_scenario_shape():
    graph, vehs = build_sweden_scenario(3, 40)
    assert len(vehs) == 80
    assert len(graph) == 8
    assert all(v.window == (0, 3) for v in vehs)
    # both flows traverse the shared Sundsvall-Uppsala-Stockholm stretch
    shared = {graph.edge_index("Sundsvall", "Uppsala"),
              graph.edge_index("Uppsala", "Stockholm")}
    for v in vehs:
        assert shared <= set(v.edge_seq)
    # departures spread over a two-hour band, second flow offset to 7am
    assert vehs[0].depart == 0 and vehs[39].depart == 23
    assert vehs[40].depart == 84 and vehs[79].depart == 107
    with pytest.raises(ValueError):
        build_sweden_scenario(-1)


def assert_matches_rebuilt(state, iterations, seed, horizon=None):
    result = run_learning(state, iterations, rng_seed=seed, horizon=horizon)
    trajectory, costs, best_tau, best_cost, visits = rebuilt_learning(
        state, iterations, seed, horizon)
    assert np.array_equal(result.trajectory, trajectory)
    assert result.cost_trace.tobytes() == costs.tobytes()
    assert np.array_equal(result.best_tau, best_tau)
    assert result.best_cost == best_cost
    # the same counts, first visited in the same order
    assert list(result.visits.items()) == list(visits.items())
    # the walk must actually move, or the comparison proves little
    assert len(np.unique(trajectory, axis=0)) > 10
    return result


@pytest.mark.parametrize("seed", [7, 2026])
def test_incremental_counts_match_rebuild_on_sweden(seed):
    graph, vehs = build_sweden_scenario()
    state = ScheduleState(graph, tuple(vehs), np.zeros(len(vehs), dtype=int))
    assert joint_state_count(vehs) > CACHE_JOINT_CAP     # no memo here
    assert_matches_rebuilt(state, 300, seed)


def test_incremental_counts_match_rebuild_with_fractional_weights():
    graph = FreightGraph([(a, b, 0.37 * w + 0.11, d)
                          for a, b, w, d in SWEDEN_EDGES])
    _, sweden = build_sweden_scenario()
    vehs = tuple(VehicleAssignment(graph, v.edge_seq, v.depart, v.window)
                 for v in sweden)
    state = ScheduleState(graph, vehs, np.array([v.window[1] for v in vehs]),
                          gamma=0.7, temperature=3.0)
    assert_matches_rebuilt(state, 300, 5)


def test_incremental_counts_match_rebuild_on_a_small_game():
    g = FreightGraph([("A", "B", 1.5, 2), ("B", "C", 1.0, 1),
                      ("B", "D", 0.5, 2)])
    vehs = (VehicleAssignment(g, [0, 1], 0, (0, 3),
                              delay_cost=lambda d: 0.3 * d),
            VehicleAssignment(g, [0, 2], 1, (1, 4),
                              delay_cost=lambda d: 0.2 * d * d),
            VehicleAssignment(g, [0], 2, (0, 2)),
            VehicleAssignment(g, [1], 1, (0, 3),
                              delay_cost=lambda d: 1.0 - 0.1 * d))
    state = ScheduleState(g, vehs, np.array([0, 1, 0, 3]), temperature=2.0)
    assert joint_state_count(vehs) <= CACHE_JOINT_CAP    # a small game
    assert_matches_rebuilt(state, 3000, 17)


def exact_mode(state, horizon=None):
    horizon = default_horizon(state.assignments) if horizon is None else horizon
    return scheduler._integer_cell_weights(state, horizon) is not None


def sweden_state(gamma=1.0, weights=None, reward=square_reward, costs=None,
                 tau=None):
    edges = SWEDEN_EDGES if weights is None else [
        (a, b, w, d) for (a, b, _, d), w in zip(SWEDEN_EDGES, weights)]
    graph = FreightGraph(edges)
    _, sweden = build_sweden_scenario()
    vehs = tuple(VehicleAssignment(graph, v.edge_seq, v.depart, v.window,
                                   None if costs is None else costs(j))
                 for j, v in enumerate(sweden))
    tau = np.zeros(len(vehs), dtype=int) if tau is None else tau
    return ScheduleState(graph, vehs, tau, gamma=gamma, reward=reward,
                         temperature=3.0)


def test_exact_scores_match_rebuild_with_delay_costs_and_gamma():
    # integer weights other than the dwells, a delay cost per vehicle
    state = sweden_state(
        gamma=0.7, weights=[3.0, 1.0, 7.0, 2.0, 5.0, 11.0, 1.0, 4.0],
        costs=lambda j: (lambda d, s=0.05 * (j % 7): s * d * d),
        tau=np.arange(80) % 4)
    assert exact_mode(state)
    assert_matches_rebuilt(state, 300, 9)


def test_exact_scores_match_rebuild_on_a_small_game():
    g = FreightGraph([("A", "B", 2.0, 2), ("B", "C", 1.0, 1),
                      ("B", "D", 1.0, 2)])
    vehs = (VehicleAssignment(g, [0, 1], 0, (0, 3),
                              delay_cost=lambda d: 0.3 * d),
            VehicleAssignment(g, [0, 2], 1, (1, 4),
                              delay_cost=lambda d: 0.2 * d * d),
            VehicleAssignment(g, [0], 2, (0, 2)),
            # departs before step 0: delays 0 and 1 leave no cell, so
            # empty rows come first in its cell table
            VehicleAssignment(g, [0], -3, (0, 4),
                              delay_cost=lambda d: 1.0 - 0.1 * d))
    state = ScheduleState(g, vehs, np.array([0, 1, 0, 3]), gamma=1.5,
                          temperature=6.0)
    assert joint_state_count(vehs) <= CACHE_JOINT_CAP    # a small game
    assert exact_mode(state)
    assert_matches_rebuilt(state, 3000, 17)


def test_small_games_rate_each_row_once(monkeypatch):
    # 8 profiles of 2 vehicles: the memo keeps each profile's rated rows,
    # so however long the run, at most 16 rows are rated
    rated = record_rated_rows(monkeypatch)
    state = two_vehicle_state(temperature=1.0)
    assert joint_state_count(state.assignments) == 8
    assert exact_mode(state)
    result = run_learning(state, 200_000, rng_seed=11)
    assert len(result.visits) == 8
    assert len({(i, profile) for i, profile, _ in rated}) == len(rated) <= 16
    # past the cap no profile's rows are kept
    state = sweden_state()
    assert joint_state_count(state.assignments) > CACHE_JOINT_CAP
    horizon = default_horizon(state.assignments)
    live = scheduler._LiveSums(state, horizon,
                               scheduler._integer_cell_weights(state, horizon))
    assert live.memo is None


def test_exact_scores_match_rebuild_on_a_short_horizon():
    # the second flow departs at steps 84-107: on 100 steps some of its
    # delays put the whole walk past the horizon, so rows end empty
    state = sweden_state()
    horizon = 100
    assert horizon < default_horizon(state.assignments)
    late = state.assignments[-1].cell_table(len(state.graph), horizon)
    assert late.starts[-1] == 0
    assert exact_mode(state, horizon)
    assert_matches_rebuilt(state, 300, 4, horizon=horizon)
    # new bests are priced from the sums, trailing empty rows included
    result = run_learning(state, 300, rng_seed=4, horizon=horizon)
    assert result.best_cost < result.cost_trace[0]
    assert result.cost_trace[0] == coordination_cost(
        state.graph, state.assignments, state.tau, horizon=horizon)


@pytest.mark.parametrize("case", [
    dict(weights=[2.0 ** 45] + [w for _, _, w, _ in SWEDEN_EDGES[1:]]),
    dict(reward=lambda z: np.minimum(z, 3) * z),    # integer-valued
    dict(gamma=0.0, costs=lambda j: (lambda d, s=0.1 * (j % 5): s * d)),
], ids=["weight-past-bound", "custom-reward", "gamma-0"])
def test_block_scoring_fallbacks_match_rebuild(case):
    state = sweden_state(**case)
    assert not exact_mode(state)
    assert_matches_rebuilt(state, 300, 6)


def test_exact_mode_bound_is_inclusive():
    def state(weight):
        g = FreightGraph([("A", "B", weight, 1)])
        return ScheduleState(g, (VehicleAssignment(g, [0], 0, (0, 0)),),
                             np.array([0]))
    # one vehicle, one edge-step: sum(w) * horizon * vehicles**2 = w
    assert exact_mode(state(2.0 ** 53))
    assert not exact_mode(state(2.0 ** 53 + 2.0))
    assert not exact_mode(state(2.5))


def assert_live_sums_match(state, horizon, seed, queries=20, moved=1):
    """Rate a row of ``_LiveSums`` ``queries`` times, moving ``moved``
    random vehicles to random delays of their windows between two queries.
    The kept sum and grid are those of every vehicle, and each kept row's
    scores and sums are those of the reference counts without the asker,
    its Gibbs row that of the reference scores."""
    graph, vehs = state.graph, state.assignments
    weights = scheduler._integer_cell_weights(state, horizon)
    live = scheduler._LiveSums(state, horizon, weights)
    rng = np.random.default_rng(seed)
    tau = state.tau.copy()
    for _ in range(queries):
        i = int(rng.integers(len(vehs)))
        live._sync(tau)
        live._rate([i])
        cum, scores, totals = live.kept[i]
        counts = reference_counts(graph, vehs, tau, horizon).reshape(-1)
        # the platooning sum and the grid w * (2c + 1) of every vehicle,
        # then the cell that stays 0
        assert live.total == int(weights @ (counts * counts))
        assert np.array_equal(live.grid[:-1], weights * (2 * counts + 1))
        assert live.grid[-1] == 0
        others = reference_counts(graph, vehs, tau, horizon, exclude=i)
        reference = reference_scores(graph, vehs[i], others,
                                     gamma=state.gamma)
        assert scores.tobytes() == reference.tobytes()
        assert cum.tobytes() == gibbs_row(reference,
                                          state.temperature).tobytes()
        for k, delay in enumerate(vehs[i].delays()):
            at = tau.copy()
            at[i] = delay
            c = reference_counts(graph, vehs, at, horizon).reshape(-1)
            assert totals[k] == int(weights @ (c * c))
        for j in rng.choice(len(vehs), moved, replace=False):
            tau[j] = rng.integers(vehs[j].window[0], vehs[j].window[1] + 1)


def test_live_sums_equal_rebuilt_sums():
    state = sweden_state(tau=np.arange(80) % 4)
    assert_live_sums_match(state, default_horizon(state.assignments), 8)


@pytest.mark.parametrize("horizon", [100, 40])
def test_live_sums_on_a_horizon_that_cuts_walks(horizon):
    state = sweden_state(tau=np.arange(80) % 4)
    assert exact_mode(state, horizon)
    assert_live_sums_match(state, horizon, 12, moved=3)


def test_live_sums_after_several_moves_between_queries():
    state = sweden_state(weights=[3.0, 1.0, 7.0, 2.0, 5.0, 11.0, 1.0, 4.0],
                         gamma=0.7, tau=np.arange(80) % 3)
    assert_live_sums_match(state, default_horizon(state.assignments), 3,
                           moved=17)


def test_live_sums_on_walks_that_revisit_an_edge():
    # A-B-A-B-C visits A->B twice; wide windows overlap a walk with itself
    # at many shifts, and departures before step 0 and a short horizon cut
    # walks at both ends
    g = FreightGraph([("A", "B", 2.0, 2), ("B", "A", 3.0, 1),
                      ("B", "C", 1.0, 3)])
    walk = ("A", "B", "A", "B", "C")
    vehs = tuple(VehicleAssignment.from_hub_path(
        g, walk, depart, window, None if j % 2 else (lambda d: 0.5 * d))
        for j, (depart, window) in enumerate(
            [(-4, (0, 9)), (0, (2, 7)), (1, (0, 12)), (3, (0, 0)),
             (-1, (1, 5)), (2, (0, 3))]))
    state = ScheduleState(g, vehs, np.array([v.window[0] for v in vehs]),
                          gamma=1.5)
    for horizon in (default_horizon(vehs), 12, 6):
        assert exact_mode(state, horizon)
        assert_live_sums_match(state, horizon, horizon, queries=30, moved=2)


def test_hot_learning_matches_block_scoring():
    # at this temperature most iterations move a vehicle, so the kept grid
    # changes on most queries
    graph, vehs = build_sweden_scenario()
    state = ScheduleState(graph, tuple(vehs), np.arange(80) % 4,
                          temperature=1e7)
    horizon = default_horizon(vehs)
    assert exact_mode(state)
    result = run_learning(state, 1000, rng_seed=31)
    block = scheduler.drive_learning(state, 1000, np.random.default_rng(31),
                                     scheduler._LiveCounts(state, horizon),
                                     horizon=horizon)
    moves = (np.diff(result.trajectory, axis=0) != 0).any(axis=1).sum()
    assert moves > 600
    assert np.array_equal(result.trajectory, block.trajectory)
    assert result.cost_trace.tobytes() == block.cost_trace.tobytes()
    assert np.array_equal(result.best_tau, block.best_tau)
    assert result.best_cost == block.best_cost


def assert_draws_match_scalar_calls(block, scalar, n, count):
    picks, uniforms = scheduler._learning_draws(block, n, count)
    pairs = [(int(scalar.integers(n)), float(scalar.random()))
             for _ in range(count)]
    assert picks.tolist() == [p for p, _ in pairs]
    assert uniforms.tolist() == [u for _, u in pairs]
    # left in the same state, has_uint32 and the kept half included
    assert repr(block.bit_generator.state) == repr(scalar.bit_generator.state)


@pytest.mark.parametrize("n", [2, 3, 5, 80, 2 ** 31 + 1])
def test_block_draws_equal_scalar_generator_calls(n):
    for seed in (0, 7, 2026):
        # odd and even counts, from a generator with and without a kept half
        for count, kept in ((1, 0), (2, 0), (7, 0), (1, 1), (4096, 1),
                            (4097, 0)):
            block, scalar = (np.random.default_rng(seed) for _ in range(2))
            if kept:    # one integer draw keeps the high half of its word
                block.integers(9)
                scalar.integers(9)
            if n == 2 ** 31 + 1 and not kept and count > 1:
                # Lemire rejects about half the draws of this bound: the
                # scalar calls take more words than a block reads, so the
                # block rewinds and takes them too
                plain = np.random.default_rng(seed)
                plain.bit_generator.advance(count + (count + 1) // 2)
                probe = np.random.default_rng(seed)
                for _ in range(count):
                    probe.integers(n)
                    probe.random()
                assert (plain.bit_generator.state["state"]
                        != probe.bit_generator.state["state"])
            assert_draws_match_scalar_calls(block, scalar, n, count)


def test_block_draws_of_other_generators_are_the_scalar_calls():
    block, scalar = (np.random.Generator(np.random.Philox(5))
                     for _ in range(2))
    assert_draws_match_scalar_calls(block, scalar, 80, 9)
    block, scalar = (np.random.default_rng(3) for _ in range(2))
    assert_draws_match_scalar_calls(block, scalar, 1, 5)     # draws no index


def test_chained_single_steps_equal_one_run():
    # each single step takes one pair and leaves a kept half to the next
    state = sweden_state(tau=np.arange(80) % 4)
    rng = np.random.default_rng(12)
    taus = [state.tau]
    for _ in range(60):
        taus.append(log_linear_step(replace(state, tau=taus[-1]), rng).tau)
    result = run_learning(state, 60, rng_seed=12)
    assert np.array_equal(np.array(taus), result.trajectory)
    assert (np.diff(result.trajectory, axis=0) != 0).any(axis=1).sum() > 10
    scalar = np.random.default_rng(12)
    for _ in range(60):
        scalar.integers(80)
        scalar.random()
    assert rng.bit_generator.state == scalar.bit_generator.state


def record_rated_rows(monkeypatch):
    """``(vehicle, profile, visit)`` of every row ``_LiveSums._rate`` rates,
    where ``visit`` counts the profile changes between two rating calls."""
    rated = []
    inner = scheduler._LiveSums._rate

    def recorded(self, vehicles):
        profile = tuple(self.tau.tolist())
        visit = (rated[-1][2] + (profile != rated[-1][1])) if rated else 0
        vehicles = list(vehicles)
        rated.extend((i, profile, visit) for i in vehicles)
        return inner(self, vehicles)
    monkeypatch.setattr(scheduler._LiveSums, "_rate", recorded)
    return rated


def test_stretches_match_rebuild_on_cold_sweden(monkeypatch):
    rated = record_rated_rows(monkeypatch)
    graph, vehs = build_sweden_scenario()
    state = ScheduleState(graph, tuple(vehs), np.zeros(80, dtype=int))
    # seed 7 moves late too, after a stretch of about 400 iterations
    result = assert_matches_rebuilt(state, 1000, 7)
    moves = (np.diff(result.trajectory, axis=0) != 0).any(axis=1).sum()
    assert moves < 60
    # no row is rated twice while its profile is kept; this seed comes back
    # to three profiles, whose rows are rated again there
    assert len({(i, visit) for i, _, visit in rated}) == len(rated) > moves


def test_stretches_match_rebuild_on_hot_sweden():
    # at this temperature most iterations move; stretches are short
    graph, vehs = build_sweden_scenario()
    state = ScheduleState(graph, tuple(vehs), np.arange(80) % 4,
                          temperature=1e7)
    result = assert_matches_rebuilt(state, 1000, 31)
    assert (np.diff(result.trajectory, axis=0) != 0).any(axis=1).sum() > 600


def test_stretches_match_rebuild_on_warm_sweden(monkeypatch):
    # about one iteration in eight moves: stretches are short, and the rows
    # the look-ahead scores keep weight off their current delays
    rated = record_rated_rows(monkeypatch)
    graph, vehs = build_sweden_scenario()
    state = ScheduleState(graph, tuple(vehs), np.arange(80) % 4,
                          temperature=1000.0)
    result = assert_matches_rebuilt(state, 1000, 5)
    assert 100 < (np.diff(result.trajectory, axis=0) != 0).any(axis=1).sum()
    assert len({(i, visit) for i, _, visit in rated}) == len(rated)


def test_stretches_match_rebuild_on_a_wide_window():
    # 11 delays: np.add.reduce sums a row's Gibbs weights pairwise, not in
    # the order of np.add.accumulate, so the last cumulative weight may
    # differ from 1
    graph, vehs = build_sweden_scenario(10)
    state = ScheduleState(graph, tuple(vehs), np.arange(80) % 11,
                          temperature=40.0)
    assert exact_mode(state)
    assert_matches_rebuilt(state, 600, 3)


def test_stretches_match_rebuild_with_delay_costs_on_a_cut_horizon():
    # a walk the horizon cuts overlaps itself less at its late delays, so
    # its rows of the own-overlap band differ from delay to delay
    state = replace(sweden_state(
        weights=[3.0, 1.0, 7.0, 2.0, 5.0, 11.0, 1.0, 4.0],
        costs=lambda j: (lambda d, s=0.05 * (j % 7): s * d * d),
        tau=np.arange(80) % 4), temperature=100.0)
    assert exact_mode(state, 100)
    assert_matches_rebuilt(state, 600, 9, horizon=100)


def test_stretches_raise_at_the_iteration_that_draws_a_non_finite_row(
        monkeypatch):
    # vehicle 75 scores an infinite delay cost at delay 3; learning from
    # delay 0 raises where it is first drawn, in a stretch after the last
    # move of this seed
    graph, vehs = build_sweden_scenario()
    late = 75
    vehs[late] = VehicleAssignment(
        graph, vehs[late].edge_seq, vehs[late].depart, vehs[late].window,
        lambda d: math.inf if d == 3 else 0.0)
    state = ScheduleState(graph, tuple(vehs), np.zeros(80, dtype=int))
    rng = np.random.default_rng(19)
    picks = []
    for _ in range(3000):
        picks.append(int(rng.integers(80)))
        rng.random()
    first = picks.index(late) + 1
    assert first == 294
    rated = record_rated_rows(monkeypatch)
    with pytest.raises(ComputeError,
                       match=f"vehicle {late} scored a non-finite cost at "
                             f"iteration {first};"):
        run_learning(state, 3000, rng_seed=19)
    # the look-ahead found it, rating no row twice on the way
    assert len({(i, visit) for i, _, visit in rated}) == len(rated)
    assert late in {i for i, _, _ in rated}


def test_sweden_learning_never_rescores_the_grid(monkeypatch):
    calls = {"conditional_scores": 0, "occupancy_counts": 0}

    def spy(name):
        inner = getattr(scheduler, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(scheduler, name, counted)

    spy("conditional_scores")
    spy("occupancy_counts")
    graph, vehs = build_sweden_scenario()
    state = ScheduleState(graph, tuple(vehs), np.zeros(len(vehs), dtype=int))
    result = run_learning(state, 300, rng_seed=7)
    assert result.best_cost < result.cost_trace[0]   # new bests were priced
    # the live sums, before the first iteration, which also price the
    # initial profile
    assert calls == {"conditional_scores": 0, "occupancy_counts": 1}


def assert_scores_match_reference(graph, vehicle, counts, **kwargs):
    block = conditional_scores(graph, vehicle, counts, **kwargs)
    reference = reference_scores(graph, vehicle, counts, **kwargs)
    assert block.tobytes() == reference.tobytes()


def random_sweden(rng, max_delay, horizon=None, gamma=1.0, weights=None,
                  reward=square_reward, costs=False):
    """A random Sweden profile and one vehicle's view of the others."""
    edges = SWEDEN_EDGES if weights is None else [
        (a, b, w, d) for (a, b, _, d), w in zip(SWEDEN_EDGES, weights)]
    graph = FreightGraph(edges)
    _, sweden = build_sweden_scenario(max_delay)
    vehs = [VehicleAssignment(
        graph, v.edge_seq, v.depart, v.window,
        (lambda d, s=float(rng.uniform(0.0, 3.0)): s * d * d) if costs
        else None) for v in sweden]
    tau = rng.integers(0, max_delay + 1, len(vehs))
    i = int(rng.integers(len(vehs)))
    horizon = default_horizon(vehs) if horizon is None else horizon
    counts = reference_counts(graph, vehs, tau, horizon, exclude=i)
    return graph, vehs[i], counts, dict(gamma=gamma, reward=reward)


@pytest.mark.parametrize("case", [
    dict(),                                         # the workload's game
    dict(horizon=150),                              # walks cut by the horizon
    dict(horizon=40),
    dict(costs=True),                               # delay costs
    dict(gamma=0.7, weights=[0.37 * w + 0.11 for _, _, w, _ in SWEDEN_EDGES]),
    dict(reward=lambda z: np.sqrt(np.asarray(z, dtype=float)) * 1.3),
    dict(reward=lambda z: np.minimum(z, 3) * z),    # integer-valued
    dict(max_delay=1100),                           # 8 x 1372 cells > 8192,
], ids=["sweden", "horizon-150", "horizon-40", "delay-costs", "gamma-0.7",
        "sqrt-reward", "capped-reward", "wide-window"])  # 1101 delays, 11 blocks
def test_block_scores_equal_reference_bit_for_bit(case):
    rng = np.random.default_rng(20261018)
    case = dict(case)
    max_delay = case.pop("max_delay", 3)
    for _ in range(6 if max_delay < 10 else 1):
        graph, vehicle, counts, kwargs = random_sweden(rng, max_delay, **case)
        assert_scores_match_reference(graph, vehicle, counts, **kwargs)


@pytest.mark.parametrize("block", [1, 2200, 2 * 2200 + 7, 3 * 2200, 7 * 2200])
def test_block_scores_do_not_depend_on_the_block_size(block, monkeypatch):
    # 7 delays of 8 x 275 cells: a block smaller than one delay still holds
    # one, and blocks of two or three delays leave a short last block
    monkeypatch.setattr(scheduler, "SCORE_BLOCK", block)
    rng = np.random.default_rng(5)
    for _ in range(4):
        graph, vehicle, counts, kwargs = random_sweden(rng, 6, costs=True)
        assert counts.size == 2200
        assert_scores_match_reference(graph, vehicle, counts, **kwargs)


def test_block_scores_read_non_contiguous_and_decrypted_counts():
    rng = np.random.default_rng(3)
    graph, vehicle, counts, kwargs = random_sweden(rng, 3, gamma=0.7)
    wide = np.zeros((counts.shape[0], 2 * counts.shape[1]), dtype=counts.dtype)
    wide[:, ::2] = counts
    assert not wide[:, ::2].flags.c_contiguous
    assert_scores_match_reference(graph, vehicle, wide[:, ::2], **kwargs)
    assert_scores_match_reference(graph, vehicle, np.asfortranarray(counts),
                                  **kwargs)
    # the private driver's counts: unpacked from a decrypted ring pass
    g = FreightGraph([("A", "B", 1.5, 2), ("B", "C", 0.5, 3)])
    vehs = [VehicleAssignment(g, [0, 1], 0, (0, 3)),
            VehicleAssignment(g, [0, 1], 1, (0, 2), lambda d: 0.25 * d),
            VehicleAssignment(g, [1], 2, (1, 4))]
    tau = [2, 1, 3]
    horizon = default_horizon(vehs)
    crypto = np.random.default_rng(11)
    zeta = chain_aggregate([(vehs[j], tau[j]) for j in (1, 2, 0)], g, horizon,
                           keygen(256, crypto), crypto)
    assert np.array_equal(zeta, reference_counts(g, vehs, tau, horizon,
                                                 exclude=1))
    assert_scores_match_reference(g, vehs[1], zeta, gamma=0.7)


def test_cell_table_is_built_on_first_use_per_grid_shape():
    g = FreightGraph([("A", "B", 1.0, 2), ("B", "C", 1.0, 1)])
    veh = VehicleAssignment(g, [0, 1], depart=1, window=(1, 3))
    assert veh._cell_tables == {}
    table = veh.cell_table(2, 5)
    # delays 1, 2, 3 put the walk at steps 2-4, 3-5 and 4-6 of a 5-step grid
    assert table.cells.tolist() == [2, 3, 9, 3, 4, 4]
    assert table.starts == [0, 3, 5, 6]
    assert table.block.tolist() == [2, 3, 9, 13, 14, 24]
    assert veh.cell_table(2, 5) is table
    assert veh.cell_table(2, 7) is not table
    assert veh.cells(2, 2, 5).tolist() == [3, 4]
    assert veh.cells(0, 2, 5).tolist() == [1, 2, 8]     # outside the window


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_cost_is_a_compute_error():
    g = FreightGraph([("A", "B", 0.5, 1)])
    vehs = (VehicleAssignment(g, [0], 0, (0, 1)),
            VehicleAssignment(g, [0], 1, (0, 1)))
    # apart, the cost is -1e308; a delay that aligns the two doubles it
    state = ScheduleState(g, vehs, np.array([0, 0]), gamma=1e308)
    assert state.cost() == -1e308
    with pytest.raises(ComputeError, match="non-finite"):
        run_learning(state, 5, rng_seed=1)
    state = ScheduleState(g, vehs, np.array([1, 0]), gamma=1e308)
    assert state.cost() == -math.inf
    with pytest.raises(ComputeError, match="initial coordination cost"):
        run_learning(state, 5, rng_seed=1)
