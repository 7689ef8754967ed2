"""Delay-coordination game: costs, potential structure, learning dynamics."""

import math

import numpy as np
import pytest

from roadflow import scheduler
from roadflow.errors import ComputeError, InfeasibleDelay, InstanceTooLarge
from roadflow.private_agg import chain_aggregate, keygen
from roadflow.scheduler import (CACHE_JOINT_CAP, SWEDEN_EDGES, FreightGraph,
                                ScheduleState, VehicleAssignment,
                                brute_force_schedule, build_sweden_scenario,
                                conditional_scores, coordination_cost,
                                default_horizon, exact_gibbs_distribution,
                                gibbs_row, interaction_groups,
                                joint_state_count, log_linear_step,
                                occupancy_counts,
                                pair_distance_histogram, pair_distance_ratio,
                                platoon_opportunity_gain, run_learning,
                                square_reward)


def reference_counts(graph, assignments, tau, horizon, exclude=None):
    """Edge-step counts, one ``np.add.at`` per vehicle on its shifted walk."""
    counts = np.zeros((len(graph), horizon), dtype=int)
    for i, veh in enumerate(assignments):
        if i == exclude:
            continue
        cols = veh.occupied_steps + int(tau[i])
        keep = (cols >= 0) & (cols < horizon)
        np.add.at(counts, (veh.occupied_edges[keep], cols[keep]), 1)
    return counts


def reference_scores(graph, vehicle, counts_excl, *, gamma,
                     reward=square_reward):
    """Conditional scores one delay at a time: the others' counts copied,
    the vehicle's walk added with ``np.add.at``, and the weighted reward
    summed over the whole grid."""
    horizon = counts_excl.shape[1]
    h_vals = vehicle.delay_costs()
    scores = np.empty(len(h_vals))
    for k, tau in enumerate(vehicle.delays()):
        cols = vehicle.occupied_steps + int(tau)
        keep = (cols >= 0) & (cols < horizon)
        total = counts_excl.copy()
        np.add.at(total, (vehicle.occupied_edges[keep], cols[keep]), 1)
        scores[k] = h_vals[k] + -float(gamma) * float(
            np.sum(graph.weights[:, None] * reward(total)))
    return scores


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
        from roadflow.scheduler import potential_check
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


def rebuilt_learning(state, iterations, seed):
    """Learning with the counts rebuilt from scratch at every step and no
    conditional-row cache, counted and scored by the reference helpers above;
    draws and best-profile rule as in run_learning."""
    rng = np.random.default_rng(seed)
    horizon = default_horizon(state.assignments)
    tau = state.tau.copy()
    cost = state.cost()
    trajectory, costs = [tau.copy()], [cost]
    best_tau, best_cost = tau.copy(), cost
    for _ in range(iterations):
        i = int(rng.integers(len(tau)))
        u = float(rng.random())
        counts = reference_counts(state.graph, state.assignments, tau,
                                  horizon, exclude=i)
        scores = reference_scores(state.graph, state.assignments[i], counts,
                                  gamma=state.gamma, reward=state.reward)
        cum = gibbs_row(scores, state.temperature)
        k = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
        lo = state.assignments[i].window[0]
        cost += float(scores[k] - scores[tau[i] - lo])
        tau[i] = lo + k
        trajectory.append(tau.copy())
        costs.append(cost)
        if cost < best_cost - 1e-12:
            exact = coordination_cost(state.graph, state.assignments, tau,
                                      gamma=state.gamma, reward=state.reward,
                                      horizon=horizon)
            if exact < best_cost:
                best_tau, best_cost = tau.copy(), exact
    return np.array(trajectory), np.array(costs), best_tau, best_cost


def assert_matches_rebuilt(state, iterations, seed):
    result = run_learning(state, iterations, rng_seed=seed)
    trajectory, costs, best_tau, best_cost = rebuilt_learning(
        state, iterations, seed)
    assert np.array_equal(result.trajectory, trajectory)
    assert np.array_equal(result.cost_trace, costs)
    assert np.array_equal(result.best_tau, best_tau)
    assert result.best_cost == best_cost
    # the walk must actually move, or the comparison proves little
    assert len(np.unique(trajectory, axis=0)) > 10


@pytest.mark.parametrize("seed", [7, 2026])
def test_incremental_counts_match_rebuild_on_sweden(seed):
    graph, vehs = build_sweden_scenario()
    state = ScheduleState(graph, tuple(vehs), np.zeros(len(vehs), dtype=int))
    assert joint_state_count(vehs) > CACHE_JOINT_CAP     # no cache here
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


def test_incremental_counts_match_rebuild_with_cache():
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
    assert joint_state_count(vehs) <= CACHE_JOINT_CAP    # cache is on
    assert_matches_rebuilt(state, 3000, 17)


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
