import dataclasses
import math

import numpy as np
import pytest

from roadflow import routing
from roadflow.errors import SplitRowInvalid
from roadflow.network import (ROW_SUM_TOL, Commodity, PiecewiseConstant,
                              RoadNetwork, SplitSchedule)
from roadflow.network_sim import enumerate_paths
from roadflow.routing import (EquilibriumDemand, LogitRule, RoutingPolicy,
                              equilibrium_iterate, infer_origin, mixed_gap,
                              policy_grid_splits)
from roadflow.nonlocal_solver import GridSpec, congestion_law, constant_law

from oracles import wardrop_gap


def three_route_net():
    """Entry link, then three disjoint two-link routes to one sink."""
    nodes = [0, 1, 2, 3, 4, 5]
    links = [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]
    return RoadNetwork(nodes, links)


def base_rows_three():
    return {1: {(1, 2): 1.0 / 3.0, (1, 3): 1.0 / 3.0, (1, 4): 1.0 / 3.0},
            2: {(2, 5): 1.0}, 3: {(3, 5): 1.0}, 4: {(4, 5): 1.0}}


def three_route_laws():
    return {(0, 1): constant_law(1.0),
            (1, 2): congestion_law(1.0, 4.0), (2, 5): constant_law(1.0),
            (1, 3): congestion_law(0.9, 2.0), (3, 5): constant_law(0.9),
            (1, 4): constant_law(0.55), (4, 5): constant_law(0.55)}


def run_sweep(alpha, rounds=5):
    net = three_route_net()
    demand = EquilibriumDemand(entry_link=(0, 1),
                               rate=PiecewiseConstant([(0.0, 2.0, 1.0)]),
                               destination=5)
    policies = (RoutingPolicy("full_information", logit=LogitRule(beta=2.0)),
                RoutingPolicy("static", base=base_rows_three()))
    return equilibrium_iterate(net, demand, alpha, policies, rounds,
                               laws=three_route_laws(), horizon=8.0,
                               base_splits=base_rows_three(),
                               grid=GridSpec(cells=30), eps=0.05)


def test_logit_beta_zero_is_uniform():
    rule = LogitRule(beta=0.0)
    np.testing.assert_allclose(rule.split([3.0, 100.0, 7.0]),
                               np.ones(3) / 3.0)


def test_logit_equal_costs_are_uniform():
    rule = LogitRule(beta=5.0)
    np.testing.assert_allclose(rule.split([2.0, 2.0]), [0.5, 0.5])


def test_logit_large_beta_picks_cheapest_and_stays_finite():
    rule = LogitRule(beta=500.0)
    probs = rule.split([1.0, 1.6, 9000.0])
    assert probs[0] > 0.999
    assert np.isfinite(probs).all()
    assert probs.sum() == pytest.approx(1.0)


def test_logit_grid_shape_and_validation():
    rule = LogitRule(beta=1.0)
    grid = rule.split(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert grid.shape == (2, 2)
    np.testing.assert_allclose(grid.sum(axis=0), [1.0, 1.0])
    with pytest.raises(ValueError):
        LogitRule(beta=-1.0)
    with pytest.raises(ValueError):
        rule.split([np.inf, 1.0])


def test_policy_parameter_validation():
    with pytest.raises(ValueError):
        RoutingPolicy("teleport")
    with pytest.raises(ValueError):
        RoutingPolicy("delayed", delay=1.0)          # no base rows
    with pytest.raises(ValueError):
        RoutingPolicy("static")                      # no base rows
    with pytest.raises(ValueError):
        RoutingPolicy("sub_network")                 # no mask
    with pytest.raises(ValueError):
        RoutingPolicy("local", base={}, radius=0)
    assert RoutingPolicy("full_information").is_routed()
    assert not RoutingPolicy("static", base={}).is_routed()


def test_full_information_prefers_the_faster_route():
    rounds = run_sweep(alpha=1.0, rounds=3)
    state = rounds[-1].state
    k = Commodity("routed", 5)
    rows, _ = policy_grid_splits(RoutingPolicy("full_information",
                                               logit=LogitRule(beta=2.0)),
                                 state, k, origin=1)
    column = rows[(1, k)][:, state.step_index(0.5)]
    row = dict(zip(state.net.out_links(1), column.tolist()))
    # the constant-0.55 route is always slowest; logit must send it the least
    assert row[(1, 4)] < row[(1, 2)]
    assert row[(1, 4)] < row[(1, 3)]
    assert sum(row.values()) == pytest.approx(1.0)


def test_equilibrium_gap_decreases_over_rounds():
    rounds = run_sweep(alpha=1.0, rounds=5)
    gaps = [r.gap for r in rounds]
    assert gaps[-1] < gaps[0]
    assert all(np.isfinite(g) for g in gaps)


def test_routed_fraction_lowers_the_final_gap():
    gap_none = run_sweep(alpha=0.0, rounds=4)[-1].gap
    gap_full = run_sweep(alpha=1.0, rounds=4)[-1].gap
    assert gap_full < gap_none


def test_infer_origin_from_sources():
    # injection sits on the entry link, so the inferred origin is its tail
    rounds = run_sweep(alpha=0.5, rounds=2)
    state = rounds[-1].state
    assert infer_origin(state, Commodity("routed", 5)) == 0


def test_mixed_gap_requires_used_paths():
    rounds = run_sweep(alpha=0.5, rounds=2)
    state = rounds[-1].state
    k_r = Commodity("routed", 5)
    k_n = Commodity("non_routed", 5)
    gap = mixed_gap(state, 1.0, 1, 5, [(k_r, 0.5), (k_n, 0.5)], eps=0.05)
    assert np.isfinite(gap) and gap >= 0.0
    with pytest.raises(ValueError):
        mixed_gap(state, 1.0, 1, 5, [(k_r, 1.0)], eps=0.999)


def test_wardrop_gap_zero_when_single_route_used():
    # mask away two routes: all flow on one path means zero spread
    rounds = run_sweep(alpha=1.0, rounds=2)
    state = rounds[-1].state
    k = Commodity("routed", 5)
    g = wardrop_gap(state, 1.0, 2, 5, k)  # from node 2 only one path exists
    assert g == pytest.approx(0.0, abs=1e-12)


def reference_gap(state, t, origin, destination, weighted, eps):
    """The gap at one time, path by path and link by link."""
    m = state.step_index(t)
    used = []
    for path in enumerate_paths(state.net, origin, destination):
        share = 0.0
        for k, w in weighted:
            if w > 0.0:
                product = 1.0
                for a in path:
                    key = (a[0], k)
                    if key in state.split_rows:
                        out = state.net.out_links(a[0])
                        product *= float(state.split_rows[key][out.index(a), m])
                share += w * product
        if share > eps:
            used.append(sum(1.0 / float(state.speeds[a][m]) for a in path))
    return max(used) - min(used)


def test_mixed_gap_over_times_equals_scalar_calls():
    state = run_sweep(alpha=0.5, rounds=2)[-1].state
    weighted = [(Commodity("routed", 5), 0.5),
                (Commodity("non_routed", 5), 0.5)]
    times = state.times[:-1:3]
    # from node 0 every path has three links, so summation order shows
    gaps = mixed_gap(state, times, 0, 5, weighted, eps=0.05)
    assert gaps.shape == times.shape
    scalar = np.array([mixed_gap(state, float(t), 0, 5, weighted, eps=0.05)
                       for t in times])
    reference = np.array([reference_gap(state, float(t), 0, 5, weighted, 0.05)
                          for t in times])
    assert gaps.tobytes() == scalar.tobytes() == reference.tobytes()
    assert np.ptp(gaps) > 0.0


def test_mixed_gap_over_times_names_the_first_time_without_used_path():
    state = run_sweep(alpha=0.5, rounds=2)[-1].state
    k_r, k_n = Commodity("routed", 5), Commodity("non_routed", 5)
    # at steps 4 and 6 node 1 sends nothing anywhere, so no path is used
    rows = dict(state.split_rows)
    for k in (k_r, k_n):
        rows[(1, k)] = rows[(1, k)].copy()
        rows[(1, k)][:, [4, 6]] = 0.0
    broken = dataclasses.replace(state, split_rows=rows)
    weighted = [(k_r, 0.5), (k_n, 0.5)]
    times = state.times[2:8]
    with pytest.raises(ValueError, match=f"at t={state.times[4]}$"):
        mixed_gap(broken, times, 1, 5, weighted, eps=0.05)
    ok = mixed_gap(broken, state.times[[2, 3, 5]], 1, 5, weighted, eps=0.05)
    assert np.all(np.isfinite(ok))


@pytest.mark.parametrize("n, beta", [(1, 1.0), (3, 2.0), (8, 0.5),
                                     (32, 2.0), (33, 40.0)])
def test_logit_grid_columns_equal_one_dimensional_calls(n, beta):
    rng = np.random.default_rng(n)
    costs = rng.uniform(1.0, 9.0, size=(n, 57))
    rule = LogitRule(beta=beta)
    grid = rule.split(costs)
    columns = np.stack([rule.split(costs[:, j]) for j in range(57)], axis=1)
    assert grid.tobytes() == columns.tobytes()


# --------------------------------------------------- per-time reference
#
# The loop that sampled every row one grid time at a time, kept here as the
# reference the whole-grid rows must equal bit for bit.

def check_row(sampled, v, tol):
    total = sum(sampled.values())
    if abs(total - 1.0) > tol or any(x < -1e-12 for x in sampled.values()):
        raise SplitRowInvalid(f"base row at node {v} sums to {total:.17g}")


def reference_base_rows(base, plan, commodity, t):
    """Base rows at one time; uniform guard where the base is silent."""
    rows = {}
    for v in plan.row_nodes:
        out = plan.net.out_links(v)
        sampled = None
        if isinstance(base, SplitSchedule):
            if base.has_row(v, commodity):
                entry = base.entries(v, commodity)
                sampled = {a: (entry[a].sample(t) if a in entry else 0.0)
                           for a in out}
                check_row(sampled, v, ROW_SUM_TOL)
        elif base is not None and v in base:
            entry = base[v]
            sampled = {}
            for a in out:
                val = entry.get(a, 0.0)
                sampled[a] = float(val.sample(t)) if isinstance(
                    val, PiecewiseConstant) else float(val)
            check_row(sampled, v, 1e-9)
        if sampled is None:
            links = plan.preferred[v]
            sampled = {a: 1.0 / len(links) for a in links}
        rows[v] = {a: x for a, x in sampled.items() if x != 0.0}
    return rows


def reference_local_rows(policy, state, t, commodity, plan):
    """Base rows pushed toward emptier downstream neighborhoods."""
    base_rows = reference_base_rows(policy.base, plan, commodity, t)
    m = state.step_index(t)
    net = plan.net
    rows = {}
    for v, base_row in base_rows.items():
        scores = {}
        for a in base_row:
            seen = {a}
            frontier = [a]
            for _ in range(policy.radius - 1):
                frontier = [b for lk in frontier for b in net.out_links(lk[1])
                            if b not in seen]
                seen.update(frontier)
            scores[a] = sum(float(state.rho[lk][m].sum() * state.dx)
                            for lk in seen)
        weights = {a: base_row[a] * math.exp(-policy.logit.beta * scores[a])
                   for a in base_row}
        total = sum(weights.values())
        if total <= 0.0:
            rows[v] = base_row
        else:
            rows[v] = {a: w / total for a, w in weights.items()}
    return rows


def reference_link_costs(policy, state, t, plan):
    """Per-link costs at one time, as the per-time loop priced them."""
    kind = policy.kind
    if kind == "delayed":
        t_eval = t - policy.delay
        if t_eval < float(state.times[0]):
            return None
        m = state.step_index(t_eval)
        return {a: 1.0 / float(state.speeds[a][m]) for a in plan.links}
    if kind == "database":
        costs = {}
        for a in plan.links:
            series = policy.table.get(a)
            if series is None or not series.covers(t):
                return None
            costs[a] = float(series.sample(t))
        return costs
    m = state.step_index(t)
    if kind == "incentivized":
        return {a: 1.0 / float(state.speeds[a][m])
                + policy.congestion_weight * state.windowed_mass(a, m)
                for a in plan.links}
    if kind == "simplified_forecast":
        costs = {}
        for a in plan.links:
            w_now = state.windowed_mass(a, m)
            if m == 0:
                w_pred = w_now
            else:
                slope = (w_now - state.windowed_mass(a, m - 1)) / state.dt
                w_pred = w_now + slope * policy.forecast
            w_pred = max(w_pred, 0.0)
            law = state.laws[a]
            speed = max(float(law(t + policy.forecast, w_pred)), law.floor)
            costs[a] = 1.0 / speed
        return costs
    return {a: 1.0 / float(state.speeds[a][m]) for a in plan.links}


def reference_path_rows(plan, probs):
    rows = {}
    for v in plan.row_nodes:
        visits = plan.through.get(v, ())
        total = float(sum(probs[pi] for pi, _ in visits))
        if total > 0.0:
            row = {}
            for pi, a in visits:
                row[a] = row.get(a, 0.0) + float(probs[pi]) / total
        else:
            links = plan.preferred[v]
            row = {a: 1.0 / len(links) for a in links}
        rows[v] = row
    return rows


def reference_split_at(policy, state, t, commodity, plan):
    """Rows at one time and whether they fell back to the base rows."""
    if policy.kind == "static":
        return reference_base_rows(policy.base, plan, commodity, t), False
    if policy.kind == "local":
        return reference_local_rows(policy, state, t, commodity, plan), False
    if policy.kind == "ex_ante":
        t = routing._first_departure(state, commodity)
    costs = reference_link_costs(policy, state, t, plan)
    if costs is None:
        return reference_base_rows(policy.base, plan, commodity, t), True
    path_costs = np.array([sum(costs[a] for a in p) for p in plan.paths])
    return reference_path_rows(plan, policy.logit.split(path_costs)), False


def reference_grid_splits(policy, state, commodity, origin):
    mask = policy.mask if policy.kind == "sub_network" else None
    plan = routing._build_plan(state.net, origin, commodity.destination,
                               mask=mask)
    times = state.times
    rows = {(v, commodity): np.zeros((len(state.net.out_links(v)),
                                      len(times)))
            for v in plan.row_nodes}
    fallback = np.zeros(len(times), dtype=bool)
    for j, tj in enumerate(times):
        decided, fallback[j] = reference_split_at(policy, state, float(tj),
                                                  commodity, plan)
        for v, row in decided.items():
            out = state.net.out_links(v)
            for a, x in row.items():
                rows[(v, commodity)][out.index(a), j] = x
    return rows, fallback


def routed_policies():
    base = base_rows_three()
    links = three_route_net().links
    table = {a: PiecewiseConstant([(0.5, 2.5, 1.0 + 0.1 * i),
                                   (2.5, 6.0, 1.5 - 0.05 * i)])
             for i, a in enumerate(links)}
    return {
        "full_information": RoutingPolicy("full_information",
                                          logit=LogitRule(beta=2.0)),
        # large beta: some paths get probability 0, so some nodes fall back
        # to the uniform guard at some times only
        "full_information_sharp": RoutingPolicy(
            "full_information", logit=LogitRule(beta=2000.0)),
        "sub_network": RoutingPolicy(
            "sub_network", mask=frozenset(set(links) - {(1, 4), (4, 5)})),
        "ex_ante": RoutingPolicy("ex_ante", logit=LogitRule(beta=3.0)),
        "incentivized": RoutingPolicy("incentivized", congestion_weight=0.3),
        "simplified_forecast": RoutingPolicy("simplified_forecast",
                                             forecast=0.5),
        "delayed": RoutingPolicy("delayed", delay=1.5, base=base),
        "database": RoutingPolicy("database", table=table, base=base),
        "static": RoutingPolicy("static", base=base),
        "local": RoutingPolicy("local", base=base, radius=2),
    }


def assert_equals_reference(policy, state, k):
    # origin 1: node 0 has a row but no enumerated path passes through it
    rows, fallback = policy_grid_splits(policy, state, k, origin=1)
    ref_rows, ref_fallback = reference_grid_splits(policy, state, k, 1)
    assert (0, k) in rows
    assert rows.keys() == ref_rows.keys()
    for key, arr in rows.items():
        assert arr.tobytes() == ref_rows[key].tobytes(), key
    assert fallback.tobytes() == ref_fallback.tobytes()
    return rows, fallback


@pytest.mark.parametrize("name", sorted(routed_policies()))
def test_policy_grid_splits_equals_per_time_reference(name):
    policy = routed_policies()[name]
    state = run_sweep(alpha=0.5, rounds=2)[-1].state
    if name == "delayed":
        # a delay on the grid: history starts exactly at one grid time
        policy = dataclasses.replace(policy, delay=float(state.times[40]))
    _, fallback = assert_equals_reference(policy, state,
                                          Commodity("routed", 5))
    if name in ("delayed", "database"):
        assert 0 < fallback.sum() < len(fallback)


def switching_base(k):
    """Rows at node 1 that change at t = 3: a link drops out of the row."""
    def series(before, after):
        return PiecewiseConstant([(-math.inf, 3.0, before),
                                  (3.0, math.inf, after)])
    return SplitSchedule({(1, k): {(1, 2): series(0.5, 0.5),
                                   (1, 3): series(0.25, 0.5),
                                   (1, 4): series(0.25, 0.0)}})


@pytest.mark.parametrize("kind", ["static", "local", "delayed"])
def test_grid_splits_follow_a_base_that_changes_mid_horizon(kind):
    state = run_sweep(alpha=0.5, rounds=2)[-1].state
    k = Commodity("routed", 5)
    # a delay past t = 3 puts both base segments into the fallback times
    policy = RoutingPolicy(kind, base=switching_base(k), radius=2,
                           delay=4.0, logit=LogitRule(beta=1.5))
    rows, fallback = assert_equals_reference(policy, state, k)
    if kind == "delayed":
        assert state.times[fallback].max() > 3.0
        assert not fallback.all()
    early = rows[(1, k)][:, state.step_index(1.0)]
    late = rows[(1, k)][:, state.step_index(3.5)]
    assert early[2] > 0.0 and late[2] == 0.0
    if kind != "local":
        assert early.tolist() == [0.5, 0.25, 0.25]
        assert late.tolist() == [0.5, 0.5, 0.0]


@pytest.mark.parametrize("radius", [2, 3])
def test_local_rows_sum_neighbourhood_masses_in_reference_order(radius):
    # two rungs deep, so a neighbourhood holds three or four links and the
    # order of the mass sum shows in the last bit
    net = RoadNetwork(range(7), [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5),
                                 (3, 5), (4, 6), (5, 6)])
    base = {1: {(1, 2): 0.5, (1, 3): 0.5}, 2: {(2, 4): 0.25, (2, 5): 0.75},
            3: {(3, 5): 1.0}, 4: {(4, 6): 1.0}, 5: {(5, 6): 1.0}}
    laws = {a: congestion_law(1.0, 2.0 + 0.5 * i)
            for i, a in enumerate(net.links)}
    demand = EquilibriumDemand(entry_link=(0, 1),
                               rate=PiecewiseConstant([(0.0, 2.0, 1.3)]),
                               destination=6)
    policies = (RoutingPolicy("full_information"),
                RoutingPolicy("static", base=base))
    state = equilibrium_iterate(net, demand, 0.5, policies, 1, laws=laws,
                                horizon=6.0, base_splits=base,
                                grid=GridSpec(cells=16))[-1].state
    policy = RoutingPolicy("local", base=base, radius=radius,
                           logit=LogitRule(beta=1.5))
    assert_equals_reference(policy, state, Commodity("non_routed", 6))
