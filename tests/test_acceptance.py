"""End-to-end acceptance checks, one per shipped guarantee.

Each test is self-contained and prints as a single pass/fail line under
``pytest -v``.  Expected values were computed with independent oracles
(closed forms, grid searches, exhaustive enumeration, plaintext
counterparts) before being frozen here; tolerances are part of the
guarantee, not tuning knobs.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from roadflow.cli import main as cli_main
from roadflow.network import (Commodity, PiecewiseConstant, RoadNetwork,
                              SourceSchedule, SplitSchedule)
from roadflow.network_sim import simulate
from roadflow.nonlocal_solver import (GridSpec, NonlocalWindow, congestion_law,
                                      constant_law, solve_link)
from roadflow.platoon_flow import (AdmissibleVelocityField, FreightPair,
                                   optimize_velocity, solve_freight_pair)
from roadflow.private_agg import (chain_aggregate, decrypt, encrypt,
                                  homomorphic_add, keygen,
                                  run_private_learning)
from roadflow.routing import (EquilibriumDemand, LogitRule, RoutingPolicy,
                              equilibrium_iterate)
from roadflow.scheduler import (FreightGraph, ScheduleState,
                                VehicleAssignment, build_sweden_scenario,
                                default_horizon, occupancy_counts,
                                pair_distance_histogram, pair_distance_ratio,
                                platoon_opportunity_gain, run_learning)
from roadflow.social_optimum import (ControlParameterization, DemandSpec,
                                     SourceControl, ThetaControl,
                                     backlog_objective, optimize_social,
                                     project_controls)

from oracles import (build_schedules, exact_gibbs_distribution, exit_time,
                     potential_check)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
WHOLE = NonlocalWindow()


# -- criterion 1: conservation on random acyclic networks --------------------

def _random_instance(rng):
    """Random DAG (nodes in topological order), commodities, rows, sources."""
    while True:
        n = int(rng.integers(4, 9))
        # chain backbone keeps the graph connected; extras keep it random
        links = [(i, i + 1) for i in range(n - 1)]
        links += [(i, j) for i in range(n) for j in range(i + 2, n)
                  if rng.random() < 0.35]
        net = RoadNetwork(range(n), links)
        dests = sorted({h for _, h in links})
        k_count = min(int(rng.integers(1, 4)), len(dests))
        picked = list(rng.choice(dests, size=k_count, replace=False))
        commodities = [Commodity("non_routed", int(d)) for d in picked]
        rows = {}
        sources = {}
        ok = True
        for k in commodities:
            leading = [a for a in links if net.link_leads_to(a, k.destination)]
            if not leading:
                ok = False
                break
            entry = leading[int(rng.integers(len(leading)))]
            rate = float(rng.uniform(0.2, 1.0))
            sources[(entry[0], entry, k)] = PiecewiseConstant(
                [(0.0, 1.0, rate)])
            for v in range(n):
                if v == k.destination:
                    continue
                outs = [a for a in net.out_links(v)
                        if net.link_leads_to(a, k.destination)]
                if not outs:
                    continue
                w = rng.random(len(outs)) + 0.05
                w /= w.sum()
                rows[(v, k)] = {a: PiecewiseConstant.constant(float(f))
                                for a, f in zip(outs, w)}
        if not ok:
            continue
        laws = {a: congestion_law(1.0, float(rng.uniform(0.0, 3.0)))
                for a in links}
        return net, commodities, SplitSchedule(rows), SourceSchedule(sources), laws


def test_criterion_01_mass_balance_on_random_networks():
    rng = np.random.default_rng(20260501)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        net, commodities, splits, sources, laws = _random_instance(rng)
        state = simulate(net, commodities, splits, sources, laws,
                         horizon=3.0, grid=GridSpec(cells=24))
        for k, report in state.mass_report().items():
            worst = max(worst, abs(report["relative_residual"]))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"worst relative residual {worst:.3e}"
    assert elapsed < 60.0, f"50 networks took {elapsed:.1f}s"


# -- criterion 2: solver cross-validation under grid refinement --------------

def test_criterion_02_fv_matches_characteristics_at_first_order():
    law = congestion_law(1.0, 5.0)
    rho0 = lambda x: 2.0 * math.exp(-60.0 * (x - 0.35) ** 2)
    ref = solve_link(law, WHOLE, None, rho0, horizon=0.5,
                     grid=GridSpec(cells=3200))
    # the whole link as a callable bound: the solver runs upwind on it
    whole_upwind = NonlocalWindow(upper=lambda x: np.ones_like(x))
    errors = []
    for cells in (100, 200, 400, 800):
        t0 = time.perf_counter()
        fv = solve_link(law, whole_upwind, None, rho0, horizon=0.5,
                        grid=GridSpec(cells=cells))
        case_time = time.perf_counter() - t0
        assert case_time < 10.0, f"{cells} cells took {case_time:.1f}s"
        row_ref = np.interp(fv.cells, ref.cells, ref.rho[-1])
        errors.append(float(np.abs(fv.rho[-1] - row_ref).mean()))
    orders = [math.log(a / b) / math.log(2.0)
              for a, b in zip(errors, errors[1:])]
    assert all(o >= 0.8 for o in orders), f"observed orders {orders}"


# -- criterion 3: congestion slows traversal --------------------------------

def test_criterion_03_loaded_link_delays_entering_parcel():
    law = congestion_law(1.0, 5.0)
    slab = lambda x: 4.0 if 0.5 <= x < 0.7 else 0.0
    grid = GridSpec(cells=400)
    empty = solve_link(law, WHOLE, None, None, horizon=8.0, grid=grid)
    loaded = solve_link(law, WHOLE, None, slab, horizon=8.0, grid=grid)
    t_empty = exit_time(empty, 1.0) - 1.0
    t_loaded = exit_time(loaded, 1.0) - 1.0
    assert math.isclose(t_empty, 1.0, rel_tol=1e-9)
    assert t_loaded >= 1.10 * t_empty, (
        f"loaded {t_loaded:.4f} vs empty {t_empty:.4f}")


# -- criterion 4: routed information share shrinks the equilibrium gap -------

def test_criterion_04_gap_nonincreasing_in_routed_share():
    net = RoadNetwork(range(6), [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5),
                                 (3, 5), (4, 5)])
    laws = {(0, 1): constant_law(1.0),
            (1, 2): congestion_law(1.0, 4.0), (2, 5): constant_law(1.0),
            (1, 3): congestion_law(0.9, 2.0), (3, 5): constant_law(0.9),
            (1, 4): constant_law(0.55), (4, 5): constant_law(0.55)}
    base = {1: {(1, 2): 1 / 3, (1, 3): 1 / 3, (1, 4): 1 / 3},
            2: {(2, 5): 1.0}, 3: {(3, 5): 1.0}, 4: {(4, 5): 1.0}}
    demand = EquilibriumDemand(entry_link=(0, 1),
                               rate=PiecewiseConstant([(0.0, 2.0, 1.0)]),
                               destination=5)
    policies = (RoutingPolicy("full_information", logit=LogitRule(beta=2.0)),
                RoutingPolicy("static", base=base))
    gaps = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        rounds = equilibrium_iterate(net, demand, alpha, policies, 6,
                                     laws=laws, horizon=8.0,
                                     base_splits=base,
                                     grid=GridSpec(cells=30), eps=0.05)
        gaps.append(rounds[-1].gap)
    tol = 0.05 * gaps[0]
    assert all(b <= a + tol for a, b in zip(gaps, gaps[1:])), f"gaps {gaps}"


# -- criterion 5: one-knob optimization matches a dense grid search ----------

def _theta_knob_instance():
    kd = Commodity("non_routed", 4)
    net = RoadNetwork(range(5), [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    laws = {(0, 1): constant_law(1.0),
            (1, 2): constant_law(1.0), (2, 4): constant_law(1.0),
            (1, 3): constant_law(0.4), (3, 4): constant_law(0.4)}
    theta = ThetaControl(1, kd, ((1, 2), (1, 3)))
    src = SourceControl(0, (0, 1), kd)
    param = ControlParameterization([0.0, 6.0], theta=[theta], sources=[src])
    demand = DemandSpec({(0, (0, 1), kd): 1.0})
    base = {0: {(0, 1): 1.0}, 2: {(2, 4): 1.0}, 3: {(3, 4): 1.0}}
    grid = GridSpec(cells=16)

    def eval_knob(f):
        trial = ControlParameterization(
            param.knots, [theta], [src],
            theta_values=[np.array([[f], [1.0 - f]])])
        splits, sources = build_schedules(trial, demand, base)
        state = simulate(net, [kd], splits, sources, laws,
                         horizon=param.horizon, grid=grid)
        return backlog_objective(state, demand)

    def run(budget):
        return optimize_social(net, demand, param, budget, laws=laws,
                               base_splits=base, grid=grid)

    return eval_knob, run


def _source_knob_instance():
    k = Commodity("non_routed", 1)
    net = RoadNetwork([0, 1], [(0, 1)])
    laws = {(0, 1): congestion_law(1.0, 4.0)}
    src = SourceControl(0, (0, 1), k)
    param = ControlParameterization([0.0, 1.0, 2.0], sources=[src])
    demand = DemandSpec({(0, (0, 1), k): 1.0})
    grid = GridSpec(cells=20)

    def eval_knob(f):
        trial = ControlParameterization(
            param.knots, sources=[src],
            source_values=[np.array([f, 1.0 - f]) * 2.0])
        trial = project_controls(trial, demand)
        splits, sources = build_schedules(trial, demand)
        state = simulate(net, [k], splits, sources, laws,
                         horizon=param.horizon, grid=grid)
        return backlog_objective(state, demand)

    def run(budget):
        return optimize_social(net, demand, param, budget, laws=laws,
                               grid=grid)

    return eval_knob, run


def test_criterion_05_single_knob_matches_grid_search():
    for make in (_theta_knob_instance, _source_knob_instance):
        eval_knob, run = make()
        knobs = np.linspace(0.0, 1.0, 101)
        grid_j = np.array([eval_knob(float(f)) for f in knobs])
        idx = int(np.argmin(grid_j))
        neighbors = [j for j in (idx - 1, idx + 1) if 0 <= j <= 100]
        modulus = max(abs(grid_j[j] - grid_j[idx]) for j in neighbors)
        result = run(200)
        assert result.objective <= grid_j[idx] + modulus + 1e-12, (
            f"optimizer {result.objective:.6f} vs grid "
            f"{grid_j[idx]:.6f} + modulus {modulus:.2e}")
        js = [j for _, j in result.trace]
        assert all(b < a for a, b in zip(js, js[1:]))


# -- criterion 6: velocity control concentrates the truck density ------------

def test_criterion_06_velocity_control_beats_constant_baseline():
    start = time.perf_counter()
    pair = FreightPair(
        length=5.0, horizon=2.0,
        truck_initial=lambda x: max(0.0, (2.6 - x) * (x - 1.0)))
    control0 = AdmissibleVelocityField.constant(
        0.75, horizon=2.0, length=5.0, lam_min=0.5, lam_max=1.0, lip=0.1,
        shape=(6, 6))
    baseline = solve_freight_pair(pair, control0, cells=120)
    j_base = baseline.objectives()[0]
    result = optimize_velocity(pair, control0, 500, cells=120)
    optimized = solve_freight_pair(pair, result.control, cells=120)
    j_star = optimized.objectives()[0]
    assert j_star <= 0.95 * j_base, (
        f"J* {j_star:.6f} vs 0.95 * baseline {0.95 * j_base:.6f}")
    assert optimized.final_spatial_variance() < baseline.final_spatial_variance()
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"optimization took {elapsed:.1f}s"


# -- criterion 7: learning samples the exact Gibbs law ------------------------

def test_criterion_07_empirical_law_close_to_gibbs():
    g = FreightGraph([("A", "B", 1.0, 2), ("B", "C", 1.0, 1)])
    va = VehicleAssignment(g, [0, 1], 0, (0, 3))
    vb = VehicleAssignment(g, [0, 1], 1, (0, 1))
    state = ScheduleState(g, (va, vb), np.array([0, 0]), temperature=1.0)
    exact = exact_gibbs_distribution(state)
    for seed in (11, 22, 33, 44, 55):
        result = run_learning(state, 1_000_000, rng_seed=seed)
        emp = result.visit_distribution()
        tv = 0.5 * sum(abs(exact.get(p, 0.0) - emp.get(p, 0.0))
                       for p in set(exact) | set(emp))
        assert tv <= 0.05, f"seed {seed}: total variation {tv:.4f}"


# -- criterion 8: the coordination cost is an exact potential ----------------

def test_criterion_08_potential_identity_on_random_moves():
    rng = np.random.default_rng(77)
    g = FreightGraph([("A", "B", 1.7, 2), ("B", "C", 0.6, 1),
                      ("C", "D", 2.4, 3)])
    cube = lambda z: np.abs(np.asarray(z, dtype=float)) ** 3
    worst = 0.0
    for _ in range(1000):
        vehs = []
        for _ in range(int(rng.integers(2, 5))):
            first = int(rng.integers(0, 3))
            last = int(rng.integers(first + 1, 4))
            lo = int(rng.integers(0, 3))
            slope = float(rng.uniform(0.0, 2.0))
            vehs.append(VehicleAssignment(
                g, list(range(first, last)), int(rng.integers(0, 6)),
                (lo, lo + int(rng.integers(0, 3))),
                delay_cost=lambda d, s=slope: s * d))
        tau = [int(rng.integers(v.window[0], v.window[1] + 1)) for v in vehs]
        i = int(rng.integers(len(vehs)))
        tau_prime = int(rng.integers(vehs[i].window[0],
                                     vehs[i].window[1] + 1))
        reward = (lambda z: np.asarray(z, dtype=float) ** 2) \
            if rng.random() < 0.5 else cube
        d_phi, d_util = potential_check(
            g, vehs, tau, i, tau_prime,
            gamma=float(rng.uniform(0.1, 4.0)), reward=reward)
        worst = max(worst, abs(d_phi - d_util))
    assert worst <= 1e-9, f"worst potential mismatch {worst:.3e}"


# -- criterion 9: corridor scheduling multiplies platooning contacts ---------

def _sweden_gain(max_delay):
    graph, vehs = build_sweden_scenario(max_delay, 40)
    state = ScheduleState(graph, tuple(vehs),
                          np.zeros(len(vehs), dtype=int),
                          gamma=1.0, temperature=100.0)
    result = run_learning(state, 4000, rng_seed=2026)
    baseline = pair_distance_histogram(graph, vehs,
                                       np.zeros(len(vehs), dtype=int))
    scheduled = pair_distance_histogram(graph, vehs, result.best_tau)
    return graph, pair_distance_ratio(scheduled, baseline), \
        platoon_opportunity_gain(scheduled, baseline)


def test_criterion_09_sweden_alignment_gains():
    start = time.perf_counter()
    graph, ratios, gain_short = _sweden_gain(3)
    corridor = [graph.edge_index(a, b)
                for a, b in zip(("Kiruna", "Lulea", "Umea", "Sundsvall",
                                 "Uppsala"),
                                ("Lulea", "Umea", "Sundsvall", "Uppsala",
                                 "Stockholm"))]
    hits = sum(1 for e in corridor
               if ratios.get(e, {}).get(0, 0.0) >= 1.5)
    assert hits > len(corridor) / 2, (
        f"only {hits} of {len(corridor)} corridor edges reach ratio 1.5")
    _, _, gain_long = _sweden_gain(6)
    assert gain_long > gain_short, (
        f"30-minute gain {gain_long:.3f} vs 15-minute {gain_short:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"corridor runs took {elapsed:.1f}s"


# -- criterion 10: encrypted aggregation is exact and transparent -------------

def test_criterion_10_paillier_correctness_and_equivalence():
    rng = np.random.default_rng(424242)
    keypair = keygen(512, rng)
    n = keypair.public.n
    for _ in range(10_000):
        x = int(rng.integers(0, 2 ** 62))
        y = int(rng.integers(0, 2 ** 62))
        cx = encrypt(x, keypair.public, rng)
        assert decrypt(cx, keypair) == x
        cy = encrypt(y, keypair.public, rng)
        assert decrypt(homomorphic_add(cx, cy, keypair.public),
                       keypair) == (x + y) % n

    graph, vehs = build_sweden_scenario(3, 40)
    horizon = default_horizon(vehs)
    tau = [int(t) for t in rng.integers(0, 4, size=len(vehs))]
    ring = list(zip(vehs, tau))
    zeta = chain_aggregate(ring, graph, horizon, keypair, rng)
    oracle = occupancy_counts(graph, vehs, tau, horizon, exclude=0)
    assert np.array_equal(zeta, oracle)

    g = FreightGraph([("A", "B", 1.0, 2), ("B", "C", 1.0, 1)])
    vs = (VehicleAssignment(g, [0, 1], 0, (0, 3)),
          VehicleAssignment(g, [0, 1], 1, (0, 2)),
          VehicleAssignment(g, [0], 2, (0, 2)),
          VehicleAssignment(g, [1], 0, (0, 3)))
    state = ScheduleState(g, vs, np.zeros(4, dtype=int), temperature=2.0)
    plain = run_learning(state, 120, rng_seed=99)
    private = run_private_learning(state, 120, rng_seed=99, bits=256)
    assert np.array_equal(plain.trajectory, private.trajectory)
    assert np.array_equal(plain.cost_trace, private.cost_trace)
    assert plain.best_cost == private.best_cost


# -- criterion 11: bundled scenarios rerun byte-identically ------------------

def test_criterion_11_bundled_scenarios_are_reproducible(tmp_path, capsys):
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 6
    for p in paths:
        out1 = tmp_path / f"{p.stem}_1"
        out2 = tmp_path / f"{p.stem}_2"
        kind = json.loads(p.read_text())["kind"]
        assert cli_main([kind, "--scenario", str(p), "--out", str(out1)]) == 0
        assert cli_main([kind, "--scenario", str(p), "--out", str(out2)]) == 0
        m1 = json.loads((out1 / "run_manifest.json").read_text())
        m2 = json.loads((out2 / "run_manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"], f"{p.name} hashes differ"
        for name in m1["artifacts"]:
            b1 = (out1 / name).read_bytes()
            assert b1 == (out2 / name).read_bytes(), f"{p.name}/{name}"
            digest = hashlib.sha256(b1).hexdigest()
            assert digest == m1["artifacts"][name]
