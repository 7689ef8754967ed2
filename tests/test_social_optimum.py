"""Controls, projections, the backlog objective, and the descent loop."""

import math

import numpy as np
import pytest

from roadflow.network import Commodity, RoadNetwork
from roadflow.network_sim import simulate
from roadflow.nonlocal_solver import GridSpec, constant_law
from roadflow.social_optimum import (ControlParameterization, DemandSpec,
                                     SourceControl, ThetaControl,
                                     backlog_objective, optimize_social,
                                     project_controls, project_demand)

from oracles import build_schedules


def line_net():
    return RoadNetwork([0, 1], [(0, 1)])


def fork_net():
    # one entry, two routes of different speed, shared destination
    return RoadNetwork([0, 1, 2, 3, 4],
                       [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])


K = Commodity("non_routed", 1)


def test_project_demand_rescales_and_clips():
    lengths = np.array([1.0, 1.0])
    out = project_demand([3.0, 1.0], 2.0, lengths)
    assert np.allclose(out, [1.5, 0.5])
    assert math.isclose(float(np.dot(out, lengths)), 2.0)
    # negatives are clipped before rescaling
    out = project_demand([-5.0, 1.0], 2.0, lengths)
    assert np.allclose(out, [0.0, 2.0])
    # an all-zero proposal falls back to the uniform rate
    out = project_demand([0.0, -1.0], 2.0, lengths)
    assert np.allclose(out, [1.0, 1.0])
    # idempotent on feasible input
    again = project_demand(out, 2.0, lengths)
    assert np.array_equal(out, again)


def test_demand_spec_validation():
    with pytest.raises(ValueError):
        DemandSpec({})
    with pytest.raises(ValueError):
        DemandSpec({(0, (0, 1), K): -1.0})
    with pytest.raises(ValueError):
        DemandSpec({(0, (0, 1), K): 0.0})
    spec = DemandSpec({(0, (0, 1), K): 2.0})
    assert spec.total_toward(K) == 2.0
    assert spec.commodities() == (K,)


def test_parameterization_validation():
    src = SourceControl(0, (0, 1), K)
    with pytest.raises(ValueError):
        ControlParameterization([0.0], sources=[src])
    with pytest.raises(ValueError):
        ControlParameterization([0.5, 1.0], sources=[src])
    with pytest.raises(ValueError):
        ControlParameterization([0.0, 1.0])        # nothing to control
    param = ControlParameterization([0.0, 1.0, 2.0], sources=[src])
    assert param.intervals == 2
    assert param.horizon == 2.0
    with pytest.raises(ValueError):
        param.with_vector(np.zeros(3))


def test_pack_with_vector_roundtrip():
    kd = Commodity("non_routed", 4)
    theta = ThetaControl(1, kd, ((1, 2), (1, 3)))
    src = SourceControl(0, (0, 1), kd)
    param = ControlParameterization([0.0, 1.0, 2.0], theta=[theta],
                                    sources=[src])
    x = param.pack()
    assert x.shape == (2 * 2 + 2,)
    y = x.copy()
    y[0] = 0.9
    y[1] = 0.2
    rebuilt = param.with_vector(y)
    assert np.array_equal(rebuilt.pack(), y)
    assert rebuilt.theta_values[0][0, 0] == 0.9


def test_project_controls_restores_feasibility():
    kd = Commodity("non_routed", 4)
    theta = ThetaControl(1, kd, ((1, 2), (1, 3)))
    src = SourceControl(0, (0, 1), kd)
    param = ControlParameterization(
        [0.0, 1.0, 2.0], theta=[theta], sources=[src],
        theta_values=[np.array([[2.0, -1.0], [2.0, 0.0]])],
        source_values=[np.array([5.0, 0.0])])
    demand = DemandSpec({(0, (0, 1), kd): 3.0})
    proj = project_controls(param, demand)
    rows = proj.theta_values[0]
    assert np.allclose(rows.sum(axis=0), 1.0)
    assert np.all(rows >= 0.0)
    # the all-nonpositive column lands on the uniform row
    assert np.allclose(rows[:, 1], [0.5, 0.5])
    # relative source rates integrate to the horizon (mean 1)
    lengths = np.diff(param.knots)
    assert math.isclose(float(np.dot(proj.source_values[0], lengths)), 2.0)
    twice = project_controls(proj, demand)
    assert np.allclose(twice.source_values[0], proj.source_values[0])
    assert np.allclose(twice.theta_values[0], rows)


def test_build_schedules_sources_hit_demand_total():
    src = SourceControl(0, (0, 1), K)
    param = ControlParameterization(
        [0.0, 1.0, 2.0], sources=[src],
        source_values=[np.array([3.0, 1.0])])
    demand = DemandSpec({(0, (0, 1), K): 1.0})
    splits, sources = build_schedules(param, demand)
    assert math.isclose(sources.total(K, 0.0, 2.0), 1.0, rel_tol=1e-12)
    series = dict(sources.items())[(0, (0, 1), K)]
    # relative weights 3:1 over equal intervals
    assert math.isclose(series.sample(0.5), 0.75)
    assert math.isclose(series.sample(1.5), 0.25)
    # the last interval stays open so sampling at the horizon works
    assert math.isclose(series.sample(2.0), 0.25)


def test_build_schedules_theta_overrides_base():
    kd = Commodity("non_routed", 4)
    theta = ThetaControl(1, kd, ((1, 2), (1, 3)))
    param = ControlParameterization(
        [0.0, 2.0], theta=[theta],
        theta_values=[np.array([[0.8], [0.2]])])
    demand = DemandSpec({(0, (0, 1), kd): 1.0})
    base = {1: {(1, 2): 0.5, (1, 3): 0.5}, 2: {(2, 4): 1.0},
            3: {(3, 4): 1.0}}
    splits, _ = build_schedules(param, demand, base)
    at = np.array([0.5])
    row = splits.grid_row(1, kd, at, ((1, 2), (1, 3)))[:, 0]
    assert math.isclose(row[0], 0.8) and math.isclose(row[1], 0.2)
    row = splits.grid_row(2, kd, at, ((2, 4),))[:, 0]
    assert math.isclose(row[0], 1.0)


def test_backlog_objective_no_arrivals():
    # transit takes 10 time units, so nothing reaches the destination
    net = line_net()
    src = SourceControl(0, (0, 1), K)
    param = ControlParameterization([0.0, 0.5, 1.0], sources=[src])
    demand = DemandSpec({(0, (0, 1), K): 2.0})
    splits, sources = build_schedules(param, demand)
    state = simulate(net, [K], splits, sources, constant_law(0.1),
                     horizon=1.0, grid=GridSpec(cells=20))
    j = backlog_objective(state, demand)
    assert math.isclose(j, 4.0 * 1.0, rel_tol=1e-12)


def test_backlog_objective_decreases_when_arrivals_happen():
    net = line_net()
    src = SourceControl(0, (0, 1), K)
    param = ControlParameterization([0.0, 2.0, 4.0], sources=[src])
    demand = DemandSpec({(0, (0, 1), K): 1.0})
    splits, sources = build_schedules(param, demand)
    slow = simulate(net, [K], splits, sources, constant_law(0.05),
                    horizon=4.0, grid=GridSpec(cells=20))
    fast = simulate(net, [K], splits, sources, constant_law(2.0),
                    horizon=4.0, grid=GridSpec(cells=20))
    assert backlog_objective(fast, demand) < backlog_objective(slow, demand)


def social_fork_setup():
    # demand must flow through a controlled source; with a single knot
    # interval the projection pins it to the uniform rate, leaving the
    # turning fraction at node 1 as the only effective degree of freedom
    kd = Commodity("non_routed", 4)
    net = fork_net()
    laws = {(0, 1): constant_law(1.0),
            (1, 2): constant_law(1.0), (2, 4): constant_law(1.0),
            (1, 3): constant_law(0.4), (3, 4): constant_law(0.4)}
    theta = ThetaControl(1, kd, ((1, 2), (1, 3)))
    src = SourceControl(0, (0, 1), kd)
    param = ControlParameterization([0.0, 6.0], theta=[theta], sources=[src])
    demand = DemandSpec({(0, (0, 1), kd): 1.0})
    base = {0: {(0, 1): 1.0}, 2: {(2, 4): 1.0}, 3: {(3, 4): 1.0}}
    return kd, net, laws, theta, src, param, demand, base


def eval_fraction(f, setup):
    kd, net, laws, theta, src, param, demand, base = setup
    trial = ControlParameterization(
        param.knots, [theta], [src],
        theta_values=[np.array([[f], [1.0 - f]])])
    splits, sources = build_schedules(trial, demand, base)
    state = simulate(net, [kd], splits, sources, laws,
                     horizon=6.0, grid=GridSpec(cells=16))
    return backlog_objective(state, demand)


def test_optimizer_matches_coarse_grid_oracle():
    setup = social_fork_setup()
    kd, net, laws, theta, src, param, demand, base = setup
    grid_vals = [(f, eval_fraction(f, setup)) for f in np.linspace(0, 1, 11)]
    best_f, best_grid_j = min(grid_vals, key=lambda p: p[1])
    # all mass onto the fast route wins under constant speeds
    assert best_f == 1.0

    result = optimize_social(net, demand, param, 80, laws=laws,
                             base_splits=base, grid=GridSpec(cells=16))
    assert result.objective <= best_grid_j + 1e-9
    js = [j for _, j in result.trace]
    assert all(b < a for a, b in zip(js, js[1:]))
    assert result.evaluations <= 80
    assert result.status in ("converged", "budget_exhausted")


def test_optimizer_budget_one_returns_initial():
    setup = social_fork_setup()
    kd, net, laws, theta, src, param, demand, base = setup
    result = optimize_social(net, demand, param, 1, laws=laws,
                             base_splits=base, grid=GridSpec(cells=12))
    assert result.evaluations == 1
    assert result.status == "budget_exhausted"
    assert len(result.trace) == 1
    with pytest.raises(ValueError):
        optimize_social(net, demand, param, 0, laws=laws, base_splits=base)
