import numpy as np
import pytest

from roadflow.errors import SplitRowInvalid
from roadflow.network import (Commodity, PiecewiseConstant, RoadNetwork,
                              SourceSchedule, SplitSchedule, as_split_schedule)
from roadflow.network_sim import simulate
from roadflow.nonlocal_solver import GridSpec, NonlocalWindow, congestion_law, constant_law


def fork_net():
    """One entry link fanning out to two symmetric middle routes."""
    return RoadNetwork([0, 1, 2, 3, 4],
                       [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])


def test_single_link_mass_balance_is_exact():
    net = RoadNetwork([0, 1], [(0, 1)])
    k = Commodity("non_routed", 1)
    sources = SourceSchedule({(0, (0, 1), k): PiecewiseConstant([(0.0, 1.0, 0.5)])})
    state = simulate(net, [k], SplitSchedule({}), sources,
                     congestion_law(1.0, 5.0), horizon=2.0,
                     grid=GridSpec(cells=60))
    rep = state.mass_report()[k]
    assert rep["injected"] == pytest.approx(0.5, rel=1e-12)
    assert abs(rep["relative_residual"]) < 1e-12


def test_symmetric_fork_gives_identical_branches():
    net = fork_net()
    k = Commodity("non_routed", 4)
    splits = as_split_schedule({1: {(1, 2): 0.5, (1, 3): 0.5},
                                2: {(2, 4): 1.0}, 3: {(3, 4): 1.0}}, [k])
    sources = SourceSchedule({(0, (0, 1), k): PiecewiseConstant([(0.0, 1.5, 0.8)])})
    state = simulate(net, [k], splits, sources, congestion_law(1.0, 2.0),
                     horizon=4.0, grid=GridSpec(cells=40))
    np.testing.assert_array_equal(state.rho[(1, 2)], state.rho[(1, 3)])
    np.testing.assert_array_equal(state.rho[(2, 4)], state.rho[(3, 4)])
    assert abs(state.mass_report()[k]["relative_residual"]) < 1e-12


def test_asymmetric_split_sends_mass_accordingly():
    net = fork_net()
    k = Commodity("non_routed", 4)
    splits = as_split_schedule({1: {(1, 2): 0.9, (1, 3): 0.1},
                                2: {(2, 4): 1.0}, 3: {(3, 4): 1.0}}, [k])
    sources = SourceSchedule({(0, (0, 1), k): PiecewiseConstant([(0.0, 1.0, 1.0)])})
    state = simulate(net, [k], splits, sources, constant_law(1.0),
                     horizon=2.2, grid=GridSpec(cells=40))
    dt, dx = state.dt, state.dx
    upper = state.inflow[(1, 2)][:, 0].sum() * dt
    lower = state.inflow[(1, 3)][:, 0].sum() * dt
    assert upper == pytest.approx(9.0 * lower, rel=1e-9)


def test_destination_absorbs_all_mass_eventually():
    net = RoadNetwork([0, 1, 2], [(0, 1), (1, 2)])
    k = Commodity("non_routed", 2)
    splits = as_split_schedule({1: {(1, 2): 1.0}}, [k])
    sources = SourceSchedule({(0, (0, 1), k): PiecewiseConstant([(0.0, 0.5, 1.0)])})
    state = simulate(net, [k], splits, sources, constant_law(1.0),
                     horizon=6.0, grid=GridSpec(cells=40))
    rep = state.mass_report()[k]
    # links are unit length at unit speed; everything is through by t=6
    assert rep["arrived"] == pytest.approx(0.5, rel=1e-9)
    assert rep["stored_final"] == pytest.approx(0.0, abs=1e-12)
    arrivals = state.cumulative_arrivals(k)
    assert np.all(np.diff(arrivals) >= -1e-15)


def test_missing_row_tolerated_only_while_no_flow_arrives():
    net = fork_net()
    k = Commodity("non_routed", 4)
    sources = SourceSchedule({(0, (0, 1), k): PiecewiseConstant([(0.0, 1.0, 1.0)])})
    # no row at the fork: fine on a horizon too short for arrivals there
    state = simulate(net, [k], SplitSchedule({}), sources, constant_law(1.0),
                     horizon=0.5, grid=GridSpec(cells=30))
    assert state.mass_report()[k]["stored_final"] > 0.0
    # once flow reaches node 1 the missing row is an error
    with pytest.raises(SplitRowInvalid):
        simulate(net, [k], SplitSchedule({}), sources, constant_law(1.0),
                 horizon=3.0, grid=GridSpec(cells=30))


def test_two_commodities_stay_separate():
    net = RoadNetwork([0, 1, 2], [(0, 1), (1, 2)])
    ka = Commodity("non_routed", 2)
    kb = Commodity("routed", 2)
    splits = as_split_schedule({1: {(1, 2): 1.0}}, [ka, kb])
    sources = SourceSchedule({
        (0, (0, 1), ka): PiecewiseConstant([(0.0, 1.0, 0.3)]),
        (0, (0, 1), kb): PiecewiseConstant([(0.0, 1.0, 0.7)]),
    })
    state = simulate(net, [ka, kb], splits, sources, constant_law(1.0),
                     horizon=5.0, grid=GridSpec(cells=30))
    rep = state.mass_report()
    assert rep[ka]["arrived"] == pytest.approx(0.3, rel=1e-9)
    assert rep[kb]["arrived"] == pytest.approx(0.7, rel=1e-9)


def test_window_bounds_change_the_speed_argument():
    net = RoadNetwork([0, 1], [(0, 1)])
    k = Commodity("non_routed", 1)
    sources = SourceSchedule({(0, (0, 1), k): PiecewiseConstant([(0.0, 2.0, 0.6)])})
    law = congestion_law(1.0, 5.0)
    whole = simulate(net, [k], SplitSchedule({}), sources, law, horizon=2.0,
                     grid=GridSpec(cells=40))
    ahead = simulate(net, [k], SplitSchedule({}), sources, law, horizon=2.0,
                     grid=GridSpec(cells=40),
                     windows={(0, 1): NonlocalWindow(lower=0.5)})
    # mass sits near the entry early on, so the downstream-only window
    # sees less of it and the link runs faster
    m = len(whole.times) // 4
    assert ahead.speeds[(0, 1)][m] > whole.speeds[(0, 1)][m]


@pytest.mark.parametrize("window", [None, (0.25, 0.7), (0.0, 0.5),
                                    (0.3, 1.0), (0.41, 0.43)])
def test_windowed_mass_over_indices_equals_scalar_calls(window):
    net = RoadNetwork([0, 1, 2], [(0, 1), (1, 2)])
    k1, k2 = Commodity("routed", 2), Commodity("non_routed", 2)
    sources = SourceSchedule({
        (0, (0, 1), k1): PiecewiseConstant([(0.0, 1.0, 0.7)]),
        (0, (0, 1), k2): PiecewiseConstant([(0.2, 1.5, 0.4)])})
    splits = as_split_schedule({1: {(1, 2): 1.0}}, [k1, k2])
    state = simulate(net, [k1, k2], splits, sources,
                     congestion_law(1.0, 3.0), horizon=3.0,
                     grid=GridSpec(cells=20), windows={(1, 2): window})
    # bounds on and off the cell edges, and inside one cell
    for link in net.links:
        idx = np.arange(len(state.times))
        masses = state.windowed_mass(link, idx)
        scalar = np.array([state.windowed_mass(link, m) for m in idx.tolist()])
        assert masses.tobytes() == scalar.tobytes()
        assert isinstance(state.windowed_mass(link, 3), float)
    assert np.ptp(masses) > 0.0


def test_initial_density_callable_and_array():
    net = RoadNetwork([0, 1], [(0, 1)])
    k = Commodity("non_routed", 1)
    state = simulate(net, [k], SplitSchedule({}), SourceSchedule({}),
                     constant_law(1.0), horizon=0.5, grid=GridSpec(cells=20),
                     initial_density={((0, 1), k): lambda x: 2.0 * x})
    row0 = state.rho[(0, 1)][0, 0]
    np.testing.assert_allclose(row0, 2.0 * state.cells, rtol=1e-12)


def test_speeds_respect_law_floor_and_cfl():
    net = RoadNetwork([0, 1], [(0, 1)])
    k = Commodity("non_routed", 1)
    sources = SourceSchedule({(0, (0, 1), k): PiecewiseConstant([(0.0, 1.0, 3.0)])})
    state = simulate(net, [k], SplitSchedule({}), sources,
                     congestion_law(1.0, 10.0), horizon=1.5,
                     grid=GridSpec(cells=50))
    speeds = state.speeds[(0, 1)]
    assert np.all(speeds > 0.0)
    assert np.max(speeds) * state.dt <= state.dx * (1.0 + 1e-9)
    assert np.all(state.rho[(0, 1)] >= -1e-12)
