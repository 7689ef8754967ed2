import numpy as np
import pytest

from roadflow import network_sim
from roadflow.errors import SplitRowInvalid
from roadflow.network import (Commodity, PiecewiseConstant, RoadNetwork,
                              SourceSchedule, SplitSchedule, as_split_schedule)
from roadflow.network_sim import (ArrivalSimulator, GridSplits, _window_mass,
                                  simulate)
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
    assert rep["exited"] == pytest.approx(0.5, rel=1e-9)
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
    assert rep[ka]["exited"] == pytest.approx(0.3, rel=1e-9)
    assert rep[kb]["exited"] == pytest.approx(0.7, rel=1e-9)


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


def test_window_mass_equals_np_interp_bit_for_bit():
    rng = np.random.default_rng(12)
    cells = 12              # not a power of two, so dx rounds
    dx = 1.0 / cells
    edges = np.arange(cells + 1) * dx
    rows = rng.uniform(0.0, 3.0, (4, 3, cells))
    # bounds at 0 and 1, on cell edges, inside one cell, and drawn at random
    bounds = [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 5 * dx),
              (3 * dx, 1.0), (3 * dx, 11 * dx), (0.41, 0.43),
              *[tuple(np.sort(rng.uniform(0.0, 1.0, 2))) for _ in range(5)]]
    for lo, up in bounds:
        block = _window_mass(rows, (lo, up), dx)
        assert block.shape == rows.shape[:-1]
        for idx in np.ndindex(rows.shape[:-1]):
            cum = np.concatenate(([0.0], np.cumsum(rows[idx]) * dx))
            want = np.interp(up, edges, cum) - np.interp(lo, edges, cum)
            assert block[idx].tobytes() == want.tobytes(), (lo, up, idx)
            assert _window_mass(rows[idx], (lo, up), dx) == want
    assert (_window_mass(rows, None, dx) == rows.sum(axis=-1) * dx).all()


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


def test_grid_rows_use_the_row_tolerance_and_name_the_time():
    net = fork_net()
    k = Commodity("non_routed", 4)
    splits = as_split_schedule({1: {(1, 2): 0.3, (1, 3): 0.7},
                                2: {(2, 4): 1.0}, 3: {(3, 4): 1.0}}, [k])
    sources = SourceSchedule({(0, (0, 1), k): PiecewiseConstant([(0.0, 1.0, 1.0)])})
    kwargs = dict(horizon=2.0, grid=GridSpec(cells=20))
    state = simulate(net, [k], splits, sources, congestion_law(1.0, 2.0),
                     **kwargs)
    # the sampled rows replay bit for bit
    again = simulate(net, [k], GridSplits(state.split_rows), sources,
                     congestion_law(1.0, 2.0), **kwargs)
    for a in net.links:
        assert again.rho[a].tobytes() == state.rho[a].tobytes()
    # off by 1e-10 at one time: inside the old 1e-9, outside ROW_SUM_TOL
    rows = {key: row.copy() for key, row in state.split_rows.items()}
    rows[(1, k)][0, 7] += 1e-10
    with pytest.raises(SplitRowInvalid,
                       match=rf"node 1 .* at t={state.times[7]:.6g} "):
        simulate(net, [k], GridSplits(rows), sources,
                 congestion_law(1.0, 2.0), **kwargs)


def fork_member(k, share, other=None):
    """Splits sending ``share`` of the fork onto (1, 2) and ``other``
    (default ``1 - share``) onto (1, 3), and one source on (0, 1)."""
    split = {(1, 2): PiecewiseConstant([(0.0, np.inf, share)]),
             (1, 3): PiecewiseConstant([(0.0, np.inf, 1.0 - share
                                         if other is None else other)])}
    splits = SplitSchedule({(1, k): split,
                            (2, k): {(2, 4): PiecewiseConstant.constant(1.0)},
                            (3, k): {(3, 4): PiecewiseConstant.constant(1.0)}})
    sources = SourceSchedule(
        {(0, (0, 1), k): PiecewiseConstant([(0.0, 1.5, 0.8)])})
    return splits, sources


def fork_run():
    """The fork with a slow lower branch, and the runner settings."""
    laws = {a: congestion_law(1.0, 2.0) for a in fork_net().links}
    laws[(1, 3)] = congestion_law(0.6, 1.0)
    return dict(laws=laws, horizon=4.0, grid=GridSpec(cells=20))


def test_arrival_simulator_restarts_where_a_row_changes(monkeypatch):
    net, k = fork_net(), Commodity("non_routed", 4)
    settings = fork_run()
    runs = ArrivalSimulator(net, [k], settings["laws"],
                            horizon=settings["horizon"], grid=settings["grid"])
    starts = []
    advance = network_sim._StepPlan.advance

    def spy(self, *args, start=0, **kwargs):
        starts.append(start)
        return advance(self, *args, start=start, **kwargs)

    monkeypatch.setattr(network_sim._StepPlan, "advance", spy)
    first = fork_member(k, 0.3)
    runs.run([first])
    runs.stand_on(0)
    # the same row with its share one bit higher from t = 2 on
    splits, sources = first
    later = np.nextafter(0.3, 1.0)
    rows = dict(splits._rows)
    rows[(1, k)] = {
        (1, 2): PiecewiseConstant([(0.0, 2.0, 0.3), (2.0, np.inf, later)]),
        (1, 3): PiecewiseConstant([(0.0, 2.0, 1.0 - 0.3),
                                   (2.0, np.inf, 1.0 - later)])}
    second = (SplitSchedule(rows), sources)
    [record] = runs.run([second])
    assert starts == [0, int(np.searchsorted(record.times, 2.0))]
    assert starts[1] > 0
    alone = simulate(net, [k], *second, settings["laws"],
                     horizon=settings["horizon"], grid=settings["grid"])
    before = simulate(net, [k], *first, settings["laws"],
                      horizon=settings["horizon"], grid=settings["grid"])
    assert record.arrivals[k].tobytes() == alone.arrivals[k].tobytes()
    assert record.arrivals[k].tobytes() != before.arrivals[k].tobytes()


def test_arrival_simulator_refuses_a_bad_row_on_every_call():
    net, k = fork_net(), Commodity("non_routed", 4)
    settings = fork_run()
    runs = ArrivalSimulator(net, [k], settings["laws"],
                            horizon=settings["horizon"], grid=settings["grid"])
    good = fork_member(k, 0.3)
    bad = fork_member(k, 0.3, other=0.7 + 1e-9)   # sums to 1 + 1e-9
    for _ in range(3):
        with pytest.raises(SplitRowInvalid, match="sums to"):
            runs.run([good, bad])
    [record] = runs.run([good])
    alone = simulate(net, [k], *good, settings["laws"],
                     horizon=settings["horizon"], grid=settings["grid"])
    assert record.arrivals[k].tobytes() == alone.arrivals[k].tobytes()
