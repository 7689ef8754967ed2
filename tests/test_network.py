import numpy as np
import pytest

from roadflow.errors import CycleDetected, Disconnected, SplitRowInvalid
from roadflow.network import (Commodity, PiecewiseConstant, RoadNetwork,
                              SourceSchedule, SplitSchedule, validate_acyclic)
from roadflow.network_sim import simulate
from roadflow.nonlocal_solver import GridSpec, constant_law


def diamond():
    return RoadNetwork([0, 1, 2, 3],
                       [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_piecewise_constant_sampling_is_right_open():
    f = PiecewiseConstant([(0.0, 1.0, 2.0), (1.0, 2.0, 5.0)])
    assert f.sample(0.0) == 2.0
    assert f.sample(0.999) == 2.0
    assert f.sample(1.0) == 5.0
    assert f.sample(2.0) == 0.0
    assert f.sample(-0.5) == 0.0
    np.testing.assert_allclose(f.sample(np.array([0.5, 1.5, 3.0])),
                               [2.0, 5.0, 0.0])


def test_piecewise_constant_integral():
    f = PiecewiseConstant([(0.0, 1.0, 2.0), (1.0, 2.0, 5.0)])
    assert f.integral(0.0, 2.0) == pytest.approx(7.0)
    assert f.integral(0.5, 1.5) == pytest.approx(1.0 + 2.5)
    assert f.integral(3.0, 4.0) == 0.0
    assert f.integral(1.0, 1.0) == 0.0


def test_piecewise_constant_rejects_bad_segments():
    with pytest.raises(ValueError):
        PiecewiseConstant([(0.0, 1.0, 1.0), (0.5, 2.0, 1.0)])
    with pytest.raises(ValueError):
        PiecewiseConstant([(1.0, 1.0, 2.0)])


def test_piecewise_constant_scaled_and_nonnegative():
    f = PiecewiseConstant([(0.0, 2.0, 3.0)])
    g = f.scaled(0.5)
    assert g.sample(1.0) == 1.5
    assert f.is_nonnegative()
    assert not PiecewiseConstant([(0.0, 1.0, -1.0)]).is_nonnegative()
    assert f.covers(1.9) and not f.covers(2.0)


def test_commodity_groups_are_checked():
    Commodity("routed", 3)
    Commodity("non_routed", 3)
    with pytest.raises(ValueError):
        Commodity("vip", 3)


def test_network_adjacency():
    net = diamond()
    assert net.out_links(0) == ((0, 1), (0, 2))
    assert net.in_links(3) == ((1, 3), (2, 3))
    assert net.out_links(3) == ()
    assert net.reaches(3) == frozenset({0, 1, 2, 3})
    assert net.link_leads_to((0, 1), 3)


def test_network_rejects_duplicates_and_loops():
    with pytest.raises(ValueError):
        RoadNetwork([0, 1], [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        RoadNetwork([0], [(0, 0)])


def test_validate_acyclic_topological_order():
    net = diamond()
    order = validate_acyclic(net)
    pos = {a: i for i, a in enumerate(order)}
    assert pos[(0, 1)] < pos[(1, 3)]
    assert pos[(0, 2)] < pos[(2, 3)]


def test_validate_acyclic_raises_on_cycle_and_disconnect():
    cyc = RoadNetwork([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleDetected):
        validate_acyclic(cyc)
    disc = RoadNetwork([0, 1, 2, 3], [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        validate_acyclic(disc)


def test_split_schedule_rows_and_validation():
    net = diamond()
    k = Commodity("non_routed", 3)
    half = PiecewiseConstant.constant(0.5)
    one = PiecewiseConstant.constant(1.0)
    splits = SplitSchedule({(0, k): {(0, 1): half, (0, 2): half},
                            (1, k): {(1, 3): one},
                            (2, k): {(2, 3): one}})
    assert splits.has_row(0, k)
    grid = splits.grid_row(0, k, np.array([0.0, 0.7]), net.out_links(0))
    assert grid.shape == (2, 2)
    assert grid[0, 1] == pytest.approx(0.5)


def test_split_schedule_rejects_bad_rows():
    net = diamond()
    k = Commodity("non_routed", 3)
    bad = SplitSchedule({(0, k): {(0, 1): PiecewiseConstant.constant(0.7),
                                  (0, 2): PiecewiseConstant.constant(0.7)}})
    with pytest.raises(SplitRowInvalid):
        bad.grid_row(0, k, np.array([0.0]), net.out_links(0))
    # positive fraction routed where the destination is unreachable
    k1 = Commodity("non_routed", 1)
    dead = SplitSchedule({(0, k1): {(0, 1): PiecewiseConstant.constant(0.5),
                                    (0, 2): PiecewiseConstant.constant(0.5)}})
    with pytest.raises(SplitRowInvalid, match="cannot reach the destination"):
        simulate(net, [k1], dead, SourceSchedule({}), constant_law(1.0),
                 horizon=1.0, grid=GridSpec(cells=8))


def test_source_schedule_rates_and_total():
    k = Commodity("non_routed", 3)
    series = PiecewiseConstant([(0.0, 2.0, 1.5)])
    sources = SourceSchedule({(0, (0, 1), k): series})
    rates = dict(sources.items())
    assert rates[(0, (0, 1), k)].sample(1.0) == 1.5
    assert (0, (0, 2), k) not in rates
    assert sources.total(k, 0.0, 4.0) == pytest.approx(3.0)


def test_source_schedule_rejects_bad_entries():
    k = Commodity("non_routed", 3)
    with pytest.raises(ValueError):
        SourceSchedule({(1, (0, 1), k): PiecewiseConstant.constant(1.0)})
    with pytest.raises(ValueError):
        SourceSchedule({(0, (0, 1), k): PiecewiseConstant.constant(-1.0)})
    net = diamond()
    k1 = Commodity("non_routed", 1)
    stranding = SourceSchedule({(0, (0, 2), k1): PiecewiseConstant.constant(1.0)})
    with pytest.raises(SplitRowInvalid):
        stranding.validate(net, [k1])
