import math

import numpy as np
import pytest

from roadflow.errors import HorizonExceeded
from roadflow.network import PiecewiseConstant
from roadflow.nonlocal_solver import (GridSpec, NonlocalWindow, VelocityLaw,
                                      congestion_law, constant_law, exit_time,
                                      nonlocal_term, outflux,
                                      solve_characteristic, solve_link)

WHOLE = NonlocalWindow()


def l1_error(state_a, state_b, m_frac=1.0):
    """Discrete L1 distance of the final rows, resampled onto state_a's cells."""
    row_a = state_a.rho[-1]
    row_b = np.interp(state_a.cells, state_b.cells, state_b.rho[-1])
    return float(np.abs(row_a - row_b).sum() / len(row_a))


def slab(height, lo, hi):
    return lambda x: height if lo <= x < hi else 0.0


def test_constant_law_displacement_is_linear():
    res = solve_characteristic(constant_law(0.4), None, 1.0, horizon=1.5,
                               cells=100)
    np.testing.assert_allclose(res.displacement, 0.4 * res.times, atol=1e-12)


def test_draining_profile_displacement_oracle():
    # lam(W) = 1/(1+W), no inflow, rho0 = 1 on the unit link.  The profile
    # translates rigidly, so the on-link mass is 1 - xi and the displacement
    # obeys dxi/dt = 1/(2 - xi), giving xi(t) = 2 - sqrt(4 - 2t).
    law = VelocityLaw(lambda t, w: 1.0 / (1.0 + np.asarray(w, dtype=float)),
                      decreasing=True, name="unit-congestion")
    res = solve_characteristic(law, None, 1.0, horizon=1.0, cells=800)
    exact = 2.0 - np.sqrt(4.0 - 2.0 * res.times)
    assert np.max(np.abs(res.displacement - exact)) < 2e-4
    assert res.iterations >= 1
    # displacement is nondecreasing and starts at zero
    assert res.displacement[0] == 0.0
    assert np.all(np.diff(res.displacement) >= -1e-15)


def test_figure_configuration_self_convergence():
    # lam(W) = 1/(1+5W), influx ramp t/3 on [0,2], slab initial datum
    law = congestion_law(1.0, 5.0)
    inflow = lambda t: t / 3.0 if 0.0 <= t <= 2.0 else 0.0
    rho0 = slab(4.0, 0.5, 0.7)
    coarse = solve_characteristic(law, inflow, rho0, horizon=1.0, cells=200)
    fine = solve_characteristic(law, inflow, rho0, horizon=1.0, cells=800)
    xi_f = np.interp(coarse.times, fine.times, fine.displacement)
    assert np.max(np.abs(coarse.displacement - xi_f)) < 1e-3


def test_characteristics_and_fv_agree_with_grid_refinement():
    # smooth datum: first-order upwind is O(dx) in L1 only away from jumps
    law = congestion_law(1.0, 5.0)
    rho0 = lambda x: 2.0 * math.exp(-60.0 * (x - 0.35) ** 2)
    ref = solve_link(law, WHOLE, None, rho0, horizon=0.5,
                     grid=GridSpec(cells=1600), method="characteristics")
    errs = []
    for cells in (100, 400):
        fv = solve_link(law, WHOLE, None, rho0, horizon=0.5,
                        grid=GridSpec(cells=cells), method="fv")
        row_ref = np.interp(fv.cells, ref.cells, ref.rho[-1])
        errs.append(float(np.abs(fv.rho[-1] - row_ref).mean()))
    order = math.log(errs[0] / errs[1]) / math.log(4.0)
    assert order >= 0.8


def test_fv_partial_window_conserves_mass():
    # downstream-looking half-link window forces the upwind path
    law = congestion_law(1.0, 2.0)
    window = NonlocalWindow(lower=0.5)
    inflow = PiecewiseConstant([(0.0, 0.5, 1.0)])
    state = solve_link(law, window, inflow, slab(2.0, 0.1, 0.4), horizon=0.6,
                       grid=GridSpec(cells=200))
    assert state.method == "fv"
    dt = state.dt
    injected = float(state.inflow[:-1].sum() * dt)
    exited = float(state.outflow[:-1].sum() * dt)
    residual = state.mass[0] + injected - exited - state.mass[-1]
    assert abs(residual) < 1e-10
    assert np.all(state.rho >= -1e-12)


def test_whole_window_methods_agree_on_final_mass():
    law = congestion_law(1.0, 5.0)
    rho0 = slab(4.0, 0.5, 0.7)
    a = solve_link(law, WHOLE, None, rho0, horizon=0.5,
                   grid=GridSpec(cells=400), method="characteristics")
    b = solve_link(law, WHOLE, None, rho0, horizon=0.5,
                   grid=GridSpec(cells=400), method="fv")
    assert a.mass[-1] == pytest.approx(b.mass[-1], rel=2e-2)


def test_nonlocal_term_windowed_average():
    row = np.array([1.0, 1.0, 0.0, 0.0])
    # quarter-cells on a unit link; window [x-0.5, x] behind each position
    win = NonlocalWindow(lower=0.0, upper=None)
    full = nonlocal_term(row, 1.0, win, np.array([1.0]))
    assert full[0] == pytest.approx(0.5)  # total mass
    behind = NonlocalWindow(lower=0.5)
    half = nonlocal_term(row, 1.0, behind, np.array([0.5]))
    # mass on [0.5, 1] is zero for this row
    assert half[0] == pytest.approx(0.0, abs=1e-12)


def test_exit_time_constant_speed():
    state = solve_link(constant_law(0.5), WHOLE, None, 0.0, horizon=3.0,
                       grid=GridSpec(cells=50))
    assert exit_time(state, 0.2) == pytest.approx(0.2 + 2.0, rel=1e-9)
    with pytest.raises(HorizonExceeded):
        exit_time(state, 2.5)  # would exit at 4.5, past the horizon


def test_outflux_interpolates_and_guards_range():
    inflow = PiecewiseConstant([(0.0, 2.0, 0.4)])
    state = solve_link(constant_law(1.0), WHOLE, inflow, 0.0, horizon=2.0,
                       grid=GridSpec(cells=100))
    # before anything reaches the end the outflux is zero
    assert outflux(state, 0.3) == pytest.approx(0.0, abs=1e-12)
    assert outflux(state, 1.8) == pytest.approx(0.4, rel=5e-2)
    with pytest.raises(HorizonExceeded):
        outflux(state, 2.5)


def test_velocity_law_validation():
    with pytest.raises(ValueError):
        VelocityLaw(lambda t, w: w, floor=0.0)
    increasing = VelocityLaw(lambda t, w: 1.0 + np.asarray(w, dtype=float),
                             decreasing=True)
    with pytest.raises(ValueError):
        increasing.check(1.0, 2.0)
    dips = VelocityLaw(lambda t, w: 1.0 - np.asarray(w, dtype=float),
                       floor=0.5)
    with pytest.raises(ValueError):
        dips.check(1.0, 2.0)


def test_window_whole_span_detection():
    assert NonlocalWindow().is_whole_span(1.0)
    assert NonlocalWindow(lower=0.0, upper=5.0).is_whole_span(1.0)
    assert not NonlocalWindow(lower=0.25).is_whole_span(1.0)
    assert not NonlocalWindow(lower=0.0, upper=0.5).is_whole_span(1.0)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        solve_link(constant_law(1.0), WHOLE, None, -1.0, horizon=1.0)
    with pytest.raises(ValueError):
        solve_link(constant_law(1.0), WHOLE,
                   PiecewiseConstant([(0.0, 1.0, -0.2)]), 0.0, horizon=1.0)
    with pytest.raises(ValueError):
        solve_link(constant_law(1.0), WHOLE, None, 0.0, horizon=0.0)


@pytest.mark.parametrize("method", ["fv", "characteristics"])
def test_mass_balance_report_matches_the_arrays(method):
    law = congestion_law(1.0, 5.0)
    inflow = lambda t: t / 3.0 if 0.0 <= t <= 2.0 else 0.0
    state = solve_link(law, WHOLE, inflow, slab(4.0, 0.5, 0.7), horizon=3.0,
                       grid=GridSpec(cells=200), method=method)
    assert state.method == method
    report = state.mass_balance()
    assert abs(report["relative_residual"]) <= 1e-12
    dt, dx = state.dt, state.dx
    if method == "fv":
        injected = state.inflow[:-1].sum() * dt      # left sums
    else:
        injected = 0.5 * (state.inflow[:-1] + state.inflow[1:]).sum() * dt
    exited = state.outflow[:-1].sum() * dt
    stored0, stored1 = state.rho[0].sum() * dx, state.rho[-1].sum() * dx
    assert report["injected"] == pytest.approx(injected, rel=1e-12)
    assert report["exited"] == pytest.approx(exited, rel=1e-12)
    assert report["exited"] > 0.1                   # mass did leave the link
    assert report["stored_initial"] == pytest.approx(stored0, rel=1e-12)
    assert report["stored_final"] == pytest.approx(stored1, rel=1e-12)
    assert abs(stored0 + injected - exited - stored1) <= 1e-12 * max(
        stored0 + injected, stored1)
