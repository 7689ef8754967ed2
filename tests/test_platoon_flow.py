"""Controlled truck advection, the concentration objectives, projections."""

import math

import numpy as np
import pytest

from roadflow import platoon_flow
from roadflow.errors import InadmissibleVelocityField
from roadflow.network import PiecewiseConstant
from roadflow.nonlocal_solver import (NonlocalWindow, _sample_initial,
                                      congestion_law, cumulative_mass)
from roadflow.platoon_flow import (AdmissibleVelocityField, FreightPair,
                                   PlatoonSolution, VelocityOptResult,
                                   optimize_velocity, solve_freight_pair)


def slab(lo, hi, height=1.0):
    return lambda x: height if lo <= x < hi else 0.0


def constant_control(value, *, horizon=2.0, length=5.0, lam_min=0.5,
                     lam_max=1.0, lip=0.1, shape=(2, 2)):
    return AdmissibleVelocityField.constant(
        value, horizon=horizon, length=length, lam_min=lam_min,
        lam_max=lam_max, lip=lip, shape=shape)


def test_constant_speed_translates_rigidly():
    pair = FreightPair(length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0))
    sol = solve_freight_pair(pair, constant_control(0.75), cells=100)
    m0, m1, m2 = sol.moment_curves()
    assert np.allclose(m0, m0[0], rtol=0, atol=1e-14)
    centroid0 = m1[0] / m0[0]
    centroidT = m1[-1] / m0[-1]
    # midpoint stepping is exact for a constant field
    assert math.isclose(centroidT - centroid0, 0.75 * 2.0, abs_tol=1e-12)
    var0 = m2[0] / m0[0] - centroid0 ** 2
    assert math.isclose(sol.final_spatial_variance(), var0, abs_tol=1e-12)


def test_unweighted_objective_matches_midpoint_oracle():
    # unit slab sampled at cell midpoints; its discrete variance is exactly
    # preserved by the rigid translation, so J = horizon * variance
    cells = 100
    pair = FreightPair(length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0))
    sol = solve_freight_pair(pair, constant_control(0.75), cells=cells)
    dx = 5.0 / cells
    xs = (np.arange(cells) + 0.5) * dx
    inside = (xs >= 1.0) & (xs < 2.0)
    w = np.full(inside.sum(), dx)
    mean = np.average(xs[inside], weights=w)
    m2 = np.dot(w, xs[inside] ** 2)
    expected = 2.0 * (m2 - np.dot(w, xs[inside]) ** 2)
    j1, _ = sol.objectives()
    assert math.isclose(j1, expected, rel_tol=1e-12)


def test_objectives_identical_without_background():
    pair = FreightPair(length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0))
    sol = solve_freight_pair(pair, constant_control(0.6), cells=60)
    j1, j2 = sol.objectives()
    assert j1 == j2


def test_background_ignored_by_mass_free_control():
    # a control without a mass axis must produce identical trajectories
    # whether or not background traffic is present
    control = constant_control(0.7)
    bare = FreightPair(length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0))
    coupled = FreightPair(
        length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0),
        background_law=congestion_law(1.0, 2.0),
        background_initial=slab(0.0, 3.0, 0.5),
        window=NonlocalWindow())
    a = solve_freight_pair(bare, control, cells=50)
    b = solve_freight_pair(coupled, control, cells=50)
    assert np.array_equal(a.positions, b.positions)
    # the weighted objective does see the background
    assert b.objectives()[1] != b.objectives()[0]


def test_mass_coupled_control_reacts_to_background():
    # speed drops with the windowed background mass ahead, so the truck
    # with traffic in front trails the one on an empty road
    field = AdmissibleVelocityField(
        [0.0, 2.0], [0.0, 5.0],
        np.array([[[1.0, 0.5], [1.0, 0.5]], [[1.0, 0.5], [1.0, 0.5]]]),
        lam_min=0.5, lam_max=1.0, lip=10.0, y_knots=[0.0, 1.0])
    empty = FreightPair(length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0),
                        background_law=congestion_law(1.0, 1.0),
                        window=NonlocalWindow(lower=0.0, upper=None))
    jammed = FreightPair(length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0),
                         background_law=congestion_law(1.0, 1.0),
                         background_initial=slab(2.0, 5.0, 1.0),
                         window=NonlocalWindow(lower=0.0, upper=None))
    a = solve_freight_pair(empty, field, cells=50)
    b = solve_freight_pair(jammed, field, cells=50)
    m0a, m1a, _ = a.moment_curves()
    m0b, m1b, _ = b.moment_curves()
    assert m1b[-1] / m0b[-1] < m1a[-1] / m0a[-1] - 0.1


def test_inflow_spawns_mass_and_balances():
    inflow = PiecewiseConstant([(0.0, 1.0, 0.4)])
    pair = FreightPair(length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0),
                       truck_inflow=inflow)
    sol = solve_freight_pair(pair, constant_control(0.75), cells=40)
    report = sol.mass_report()
    assert math.isclose(report["injected"], 0.4, rel_tol=1e-12)
    assert math.isclose(report["stored_initial"], 1.0, rel_tol=1e-12)
    assert abs(report["relative_residual"]) < 1e-12


@pytest.mark.parametrize("inflow", [None, PiecewiseConstant([(0.0, 0.5, 0.4)])])
def test_elements_past_the_end_count_as_exited(inflow):
    # speed 1 for 3 time units carries every element off a road of length 1
    pair = FreightPair(length=1.0, horizon=3.0, truck_initial=slab(0.7, 1.0),
                       truck_inflow=inflow)
    control = constant_control(1.0, horizon=3.0, length=1.0)
    particles = solve_freight_pair(pair, control, cells=40).mass_report()
    fv = solve_freight_pair(pair, control, cells=40, method="fv").mass_report()
    assert particles["stored_final"] == 0.0
    assert particles["exited"] == pytest.approx(
        particles["stored_initial"] + particles["injected"], abs=1e-12)
    for key, value in particles.items():
        assert abs(value - fv[key]) <= 1e-9, key
    assert abs(particles["residual"]) <= 1e-12
    assert abs(fv["residual"]) <= 1e-12


def test_particles_and_fv_agree_on_objective():
    pair = FreightPair(
        length=5.0, horizon=2.0,
        truck_initial=lambda x: max(0.0, (2.6 - x) * (x - 1.0)))
    grid = np.linspace(0.5, 1.0, 4)
    vals = np.tile(0.5 + 0.5 * np.linspace(0.0, 1.0, 4) ** 2, (4, 1))
    control = AdmissibleVelocityField(
        np.linspace(0.0, 2.0, 4), np.linspace(0.0, 5.0, 4), vals,
        lam_min=0.5, lam_max=1.0, lip=0.5)
    p = solve_freight_pair(pair, control, cells=150, method="particles")
    f = solve_freight_pair(pair, control, cells=150, method="fv")
    jp = p.objectives()[0]
    jf = f.objectives()[0]
    assert math.isclose(jp, jf, rel_tol=2e-2)
    # the fv run balances mass against its outflow record
    assert abs(f.mass_report()["relative_residual"]) < 1e-10


def test_fv_density_fields_match_particle_deposit_mass():
    pair = FreightPair(length=5.0, horizon=1.0, truck_initial=slab(1.0, 2.0))
    sol = solve_freight_pair(pair, constant_control(0.75, horizon=1.0),
                             cells=80)
    fields = sol.density_fields()
    dx = sol.dx
    assert fields.shape == (len(sol.times), 80)
    # the deposit conserves mass row by row
    assert np.allclose(fields.sum(axis=1) * dx, 1.0, atol=1e-12)


def test_grid_objectives_quadrature():
    times = np.array([0.0, 1.0])
    x = np.array([0.25, 0.75])
    q = np.array([[1.0, 1.0], [1.0, 1.0]])     # dx = 0.5, mass 1 each step

    def grid_solution(rho):
        return PlatoonSolution(
            pair=FreightPair(length=1.0, horizon=1.0),
            control=constant_control(0.75, horizon=1.0, length=1.0),
            times=times, x_centers=x, method="fv", grid_fields=q,
            rho_rows=rho)

    j1, j2 = grid_solution(None).objectives()
    # moments: m1 = 0.5, m2 = 0.3125, integrand = 0.0625 at both nodes
    assert math.isclose(j1, 0.0625, rel_tol=1e-12)
    assert j1 == j2
    # weights 1 + 1 double each element: m1 = 1, m2 = 0.625, integrand
    # 0.625 - 1 = -0.375 at both nodes
    _, jw = grid_solution(np.ones_like(q)).objectives()
    assert math.isclose(jw, -0.375, rel_tol=1e-12)


def test_field_validation_and_interpolation():
    with pytest.raises(ValueError):
        AdmissibleVelocityField([0.0, 1.0], [0.0, 1.0],
                                np.ones((2, 2)), lam_min=0.0, lam_max=1.0,
                                lip=0.1)
    with pytest.raises(ValueError):
        AdmissibleVelocityField([0.0], [0.0, 1.0], np.ones((1, 2)),
                                lam_min=0.5, lam_max=1.0, lip=0.1)
    with pytest.raises(ValueError):
        AdmissibleVelocityField([0.0, 1.0], [0.0, 1.0], np.ones((3, 2)),
                                lam_min=0.5, lam_max=1.0, lip=0.1)
    field = AdmissibleVelocityField(
        [0.0, 1.0], [0.0, 1.0], np.array([[0.5, 1.0], [0.5, 1.0]]),
        lam_min=0.5, lam_max=1.0, lip=0.5)
    assert math.isclose(float(field.evaluate(0.3, [0.5])[0]), 0.75)
    # positions and times outside the knot range clamp to the boundary
    assert math.isclose(float(field.evaluate(9.0, [-3.0])[0]), 0.5)
    assert math.isclose(float(field.evaluate(9.0, [42.0])[0]), 1.0)


def test_infeasible_field_rejected_then_repaired():
    values = np.array([[0.5, 2.0], [0.2, 1.0]])
    field = AdmissibleVelocityField([0.0, 1.0], [0.0, 1.0], values,
                                    lam_min=0.5, lam_max=1.0, lip=0.2)
    assert field.violation() > 0.2
    with pytest.raises(InadmissibleVelocityField):
        field.check()
    fixed = field.project()
    assert fixed.violation() <= 1e-9
    # projection of a feasible field is the identity
    assert fixed.project() is fixed


def test_zero_rate_bound_projects_to_constant():
    values = np.array([[0.6, 0.9], [0.7, 0.8]])
    field = AdmissibleVelocityField([0.0, 1.0], [0.0, 1.0], values,
                                    lam_min=0.5, lam_max=1.0, lip=0.0)
    fixed = field.project()
    assert np.allclose(fixed.values, fixed.values.flat[0])
    assert fixed.violation() <= 1e-12


def test_optimize_velocity_improves_on_baseline():
    pair = FreightPair(
        length=5.0, horizon=2.0,
        truck_initial=lambda x: max(0.0, (2.6 - x) * (x - 1.0)))
    control0 = constant_control(0.75, shape=(3, 3))
    baseline = solve_freight_pair(pair, control0, cells=60).objectives()[0]
    result = optimize_velocity(pair, control0, 60, cells=60)
    assert isinstance(result, VelocityOptResult)
    assert result.objective <= baseline
    js = [j for _, j in result.trace]
    assert all(b < a for a, b in zip(js, js[1:]))
    assert result.evaluations <= 60
    # the returned control is feasible
    assert result.control.violation() <= 1e-9


def test_optimize_velocity_argument_errors():
    pair = FreightPair(length=5.0, horizon=2.0, truck_initial=slab(1.0, 2.0))
    control0 = constant_control(0.75)
    with pytest.raises(ValueError):
        optimize_velocity(pair, control0, 0)
    with pytest.raises(ValueError):
        optimize_velocity(pair, control0, 10, objective="speediest")
    with pytest.raises(ValueError):
        FreightPair(length=-1.0, horizon=2.0)
    # background-weighted needs the coupled problem but runs without error
    coupled = FreightPair(length=5.0, horizon=1.0,
                          truck_initial=slab(1.0, 2.0),
                          background_law=congestion_law(1.0, 2.0),
                          background_initial=slab(0.0, 3.0, 0.5))
    out = optimize_velocity(coupled, constant_control(0.75, horizon=1.0), 3,
                            objective="background_weighted", cells=40)
    assert out.evaluations <= 3


# -- the batched gradient against the per-probe loop it replaced --------------
#
# ``reference_evaluate``, ``reference_solve`` and ``reference_optimize`` keep
# the scalar-time evaluator, the per-step particle loop with boolean active
# masks and ``np.dot`` moments, and the optimiser that solved one
# finite-difference probe at a time.  The batched code must agree with them
# bit for bit.

def reference_evaluate(field, t, x, y=None):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tk = field.t_knots
    tc = min(max(float(t), tk[0]), tk[-1])
    i = min(int(np.searchsorted(tk, tc, side="right")) - 1, len(tk) - 2)
    i = max(i, 0)
    wt = (tc - tk[i]) / (tk[i + 1] - tk[i])
    plane = (1.0 - wt) * field.values[i] + wt * field.values[i + 1]
    xk = field.x_knots
    xc = np.clip(x, xk[0], xk[-1])
    j = np.clip(np.searchsorted(xk, xc, side="right") - 1, 0, len(xk) - 2)
    wx = (xc - xk[j]) / (xk[j + 1] - xk[j])
    if field.y_knots is None:
        return (1.0 - wx) * plane[j] + wx * plane[j + 1]
    rows = (1.0 - wx)[:, None] * plane[j] + wx[:, None] * plane[j + 1]
    if y is None:
        y = 0.0
    yv = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    yk = field.y_knots
    yc = np.clip(yv, yk[0], yk[-1])
    k = np.clip(np.searchsorted(yk, yc, side="right") - 1, 0, len(yk) - 2)
    wy = (yc - yk[k]) / (yk[k + 1] - yk[k])
    idx = np.arange(len(x))
    return (1.0 - wy) * rows[idx, k] + wy * rows[idx, k + 1]


def reference_solve(pair, control, cells):
    """Positions, weights, release steps, times, centers, background rows."""
    dx = pair.length / cells
    steps = max(100, int(math.ceil(pair.horizon * control.lam_max
                                   / (0.9 * dx))))
    times = np.linspace(0.0, pair.horizon, steps + 1)
    dt = times[1] - times[0]
    centers = (np.arange(cells) + 0.5) * dx
    rho_rows = platoon_flow._background_rows(pair, times, cells)
    use_mass = control.depends_on_mass and rho_rows is not None

    def speed(m, t, xs):
        if use_mass:
            window = pair.window or NonlocalWindow.whole()
            lo, up = window.bounds(xs, pair.length)
            edges, cum = cumulative_mass(rho_rows[m], dx)
            ys = np.interp(up, edges, cum) - np.interp(lo, edges, cum)
            return reference_evaluate(control, t, xs, ys)
        return reference_evaluate(control, t, xs)

    q0 = _sample_initial(pair.truck_initial, centers)
    spawn_mass = np.array([platoon_flow._series_step_mass(
        pair.truck_inflow, times[m], times[m + 1]) for m in range(steps)])
    spawn_at = np.nonzero(spawn_mass > 0.0)[0]
    weights = np.concatenate((q0 * dx, spawn_mass[spawn_at]))
    release = np.concatenate((np.zeros(cells, dtype=int), spawn_at + 1))
    positions = np.zeros((steps + 1, len(weights)))
    positions[0, :cells] = centers
    for m in range(steps):
        active = release <= m
        xs = positions[m, active]
        k1 = speed(m, times[m], xs)
        mid = xs + 0.5 * dt * k1
        k2 = speed(m, times[m] + 0.5 * dt, mid)
        positions[m + 1, active] = xs + dt * k2
        positions[m + 1, ~active] = 0.0
    return positions, weights, release, times, centers, rho_rows


def reference_objectives(pair, control, cells):
    positions, weights, release, times, centers, rho_rows = reference_solve(
        pair, control, cells)
    js = []
    for weighted in (False, True):
        m1 = np.zeros(len(times))
        m2 = np.zeros(len(times))
        for m in range(len(times)):
            active = release <= m
            xs = positions[m, active]
            w = weights[active]
            if weighted:
                bg = (np.zeros(len(xs)) if rho_rows is None
                      else np.interp(xs, centers, rho_rows[m]))
                w = w * (1.0 + bg)
            m1[m] = np.dot(w, xs)
            m2[m] = np.dot(w, xs * xs)
        js.append(float(np.trapezoid(m2 - m1 ** 2, times)))
    return js


def reference_optimize(pair, control0, budget, *, objective, cells,
                       fd_step=1e-3, min_step=1e-4):
    pick = 0 if objective == "unweighted" else 1
    evals = 0

    def evaluate(values):
        nonlocal evals
        evals += 1
        trial = control0.with_values(values).project()
        return reference_objectives(pair, trial, cells)[pick]

    current = control0.project()
    x = current.values.copy()
    best_j = evaluate(x)
    trace = [(evals, best_j)]
    step = max(0.1 * (control0.lam_max - control0.lam_min), 1e-3)
    dim = x.size
    status = "budget_exhausted"
    while evals < budget:
        if evals + 2 * dim > budget:
            break
        grad = np.zeros_like(x)
        flat = x.ravel()
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = fd_step
            jp = evaluate((flat + e).reshape(x.shape))
            jm = evaluate((flat - e).reshape(x.shape))
            grad.ravel()[i] = (jp - jm) / (2.0 * fd_step)
        gmax = float(np.abs(grad).max())
        if gmax == 0.0:
            status = "converged"
            break
        improved = False
        trial_step = step
        while trial_step >= min_step and evals < budget:
            cand_vals = control0.with_values(
                x - (trial_step / gmax) * grad).project().values
            j_cand = evaluate(cand_vals)
            if j_cand < best_j:
                x = cand_vals
                best_j = j_cand
                trace.append((evals, best_j))
                improved = True
                break
            trial_step *= 0.5
        if not improved:
            step *= 0.5
            if step < min_step:
                status = "converged"
                break
    final = control0.with_values(x).project()
    return status, final, best_j, trace, evals


def random_field(rng, shape, *, horizon, length, y_max=None, lip=0.3):
    y_knots = (None if len(shape) == 2
               else np.linspace(0.0, y_max, shape[2]))
    return AdmissibleVelocityField(
        np.linspace(0.0, horizon, shape[0]), np.linspace(0.0, length, shape[1]),
        rng.uniform(0.4, 1.0, shape), lam_min=0.4, lam_max=1.0, lip=lip,
        y_knots=y_knots)


def parity_pair(background, inflow):
    kwargs = {}
    if background:
        kwargs = dict(background_law=congestion_law(1.0, 1.5),
                      background_initial=slab(0.5, 3.0, 0.6),
                      background_inflow=PiecewiseConstant([(0.0, 1.0, 0.3)]),
                      window=(NonlocalWindow(lambda x: x, lambda x: x + 1.0)
                              if background == "callable"
                              else NonlocalWindow(lower=0.0, upper=None)))
    return FreightPair(
        length=5.0, horizon=2.0,
        truck_initial=lambda x: max(0.0, (2.6 - x) * (x - 1.0)),
        truck_inflow=(PiecewiseConstant([(0.1, 0.7, 0.5), (1.2, 1.25, 0.2)])
                      if inflow else None), **kwargs)


# (knot shape, background, inflow, objective, probes per block or None)
PARITY_CASES = [
    ((2, 2), None, False, "unweighted", None),
    ((3, 3), None, True, "unweighted", None),
    ((4, 4), "whole", False, "background_weighted", None),
    ((5, 5), "whole", True, "background_weighted", None),
    ((4, 2), None, False, "background_weighted", None),
    ((3, 4, 3), "whole", False, "unweighted", None),
    ((2, 3, 2), "callable", True, "background_weighted", None),
    ((3, 3, 2), None, False, "unweighted", None),
    ((5, 3), "callable", False, "unweighted", 4),
    ((2, 5, 3), "whole", True, "background_weighted", 7),
]


@pytest.mark.parametrize("case", range(len(PARITY_CASES)))
def test_batched_gradient_matches_per_probe_loop(case, monkeypatch):
    shape, background, inflow, objective, per_block = PARITY_CASES[case]
    rng = np.random.default_rng(100 + case)
    pair = parity_pair(background, inflow)
    control0 = random_field(rng, shape, horizon=2.0, length=5.0, y_max=1.5)
    cells = 24
    n_elements = len(reference_solve(pair, control0.project(), cells)[1])
    if per_block is not None:
        # several blocks per gradient, the last one short
        monkeypatch.setattr(platoon_flow, "PROBE_BLOCK",
                            per_block * n_elements)
        assert (2 * control0.values.size) % per_block != 0
    dim = control0.values.size
    budget = 1 + 2 * (2 * dim) + 6
    status, final, best_j, trace, evals = reference_optimize(
        pair, control0, budget, objective=objective, cells=cells)
    got = optimize_velocity(pair, control0, budget, objective=objective,
                            cells=cells)
    assert len(trace) > 1, "the reference never accepted a step"
    assert got.trace == trace
    assert got.objective == best_j
    assert np.array_equal(got.control.values, final.values)
    assert got.evaluations == evals
    assert got.status == status


@pytest.mark.parametrize("case", [1, 3, 6, 7])
def test_particle_solve_matches_per_step_loop(case):
    shape, background, inflow, _, _ = PARITY_CASES[case]
    rng = np.random.default_rng(200 + case)
    pair = parity_pair(background, inflow)
    control = random_field(rng, shape, horizon=2.0, length=5.0,
                           y_max=1.5).project()
    positions, weights, release, *_ = reference_solve(pair, control, 24)
    sol = solve_freight_pair(pair, control, cells=24)
    assert np.array_equal(sol.positions, positions)
    assert np.array_equal(sol.weights, weights)
    assert np.array_equal(sol.release_steps, release)
    assert list(sol.objectives()) == reference_objectives(pair, control, 24)


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 3, 3), (2, 2, 4)])
def test_evaluate_matches_scalar_reference_inside_and_outside_knots(shape):
    rng = np.random.default_rng(sum(shape))
    field = random_field(rng, shape, horizon=2.0, length=5.0, y_max=1.5,
                         lip=10.0)
    xs = np.concatenate((rng.uniform(-2.0, 7.0, 40), [0.0, 5.0, -1e-300]))
    ys = rng.uniform(-1.0, 3.0, len(xs))
    for t in (-1.0, 0.0, 0.37, 1.0, 2.0, 3.5):
        for y in (None, 0.8, -4.0, ys):
            assert np.array_equal(field.evaluate(t, xs, y),
                                  reference_evaluate(field, t, xs, y))


def test_background_solved_once_per_optimization(monkeypatch):
    calls = []
    real = platoon_flow.solve_link

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(platoon_flow, "solve_link", counting)
    pair = parity_pair("whole", False)
    control0 = constant_control(0.75, shape=(3, 3))
    result = optimize_velocity(pair, control0, 40,
                               objective="background_weighted", cells=24)
    assert result.evaluations > 20
    assert len(calls) == 1
