"""Truck-density concentration on a single road by velocity control.

Background traffic follows the whole-road nonlocal law and is unaffected
by the trucks; the truck density is advected by a controlled space-time
speed field that may additionally read the windowed background mass.  The
default solver is Lagrangian: the truck density is carried by particles,
so mass is conserved exactly and the variance objectives are smooth
functions of the control values (a conservative upwind solver is kept as
an independent cross-check).  The control field lives on a coarse knot
grid with box bounds and a rate-of-change bound in the l1 metric over
(t, x, mass argument); feasibility is restored by clipping and repeated
neighbor averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InadmissibleVelocityField
from .nonlocal_solver import (GridSpec, NonlocalWindow, VelocityLaw,
                              _sample_initial, cumulative_mass, solve_link,
                              upwind_step)

#: tolerance for the sampled feasibility conditions
ADMISSIBLE_TOL = 1e-9
#: neighbor-averaging passes before the projection gives up
MAX_REPAIR_PASSES = 10_000


class AdmissibleVelocityField:
    """Controlled truck speed on a coarse (time, space[, mass]) knot grid.

    ``values`` has shape ``(len(t_knots), len(x_knots))`` or, with a mass
    dependence, ``(len(t_knots), len(x_knots), len(y_knots))``.  Between
    knots the field is interpolated multilinearly; outside the knot range
    it is held constant.  Feasible fields satisfy the box bounds and
    change by at most ``lip * (|dt| + |dx| + |dy|)`` between any two knot
    samples; checking adjacent knots is sufficient because differences
    telescope along grid staircases, and multilinear interpolation keeps
    the same bound between samples.
    """

    def __init__(self, t_knots, x_knots, values, *, lam_min: float,
                 lam_max: float, lip: float, y_knots=None):
        self.t_knots = np.asarray(t_knots, dtype=float)
        self.x_knots = np.asarray(x_knots, dtype=float)
        self.y_knots = None if y_knots is None else np.asarray(y_knots, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.lam_min = float(lam_min)
        self.lam_max = float(lam_max)
        self.lip = float(lip)
        if not 0.0 < self.lam_min <= self.lam_max:
            raise ValueError("need 0 < lam_min <= lam_max")
        if self.lip < 0.0:
            raise ValueError("rate bound must be >= 0")
        for knots, name in ((self.t_knots, "t"), (self.x_knots, "x")):
            if len(knots) < 2 or np.any(np.diff(knots) <= 0):
                raise ValueError(f"{name} knots must be strictly increasing, "
                                 "at least two")
        expected = (len(self.t_knots), len(self.x_knots))
        if self.y_knots is not None:
            if len(self.y_knots) < 2 or np.any(np.diff(self.y_knots) <= 0):
                raise ValueError("y knots must be strictly increasing, at least two")
            expected = expected + (len(self.y_knots),)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")

    @classmethod
    def constant(cls, value: float, *, horizon: float, length: float,
                 lam_min: float, lam_max: float, lip: float,
                 shape: tuple = (2, 2)) -> "AdmissibleVelocityField":
        vals = np.full(shape, float(value))
        return cls(np.linspace(0.0, horizon, shape[0]),
                   np.linspace(0.0, length, shape[1]), vals,
                   lam_min=lam_min, lam_max=lam_max, lip=lip)

    @property
    def depends_on_mass(self) -> bool:
        return self.y_knots is not None

    def _axis_knots(self):
        knots = [self.t_knots, self.x_knots]
        if self.y_knots is not None:
            knots.append(self.y_knots)
        return knots

    def violation(self) -> float:
        """Largest feasibility violation over bounds and knot differences."""
        worst = max(float(np.max(self.values) - self.lam_max),
                    float(self.lam_min - np.min(self.values)), 0.0)
        for axis, knots in enumerate(self._axis_knots()):
            steps = np.diff(knots)
            shape = [1] * self.values.ndim
            shape[axis] = len(steps)
            allowed = self.lip * steps.reshape(shape)
            gap = np.abs(np.diff(self.values, axis=axis)) - allowed
            worst = max(worst, float(gap.max(initial=0.0)))
        return worst

    def check(self, tol: float = ADMISSIBLE_TOL) -> None:
        v = self.violation()
        if v > tol:
            raise InadmissibleVelocityField(
                f"field violates its constraints by {v:.3e}")

    def with_values(self, values) -> "AdmissibleVelocityField":
        return AdmissibleVelocityField(self.t_knots, self.x_knots, values,
                                       lam_min=self.lam_min, lam_max=self.lam_max,
                                       lip=self.lip, y_knots=self.y_knots)

    def project(self, tol: float = ADMISSIBLE_TOL) -> "AdmissibleVelocityField":
        """Feasible field: clip to the box, then average neighbors until the
        rate bound holds.  Feasible input is returned unchanged."""
        if self.violation() <= tol:
            return self
        vals = np.clip(self.values, self.lam_min, self.lam_max)
        if self.lip == 0.0:
            vals = np.full_like(vals, float(vals.mean()))
            return self.with_values(vals)
        trial = self.with_values(vals)
        for _ in range(MAX_REPAIR_PASSES):
            if trial.violation() <= tol:
                return trial
            smoothed = trial.values
            for axis in range(smoothed.ndim):
                left = np.concatenate((smoothed.take([0], axis=axis),
                                       smoothed), axis=axis)
                right = np.concatenate((smoothed,
                                        smoothed.take([-1], axis=axis)), axis=axis)
                n = smoothed.shape[axis]
                lo = left.take(range(n), axis=axis)
                hi = right.take(range(1, n + 1), axis=axis)
                smoothed = 0.5 * smoothed + 0.25 * (lo + hi)
            trial = self.with_values(smoothed)
        raise InadmissibleVelocityField(
            "projection did not reach feasibility; rate bound too tight "
            "for the knot spacing")

    def evaluate(self, t: float, x, y=None) -> np.ndarray:
        """Speed at scalar time ``t`` and positions ``x`` (vectorized).

        ``y`` is the mass argument (scalar or per-position array); fields
        without a mass axis ignore it.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        tk = self.t_knots
        tc = min(max(float(t), tk[0]), tk[-1])
        i = min(int(np.searchsorted(tk, tc, side="right")) - 1, len(tk) - 2)
        i = max(i, 0)
        wt = (tc - tk[i]) / (tk[i + 1] - tk[i])
        plane = (1.0 - wt) * self.values[i] + wt * self.values[i + 1]
        xk = self.x_knots
        xc = np.clip(x, xk[0], xk[-1])
        j = np.clip(np.searchsorted(xk, xc, side="right") - 1, 0, len(xk) - 2)
        wx = (xc - xk[j]) / (xk[j + 1] - xk[j])
        if self.y_knots is None:
            return (1.0 - wx) * plane[j] + wx * plane[j + 1]
        rows = (1.0 - wx)[:, None] * plane[j] + wx[:, None] * plane[j + 1]
        if y is None:
            y = 0.0
        yv = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
        yk = self.y_knots
        yc = np.clip(yv, yk[0], yk[-1])
        k = np.clip(np.searchsorted(yk, yc, side="right") - 1, 0, len(yk) - 2)
        wy = (yc - yk[k]) / (yk[k + 1] - yk[k])
        idx = np.arange(len(x))
        return (1.0 - wy) * rows[idx, k] + wy * rows[idx, k + 1]


@dataclass
class FreightPair:
    """One-way coupled background/truck problem on a single road."""

    length: float
    horizon: float
    truck_initial: object = None        # callable, array, scalar, or None
    truck_inflow: object = None         # flux series at x = 0
    background_law: Optional[VelocityLaw] = None
    background_initial: object = None
    background_inflow: object = None
    window: Optional[NonlocalWindow] = None   # mass window for the coupling

    def __post_init__(self) -> None:
        if self.length <= 0 or self.horizon <= 0:
            raise ValueError("domain must have positive length and horizon")

    def has_background(self) -> bool:
        return self.background_law is not None


def _series_step_mass(series, t0: float, t1: float) -> float:
    if series is None:
        return 0.0
    if hasattr(series, "integral"):
        return float(series.integral(t0, t1))
    if callable(series):
        mid = series(0.5 * (t0 + t1))
        return float(mid) * (t1 - t0)
    raise ValueError("inflow must be a series with .integral or a callable")


@dataclass
class PlatoonSolution:
    """Space-time record of one freight-pair run."""

    pair: FreightPair
    control: AdmissibleVelocityField
    times: np.ndarray
    x_centers: np.ndarray
    method: str
    weights: Optional[np.ndarray] = None          # particles only
    positions: Optional[np.ndarray] = None        # (steps+1, n)
    release_steps: Optional[np.ndarray] = None
    grid_fields: Optional[np.ndarray] = None      # fv only, (steps+1, cells)
    rho_rows: Optional[np.ndarray] = None         # background density rows
    injected: float = 0.0
    initial_mass: float = 0.0
    exited: float = 0.0                           # fv only
    _density_cache: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dx(self) -> float:
        return float(self.x_centers[1] - self.x_centers[0])

    def density_fields(self) -> np.ndarray:
        """Truck density on the cell grid at every time node.

        Particle runs deposit mass linearly onto the two nearest cell
        centers (positions outside the road are clamped to the end cells).
        """
        if self.grid_fields is not None:
            return self.grid_fields
        if self._density_cache is None:
            steps1, n = self.positions.shape
            cells = len(self.x_centers)
            dx = self.dx
            out = np.zeros((steps1, cells))
            for m in range(steps1):
                active = self.release_steps <= m
                if not np.any(active):
                    continue
                u = self.positions[m, active] / dx - 0.5
                j = np.clip(np.floor(u).astype(int), 0, cells - 1)
                frac = np.clip(u - j, 0.0, 1.0)
                w = self.weights[active]
                np.add.at(out[m], j, w * (1.0 - frac))
                np.add.at(out[m], np.minimum(j + 1, cells - 1), w * frac)
            out /= dx
            self._density_cache = out
        return self._density_cache

    def moment_curves(self, weighted: bool = False) -> np.ndarray:
        """(M0, M1, M2) per time node, shape (3, steps+1).

        ``weighted`` multiplies each mass element by (1 + background
        density at its position); without a background run the weight is
        identically one.
        """
        steps1 = len(self.times)
        out = np.zeros((3, steps1))
        if self.positions is not None:
            for m in range(steps1):
                active = self.release_steps <= m
                xs = self.positions[m, active]
                w = self.weights[active]
                if weighted:
                    w = w * (1.0 + self._background_at(m, xs))
                out[0, m] = w.sum()
                out[1, m] = np.dot(w, xs)
                out[2, m] = np.dot(w, xs * xs)
        else:
            xc = self.x_centers
            dx = self.dx
            for m in range(steps1):
                w = self.grid_fields[m] * dx
                if weighted:
                    w = w * (1.0 + self._background_at(m, xc))
                out[0, m] = w.sum()
                out[1, m] = np.dot(w, xc)
                out[2, m] = np.dot(w, xc * xc)
        return out

    def _background_at(self, m: int, xs: np.ndarray) -> np.ndarray:
        if self.rho_rows is None:
            return np.zeros(len(xs))
        return np.interp(xs, self.x_centers, self.rho_rows[m])

    def objectives(self) -> tuple[float, float]:
        """(unweighted, background-weighted) concentration objectives."""
        j = []
        for weighted in (False, True):
            m0, m1, m2 = self.moment_curves(weighted)
            j.append(float(np.trapezoid(m2 - m1 ** 2, self.times)))
        return j[0], j[1]

    def final_spatial_variance(self) -> float:
        m0, m1, m2 = self.moment_curves(False)
        if m0[-1] <= 0.0:
            return 0.0
        mean = m1[-1] / m0[-1]
        return float(m2[-1] / m0[-1] - mean ** 2)

    def mass_report(self) -> dict:
        if self.positions is not None:
            stored = float(self.weights[self.release_steps <= len(self.times) - 1].sum())
            final = stored
            residual = self.initial_mass + self.injected - final
        else:
            final = float(self.grid_fields[-1].sum() * self.dx)
            residual = self.initial_mass + self.injected - self.exited - final
        scale = max(self.initial_mass + self.injected, final, 1e-30)
        return {"initial": self.initial_mass, "injected": self.injected,
                "final": final, "exited": self.exited,
                "residual": residual, "relative_residual": residual / scale}


def _background_rows(pair: FreightPair, times: np.ndarray,
                     cells: int) -> Optional[np.ndarray]:
    if not pair.has_background():
        return None
    window = pair.window or NonlocalWindow.whole()
    state = solve_link(pair.background_law, window, pair.background_inflow,
                       pair.background_initial, horizon=pair.horizon,
                       grid=GridSpec(cells=cells), length=pair.length)
    rows = np.empty((len(times), cells))
    for m, t in enumerate(times):
        i = min(int(np.searchsorted(state.times, t, side="right")) - 1,
                len(state.times) - 1)
        rows[m] = state.rho[max(i, 0)]
    return rows


def _coupling_mass(pair: FreightPair, row: np.ndarray, xs: np.ndarray,
                   dx: float) -> np.ndarray:
    """Windowed background mass at each query position."""
    window = pair.window or NonlocalWindow.whole()
    lo, up = window.bounds(xs, pair.length)
    edges, cum = cumulative_mass(row, dx)
    return np.interp(up, edges, cum) - np.interp(lo, edges, cum)


def solve_freight_pair(pair: FreightPair, control: AdmissibleVelocityField, *,
                       cells: int = 200, steps: Optional[int] = None,
                       method: str = "particles") -> PlatoonSolution:
    """Solve background then trucks under the given admissible control.

    ``method="particles"`` advects truck mass elements with midpoint
    stepping (exact conservation); ``method="fv"`` runs the conservative
    upwind cross-check on the cell grid.
    """
    control.check()
    dx = pair.length / cells
    if steps is None:
        steps = max(100, int(math.ceil(pair.horizon * control.lam_max
                                       / (0.9 * dx))))
    times = np.linspace(0.0, pair.horizon, steps + 1)
    dt = times[1] - times[0]
    centers = (np.arange(cells) + 0.5) * dx
    rho_rows = _background_rows(pair, times, cells)
    use_mass = control.depends_on_mass and rho_rows is not None

    def speed(m: int, t: float, xs: np.ndarray) -> np.ndarray:
        if use_mass:
            ys = _coupling_mass(pair, rho_rows[m], xs, dx)
            return control.evaluate(t, xs, ys)
        return control.evaluate(t, xs)

    q0 = _sample_initial(pair.truck_initial, centers)
    initial_mass = float(q0.sum() * dx)

    if method == "particles":
        spawn_mass = np.array([_series_step_mass(pair.truck_inflow,
                                                 times[m], times[m + 1])
                               for m in range(steps)])
        if np.any(spawn_mass < 0):
            raise ValueError("truck inflow must be nonnegative")
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
        return PlatoonSolution(pair=pair, control=control, times=times,
                               x_centers=centers, method=method,
                               weights=weights, positions=positions,
                               release_steps=release, rho_rows=rho_rows,
                               injected=float(spawn_mass.sum()),
                               initial_mass=initial_mass)

    if method != "fv":
        raise ValueError(f"unknown method {method!r}")
    edges = np.arange(cells + 1) * dx
    q = np.zeros((steps + 1, cells))
    q[0] = q0
    injected = 0.0
    exited = 0.0
    for m in range(steps):
        lam_e = speed(m, times[m], edges)
        if float(lam_e.max()) * dt > dx * (1.0 + 1e-12):
            raise ValueError("time step too large for the control bound")
        inflow = _series_step_mass(pair.truck_inflow, times[m], times[m + 1]) / dt
        q[m + 1], out = upwind_step(q[m], lam_e[1:], inflow, dt, dx)
        injected += inflow * dt
        exited += out * dt
    return PlatoonSolution(pair=pair, control=control, times=times,
                           x_centers=centers, method=method, grid_fields=q,
                           rho_rows=rho_rows, injected=injected,
                           initial_mass=initial_mass, exited=exited)


def variance_objectives(q_fields: np.ndarray, rho_fields: Optional[np.ndarray],
                        x_centers: np.ndarray, times: np.ndarray
                        ) -> tuple[float, float]:
    """Grid quadrature of the concentration objectives.

    First value: time integral of (second moment - first moment squared)
    of the truck field.  Second value: the same with every mass element
    weighted by (1 + background density).  Trapezoidal in time, midpoint
    in space.  With no background field the two are identical.
    """
    q = np.asarray(q_fields, dtype=float)
    x = np.asarray(x_centers, dtype=float)
    dx = float(x[1] - x[0])
    rho = np.zeros_like(q) if rho_fields is None else np.asarray(rho_fields)
    if rho.shape != q.shape:
        raise ValueError("background field shape does not match the truck field")
    out = []
    for weight in (np.ones_like(q), 1.0 + rho):
        wq = q * weight * dx
        m1 = wq @ x
        m2 = wq @ (x * x)
        out.append(float(np.trapezoid(m2 - m1 ** 2, times)))
    return out[0], out[1]


@dataclass
class VelocityOptResult:
    """Best control found plus the accepted-objective trace."""

    status: str                      # "converged" or "budget_exhausted"
    control: AdmissibleVelocityField
    objective: float
    trace: list = field(default_factory=list)  # (solves used, J)
    evaluations: int = 0


def optimize_velocity(pair: FreightPair, control0: AdmissibleVelocityField,
                      budget: int, *, objective: str = "unweighted",
                      cells: int = 120, steps: Optional[int] = None,
                      fd_step: float = 1e-3, initial_step: Optional[float] = None,
                      min_step: float = 1e-4) -> VelocityOptResult:
    """Projected gradient descent on the selected concentration objective.

    Gradients are central finite differences over the control knot values;
    every trial point is projected back into the admissible set before
    solving, so all accepted iterates are feasible.  ``budget`` caps the
    number of solves; exhausting it returns the best control found.
    """
    if budget < 1:
        raise ValueError("budget must allow at least one solve")
    if objective not in ("unweighted", "background_weighted"):
        raise ValueError(f"unknown objective {objective!r}")
    pick = 0 if objective == "unweighted" else 1
    evals = 0

    def evaluate(values: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        trial = control0.with_values(values).project()
        sol = solve_freight_pair(pair, trial, cells=cells, steps=steps,
                                 method="particles")
        return sol.objectives()[pick]

    current = control0.project()
    x = current.values.copy()
    best_j = evaluate(x)
    trace = [(evals, best_j)]
    span = control0.lam_max - control0.lam_min
    step = initial_step if initial_step is not None else max(0.1 * span, 1e-3)
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
    return VelocityOptResult(status=status, control=final, objective=best_j,
                             trace=trace, evaluations=evals)
