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

``optimize_velocity`` advances the 2 * dim independent central-difference
probes of a gradient as one ``(probes, particles)`` block through the kernel
of ``solve_freight_pair``, keeping per-node moments only; every reduction
keeps a single solve's order, so each probe's objective keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InadmissibleVelocityField
from .nonlocal_solver import (GridSpec, NonlocalWindow, VelocityLaw,
                              _sample_initial, mass_row, nonlocal_term,
                              solve_link, upwind_step)

#: tolerance for the sampled feasibility conditions
ADMISSIBLE_TOL = 1e-9
#: neighbor-averaging passes before the projection gives up
MAX_REPAIR_PASSES = 10_000
#: most particle positions advanced at once when probes share one block
PROBE_BLOCK = 1 << 14


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
        ys = None if y is None else np.broadcast_to(
            np.asarray(y, dtype=float), x.shape)[None]
        ti, wt = _knot_weights(self.t_knots, float(t))
        return self._speeds(self.values[None], ti, wt, x[None], ys)[0]

    def _speeds(self, values: np.ndarray, ti, wt, xs: np.ndarray,
                ys=None) -> np.ndarray:
        """Speeds of the fields ``values`` ``(B, nt, nx[, ny])`` on this knot
        grid at time-knot index ``ti`` and weight ``wt`` (``_knot_weights``),
        positions ``xs`` ``(B, P)`` and mass arguments ``ys`` (None reads
        0); arguments outside the knot range are clamped to it."""
        plane = ((1.0 - wt) * values[:, ti]
                 + wt * values[:, ti + 1]).reshape(len(values), -1)
        j, wx = _knot_weights(self.x_knots, xs)
        yk = self.y_knots
        ny = 1 if yk is None else len(yk)
        # flat indices into the C-contiguous plane: row b starts at b * nx*ny
        left = j * ny + np.arange(len(plane))[:, None] * plane.shape[1]
        flat = plane.ravel()

        def along_x(k):
            return ((1.0 - wx) * np.take(flat, left + k)
                    + wx * np.take(flat, left + (ny + k)))

        if yk is None:
            return along_x(0)
        k, wy = _knot_weights(yk, 0.0 if ys is None else ys)
        return (1.0 - wy) * along_x(k) + wy * along_x(k + 1)


def _knot_weights(knots: np.ndarray, pts):
    """Interval index and linear weight of each point, clamped to the knots."""
    pc = np.minimum(np.maximum(pts, knots[0]), knots[-1])
    # pc >= knots[0] keeps i >= 0; only pc == knots[-1] (or NaN) needs capping
    i = np.minimum(np.searchsorted(knots, pc, side="right") - 1, len(knots) - 2)
    return i, (pc - knots[i]) / (knots[i + 1] - knots[i])


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
        out = np.zeros((3, len(self.times)))
        rows = self.rho_rows if weighted else None
        for m in range(len(self.times)):
            if self.positions is not None:
                n = np.searchsorted(self.release_steps, m, side="right")
                w, xs = self.weights[:n], self.positions[m, :n]
            else:
                w, xs = self.grid_fields[m] * self.dx, self.x_centers
            out[:, m] = _moments(w, xs, self.x_centers,
                                 None if rows is None else rows[m])
        return out

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
        """The run's :func:`mass_row`; a particle run counts the released
        elements at or past the road's end as exited."""
        if self.positions is None:
            return mass_row(self.initial_mass, self.injected, self.exited,
                            float(self.grid_fields[-1].sum() * self.dx))
        released = self.release_steps <= len(self.times) - 1
        gone = self.positions[-1] >= self.pair.length
        return mass_row(self.initial_mass, self.injected,
                        float(self.weights[released & gone].sum()),
                        float(self.weights[released & ~gone].sum()))


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


def _moments(w: np.ndarray, xs: np.ndarray, centers: np.ndarray,
             bg_row: Optional[np.ndarray] = None):
    """(M0, M1, M2) of mass elements ``w`` at positions ``xs`` (last axis),
    each element weighted by (1 + background density) when ``bg_row`` is
    given.  ``np.vecdot`` over rows equals ``np.dot`` per row bit for bit."""
    if bg_row is not None:
        w = w * (1.0 + np.interp(xs, centers, bg_row))
    return np.sum(w, axis=-1), np.vecdot(w, xs), np.vecdot(w, xs * xs)


def truck_steps(length: float, horizon: float, cells: int, lam_max: float) -> int:
    """Time steps of a freight-pair solve on ``cells`` cells: at least 100,
    and a CFL number of 0.9 at the fastest admissible speed."""
    return max(100, int(math.ceil(horizon * lam_max / (0.9 * (length / cells)))))


class _ParticleRun:
    """Time nodes, background rows, truck mass elements and time-knot
    weights shared by the particle solves of one pair, knot grid and cell
    grid.  Elements (initial cells, then one per step with inflow) are
    released in step order: the first ``active[m]`` are active at node m."""

    def __init__(self, pair: FreightPair, control: AdmissibleVelocityField,
                 cells: int):
        self.pair, self.control, self.dx = pair, control, pair.length / cells
        steps = truck_steps(pair.length, pair.horizon, cells, control.lam_max)
        self.times = times = np.linspace(0.0, pair.horizon, steps + 1)
        self.dt = dt = times[1] - times[0]
        self.centers = (np.arange(cells) + 0.5) * self.dx
        self.rho_rows = _background_rows(pair, times, cells)
        self.q0 = _sample_initial(pair.truck_initial, self.centers)
        self.spawn_mass = np.array([_series_step_mass(pair.truck_inflow, t0, t1)
                                    for t0, t1 in zip(times[:-1], times[1:])])
        spawn_at = np.nonzero(self.spawn_mass > 0.0)[0]
        self.weights = np.concatenate((self.q0 * self.dx, self.spawn_mass[spawn_at]))
        self.release = np.concatenate((np.zeros(cells, dtype=int), spawn_at + 1))
        self.active = np.searchsorted(self.release, np.arange(steps + 1), "right")
        self.knots = [_knot_weights(control.t_knots, t)
                      for t in (times[:-1], times[:-1] + 0.5 * dt)]

    def mass_argument(self, m: int, xs: np.ndarray) -> Optional[np.ndarray]:
        """Background mass in the window at ``xs``, node ``m``, if read."""
        if not self.control.depends_on_mass or self.rho_rows is None:
            return None
        return nonlocal_term(self.rho_rows[m], self.pair.length,
                             self.pair.window or NonlocalWindow.whole(), xs)

    def advance(self, values: np.ndarray):
        """Element positions under each field of the stack ``values``
        ``(B, nt, nx[, ny])`` by midpoint steps, yielded at every time node
        as one ``(B, elements)`` array that is updated in place afterwards;
        unreleased elements sit at 0."""
        if np.any(self.spawn_mass < 0):
            raise ValueError("truck inflow must be nonnegative")
        (ti, wt), (ti_mid, wt_mid) = self.knots
        speeds = self.control._speeds
        state = np.zeros((len(values), len(self.weights)))
        state[:, :len(self.centers)] = self.centers
        yield state
        for m in range(len(self.times) - 1):
            xs = state[:, :self.active[m]]
            k1 = speeds(values, ti[m], wt[m], xs, self.mass_argument(m, xs))
            mid = xs + 0.5 * self.dt * k1
            k2 = speeds(values, ti_mid[m], wt_mid[m], mid,
                        self.mass_argument(m, mid))
            state[:, :self.active[m]] = xs + self.dt * k2
            yield state

    def objectives(self, values: np.ndarray, weighted: bool) -> np.ndarray:
        """Concentration objective of each field in the stack ``values``
        (background-weighted if ``weighted``) from per-node moments, with
        no position history.  Fields are advanced in blocks of at most
        ``PROBE_BLOCK`` positions; they are independent, so the blocking
        moves no bits."""
        per = max(1, PROBE_BLOCK // len(self.weights))
        rows = self.rho_rows if weighted else None
        out = []
        for block in (values[i:i + per] for i in range(0, len(values), per)):
            m1 = np.empty((len(block), len(self.times)))
            m2 = np.empty_like(m1)
            for m, state in enumerate(self.advance(block)):
                n = self.active[m]
                _, m1[:, m], m2[:, m] = _moments(
                    self.weights[:n], state[:, :n], self.centers,
                    None if rows is None else rows[m])
            out.append(np.trapezoid(m2 - m1 ** 2, self.times, axis=-1))
        return np.concatenate(out)


def solve_freight_pair(pair: FreightPair, control: AdmissibleVelocityField, *,
                       cells: int = 200,
                       method: str = "particles") -> PlatoonSolution:
    """Solve background then trucks under the given admissible control.

    ``method="particles"`` advects truck mass elements with midpoint
    stepping (exact conservation); ``method="fv"`` runs the conservative
    upwind cross-check on the cell grid.
    """
    control.check()
    run = _ParticleRun(pair, control, cells)
    times, dx, dt = run.times, run.dx, run.dt
    common = dict(pair=pair, control=control, times=times, method=method,
                  x_centers=run.centers, rho_rows=run.rho_rows,
                  initial_mass=float(run.q0.sum() * dx))
    if method == "particles":
        positions = np.empty((len(times), len(run.weights)))
        for m, state in enumerate(run.advance(control.values[None])):
            positions[m] = state[0]
        return PlatoonSolution(weights=run.weights, positions=positions,
                               release_steps=run.release,
                               injected=float(run.spawn_mass.sum()), **common)
    if method != "fv":
        raise ValueError(f"unknown method {method!r}")
    edges = np.arange(cells + 1) * dx
    q = np.zeros((len(times), cells))
    q[0] = run.q0
    injected = 0.0
    exited = 0.0
    for m in range(len(times) - 1):
        lam_e = control.evaluate(times[m], edges, run.mass_argument(m, edges))
        if float(lam_e.max()) * dt > dx * (1.0 + 1e-12):
            raise ValueError("time step too large for the control bound")
        inflow = run.spawn_mass[m] / dt
        q[m + 1], out = upwind_step(q[m], lam_e[1:], inflow, dt, dx)
        injected += inflow * dt
        exited += out * dt
    return PlatoonSolution(grid_fields=q, injected=injected, exited=exited,
                           **common)


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
                      cells: int = 120, fd_step: float = 1e-3,
                      initial_step: Optional[float] = None,
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
    evals = 0
    current = control0.project()
    run = _ParticleRun(pair, current, cells)

    def solve(fields: list) -> list:
        nonlocal evals
        evals += len(fields)
        values = np.stack([f.values for f in fields])
        return run.objectives(values, objective == "background_weighted").tolist()

    def feasible(values: np.ndarray) -> AdmissibleVelocityField:
        return control0.with_values(values).project()

    x = current.values.copy()
    best_j = solve([current])[0]
    trace = [(evals, best_j)]
    span = control0.lam_max - control0.lam_min
    step = initial_step if initial_step is not None else max(0.1 * span, 1e-3)
    dim = x.size
    status = "budget_exhausted"
    while evals < budget:
        if evals + 2 * dim > budget:
            break
        flat = x.ravel()
        probes = []
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = fd_step
            probes += [feasible((flat + e).reshape(x.shape)),
                       feasible((flat - e).reshape(x.shape))]
        js = np.array(solve(probes))
        grad = ((js[0::2] - js[1::2]) / (2.0 * fd_step)).reshape(x.shape)
        gmax = float(np.abs(grad).max())
        if gmax == 0.0:
            status = "converged"
            break
        improved = False
        trial_step = step
        while trial_step >= min_step and evals < budget:
            cand = feasible(x - (trial_step / gmax) * grad)
            j_cand = solve([cand])[0]
            if j_cand < best_j:
                x = cand.values
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
