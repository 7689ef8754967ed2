"""Truck-density concentration on a single road by velocity control.

Background traffic follows the whole-road nonlocal law and is unaffected
by the trucks; the truck density is advected by a controlled space-time
speed field that may additionally read the windowed background mass.  The
solver is Lagrangian: the truck density is carried by particles, so mass
is conserved exactly and the variance objectives are smooth functions of
the control values.  The control field lives on a coarse knot
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
                              solve_link)

#: tolerance for the sampled feasibility conditions
ADMISSIBLE_TOL = 1e-9
#: neighbor-averaging passes before the projection gives up
MAX_REPAIR_PASSES = 10_000
#: most particle positions advanced at once when probes share one block
PROBE_BLOCK = 1 << 14
#: smallest step of the velocity search before it reports convergence
MIN_STEP = 1e-4


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
        # each axis's knots and their spacings, as _knot_weights takes them
        self._axes = [(knots, np.diff(knots)) for knots in self._axis_knots()]
        for name, (knots, widths) in zip("txy", self._axes):
            if len(knots) < 2 or np.any(widths <= 0):
                raise ValueError(f"{name} knots must be strictly increasing, "
                                 "at least two")
        expected = tuple(len(knots) for knots in self._axis_knots())
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
        for axis, (_, steps) in enumerate(self._axes):
            shape = [1] * self.values.ndim
            shape[axis] = len(steps)
            allowed = self.lip * steps.reshape(shape)
            gap = np.abs(np.diff(self.values, axis=axis)) - allowed
            worst = max(worst, float(gap.max(initial=0.0)))
        return worst

    def check(self) -> None:
        v = self.violation()
        if v > ADMISSIBLE_TOL:
            raise InadmissibleVelocityField(
                f"field violates its constraints by {v:.3e}")

    def with_values(self, values) -> "AdmissibleVelocityField":
        return AdmissibleVelocityField(self.t_knots, self.x_knots, values,
                                       lam_min=self.lam_min, lam_max=self.lam_max,
                                       lip=self.lip, y_knots=self.y_knots)

    def project(self) -> "AdmissibleVelocityField":
        """Feasible field: clip to the box, then average neighbors until the
        rate bound holds.  Feasible input is returned unchanged."""
        if self.violation() <= ADMISSIBLE_TOL:
            return self
        vals = np.clip(self.values, self.lam_min, self.lam_max)
        if self.lip == 0.0:
            vals = np.full_like(vals, float(vals.mean()))
            return self.with_values(vals)
        trial = self.with_values(vals)
        for _ in range(MAX_REPAIR_PASSES):
            if trial.violation() <= ADMISSIBLE_TOL:
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
        plane = self._planes(self.values[None], np.array([float(t)]))[0]
        return self._speeds(plane, x[None], ys, np.zeros((1, 1), dtype=int))[0]

    def _planes(self, values: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The fields ``values`` ``(B, nt, nx[, ny])`` interpolated at each
        time of ``t``, as flat knot planes ``(len(t), B, nx * ny)``."""
        ti, wt = _knot_weights(*self._axes[0], t)
        v = values.reshape(len(values), len(self.t_knots), -1).swapaxes(0, 1)
        return (1.0 - wt)[:, None, None] * v[ti] + wt[:, None, None] * v[ti + 1]

    def _speeds(self, plane: np.ndarray, xs: np.ndarray, ys,
                starts: np.ndarray) -> np.ndarray:
        """Speeds of the B knot planes ``plane`` ``(B, nx * ny)`` of one
        time (:meth:`_planes`) at positions ``xs`` ``(B, P)`` and mass
        arguments ``ys`` (None reads 0); arguments outside the knot range
        are clamped to it.  ``starts`` is ``(B, 1)``: where each plane
        starts in the flat C-contiguous block, ``b * nx * ny``."""
        j, wx = _knot_weights(*self._axes[1], xs)
        ny = 1 if self.y_knots is None else len(self.y_knots)
        left = j * ny + starts
        flat = plane.ravel()

        def along_x(at):
            return (1.0 - wx) * flat.take(at) + wx * flat.take(at + ny)

        if self.y_knots is None:
            return along_x(left)
        k, wy = _knot_weights(*self._axes[2], 0.0 if ys is None else ys)
        return (1.0 - wy) * along_x(left + k) + wy * along_x(left + (k + 1))


def _knot_weights(knots: np.ndarray, widths: np.ndarray, pts):
    """Interval index and linear weight of each point, clamped to the
    knots; ``widths`` is ``np.diff(knots)``."""
    pc = np.minimum(np.maximum(pts, knots[0]), knots[-1])
    # interior knots at or left of pc; pc == knots[-1] (or NaN) is in the last
    i = knots[1:-1].searchsorted(pc, side="right")
    return i, (pc - knots.take(i)) / widths.take(i)


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
    """Space-time record of one freight-pair particle run."""

    pair: FreightPair
    control: AdmissibleVelocityField
    times: np.ndarray
    x_centers: np.ndarray
    weights: np.ndarray
    positions: np.ndarray                         # (steps+1, elements)
    release_steps: np.ndarray
    rho_rows: Optional[np.ndarray] = None         # background density rows
    injected: float = 0.0
    initial_mass: float = 0.0

    @property
    def dx(self) -> float:
        return float(self.x_centers[1] - self.x_centers[0])

    def density_fields(self) -> np.ndarray:
        """Truck density on the cell grid at every time node.

        Mass is deposited linearly onto the two nearest cell centers
        (positions outside the road are clamped to the end cells);
        elements at or past the road's end have left and deposit nothing.
        """
        steps1, cells = len(self.positions), len(self.x_centers)
        dx = self.dx
        out = np.zeros((steps1, cells))
        for m in range(steps1):
            active = self.release_steps <= m
            if not np.any(active):
                continue
            xs = self.positions[m, active]
            u = xs / dx - 0.5
            j = np.clip(np.floor(u).astype(int), 0, cells - 1)
            frac = np.clip(u - j, 0.0, 1.0)
            w = _on_road(self.weights[active], xs, self.pair.length)
            np.add.at(out[m], j, w * (1.0 - frac))
            np.add.at(out[m], np.minimum(j + 1, cells - 1), w * frac)
        out /= dx
        return out

    def moment_curves(self, weighted: bool = False) -> np.ndarray:
        """(M0, M1, M2) per time node, shape (3, steps+1).

        ``weighted`` multiplies each mass element by (1 + background
        density at its position); without a background run the weight is
        identically one.  Elements at or past the road's end have left and
        weigh nothing.
        """
        active = self.release_steps.searchsorted(
            np.arange(len(self.times)), side="right")
        return _moment_curves(self.positions[:, None], 1, active,
                              self.weights, self.pair.length, self.x_centers,
                              self.rho_rows if weighted else None)[:, 0]

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
        """The run's :func:`mass_row`; the released elements at or past
        the road's end count as exited."""
        released = self.release_steps <= len(self.times) - 1
        gone = self.positions[-1] >= self.pair.length
        return mass_row(self.initial_mass, self.injected,
                        float(self.weights[released & gone].sum()),
                        float(self.weights[released & ~gone].sum()))


def _background_rows(pair: FreightPair, times: np.ndarray,
                     cells: int) -> Optional[np.ndarray]:
    if not pair.has_background():
        return None
    window = pair.window or NonlocalWindow()
    state = solve_link(pair.background_law, window, pair.background_inflow,
                       pair.background_initial, horizon=pair.horizon,
                       grid=GridSpec(cells=cells), length=pair.length)
    i = np.searchsorted(state.times, times, side="right") - 1
    return state.rho[np.clip(i, 0, len(state.times) - 1)]


def _on_road(w: np.ndarray, xs: np.ndarray, length: float) -> np.ndarray:
    """The weights ``w`` of elements at ``xs``, zero for those at or past
    ``length``; the others keep their bits."""
    return np.where(xs < length, w, 0.0)


def _moment_curves(states, fields: int, active: np.ndarray,
                   weights: np.ndarray, length: float, centers: np.ndarray,
                   rows: Optional[np.ndarray] = None) -> np.ndarray:
    """(M0, M1, M2) of ``fields`` fields at every time node, shape
    ``(3, fields, nodes)``, from the ``(fields, elements)`` positions that
    ``states`` yields at each node.  The first ``active[m]`` elements are
    released at node m; those at or past ``length`` weigh nothing, and
    with background ``rows`` each weighs (1 + background density at its
    position).  ``np.vecdot`` over rows equals ``np.dot`` per row bit for
    bit."""
    out = np.empty((3, fields, len(active)))
    for m, xs in enumerate(states):
        n = active[m]
        xs = xs[:, :n]
        w = _on_road(weights[:n], xs, length)
        if rows is not None:
            w = w * (1.0 + np.interp(xs, centers, rows[m]))
        out[0, :, m] = np.add.reduce(w, axis=-1)
        out[1, :, m] = np.vecdot(w, xs)
        out[2, :, m] = np.vecdot(w, xs * xs)
    return out


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
        if np.any(self.spawn_mass < 0):
            raise ValueError("truck inflow must be nonnegative")

    def mass_argument(self, m: int, xs: np.ndarray) -> Optional[np.ndarray]:
        """Background mass in the window at ``xs``, node ``m``, if read."""
        if not self.control.depends_on_mass or self.rho_rows is None:
            return None
        return nonlocal_term(self.rho_rows[m], self.pair.length,
                             self.pair.window or NonlocalWindow(), xs)

    def advance(self, values: np.ndarray):
        """Element positions under each field of the stack ``values``
        ``(B, nt, nx[, ny])`` by midpoint steps, yielded at every time node
        as one ``(B, elements)`` array that is updated in place afterwards;
        unreleased elements sit at 0.  Knot planes are interpolated for as
        many steps at once as fit in ``PROBE_BLOCK`` values."""
        control, dt = self.control, self.dt
        chunk = max(1, PROBE_BLOCK // values[:, 0].size)
        starts = np.arange(len(values))[:, None] * values[0, 0].size
        state = np.zeros((len(values), len(self.weights)))
        state[:, :len(self.centers)] = self.centers
        yield state
        for m in range(len(self.times) - 1):
            if m % chunk == 0:
                t = self.times[m:m + chunk]
                planes, mids = (control._planes(values, s)
                                for s in (t, t + 0.5 * dt))
            xs = state[:, :self.active[m]]
            k1 = control._speeds(planes[m % chunk], xs,
                                 self.mass_argument(m, xs), starts)
            mid = xs + 0.5 * dt * k1
            k2 = control._speeds(mids[m % chunk], mid,
                                 self.mass_argument(m, mid), starts)
            state[:, :self.active[m]] = xs + dt * k2
            yield state

    def objectives(self, values: np.ndarray, weighted: bool) -> np.ndarray:
        """Concentration objective of each field in the stack ``values``
        (background-weighted if ``weighted``) from per-node moments, with
        no position history.  Fields are advanced in blocks of at most
        ``PROBE_BLOCK`` positions; they are independent, so the blocking
        moves no bits."""
        per = max(1, PROBE_BLOCK // len(self.weights))
        out = []
        for block in (values[i:i + per] for i in range(0, len(values), per)):
            _, m1, m2 = _moment_curves(
                self.advance(block), len(block), self.active, self.weights,
                self.pair.length, self.centers,
                self.rho_rows if weighted else None)
            out.append(np.trapezoid(m2 - m1 ** 2, self.times, axis=-1))
        return np.concatenate(out)


def solve_freight_pair(pair: FreightPair, control: AdmissibleVelocityField, *,
                       cells: int = 200) -> PlatoonSolution:
    """Solve background then trucks under the given admissible control:
    truck mass elements are advected by midpoint steps, so mass is
    conserved exactly."""
    control.check()
    run = _ParticleRun(pair, control, cells)
    positions = np.empty((len(run.times), len(run.weights)))
    for m, state in enumerate(run.advance(control.values[None])):
        positions[m] = state[0]
    return PlatoonSolution(pair=pair, control=control, times=run.times,
                           x_centers=run.centers, weights=run.weights,
                           positions=positions, release_steps=run.release,
                           rho_rows=run.rho_rows,
                           injected=float(run.spawn_mass.sum()),
                           initial_mass=float(run.q0.sum() * run.dx))


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
                      cells: int = 120,
                      fd_step: float = 1e-3) -> VelocityOptResult:
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
    step = max(0.1 * (control0.lam_max - control0.lam_min), 1e-3)
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
        while trial_step >= MIN_STEP and evals < budget:
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
            if step < MIN_STEP:
                status = "converged"
                break
    final = control0.with_values(x).project()
    return VelocityOptResult(status=status, control=final, objective=best_j,
                             trace=trace, evaluations=evals)
