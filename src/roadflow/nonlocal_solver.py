"""Scalar conservation law with speed driven by a windowed density average.

The model on one link of length ``L`` is

    rho_t + ( lam(t, W(t, x)) * rho )_x = 0,
    W(t, x) = integral of rho(t, .) over [b(x), d(x)],

with prescribed inflow flux ``u(t)`` at ``x = 0`` and free outflow at
``x = L``.  Speeds are strictly positive, so information always travels
rightward and no shocks form.

Two solvers are provided.  When the averaging window is the whole link the
speed is space-independent and the density is a rigid transport of the
initial and boundary data; the transport displacement solves a scalar
integral fixed point which we resolve by Picard iteration on short time
windows (:func:`solve_characteristic`), restarting with a fresh snapshot
whenever the displacement spans the link.  For general windows (and as an
independent cross-check) a first-order conservative upwind scheme is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CflViolated, FixedPointDiverged, HorizonExceeded

#: sup-norm tolerance for the displacement fixed point
PICARD_TOL = 1e-10
#: Picard iteration cap before declaring divergence
PICARD_MAX_ITER = 10_000
#: number of times the time step may be halved after a CFL violation
MAX_DT_HALVINGS = 8
#: nominal restart interval for the transport windows
WINDOW_RESTART = 0.5


class VelocityLaw:
    """Speed as a function of time and windowed vehicle mass.

    ``fn(t, w)`` must be vectorized over numpy arrays, bounded below by
    ``floor`` (> 0) on the operating range, and, when ``decreasing`` is set,
    nonincreasing in ``w`` (congestion behaviour).

    ``coefficients`` is ``(v0, gain, slope, low)`` for the laws built by
    :func:`congestion_law`, :func:`constant_law` and :func:`linear_law`:
    their ``fn`` equals ``max(v0 / (1 + gain*w) - slope*w, low)`` bit for
    bit on every element, so the network simulator evaluates all links'
    speeds in one expression.  It is ``None`` for other laws.
    """

    def __init__(self, fn: Callable, *, floor: float = 1e-9,
                 decreasing: bool = False, name: str = "custom",
                 coefficients: Optional[tuple] = None):
        if floor <= 0:
            raise ValueError("speed floor must be positive")
        self.fn = fn
        self.floor = float(floor)
        self.decreasing = bool(decreasing)
        self.name = name
        self.coefficients = coefficients

    def __call__(self, t, w):
        return self.fn(t, w)

    def check(self, horizon: float, w_max: float) -> None:
        """Sampled positivity (and monotonicity, if declared) check on a
        33 x 33 grid of times and masses."""
        ts = np.linspace(0.0, max(horizon, 1e-12), 33)
        ws = np.linspace(0.0, max(w_max, 1e-12), 33)
        vals = np.broadcast_to(self.fn(ts[:, None], ws[None, :]), (33, 33))
        if np.any(vals < self.floor):
            raise ValueError(
                f"velocity law {self.name!r} drops below its floor {self.floor}")
        if self.decreasing and np.any(np.diff(vals, axis=1) > 1e-12):
            raise ValueError(f"velocity law {self.name!r} is not nonincreasing in the mass")

    def max_speed(self, horizon: float, w_max: float) -> float:
        """Largest speed on a 65 x 65 grid of times and masses (at zero
        mass for a nonincreasing law)."""
        ts = np.linspace(0.0, max(horizon, 1e-12), 65)
        if self.decreasing:
            return float(np.max(self.fn(ts, np.zeros_like(ts))))
        ws = np.linspace(0.0, max(w_max, 1e-12), 65)
        vals = np.broadcast_to(self.fn(ts[:, None], ws[None, :]), (65, 65))
        return float(np.max(vals))


def congestion_law(free_speed: float, slope: float) -> VelocityLaw:
    """Speed ``free_speed / (1 + slope * W)``, the usual congested form."""
    if free_speed <= 0 or slope < 0:
        raise ValueError("free_speed must be positive and slope nonnegative")

    def fn(t, w):
        return free_speed / (1.0 + slope * np.asarray(w, dtype=float))

    return VelocityLaw(fn, floor=1e-9, decreasing=True,
                       name=f"{free_speed:g}/(1+{slope:g}W)",
                       coefficients=(free_speed, slope, 0.0, 0.0))


def constant_law(speed: float) -> VelocityLaw:
    if speed <= 0:
        raise ValueError("speed must be positive")

    def fn(t, w):
        t_b, w_b = np.broadcast_arrays(np.asarray(t, float), np.asarray(w, float))
        return np.full(t_b.shape, speed) if t_b.ndim else speed

    return VelocityLaw(fn, floor=min(speed, 1e-9), decreasing=True,
                       name=f"const {speed:g}",
                       coefficients=(speed, 0.0, 0.0, 0.0))


def linear_law(free_speed: float, slope: float, floor: float) -> VelocityLaw:
    """Speed ``max(free_speed - slope * W, floor)``, clamped at its floor."""
    if free_speed <= 0 or slope < 0 or floor <= 0:
        raise ValueError("free_speed and floor must be positive and slope "
                         "nonnegative")

    def fn(t, w):
        return np.maximum(free_speed - slope * np.asarray(w, dtype=float),
                          floor)

    return VelocityLaw(fn, floor=floor, decreasing=True, name="linear",
                       coefficients=(free_speed, 0.0, slope, floor))


class NonlocalWindow:
    """Averaging window ``[b(x), d(x)]`` for the speed's mass argument.

    Bounds may be constants or callables of position; they are clipped to
    the link and must satisfy ``b(x) <= d(x)``.  ``upper=None`` means the
    right end of the link.
    """

    def __init__(self, lower=0.0, upper=None):
        self.lower = lower
        self.upper = upper

    def is_whole_span(self, length: float) -> bool:
        lo_const = not callable(self.lower) and float(self.lower) == 0.0
        up_const = self.upper is None or (
            not callable(self.upper) and float(self.upper) >= length)
        return lo_const and up_const

    def bounds(self, x: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        lo = self.lower(x) if callable(self.lower) else np.full_like(x, float(self.lower))
        up_raw = length if self.upper is None else self.upper
        up = up_raw(x) if callable(up_raw) else np.full_like(x, float(up_raw))
        lo = np.clip(lo, 0.0, length)
        up = np.clip(up, 0.0, length)
        if np.any(up < lo - 1e-12):
            raise ValueError("window upper bound below lower bound")
        return lo, np.maximum(up, lo)

    @classmethod
    def whole(cls) -> "NonlocalWindow":
        return cls(0.0, None)


@dataclass
class GridSpec:
    """Uniform-cell discretization controls."""

    cells: int = 400
    cfl: float = 0.9

    def __post_init__(self):
        if self.cells < 4:
            raise ValueError("need at least 4 cells")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")


@dataclass
class LinkState:
    """Space-time density field on one link plus its boundary flux series.

    ``rho[m, i]`` is the cell value at time ``times[m]`` and cell center
    ``cells[i]``.  ``inflow`` holds the boundary flux samples at the time
    nodes; ``outflow[m]`` is the average outflow flux over step ``m`` (the
    last entry is the pointwise flux at the final time).  ``speeds`` holds
    the space-independent transport speed per time node for whole-span
    windows, ``None`` otherwise.  ``mass`` is the total mass on the link
    per time node.
    """

    times: np.ndarray
    cells: np.ndarray
    rho: np.ndarray
    inflow: np.ndarray
    outflow: np.ndarray
    length: float
    mass: np.ndarray
    speeds: Optional[np.ndarray] = None
    method: str = "fv"

    @property
    def dx(self) -> float:
        return self.length / len(self.cells)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def total_mass(self, index: int) -> float:
        return float(self.rho[index].sum() * self.dx)

    def mass_balance(self) -> dict:
        """Discrete accounting consistent with the scheme.

        Both schemes store per-step average outflow fluxes, so left Riemann
        sums recover the exited mass exactly.  The transport path admits
        inflow through trapezoidal increments of the sampled series and is
        accounted the same way; the upwind path uses left sums.
        """
        dt = self.dt
        if self.method == "characteristics":
            injected = float(np.trapezoid(self.inflow, self.times))
        else:
            injected = float(self.inflow[:-1].sum() * dt)
        exited = float(self.outflow[:-1].sum() * dt)
        return mass_row(self.total_mass(0), injected, exited,
                        self.total_mass(len(self.times) - 1))


def mass_row(stored_initial: float, injected: float, exited: float,
             stored_final: float) -> dict:
    """One mass budget: what was stored at the start plus what was
    injected, less what exited and what is stored at the end."""
    residual = stored_initial + injected - exited - stored_final
    scale = max(stored_initial + injected, stored_final, 1e-30)
    return {"injected": injected, "exited": exited,
            "stored_initial": stored_initial, "stored_final": stored_final,
            "residual": residual, "relative_residual": residual / scale}


def cumulative_mass(rho_row: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative mass at cell edges for a density row (cell averages), or
    for every row of a ``(..., cells)`` block."""
    cum = np.cumsum(rho_row, axis=-1) * dx
    edges = np.arange(cum.shape[-1] + 1) * dx
    return edges, np.concatenate((np.zeros_like(cum[..., :1]), cum), axis=-1)


def nonlocal_term(rho_row: np.ndarray, length: float, window: NonlocalWindow,
                  x) -> np.ndarray | float:
    """Windowed mass ``W(x)`` for one density row.

    Integrates the piecewise-constant cell reconstruction exactly, which
    interpolates the cumulative mass linearly at the window endpoints.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    dx = length / len(rho_row)
    lo, up = window.bounds(x_arr, length)
    edges, cum = cumulative_mass(rho_row, dx)
    w = np.interp(up, edges, cum) - np.interp(lo, edges, cum)
    return w if np.ndim(x) else float(w[0])


def _sample_series(series, times: np.ndarray) -> np.ndarray:
    if series is None:
        return np.zeros(len(times))
    if hasattr(series, "sample"):
        vals = np.asarray(series.sample(times), dtype=float)
    elif callable(series):
        vals = np.asarray([series(float(t)) for t in times], dtype=float)
    else:
        vals = np.asarray(series, dtype=float)
        if vals.shape != times.shape:
            raise ValueError("inflow series length does not match the time grid")
    if np.any(vals < -1e-14):
        raise ValueError("inflow flux must be nonnegative")
    return np.maximum(vals, 0.0)


def _sample_initial(rho0, cells: np.ndarray) -> np.ndarray:
    if rho0 is None:
        vals = np.zeros(len(cells))
    elif callable(rho0):
        vals = np.asarray([rho0(float(x)) for x in cells], dtype=float)
    elif np.ndim(rho0) == 0:
        vals = np.full(len(cells), float(rho0))
    else:
        vals = np.asarray(rho0, dtype=float)
        if vals.shape != cells.shape:
            raise ValueError("initial density length does not match the cell grid")
    if np.any(vals < 0):
        raise ValueError("initial density must be nonnegative")
    return vals


def _inflow_budget(inflow, horizon: float) -> float:
    if inflow is None:
        return 0.0
    if hasattr(inflow, "integral"):
        return float(inflow.integral(0.0, horizon))
    ts = np.linspace(0.0, horizon, 1025)
    return float(np.trapezoid(_sample_series(inflow, ts), ts))


@dataclass
class CharacteristicResult:
    """Transport displacement on one time window."""

    times: np.ndarray
    displacement: np.ndarray
    speed: np.ndarray
    mass_seen: np.ndarray
    iterations: int


def _picard_window(law: VelocityLaw, times_abs: np.ndarray, u_win: np.ndarray,
                   rho_start: np.ndarray, dx: float,
                   length: float) -> CharacteristicResult:
    """Solve the displacement fixed point on one window.

    The speed argument at local time ``s`` is the inflow mass admitted since
    the window start plus the part of the window's starting profile that has
    not yet left the link; that equals the mass on the link while the
    displacement stays below the link length.
    """
    t_loc = times_abs - times_abs[0]
    # cumulative inflow mass, trapezoidal
    du = np.diff(t_loc) * 0.5 * (u_win[1:] + u_win[:-1])
    cum_u = np.concatenate(([0.0], np.cumsum(du)))
    edges, cum_rho = cumulative_mass(rho_start, dx)

    xi = np.zeros_like(t_loc)
    speed = np.zeros_like(t_loc)
    arg = np.zeros_like(t_loc)
    for it in range(1, PICARD_MAX_ITER + 1):
        remaining = np.interp(np.clip(length - xi, 0.0, length), edges, cum_rho)
        arg = cum_u + remaining
        speed = np.asarray(law(times_abs, arg), dtype=float)
        if np.any(speed < law.floor * 0.5):
            raise FixedPointDiverged("speed fell below its floor during iteration")
        dxi = np.diff(t_loc) * 0.5 * (speed[1:] + speed[:-1])
        xi_new = np.concatenate(([0.0], np.cumsum(dxi)))
        err = float(np.max(np.abs(xi_new - xi)))
        xi = xi_new
        if err <= PICARD_TOL:
            return CharacteristicResult(times_abs.copy(), xi, speed, arg, it)
    raise FixedPointDiverged(
        f"no convergence within {PICARD_MAX_ITER} iterations (last change "
        f"{err:.3e}); retry on a shorter window")


def solve_characteristic(law: VelocityLaw, inflow, rho0, horizon: float, *,
                         cells: int = 400) -> CharacteristicResult:
    """Displacement fixed point on ``[0, horizon]`` as a single window, on
    the unit link with ``max(64, 4 * cells)`` time steps.

    Valid as a transport description while the displacement stays within the
    link; :func:`solve_link` manages restarts beyond that.  Raises
    :class:`FixedPointDiverged` when Picard iteration fails; the caller
    should subdivide the window.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times = np.linspace(0.0, horizon, max(64, 4 * cells) + 1)
    dx = 1.0 / cells
    centers = (np.arange(cells) + 0.5) * dx
    rho_start = _sample_initial(rho0, centers)
    u = _sample_series(inflow, times)
    return _picard_window(law, times, u, rho_start, dx, 1.0)


def _transport_rows(law: VelocityLaw, result: CharacteristicResult,
                    rho_start: np.ndarray, u_win: np.ndarray, centers: np.ndarray,
                    length: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the transported density on the window's grid rows.

    Cell values are exact averages taken from the cumulative mass map of the
    transport: ahead of the displacement the shifted starting profile, behind
    it the boundary parcels admitted since the window start.  This keeps the
    stored rows conservative to roundoff across window restarts.  The right
    boundary value (for the outflow flux) is the pointwise density there.
    """
    times = result.times
    t_loc = times - times[0]
    xi = result.displacement
    dx = length / len(centers)
    edges = np.arange(len(centers) + 1) * dx
    start_edges, start_cum = cumulative_mass(rho_start, dx)
    du = np.diff(t_loc) * 0.5 * (u_win[1:] + u_win[:-1])
    cum_u = np.concatenate(([0.0], np.cumsum(du)))

    rows = np.empty((len(times), len(centers)))
    for j in range(len(times)):
        shift = xi[j]
        cum_here = np.empty_like(edges)
        ahead = edges >= shift
        cum_here[ahead] = cum_u[j] + np.interp(edges[ahead] - shift,
                                               start_edges, start_cum)
        if np.any(~ahead):
            s_hat = np.interp(shift - edges[~ahead], xi, t_loc)
            cum_here[~ahead] = cum_u[j] - np.interp(s_hat, t_loc, cum_u)
        rows[j] = np.diff(cum_here) / dx
    # mass leaving per step: admitted inflow minus the change of the stored
    # rows, so the link's books close to roundoff (the fixed point's own
    # mass estimate drifts from the rows by ~1e-10 once mass exits)
    exited_steps = np.diff(cum_u) - np.diff(rows.sum(axis=1)) * dx
    return rows, exited_steps


def _solve_link_transport(law: VelocityLaw, inflow, rho_init: np.ndarray,
                          horizon: float, grid: GridSpec, length: float,
                          steps: int) -> LinkState:
    n = grid.cells
    dx = length / n
    centers = (np.arange(n) + 0.5) * dx
    rho_cur = rho_init
    times = np.linspace(0.0, horizon, steps + 1)
    dt = times[1] - times[0]
    u = _sample_series(inflow, times)

    rho = np.empty((steps + 1, n))
    rho[0] = rho_cur
    speeds = np.empty(steps + 1)
    mass = np.empty(steps + 1)
    outflow = np.empty(steps + 1)

    window_steps = max(1, int(round(min(WINDOW_RESTART, horizon) / dt)))
    i0 = 0
    while i0 < steps:
        i1 = min(steps, i0 + window_steps)
        while True:
            try:
                result = _picard_window(law, times[i0:i1 + 1], u[i0:i1 + 1],
                                        rho_cur, dx, length)
                break
            except FixedPointDiverged:
                if i1 <= i0 + 1:
                    raise
                i1 = i0 + max(1, (i1 - i0) // 2)
        # keep the displacement within the link: truncate at the crossing
        crossing = np.nonzero(result.displacement > length)[0]
        if crossing.size and crossing[0] <= i1 - i0:
            cut = max(1, int(crossing[0]) - 1)
            i1 = i0 + cut
            result = CharacteristicResult(result.times[:cut + 1],
                                          result.displacement[:cut + 1],
                                          result.speed[:cut + 1],
                                          result.mass_seen[:cut + 1],
                                          result.iterations)
        rows, exited_steps = _transport_rows(law, result, rho_cur, u[i0:i1 + 1],
                                             centers, length)
        rho[i0:i1 + 1] = rows
        speeds[i0:i1 + 1] = result.speed
        mass[i0:i1 + 1] = result.mass_seen
        outflow[i0:i1] = exited_steps / dt
        rho_cur = rows[-1]
        i0 = i1
    outflow[steps] = speeds[steps] * rho[steps, -1]

    return LinkState(times=times, cells=centers, rho=rho, inflow=u,
                     outflow=outflow, length=length, mass=mass,
                     speeds=speeds, method="characteristics")


class _CflRetry(Exception):
    """An observed speed broke the CFL bound; the caller halves the step.
    ``members``, when given, are the positions in the attempted group of
    the members that broke it; otherwise every member did."""

    def __init__(self, members=None):
        super().__init__(members)
        self.members = members


def _retry(steps: int, group: list, attempt: Callable,
           halvings: int = 0) -> dict:
    """``{member: result}`` of ``attempt(steps, group)``, which returns one
    result per member of ``group`` or raises :class:`_CflRetry`.  Members
    that broke the CFL bound rerun alone at twice the steps, the rest rerun
    together at ``steps``; a member still breaking it after
    ``MAX_DT_HALVINGS`` halvings raises :class:`CflViolated`."""
    try:
        return dict(zip(group, attempt(steps, group)))
    except _CflRetry as retry:
        if halvings == MAX_DT_HALVINGS:
            raise CflViolated(f"time step still too large after "
                              f"{MAX_DT_HALVINGS} halvings") from None
        hot = (group if retry.members is None
               else [group[j] for j in retry.members])
        rest = [b for b in group if b not in hot]
        done = _retry(steps, rest, attempt, halvings) if rest else {}
        for b in hot:
            done.update(_retry(2 * steps, [b], attempt, halvings + 1))
        return done


def upwind_step(rho: np.ndarray, speed, inflow, dt: float,
                dx: float) -> tuple[np.ndarray, np.ndarray]:
    """One conservative upwind step on a ``(..., cells)`` block.

    ``speed`` is the speed at each cell's right face, a scalar or an array
    broadcasting against ``rho``; ``inflow`` is the flux through the left
    boundary, shaped ``rho.shape[:-1]``.  Speeds are positive, so the flux
    through a face is its speed times the density on its left.  Returns the
    new block and the flux through the right boundary.  The caller checks
    the CFL bound.
    """
    flux = speed * rho
    shifted = np.empty_like(flux)
    shifted[..., 1:] = flux[..., :-1]
    shifted[..., 0] = inflow
    return rho - (dt / dx) * (flux - shifted), flux[..., -1]


def _solve_link_upwind(law: VelocityLaw, window: NonlocalWindow, inflow,
                       rho_init: np.ndarray, horizon: float, grid: GridSpec,
                       length: float, steps: int) -> LinkState:
    n = grid.cells
    dx = length / n
    centers = (np.arange(n) + 0.5) * dx
    times = np.linspace(0.0, horizon, steps + 1)
    dt = times[1] - times[0]
    u = _sample_series(inflow, times)
    whole = window.is_whole_span(length)
    ifaces = np.arange(1, n + 1) * dx  # interior interfaces plus the right edge

    rho = np.empty((steps + 1, n))
    rho[0] = rho_init
    speeds = np.empty(steps + 1) if whole else None
    mass = np.empty(steps + 1)
    outflow = np.empty(steps + 1)
    mass[0] = rho[0].sum() * dx

    for m in range(steps):
        row = rho[m]
        if whole:
            iface_speed = float(law(times[m], mass[m]))
            speeds[m] = iface_speed
        else:
            w_iface = nonlocal_term(row, length, window, ifaces)
            iface_speed = np.asarray(law(times[m], w_iface), dtype=float)
        if np.max(iface_speed) * dt > dx * (1.0 + 1e-12):
            raise _CflRetry
        rho[m + 1], outflow[m] = upwind_step(row, iface_speed, u[m], dt, dx)
        mass[m + 1] = rho[m + 1].sum() * dx

    if whole:
        speeds[steps] = float(law(times[steps], mass[steps]))
        outflow[steps] = speeds[steps] * rho[steps, -1]
    else:
        w_last = nonlocal_term(rho[steps], length, window, np.array([length]))
        outflow[steps] = float(law(times[steps], w_last[0])) * rho[steps, -1]
    return LinkState(times=times, cells=centers, rho=rho, inflow=u,
                     outflow=outflow, length=length, mass=mass,
                     speeds=speeds, method="fv")


def solve_link(law: VelocityLaw, window: NonlocalWindow, inflow, rho0, *,
               horizon: float, grid: GridSpec | None = None, length: float = 1.0,
               method: str = "auto") -> LinkState:
    """Solve the link problem on ``[0, horizon]``.

    ``method`` is ``"characteristics"`` (whole-span windows only), ``"fv"``,
    or ``"auto"`` which picks characteristics when the window spans the link.
    Both paths size their time step from the sampled maximum speed; the
    upwind path halves it up to ``MAX_DT_HALVINGS`` times on an observed CFL
    violation before raising :class:`CflViolated`.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    grid = grid or GridSpec()
    whole = window.is_whole_span(length)
    if method == "auto":
        method = "characteristics" if whole else "fv"
    if method == "characteristics" and not whole:
        raise ValueError("characteristics path requires a whole-span window")
    if method not in ("characteristics", "fv"):
        raise ValueError(f"unknown method {method!r}")

    dx = length / grid.cells
    rho_init = _sample_initial(rho0, (np.arange(grid.cells) + 0.5) * dx)
    budget = rho_init.sum() * dx + _inflow_budget(inflow, horizon)
    law.check(horizon, budget)
    vmax = max(law.max_speed(horizon, budget), law.floor)
    steps = max(8, int(math.ceil(horizon * vmax / (grid.cfl * dx))))
    if method == "characteristics":
        return _solve_link_transport(law, inflow, rho_init, horizon, grid,
                                     length, steps)
    return _retry(steps, [0], lambda n, _: [_solve_link_upwind(
        law, window, inflow, rho_init, horizon, grid, length, n)])[0]


def outflux(state: LinkState, t: float) -> float:
    """Boundary outflow flux at time ``t``, interpolated from the solve."""
    if not state.times[0] <= t <= state.times[-1]:
        raise HorizonExceeded(f"t={t} outside the solved range")
    return float(np.interp(t, state.times, state.outflow))


def exit_time(state: LinkState, enter_time: float) -> float:
    """Exit time of a parcel entering at ``enter_time`` (whole-span runs).

    Integrates the stored space-independent speed series, piecewise constant
    per step, until the accumulated displacement spans the link.
    """
    if state.speeds is None:
        raise ValueError("exit_time needs the space-independent speed series")
    if not state.times[0] <= enter_time <= state.times[-1]:
        raise HorizonExceeded(f"enter_time={enter_time} outside the solved range")
    dt = state.dt
    pos = 0.0
    t = enter_time
    m = min(int((enter_time - state.times[0]) / dt), len(state.times) - 2)
    while m < len(state.times) - 1:
        seg_end = state.times[m + 1]
        c = float(state.speeds[m])
        span = seg_end - t
        if pos + c * span >= state.length:
            return t + (state.length - pos) / c
        pos += c * span
        t = seg_end
        m += 1
    raise HorizonExceeded("parcel does not exit within the solved horizon")
