"""Backlog objective and projected search for system-optimal controls.

The planner owns both the turning rows and the departure rates of the
demand it steers.  Controls are piecewise constant on a coarse knot grid;
feasibility (rows on the simplex, departure integrals matching the demand
totals) is restored by projection after every trial move.  The search is
derivative-free projected coordinate descent with central finite
differences, budgeted by simulation count; running out of budget returns
the best iterate found, it is not a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence

import numpy as np

from .network import (Commodity, Link, PiecewiseConstant, RoadNetwork,
                      SourceSchedule, _check_grid_row,
                      as_split_schedule)
from .errors import RoadflowError
from .network_sim import ArrivalRecord, ArrivalSimulator, _StepPlan
from .network_sim import simulate  # noqa: F401  (perfbench wraps it here)
from .nonlocal_solver import GridSpec

#: feasibility tolerance for emitted rows and demand integrals
FEASIBILITY_TOL = 1e-9
#: a backtracking line search gives up once its move is shorter than this
MIN_MOVE = 1e-4
#: backtracking moves run ahead as one batch of simulations
LINE_SEARCH_BATCH = 4
#: the search has converged once its finite-difference step halves below this
MIN_FD_STEP = 1e-6


@dataclass(frozen=True)
class DemandSpec:
    """Total vehicles to depart per (node, out-link, commodity)."""

    totals: Mapping[tuple[int, Link, Commodity], float]

    def __post_init__(self) -> None:
        if not self.totals:
            raise ValueError("demand is empty")
        any_positive = False
        for key, d in self.totals.items():
            if not (math.isfinite(d) and d >= 0.0):
                raise ValueError(f"demand for {key} must be finite and >= 0")
            any_positive = any_positive or d > 0.0
        if not any_positive:
            raise ValueError("demand has no positive entry")

    def commodities(self) -> tuple[Commodity, ...]:
        seen = []
        for (_, _, k) in self.totals:
            if k not in seen:
                seen.append(k)
        return tuple(seen)

    def total_toward(self, commodity: Commodity) -> float:
        return float(sum(d for (_, _, k), d in self.totals.items()
                         if k == commodity))


@dataclass(frozen=True)
class ThetaControl:
    """One controlled turning row: values per knot interval per link."""

    node: int
    commodity: Commodity
    links: tuple


@dataclass(frozen=True)
class SourceControl:
    """One controlled departure-rate trajectory."""

    node: int
    link: Link
    commodity: Commodity

    def key(self) -> tuple:
        return (self.node, self.link, self.commodity)


class ControlParameterization:
    """Piecewise-constant controls on a shared knot grid over [0, T].

    ``theta_values[i]`` has shape ``(len(links), P)`` and
    ``source_values[j]`` shape ``(P,)`` where P is the interval count.
    Source values are stored relative to the uniform rate (1 = spread the
    total evenly), so every packed coordinate is dimensionless.
    """

    def __init__(self, knots, theta: Sequence[ThetaControl] = (),
                 sources: Sequence[SourceControl] = (),
                 theta_values=None, source_values=None):
        self.knots = np.asarray(knots, dtype=float)
        if len(self.knots) < 2 or np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing, at least two")
        if self.knots[0] != 0.0:
            raise ValueError("knots must start at 0")
        self.theta = tuple(theta)
        self.sources = tuple(sources)
        if not self.theta and not self.sources:
            raise ValueError("nothing to control")
        p = self.intervals
        if theta_values is None:
            theta_values = [np.full((len(c.links), p), 1.0 / len(c.links))
                            for c in self.theta]
        if source_values is None:
            source_values = [np.ones(p) for _ in self.sources]
        self.theta_values = [np.array(v, dtype=float) for v in theta_values]
        self.source_values = [np.array(v, dtype=float) for v in source_values]
        for c, v in zip(self.theta, self.theta_values):
            if v.shape != (len(c.links), p):
                raise ValueError(f"theta values for node {c.node} have shape "
                                 f"{v.shape}, expected {(len(c.links), p)}")
        for c, v in zip(self.sources, self.source_values):
            if v.shape != (p,):
                raise ValueError(f"source values for {c.key()} have shape "
                                 f"{v.shape}, expected {(p,)}")

    @property
    def intervals(self) -> int:
        return len(self.knots) - 1

    @property
    def horizon(self) -> float:
        return float(self.knots[-1])

    def pack(self) -> np.ndarray:
        parts = [v.ravel() for v in self.theta_values]
        parts += [v.ravel() for v in self.source_values]
        return np.concatenate(parts) if parts else np.zeros(0)

    def blocks(self, x: np.ndarray) -> list:
        """The packed vector ``x`` cut into views shaped as
        ``theta_values`` and then ``source_values``."""
        shapes = [(len(c.links), self.intervals) for c in self.theta]
        shapes += [(self.intervals,)] * len(self.sources)
        blocks, pos = [], 0
        for shape in shapes:
            blocks.append(x[pos:pos + math.prod(shape)].reshape(shape))
            pos += blocks[-1].size
        if pos != len(x):
            raise ValueError("vector length does not match the parameterization")
        return blocks

    def with_vector(self, x: np.ndarray) -> "ControlParameterization":
        blocks = self.blocks(x)
        return ControlParameterization(self.knots, self.theta, self.sources,
                                       blocks[:len(self.theta)],
                                       blocks[len(self.theta):])


def project_demand(values, total: float, lengths) -> np.ndarray:
    """Nearest-in-scale feasible departure rates.

    Negative proposals are clipped, then the trajectory is rescaled so its
    integral over the knot intervals equals ``total``; an all-zero proposal
    becomes the uniform rate.  Idempotent on feasible input.
    """
    v = np.clip(np.asarray(values, dtype=float), 0.0, None)
    lengths = np.asarray(lengths, dtype=float)
    horizon = float(lengths.sum())
    integral = float(np.dot(v, lengths))
    if integral > 0.0:
        return v * (total / integral)
    return np.full(len(v), total / horizon)


def _project_rows(rows: np.ndarray) -> np.ndarray:
    """Clip each column to the simplex by renormalization; empty -> uniform."""
    out = np.clip(rows, 0.0, None)
    sums = out.sum(axis=0)
    return np.divide(out, sums, out=np.full_like(out, 1.0 / out.shape[0]),
                     where=sums > 0.0)


def project_controls(param: ControlParameterization,
                     demand: DemandSpec) -> ControlParameterization:
    """Feasible version of ``param``: simplex rows, demand-matching rates."""
    return param.with_vector(_project(param, demand, param.pack()))


def _project(param: ControlParameterization, demand: DemandSpec,
             x: np.ndarray) -> np.ndarray:
    """The packed vector of :func:`project_controls` of
    ``param.with_vector(x)``."""
    blocks, lengths = param.blocks(x), np.diff(param.knots)
    parts = [_project_rows(v).ravel() for v in blocks[:len(param.theta)]]
    for c, v in zip(param.sources, blocks[len(param.theta):]):
        # values are relative rates; the projection target is mean 1
        projected = project_demand(v, param.horizon, lengths)
        parts.append(projected if demand.totals.get(c.key(), 0.0) != 0.0
                     else np.zeros_like(projected))
    return np.concatenate(parts)


class _Controls:
    """Projected points of the search as :class:`ArrivalSimulator` members.

    A point's split rows and source integrals on a step grid are read from
    its packed vector through a map built once per step count: the knot
    interval of each step, where ``PiecewiseConstant.sample`` finds it, and
    each step's overlap with each interval.  The floats are those
    :meth:`_StepPlan.member` samples from the schedules the controls
    describe: projected rows hold no negative zero, so the zero segments
    those schedules drop read the same, and a step's integral multiplies
    and sums the nonzero rates' overlaps as ``PiecewiseConstant.integral``
    does.  An out-link a control omits reads 0; other rows come from
    ``base``.
    """

    def __init__(self, net: RoadNetwork, commodities, param, demand, base):
        self.net, self.commodities, self.base = net, commodities, base
        self.knots, self.lengths = param.knots, np.diff(param.knots)
        self.size = len(param.pack())
        index = param.blocks(np.arange(self.size))
        omitted = np.full(param.intervals, self.size)   # x[size] reads 0
        # each controlled row's vector indices, out-link by out-link
        self.rows = {(c.node, c.commodity): np.array(
            [dict(zip(c.links, block)).get(a, omitted)
             for a in net.out_links(c.node)])
            for c, block in zip(param.theta, index)}
        self.sources = {c.key(): (block, demand.totals.get(c.key(), 0.0))
                        for c, block in zip(param.sources,
                                            index[len(param.theta):])}
        SourceSchedule(dict.fromkeys(self.sources, PiecewiseConstant.constant(
            0.0))).validate(net, commodities)
        self._maps: dict = {}

    def member(self, x: np.ndarray) -> SimpleNamespace:
        """Point ``x`` with its ``budget``, the mass its sources' rates
        (scaled to the demand totals) inject, summed as
        ``SourceSchedule.total`` sums it, and its ``arrays(plan)``."""
        rates = {}          # the nonzero rates of each source, and where
        for key, (block, total) in self.sources.items():
            integral = float(np.dot(x[block], self.lengths))
            r = (x[block] * (total / integral) if integral > 0
                 else np.zeros(len(block)))
            rates[key] = r != 0.0, r[r != 0.0]
        budget = 0.0 + sum(
            sum(float(np.sum(self.lengths[nz] * r))
                for (_, _, com), (nz, r) in rates.items() if com == k)
            for k in self.commodities)
        return SimpleNamespace(budget=budget, arrays=lambda plan: self._arrays(
            plan, np.append(x, 0.0), rates))

    def _arrays(self, plan: _StepPlan, x: np.ndarray, rates: dict) -> tuple:
        if plan.steps not in self._maps:
            times = plan.times
            at = np.searchsorted(self.knots[1:-1], times, side="right")
            ends = np.append(self.knots[1:-1], math.inf)
            overlap = np.clip(np.minimum(ends, times[1:, None])
                              - np.maximum(self.knots[:-1], times[:-1, None]),
                              0.0, None)
            keys = plan.row_keys(lambda v, k: (v, k) in self.rows
                                 or self.base.has_row(v, k))
            self._maps[plan.steps] = overlap, {
                key: self.rows[key][:, at] if key in self.rows else
                self.base.grid_row(*key, times, self.net.out_links(key[0]))
                for key in keys}
        overlap, rows = self._maps[plan.steps]
        split_rows = {key: _check_grid_row(x.take(row), *key, plan.times)
                      if key in self.rows else row
                      for key, row in rows.items()}
        source_grid = {(link, k): np.concatenate((
            np.sum(overlap[:, nz] * r, axis=-1) / plan.dt, [0.0]))
            for (_, link, k), (nz, r) in rates.items()}
        return plan.fill(split_rows, source_grid)


def backlog_objective(state: ArrivalRecord, demand: DemandSpec) -> float:
    """Integrated squared not-yet-arrived mass, summed over flow classes.

    Left Riemann sum on the simulation grid of
    (total demand for the class - cumulative arrivals)^2.
    """
    dt = state.dt
    total = 0.0
    for k in demand.commodities():
        d = demand.total_toward(k)
        arrived = state.cumulative_arrivals(k)
        total += float(np.sum((d - arrived[:-1]) ** 2) * dt)
    return total


@dataclass
class SocialOptResult:
    """Best controls found plus the accepted-objective trace."""

    status: str                      # "converged" or "budget_exhausted"
    controls: ControlParameterization
    objective: float
    trace: list = field(default_factory=list)   # (simulations used, J)
    evaluations: int = 0
    note: str = ""


def optimize_social(net: RoadNetwork, demand: DemandSpec,
                    param: ControlParameterization, budget: int, *,
                    laws, base_splits=None, grid: Optional[GridSpec] = None,
                    fd_step: float = 1e-3, initial_step: float = 0.25
                    ) -> SocialOptResult:
    """Projected coordinate descent on the backlog objective.

    ``budget`` caps the evaluations of the sequential search: the ± probe
    pair of each coordinate, then backtracking moves against the sign of
    the gradient (Nocedal and Wright, *Numerical Optimization*, ch. 3)
    until one lowers J.  Accepted iterates strictly decrease J, so the
    trace is strictly decreasing; the finite-difference step and the move
    step halve together whenever a full sweep yields no improvement.  The
    returned result carries the best controls either way; ``status``
    records whether the step shrank below ``MIN_FD_STEP`` first ("converged")
    or the budget ran out ("budget_exhausted").

    Each coordinate's probes run as one batch of simulations together with
    both signs of its first move, and backtracking moves run in batches of
    up to ``LINE_SEARCH_BATCH``.  ``budget`` and ``evaluations`` count the
    evaluations of the sequential search, not the members simulated: a
    batch simulates only the points whose projected vectors it has not
    met before, each once, and the discarded members of a batch are extra
    runs inside it.  Each batch restarts from the run of the point the
    search stands on, at the first time step where any member's split rows
    or source integrals differ from it (see :class:`ArrivalSimulator`).
    """
    if budget < 1:
        raise ValueError("budget must allow at least one simulation")
    commodities = demand.commodities()
    runs = ArrivalSimulator(net, commodities, laws, horizon=param.horizon,
                            grid=grid)
    controls = _Controls(net, commodities, param, demand,
                         as_split_schedule(base_splits, commodities))
    evals = 0
    projected: dict = {}   # projection of each point met, by its bytes
    known: dict = {}   # objective of each projection simulated, by its bytes
    last: dict = {}    # member index in the last run, by the same bytes

    def project(x: np.ndarray) -> np.ndarray:
        if x.tobytes() not in projected:
            projected[x.tobytes()] = _project(param, demand, x)
        return projected[x.tobytes()]

    def simulate_new(points) -> list:
        """The bytes of each point's projection, simulating the new ones."""
        nonlocal last
        keys, new = [], {}
        for x in points:
            p = project(x)
            keys.append(p.tobytes())
            if keys[-1] not in known:
                new.setdefault(keys[-1], p)
        if new:
            records = runs.run([controls.member(p) for p in new.values()])
            known.update(zip(new, (backlog_objective(r, demand)
                                   for r in records)))
            last = {key: b for b, key in enumerate(new)}
        return keys

    def run_ahead(points) -> None:
        try:
            simulate_new(points)
        except (RoadflowError, ValueError):
            # evaluate() reruns each point alone, in the search's order,
            # so the error surfaces only if the search reaches its point
            pass

    def evaluate(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return known[simulate_new([x])[0]]

    x = _project(param, demand, param.pack())
    best_j = evaluate(x)
    runs.stand_on(0)        # the only member of the first run
    trace = [(evals, best_j)]
    h = fd_step
    step = initial_step
    dim = len(x)
    status = "budget_exhausted"
    while evals < budget:
        improved = False
        for i in range(dim):
            if evals + 2 > budget:
                break
            e = np.zeros(dim)
            e[i] = 1.0
            probes = [x + h * e, x - h * e]
            if evals + 2 < budget:
                # the first move is charged only when g != 0; run it on
                # both sides, since the sign of g is not known yet
                probes += [_move(x, i, step, 1.0), _move(x, i, step, -1.0)]
            run_ahead(probes)
            jp = evaluate(probes[0])
            jm = evaluate(probes[1])
            g = (jp - jm) / (2.0 * h)
            if g == 0.0:
                continue
            trial_step = step
            while evals < budget:
                cand = _move(x, i, trial_step, g)
                if project(cand).tobytes() not in known:
                    run_ahead(_backtracking(x, i, trial_step, g,
                                            min(LINE_SEARCH_BATCH,
                                                budget - evals)))
                j_cand = evaluate(cand)
                if j_cand < best_j:
                    x = project(cand)
                    if x.tobytes() in last:
                        runs.stand_on(last[x.tobytes()])
                    best_j = j_cand
                    trace.append((evals, best_j))
                    improved = True
                    break
                trial_step *= 0.5
                if trial_step < MIN_MOVE:
                    break
        if evals >= budget:
            break
        if not improved:
            h *= 0.5
            step *= 0.5
            if h < MIN_FD_STEP:
                status = "converged"
                break
    controls = project_controls(param.with_vector(x), demand)
    note = ("local search; objective values certify only a descent sequence, "
            "not global optimality")
    return SocialOptResult(status=status, controls=controls, objective=best_j,
                           trace=trace, evaluations=evals, note=note)


def _move(x: np.ndarray, i: int, trial_step: float, g: float) -> np.ndarray:
    """``x`` moved ``trial_step`` along coordinate ``i`` against the sign
    of ``g``."""
    cand = x.copy()
    cand[i] -= trial_step * math.copysign(1.0, g)
    return cand


def _backtracking(x: np.ndarray, i: int, trial_step: float, g: float,
                  count: int) -> list:
    """The next ``count`` backtracking moves from ``trial_step`` on, halving
    the step, as far as the search would go before it drops below
    ``MIN_MOVE``."""
    moves = [_move(x, i, trial_step, g)]
    trial_step *= 0.5
    while len(moves) < count and trial_step >= MIN_MOVE:
        moves.append(_move(x, i, trial_step, g))
        trial_step *= 0.5
    return moves
