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
from typing import Mapping, Optional, Sequence

import numpy as np

from .network import (Commodity, Link, PiecewiseConstant, RoadNetwork,
                      SourceSchedule, SplitSchedule, as_split_schedule)
from .errors import RoadflowError
from .network_sim import ArrivalRecord, ArrivalSimulator
from .network_sim import simulate  # noqa: F401  (perfbench wraps it here)
from .nonlocal_solver import GridSpec

#: feasibility tolerance for emitted rows and demand integrals
FEASIBILITY_TOL = 1e-9
#: a backtracking line search gives up once its move is shorter than this
MIN_MOVE = 1e-4
#: backtracking moves run ahead as one batch of simulations
LINE_SEARCH_BATCH = 4


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

    def with_vector(self, x: np.ndarray) -> "ControlParameterization":
        p = self.intervals
        theta_values = []
        pos = 0
        for c in self.theta:
            size = len(c.links) * p
            theta_values.append(x[pos:pos + size].reshape(len(c.links), p))
            pos += size
        source_values = []
        for _ in self.sources:
            source_values.append(x[pos:pos + p])
            pos += p
        if pos != len(x):
            raise ValueError("vector length does not match the parameterization")
        return ControlParameterization(self.knots, self.theta, self.sources,
                                       theta_values, source_values)


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
    n = out.shape[0]
    uniform = np.full(n, 1.0 / n)
    for j in range(out.shape[1]):
        if sums[j] > 0.0:
            out[:, j] /= sums[j]
        else:
            out[:, j] = uniform
    return out


def project_controls(param: ControlParameterization,
                     demand: DemandSpec) -> ControlParameterization:
    """Feasible version of ``param``: simplex rows, demand-matching rates."""
    lengths = np.diff(param.knots)
    theta_values = [_project_rows(v) for v in param.theta_values]
    source_values = []
    for c, v in zip(param.sources, param.source_values):
        total = demand.totals.get(c.key(), 0.0)
        # values are relative rates; the projection target is mean 1
        projected = project_demand(v, param.horizon, lengths)
        if total == 0.0:
            projected = np.zeros_like(projected)
        source_values.append(projected)
    return ControlParameterization(param.knots, param.theta, param.sources,
                                   theta_values, source_values)


def _series_from_intervals(knots: np.ndarray, values: np.ndarray) -> PiecewiseConstant:
    # the last interval is held open-ended so the horizon endpoint samples it
    ends = [float(b) for b in knots[1:-1]] + [math.inf]
    segments = [(float(a), b, float(v))
                for a, b, v in zip(knots[:-1], ends, values) if v != 0.0]
    return PiecewiseConstant(segments or [(float(knots[0]), math.inf, 0.0)])


def build_schedules(param: ControlParameterization, demand: DemandSpec,
                    base_splits=None,
                    commodities: Optional[Sequence[Commodity]] = None
                    ) -> tuple[SplitSchedule, SourceSchedule]:
    """Materialize the controls as simulator schedules.

    ``base_splits`` supplies rows for junctions the parameterization does
    not control, in any form :func:`as_split_schedule` takes.
    """
    commodities = tuple(commodities or demand.commodities())
    rows = dict(as_split_schedule(base_splits, commodities)._rows)
    for c, vals in zip(param.theta, param.theta_values):
        rows[(c.node, c.commodity)] = {
            a: _series_from_intervals(param.knots, vals[i])
            for i, a in enumerate(c.links)}
    entries = {}
    for c, vals in zip(param.sources, param.source_values):
        total = demand.totals.get(c.key(), 0.0)
        lengths = np.diff(param.knots)
        integral = float(np.dot(vals, lengths))
        rates = vals * (total / integral) if integral > 0 else np.zeros_like(vals)
        entries[c.key()] = _series_from_intervals(param.knots, rates)
    return SplitSchedule(rows), SourceSchedule(entries)


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
                    fd_step: float = 1e-3, initial_step: float = 0.25,
                    min_fd_step: float = 1e-6) -> SocialOptResult:
    """Projected coordinate descent on the backlog objective.

    ``budget`` caps the evaluations of the sequential search: the ± probe
    pair of each coordinate, then backtracking moves against the sign of
    the gradient (Nocedal and Wright, *Numerical Optimization*, ch. 3)
    until one lowers J.  Accepted iterates strictly decrease J, so the
    trace is strictly decreasing; the finite-difference step and the move
    step halve together whenever a full sweep yields no improvement.  The
    returned result carries the best controls either way; ``status``
    records whether the step shrank to ``min_fd_step`` first ("converged")
    or the budget ran out ("budget_exhausted").

    Each coordinate's probes run as one batch of simulations together with
    both signs of its first move, and backtracking moves run in batches of
    up to ``LINE_SEARCH_BATCH``.  Only the simulations the sequential
    search reads are charged to ``budget`` and ``evaluations``; the
    discarded members of a batch are extra runs inside it.
    """
    if budget < 1:
        raise ValueError("budget must allow at least one simulation")
    commodities = demand.commodities()
    base_splits = as_split_schedule(base_splits, commodities)
    runs = ArrivalSimulator(net, commodities, laws, horizon=param.horizon,
                            grid=grid)
    evals = 0
    ahead: dict = {}   # objective of each point run ahead, by its bytes

    def objectives(points) -> list:
        members = [build_schedules(project_controls(param.with_vector(x),
                                                    demand),
                                   demand, base_splits, commodities)
                   for x in points]
        return [backlog_objective(r, demand) for r in runs.run(members)]

    def run_ahead(points) -> None:
        ahead.clear()
        try:
            values = objectives(points)
        except (RoadflowError, ValueError):
            # evaluate() reruns each point alone, in the search's order,
            # so the error surfaces only if the search reaches its point
            return
        ahead.update(zip((x.tobytes() for x in points), values))

    def evaluate(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        j = ahead.pop(x.tobytes(), None)
        return objectives([x])[0] if j is None else j

    x = project_controls(param, demand).pack()
    best_j = evaluate(x)
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
                if cand.tobytes() not in ahead:
                    run_ahead(_backtracking(x, i, trial_step, g,
                                            min(LINE_SEARCH_BATCH,
                                                budget - evals)))
                j_cand = evaluate(cand)
                if j_cand < best_j:
                    x = project_controls(param.with_vector(cand),
                                         demand).pack()
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
            if h < min_fd_step:
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
