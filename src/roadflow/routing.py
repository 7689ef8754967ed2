"""Split-schedule construction from information policies, and day-to-day
equilibration.

Routed traffic picks paths by a logit rule over path costs evaluated on the
simulated state (current, delayed, forecast, surcharged, or read from a
historical table); habit-driven traffic follows fixed or mildly perturbed
rows.  Path choice probabilities at the origin are folded into per-junction
turning rows as conditional next-link frequencies, so the same plan drives
the junction exchange of the simulator.  Repeated simulation with averaged
row updates serves as the equilibration loop; the reported diagnostic is
the spread of frozen-state travel times over the paths the plan uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import SplitRowInvalid
from .network import (Commodity, Link, PiecewiseConstant, RoadNetwork,
                      SourceSchedule, as_split_schedule)
from .network_sim import GridSplits, NetworkState, enumerate_paths, simulate
from .nonlocal_solver import GridSpec

ROUTED_KINDS = ("full_information", "delayed", "incentivized", "database",
                "simplified_forecast")
NON_ROUTED_KINDS = ("static", "ex_ante", "local", "sub_network")

#: default plan-share threshold below which a path counts as unused
USED_PATH_EPS = 1e-6


@dataclass(frozen=True)
class LogitRule:
    """Map path costs to choice fractions via exp(-beta * cost).

    beta = 0 gives the uniform split; large beta concentrates on the
    cheapest path.  Costs are shifted by their minimum before
    exponentiation so large beta stays finite.
    """

    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError("logit sensitivity must be finite and >= 0")

    def split(self, costs) -> np.ndarray:
        """Fractions over axis 0; accepts shape (n,) or (n, T).

        Each column of an (n, T) input is normalised by a sum over one
        contiguous row of the transposed weights, the same summation the
        1-D call makes, so column ``j`` equals ``split(costs[:, j])`` bit
        for bit.
        """
        c = np.asarray(costs, dtype=float)
        if c.shape[0] == 0:
            raise ValueError("no alternatives to split over")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite path cost")
        z = np.exp(-self.beta * (c - c.min(axis=0, keepdims=True)))
        return z / np.ascontiguousarray(z.T).sum(axis=-1)


@dataclass(frozen=True)
class RoutingPolicy:
    """One information principle plus its parameters.

    Routed kinds: full_information (costs frozen at the current instant),
    delayed (costs at t - delay, static fallback before history exists),
    incentivized (cost = traversal time + congestion_weight * windowed mass),
    database (costs read from a historical table, static fallback where the
    table has no data), simplified_forecast (windowed mass extrapolated
    linearly over the forecast horizon, then costed through the link's own
    speed law).

    Non-routed kinds: static (the scenario's fixed rows), ex_ante
    (full-information rows frozen at the commodity's first departure),
    local (static rows reweighted by mass within a downstream link radius),
    sub_network (full information restricted to a link mask).
    """

    kind: str
    logit: LogitRule = field(default_factory=LogitRule)
    delay: float = 0.0
    radius: int = 1
    mask: Optional[frozenset] = None
    forecast: float = 0.0
    congestion_weight: float = 0.0
    table: Optional[Mapping] = None
    base: object = None

    def __post_init__(self) -> None:
        if self.kind not in ROUTED_KINDS + NON_ROUTED_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "delayed":
            if not (math.isfinite(self.delay) and self.delay >= 0.0):
                raise ValueError("delay must be finite and >= 0")
            if self.base is None:
                raise ValueError("delayed policy needs base rows to fall back on")
        if self.kind == "database":
            if self.table is None:
                raise ValueError("database policy needs a cost table")
            for link, series in self.table.items():
                if not series.is_nonnegative():
                    raise ValueError(f"negative historical cost on link {link}")
            if self.base is None:
                raise ValueError("database policy needs base rows to fall back on")
        if self.kind == "simplified_forecast" and not (
                math.isfinite(self.forecast) and self.forecast >= 0.0):
            raise ValueError("forecast horizon must be finite and >= 0")
        if self.kind == "incentivized" and not (
                math.isfinite(self.congestion_weight) and self.congestion_weight >= 0.0):
            raise ValueError("congestion weight must be finite and >= 0")
        if self.kind == "local" and (self.radius < 1 or self.radius != int(self.radius)):
            raise ValueError("lookahead radius must be a positive integer")
        if self.kind in ("static", "local") and self.base is None:
            raise ValueError(f"{self.kind} policy needs base rows")
        if self.kind == "sub_network" and self.mask is None:
            raise ValueError("sub_network policy needs a link mask")

    def is_routed(self) -> bool:
        return self.kind in ROUTED_KINDS


@dataclass
class _PathPlan:
    """Paths and row bookkeeping reused across evaluation times."""

    net: RoadNetwork
    origin: int
    destination: int
    paths: tuple
    links: tuple                 # union of path links
    row_nodes: tuple             # nodes that get a row
    preferred: dict              # node -> ordered out-links for the uniform guard
    through: dict                # node -> [(path index, next link), ...]


def _build_plan(net: RoadNetwork, origin: int, destination: int, *,
                mask=None) -> _PathPlan:
    allowed = set(mask) if mask is not None else None
    if allowed is not None and not allowed <= set(net.links):
        raise ValueError("mask contains links outside the network")
    paths = tuple(enumerate_paths(net, origin, destination,
                                  allowed_links=allowed))
    links = tuple(sorted({a for p in paths for a in p}))
    reach = net.reaches(destination)
    through: dict = {}
    for pi, path in enumerate(paths):
        for a in path:
            through.setdefault(a[0], []).append((pi, a))
    row_nodes = []
    preferred = {}
    for v in net.nodes:
        if v == destination or v not in reach:
            continue
        feasible = [a for a in net.out_links(v) if net.link_leads_to(a, destination)]
        if not feasible:
            continue
        # the uniform guard for nodes the plan never reaches stays inside the
        # mask when the mask admits any feasible continuation
        masked = [a for a in feasible if allowed is None or a in allowed]
        row_nodes.append(v)
        preferred[v] = masked if masked else feasible
    return _PathPlan(net=net, origin=origin, destination=destination,
                     paths=paths, links=links, row_nodes=tuple(row_nodes),
                     preferred=preferred, through=through)


def _fill_path_rows(plan: _PathPlan, probs: np.ndarray, rows: dict,
                    cols: np.ndarray) -> None:
    """Per-junction conditional next-link rows from path probabilities.

    ``probs`` has shape (paths, len(cols)); column ``i`` of every junction
    row is written into column ``cols[i]`` of ``rows[node]``.  Columns where
    no path through the node has positive probability get the uniform row
    over the node's preferred links.
    """
    for v in plan.row_nodes:
        out = plan.net.out_links(v)
        visits = plan.through.get(v, ())
        total = np.zeros(probs.shape[1])
        for pi, _ in visits:
            total = total + probs[pi]
        hot = total > 0.0
        block = np.zeros((len(out), probs.shape[1]))
        safe = np.where(hot, total, 1.0)
        for pi, a in visits:
            i = out.index(a)
            block[i] = block[i] + probs[pi] / safe
        if not hot.all():
            # no path through v has weight there, so those columns are 0
            links = plan.preferred[v]
            for a in links:
                block[out.index(a), ~hot] = 1.0 / len(links)
        rows[v][:, cols] = block


def _base_rows(base, plan: _PathPlan, commodity: Commodity,
               times: np.ndarray) -> dict:
    """The base rows of every plan node at each of ``times``, with the
    uniform row over the node's preferred links where the base has none."""
    schedule = as_split_schedule(base, (commodity,))
    rows = {}
    for v in plan.row_nodes:
        out = plan.net.out_links(v)
        if schedule.has_row(v, commodity):
            rows[v] = schedule.grid_row(v, commodity, times, out)
            continue
        links = plan.preferred[v]
        rows[v] = np.zeros((len(out), len(times)))
        rows[v][[out.index(a) for a in links]] = 1.0 / len(links)
    return rows


def _first_departure(state: NetworkState, commodity: Commodity) -> float:
    """Earliest grid time with positive injection for the commodity."""
    best = None
    for (link, com), series in state.source_grid.items():
        if com != commodity:
            continue
        hot = np.nonzero(series > 0.0)[0]
        if hot.size:
            t = float(state.times[hot[0]])
            best = t if best is None else min(best, t)
    return float(state.times[0]) if best is None else best


def _missing_costs(policy: RoutingPolicy, state: NetworkState,
                   times: np.ndarray, plan: _PathPlan) -> np.ndarray:
    """Times at which the policy has no cost data and falls back to its
    base rows: before history exists (delayed), or where the table does not
    cover every plan link (database)."""
    if policy.kind == "delayed":
        return times - policy.delay < float(state.times[0])
    missing = np.zeros(len(times), dtype=bool)
    if policy.kind == "database":
        for a in plan.links:
            series = policy.table.get(a)
            if series is None:
                return np.ones(len(times), dtype=bool)
            missing |= ~series.covers(times)
    return missing


def _link_costs(policy: RoutingPolicy, state: NetworkState,
                times: np.ndarray, plan: _PathPlan) -> dict:
    """Frozen per-link costs at each of ``times``: link -> array.

    Every time must have cost data (see ``_missing_costs``).
    """
    kind = policy.kind
    if kind == "database":
        return {a: policy.table[a].sample(times) for a in plan.links}
    if kind == "delayed":
        times = times - policy.delay
    ms = state.step_index(times)
    if kind == "incentivized":
        return {a: 1.0 / state.speeds[a][ms] + policy.congestion_weight
                * state.windowed_mass(a, ms) for a in plan.links}
    if kind == "simplified_forecast":
        # traversal time under the windowed mass extrapolated to t + forecast
        costs = {}
        for a in plan.links:
            w_now = state.windowed_mass(a, ms)
            w_prev = state.windowed_mass(a, np.maximum(ms - 1, 0))
            slope = (w_now - w_prev) / state.dt
            w_pred = np.maximum(
                np.where(ms == 0, w_now, w_now + slope * policy.forecast), 0.0)
            law = state.laws[a]
            costs[a] = 1.0 / np.maximum(law(times + policy.forecast, w_pred),
                                        law.floor)
        return costs
    # full_information, ex_ante, sub_network and delayed share the
    # frozen-instant cost
    return {a: 1.0 / state.speeds[a][ms] for a in plan.links}


#: ``math.exp`` elementwise: ``np.exp`` differs from it in the last bit on
#: some inputs, and the ``local`` weights keep the bits of the scalar rule
_exp = np.vectorize(math.exp, otypes=[float])


def _reweighted_rows(policy: RoutingPolicy, state: NetworkState,
                     times: np.ndarray, base_rows: dict) -> dict:
    """Base rows pushed toward emptier downstream neighbourhoods: each
    out-link's weight is its base fraction times exp(-beta * mass within
    ``radius`` links downstream)."""
    net = state.net
    ms = state.step_index(times)
    masses = {a: state.rho[a].sum(axis=(-2, -1))[ms] * state.dx
              for a in net.links}
    rows = {}
    for v, base in base_rows.items():
        weights = np.empty_like(base)
        for i, a in enumerate(net.out_links(v)):
            seen = {a}
            frontier = [a]
            for _ in range(policy.radius - 1):
                frontier = [b for lk in frontier for b in net.out_links(lk[1])
                            if b not in seen]
                seen.update(frontier)
            score = sum(masses[lk] for lk in seen)
            weights[i] = base[i] * _exp(-policy.logit.beta * score)
        total = sum(weights)
        flat = total <= 0.0
        rows[v] = np.where(flat, base, weights / np.where(flat, 1.0, total))
    return rows


def _grid_rows(policy: RoutingPolicy, state: NetworkState, times: np.ndarray,
               commodity: Commodity, plan: _PathPlan) -> tuple[dict, np.ndarray]:
    """Rows of every plan node at each of ``times``: node -> array of shape
    ``(n_out_links, len(times))``, plus the mask of times that fell back to
    the base rows.

    Rows start as the base rows sampled on ``times``.  ``static`` keeps
    them, ``local`` reweights them by downstream mass, and the cost-driven
    kinds price every plan link and path at all times at once and
    overwrite every time that has cost data.
    """
    kind = policy.kind
    rows = _base_rows(policy.base, plan, commodity, times)
    if kind in ("static", "local"):
        if kind == "local":
            rows = _reweighted_rows(policy, state, times, rows)
        return rows, np.zeros(len(times), dtype=bool)
    if kind == "ex_ante":
        times = np.full(len(times), _first_departure(state, commodity))
    fallback = _missing_costs(policy, state, times, plan)
    live = np.flatnonzero(~fallback)
    if live.size:
        costs = _link_costs(policy, state, times[live], plan)
        path_costs = np.empty((len(plan.paths), live.size))
        for pi, path in enumerate(plan.paths):
            total = 0.0
            for a in path:
                total = total + costs[a]
            path_costs[pi] = total
        _fill_path_rows(plan, policy.logit.split(path_costs), rows, live)
    return rows, fallback


def policy_grid_splits(policy: RoutingPolicy, state: NetworkState,
                       commodity: Commodity, *, origin: int
                       ) -> tuple[dict, np.ndarray]:
    """Turning rows of every junction that can forward the commodity from
    ``origin``, sampled on the whole simulation grid of ``state``.

    Rows follow the policy's information principle evaluated on the given
    state.  Every row sums to one over the node's outgoing links and puts
    weight only on links from which the destination stays reachable.
    Returns ``(rows, fallback)`` where ``rows`` maps ``(node, commodity)``
    to an array of shape ``(n_out_links, len(times))`` suitable for
    :class:`GridSplits`, and ``fallback`` flags the time nodes where the
    policy had to fall back to its base rows.
    """
    mask = policy.mask if policy.kind == "sub_network" else None
    plan = _build_plan(state.net, origin, commodity.destination, mask=mask)
    rows, fallback = _grid_rows(policy, state, state.times, commodity, plan)
    return {(v, commodity): arr for v, arr in rows.items()}, fallback


def mixed_gap(state: NetworkState, t, origin: int, destination: int,
              weighted_classes: Sequence[tuple[Commodity, float]], *,
              eps: float = USED_PATH_EPS):
    """Spread of frozen-state path times over the paths traffic uses.

    A path counts as used when its demand-weighted plan share at ``t``
    (sum of class weight times the product of that class's simulated
    turning fractions along the path) exceeds ``eps``.  Zero iff all used
    paths take equal time, the stationary equal-times condition among
    used routes.

    ``t`` is one time, giving a float, or a 1-D array of times, giving one
    gap per time; each entry equals the scalar call at that time bit for
    bit.  Raises ``ValueError`` naming the first time with no used path.
    """
    t_arr = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t_arr)
    ms = state.step_index(ts)
    lo = np.full(len(ts), np.inf)
    hi = np.full(len(ts), -np.inf)
    seen = np.zeros(len(ts), dtype=bool)
    for path in enumerate_paths(state.net, origin, destination):
        share = np.zeros(len(ts))
        for k, w in weighted_classes:
            if w > 0.0:
                share = share + w * _path_share(state, path, k, ms)
        used = share > eps
        if not used.any():
            continue
        cost = 0.0
        for a in path:
            cost = cost + 1.0 / state.speeds[a][ms]
        lo = np.where(used, np.minimum(lo, cost), lo)
        hi = np.where(used, np.maximum(hi, cost), hi)
        seen |= used
    if not seen.all():
        first = t if t_arr.ndim == 0 else ts[~seen][0]
        raise ValueError(f"no path has plan share above {eps} at t={first}")
    gaps = hi - lo
    return float(gaps[0]) if t_arr.ndim == 0 else gaps


def _path_share(state: NetworkState, path: Sequence[Link],
                commodity: Commodity, ms: np.ndarray) -> np.ndarray:
    """Fraction of the commodity the simulated rows send along ``path`` at
    each step index in ``ms``."""
    share = 1.0
    for a in path:
        v = a[0]
        key = (v, commodity)
        out = state.net.out_links(v)
        if key in state.split_rows:
            share = share * state.split_rows[key][out.index(a), ms]
        elif len(out) == 1:
            continue
        else:
            raise SplitRowInvalid(
                f"no simulated row at node {v} for {commodity.label()}")
    return share


@dataclass(frozen=True)
class EquilibriumDemand:
    """Total demand entering on one link, bound for one destination."""

    entry_link: Link
    rate: PiecewiseConstant
    destination: int

    def origin(self) -> int:
        """Node where route choice starts (head of the entry link)."""
        return self.entry_link[1]


@dataclass
class EquilibriumRound:
    index: int
    state: NetworkState
    gap: float
    used_fallback: bool


def _blend_rows(prev: dict, target: dict, kappa: float) -> dict:
    """Convex row update; rows stay probability rows exactly."""
    out = {}
    for key in set(prev) | set(target):
        if key in prev and key in target:
            out[key] = (1.0 - kappa) * prev[key] + kappa * target[key]
        else:
            out[key] = np.array(prev.get(key, target.get(key)), copy=True)
    return out


def equilibrium_iterate(net: RoadNetwork, demand: EquilibriumDemand,
                        alpha: float, policies: tuple, rounds: int, *,
                        laws, horizon: float, base_splits,
                        grid: Optional[GridSpec] = None,
                        eps: float = USED_PATH_EPS) -> list[EquilibriumRound]:
    """Day-to-day averaged row iteration.

    ``alpha`` of the demand follows the routed policy, the rest the
    non-routed one.  Round 0 simulates the base rows; each later round
    recomputes policy rows on the previous state and blends them into the
    simulated rows with weight 1/(round+1) (plain alternation oscillates on
    symmetric instances).  The reported gap averages the used-path time
    spread over the grid times with positive demand.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("routed fraction must lie in [0, 1]")
    if rounds < 1:
        raise ValueError("need at least one round")
    routed_policy, non_routed_policy = policies
    if not routed_policy.is_routed():
        raise ValueError(f"{routed_policy.kind!r} is not a routed kind")
    if non_routed_policy.is_routed():
        raise ValueError(f"{non_routed_policy.kind!r} is not a non-routed kind")
    kr = Commodity(group="routed", destination=demand.destination)
    kn = Commodity(group="non_routed", destination=demand.destination)
    commodities = [kr, kn]
    entry = demand.entry_link
    sources = SourceSchedule(entries={
        (entry[0], entry, kr): demand.rate.scaled(alpha),
        (entry[0], entry, kn): demand.rate.scaled(1.0 - alpha),
    })
    origin = demand.origin()

    splits0 = as_split_schedule(base_splits, commodities)

    def run(splits):
        return simulate(net, commodities, splits, sources, laws,
                        horizon=horizon, grid=grid)

    weighted = [(kr, alpha), (kn, 1.0 - alpha)]

    def measure(state):
        active = state.times[demand.rate.sample(state.times) > 0.0]
        if not active.size:
            active = state.times[:1]
        return float(np.mean(mixed_gap(state, active, origin,
                                       demand.destination, weighted,
                                       eps=eps)))

    state = run(splits0)
    reports = [EquilibriumRound(index=0, state=state, gap=measure(state),
                                used_fallback=False)]
    for r in range(1, rounds + 1):
        target_r, fb_r = policy_grid_splits(routed_policy, state, kr,
                                            origin=origin)
        target_n, fb_n = policy_grid_splits(non_routed_policy, state, kn,
                                            origin=origin)
        prev_rows = {key: val for key, val in state.split_rows.items()}
        kappa = 1.0 / (r + 1)
        blended = _blend_rows(prev_rows, {**target_r, **target_n}, kappa)
        new_state = run(GridSplits(blended))
        if len(new_state.times) != len(state.times):
            raise RuntimeError("time grid changed between rounds")
        state = new_state
        reports.append(EquilibriumRound(
            index=r, state=state, gap=measure(state),
            used_fallback=bool(fb_r.any() or fb_n.any())))
    return reports
