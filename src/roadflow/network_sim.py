"""Explicit multi-commodity simulation on an acyclic road network.

Every link carries the same uniform cell grid and shares one global time
step.  A run advances a batch of members: runs on the same network,
laws, windows, grid, horizon and step count that differ in their split
rows and sources.  The members lead the link axis, member-major, so the
density state has shape ``(members × links, slots, commodities, cells)``,
each member's links in topological order, and each time step is a fixed
number of array operations on the ``(members × links, commodities,
cells)`` slice of every member at once:

* the aggregate density is the sum over commodities, and each link's
  windowed mass is its row sum (averaging windows have constant bounds,
  so the windowed mass does not depend on position; links with partial
  windows interpolate their cumulative mass);
* every link's speed comes from one elementwise expression in per-link
  law coefficients (laws without coefficients are called per link), and
  its outflux is the speed times the last cell's densities;
* the junction exchange sums each node's in-link outfluxes in
  ``net.in_links`` order from ``0.0``, absorbs the totals at the
  destinations, and spreads them over the out-links with precomputed
  turning fractions;
* one conservative upwind update advances every link and commodity with
  its link's shared speed.

Junction coupling is explicit: inflows at step ``m`` use outfluxes
evaluated on the state at step ``m``, so mass moves across a junction
with one step of lag and the per-commodity budget telescopes exactly.

Every reduction runs within one member's rows, so a member's values do
not depend on the batch it ran in.  :func:`simulate` is a batch of one
whose ``steps + 1`` slots keep the whole history, allocated step-major so
that each step's slice is contiguous; the per-link arrays of
:class:`NetworkState` are strided views into those blocks.
:class:`ArrivalSimulator` runs objective-only batches and returns only the
arrivals, equal bit for bit to each member's own :func:`simulate` run; it
restarts a batch from the history of a run it kept, at the first step
whose inputs differ.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import HorizonExceeded, NoPath, PathCapExceeded, SplitRowInvalid
from .network import (Commodity, Link, RoadNetwork, SourceSchedule,
                      SplitSchedule, _check_grid_row, validate_acyclic)
from .nonlocal_solver import (GridSpec, NonlocalWindow, VelocityLaw,
                              _CflRetry, _retry, _sample_initial,
                              cumulative_mass, mass_row, upwind_step)

#: most simple paths one enumeration may return
PATH_CAP = 64
#: cells per link when a run gives no grid
_DEFAULT_CELLS = 100


class GridSplits:
    """Turning fractions already sampled on the simulation grid.

    ``rows`` maps ``(node, commodity)`` to an array of shape
    ``(n_out_links, steps + 1)`` aligned with the grid returned by a previous
    :func:`simulate` call.  Used by day-to-day routing iterations.
    """

    def __init__(self, rows: Mapping[tuple[int, Commodity], np.ndarray]):
        self.rows = {key: np.asarray(val, dtype=float) for key, val in rows.items()}

    def has_row(self, node: int, commodity: Commodity) -> bool:
        return (node, commodity) in self.rows

    def grid_row(self, node: int, commodity: Commodity, times: np.ndarray,
                 out_links: Sequence[Link]) -> np.ndarray:
        row = self.rows[(node, commodity)]
        if row.shape != (len(out_links), len(times)):
            raise ValueError("grid split row does not match the simulation grid")
        return _check_grid_row(row, node, commodity, times)


@dataclass
class ArrivalRecord:
    """What the destinations absorbed during one run."""

    commodities: tuple[Commodity, ...]
    times: np.ndarray
    arrivals: dict       # commodity -> (steps+1,) absorbed flux at destination

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def cumulative_arrivals(self, commodity: Commodity) -> np.ndarray:
        """Arrived mass up to each time node (left Riemann of the flux)."""
        flux = self.arrivals[commodity]
        return np.concatenate(([0.0], np.cumsum(flux[:-1]) * self.dt))


@dataclass
class NetworkState(ArrivalRecord):
    """Full space-time record of one network run."""

    net: RoadNetwork
    cells: np.ndarray
    rho: dict            # link -> (steps+1, K, N)
    speeds: dict         # link -> (steps+1,)
    inflow: dict         # link -> (steps+1, K) boundary flux per commodity
    outflow: dict        # link -> (steps+1, K)
    split_rows: dict     # (node, commodity) -> (n_out, steps+1)
    source_grid: dict    # (link, commodity) -> (steps+1,)
    laws: dict           # link -> VelocityLaw used for that link
    windows: dict        # link -> (lower, upper) or None for whole link

    @property
    def dx(self) -> float:
        return 1.0 / len(self.cells)

    def step_index(self, t):
        """Index of the step holding time ``t``; an array of times gives an
        array of indices."""
        t_arr = np.asarray(t, dtype=float)
        inside = (self.times[0] <= t_arr) & (t_arr <= self.times[-1])
        if not inside.all():
            bad = t if t_arr.ndim == 0 else t_arr[~inside][0]
            raise HorizonExceeded(f"t={bad} outside the simulated horizon")
        idx = np.minimum(np.searchsorted(self.times, t_arr, side="right") - 1,
                         len(self.times) - 2)
        return int(idx) if idx.ndim == 0 else idx

    def windowed_mass(self, link: Link, index):
        """Mass inside the link's averaging window at time index ``index``,
        or at each index of an array of them."""
        return _window_mass(self.rho[link][index].sum(axis=-2),
                            self.windows.get(link), self.dx)

    def mass_report(self) -> dict:
        """Per-commodity :func:`mass_row`, the destinations' absorbed mass
        as what exited."""
        report = {}
        dt = self.dt
        for k_idx, commodity in enumerate(self.commodities):
            injected = 0.0
            for (link, com), series in self.source_grid.items():
                if com == commodity:
                    injected += float(series[:-1].sum() * dt)
            stored0 = sum(float(self.rho[a][0, k_idx].sum() * self.dx)
                          for a in self.net.links)
            stored1 = sum(float(self.rho[a][-1, k_idx].sum() * self.dx)
                          for a in self.net.links)
            arrived = float(self.arrivals[commodity][:-1].sum() * dt)
            report[commodity] = mass_row(stored0, injected, arrived, stored1)
        return report


def _window_mass(rows: np.ndarray, bounds, dx: float):
    """Mass inside the constant window ``bounds`` (``None`` for the whole
    link) of every row of a ``(..., cells)`` block; each value equals
    ``np.interp`` of its row's cumulative mass at the bounds bit for bit."""
    if bounds is None:
        return rows.sum(axis=-1) * dx
    edges, cum = cumulative_mass(rows, dx)
    return (_interp_rows(bounds[1], edges, cum)
            - _interp_rows(bounds[0], edges, cum))


def _interp_rows(x: float, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, row)`` for every row of ``fp``, at one point ``x``
    inside ``[xp[0], xp[-1]]``, with the arithmetic ``np.interp`` uses."""
    j = int(np.searchsorted(xp, x, side="right")) - 1
    if j == len(xp) - 1 or xp[j] == x:
        return fp[..., j]
    slope = (fp[..., j + 1] - fp[..., j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[..., j]


def _resolve_windows(net: RoadNetwork, windows) -> dict:
    resolved = {}
    for link in net.links:
        win = None
        if windows is not None:
            spec = windows.get(link) if isinstance(windows, Mapping) else windows
            if spec is not None:
                if isinstance(spec, NonlocalWindow):
                    if callable(spec.lower) or callable(spec.upper):
                        raise ValueError(
                            "network links require constant window bounds")
                    lo = float(spec.lower)
                    up = 1.0 if spec.upper is None else float(spec.upper)
                else:
                    lo, up = (float(spec[0]), float(spec[1]))
                if not 0.0 <= lo <= up <= 1.0:
                    raise ValueError(f"window bounds {lo}, {up} outside the link")
                if not (lo == 0.0 and up == 1.0):
                    resolved[link] = (lo, up)
                    continue
        resolved[link] = None  # whole link
    return resolved


def _time_steps(laws: Iterable[VelocityLaw], horizon: float, grid: GridSpec,
                budget: float) -> int:
    """Time steps of a run before any CFL halving: the CFL step of the
    largest speed the laws reach on ``[0, horizon]`` with at most ``budget``
    mass on a link.  The top speed of a nonincreasing law is its speed at
    zero mass, so for those the budget does not enter."""
    dx = 1.0 / grid.cells
    vmax = max([law.max_speed(horizon, budget) for law in laws] + [1e-9])
    return max(4, int(math.ceil(horizon * vmax / (grid.cfl * dx))))


def _checked_steps(law_map: Mapping[Link, VelocityLaw], horizon: float,
                   grid: GridSpec, budget: float) -> int:
    """Check every link's law up to ``budget`` mass, then size the step."""
    for law in law_map.values():
        law.check(horizon, budget)
    return _time_steps(law_map.values(), horizon, grid, budget)


def _setup(net: RoadNetwork, commodities, laws, horizon: float,
           grid: GridSpec | None, windows) -> tuple:
    """What a run fixes before any demand: grid, commodities, links in
    topological order, per-link laws and windows, and cell centres."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    grid = grid or GridSpec(cells=_DEFAULT_CELLS)
    commodities = tuple(commodities)
    if len(set(commodities)) != len(commodities):
        raise ValueError("duplicate commodities")
    topo_links = validate_acyclic(net)
    law_map = {a: (laws[a] if isinstance(laws, Mapping) else laws)
               for a in net.links}
    window_map = _resolve_windows(net, windows)
    centers = (np.arange(grid.cells) + 0.5) * (1.0 / grid.cells)
    return grid, commodities, topo_links, law_map, window_map, centers


def simulate(net: RoadNetwork, commodities: Sequence[Commodity],
             splits: SplitSchedule | GridSplits, sources: SourceSchedule,
             laws: VelocityLaw | Mapping[Link, VelocityLaw], *,
             horizon: float, grid: GridSpec | None = None,
             initial_density: Optional[Mapping] = None,
             windows=None) -> NetworkState:
    """Run the network on ``[0, horizon]``.

    ``laws`` is one velocity law for every link or a per-link mapping.
    ``initial_density`` maps ``(link, commodity)`` to cell values, one
    value for every cell, or a callable of position.  The time step is
    sized from the sampled maximum speed and halved on an observed CFL
    violation, at most ``MAX_DT_HALVINGS`` times.
    """
    grid, commodities, topo_links, law_map, window_map, centers = _setup(
        net, commodities, laws, horizon, grid, windows)
    sources.validate(net, commodities)
    dx = 1.0 / grid.cells

    init = {}
    total_initial = 0.0
    if initial_density:
        for (link, commodity), profile in initial_density.items():
            if link not in net.links:
                raise ValueError(f"initial density on unknown link {link}")
            if commodity not in commodities:
                raise ValueError("initial density for undeclared commodity")
            if not net.link_leads_to(link, commodity.destination):
                raise SplitRowInvalid(
                    f"initial {commodity.label()} mass on link {link} could "
                    "never arrive; refusing the scenario")
            vals = _sample_initial(profile, centers)
            init[(link, commodity)] = vals
            total_initial += float(vals.sum() * dx)

    budget = total_initial + sum(sources.total(k, 0.0, horizon) for k in commodities)
    steps = _checked_steps(law_map, horizon, grid, budget)
    return _retry(steps, [0], lambda n, _: [_run(
        net, commodities, splits, sources, law_map, window_map, horizon, n,
        centers, init, topo_links)])[0]


def _run(net, commodities, splits, sources, law_map, window_map, horizon,
         steps, centers, init, topo_links) -> NetworkState:
    """One full-state run: a batch of one member whose density history is
    the ``(links, steps + 1, commodities, cells)`` view of a step-major
    block, as are the speed, inflow and outflow records."""
    plan = _StepPlan(net, commodities, law_map, window_map, horizon, steps,
                     centers, topo_links)
    split_rows, source_grid, frac, src, need = plan.member(splits, sources)
    pos = plan.pos
    n_l, n_k = len(topo_links), len(commodities)
    rho = _mapped_zeros((steps + 1, n_l, n_k, len(centers))).swapaxes(0, 1)
    for (link, commodity), vals in init.items():
        rho[pos[link], 0, plan.k_index[commodity]] = vals
    speeds = np.zeros((steps + 1, n_l)).T
    inflow = np.zeros((steps + 1, n_l, n_k)).swapaxes(0, 1)
    outflow = np.zeros((steps + 1, n_l, n_k)).swapaxes(0, 1)
    totals = plan.advance(frac, src, need, rho, (speeds, inflow, outflow))
    arrivals = plan.arrivals(totals)[0]
    return NetworkState(
        net=net, commodities=commodities, times=plan.times, cells=centers,
        rho={a: rho[pos[a]] for a in net.links},
        speeds={a: speeds[pos[a]] for a in net.links},
        inflow={a: inflow[pos[a]] for a in net.links},
        outflow={a: outflow[pos[a]] for a in net.links},
        arrivals={k: arrivals[i] for i, k in enumerate(commodities)},
        split_rows=split_rows, source_grid=source_grid,
        laws=dict(law_map), windows=dict(window_map))


class _StepPlan:
    """What every member of a run with ``steps`` time steps shares: the
    time grid, the junction incidence and the per-link law coefficients,
    and the one time loop."""

    def __init__(self, net, commodities, law_map, window_map, horizon, steps,
                 centers, topo_links):
        self.net, self.commodities, self.steps = net, commodities, steps
        self.times = np.linspace(0.0, horizon, steps + 1)
        self.dt = self.times[1] - self.times[0]
        self.cells = len(centers)
        self.pos = {a: i for i, a in enumerate(topo_links)}
        self.k_index = {k: i for i, k in enumerate(commodities)}
        nodes = net.nodes
        self.node_pos = {v: i for i, v in enumerate(nodes)}
        n_l = len(topo_links)
        # junction incidence: each node's in-links in ``net.in_links``
        # order, padded with the index of a zero row
        width = max(len(net.in_links(v)) for v in nodes)
        self.in_idx = np.full((len(nodes), width), n_l)
        for i, v in enumerate(nodes):
            self.in_idx[i, :len(net.in_links(v))] = [self.pos[a]
                                                     for a in net.in_links(v)]
        self.tail = np.array([self.node_pos[a[0]] for a in topo_links])
        # links whose speed is one elementwise expression of the windowed mass
        self.coefficients = np.array(
            [law_map[a].coefficients or (1.0, 0.0, 0.0, 0.0)
             for a in topo_links]).T
        self.custom = [(i, law_map[a]) for i, a in enumerate(topo_links)
                       if law_map[a].coefficients is None]
        self.partial = [(i, window_map[a]) for i, a in enumerate(topo_links)
                        if window_map[a] is not None]

    def row_keys(self, has_row) -> list:
        """The node-major (node, commodity) pairs whose split rows a run
        reads: every junction other than the destination that reaches it,
        where ``has_row(node, commodity)`` holds (a junction without a row
        is tolerated while no flow arrives there)."""
        net = self.net
        return [(node, k) for node in net.nodes if net.out_links(node)
                for k in self.commodities
                if node != k.destination and node in net.reaches(k.destination)
                and has_row(node, k)]

    def member(self, splits, sources) -> tuple:
        """One member's rows and sources sampled on the time grid,
        ``split_rows`` and ``source_grid``, then their :meth:`fill`."""
        times = self.times
        split_rows = {key: splits.grid_row(*key, times,
                                           self.net.out_links(key[0]))
                      for key in self.row_keys(splits.has_row)}
        # per-step average rates, so the injected total is the exact series
        # integral regardless of where the breakpoints fall on the grid
        source_grid = {(link, commodity): np.concatenate((
            series.integral(times[:-1], times[1:]) / self.dt, [0.0]))
            for (_, link, commodity), series in sources.items()}
        return (split_rows, source_grid) + self.fill(split_rows, source_grid)

    def fill(self, split_rows: dict, source_grid: dict) -> tuple:
        """``frac[m, l, k]`` (the share of commodity k at link l's tail sent
        onto l), ``src[m, l, k]``, and ``need``, the node-major (node,
        commodity) pairs where arriving flow is an error: a sink that is
        not the destination, or a junction without a row."""
        net, commodities = self.net, self.commodities
        shape = (self.steps + 1, len(self.pos), len(commodities))
        frac = np.zeros(shape)
        for (node, commodity), row in split_rows.items():
            for i, link in enumerate(net.out_links(node)):
                # refuse fractions routed toward nodes that cannot reach
                # the destination
                if not net.link_leads_to(link, commodity.destination):
                    if np.any(row[i] > 1e-12):
                        raise SplitRowInvalid(
                            f"fraction on link {link} routes "
                            f"{commodity.label()} toward a node that cannot "
                            "reach the destination")
                frac[:, self.pos[link], self.k_index[commodity]] = row[i]
        src = np.zeros(shape)
        for (link, commodity), vals in source_grid.items():
            src[:, self.pos[link], self.k_index[commodity]] = vals
        need = np.array([bool(net.in_links(v)) and v != k.destination
                         and (v, k) not in split_rows
                         for v in net.nodes for k in commodities])
        return frac, src, need

    def advance(self, frac, src, need, rho, record=None,
                start: int = 0) -> np.ndarray:
        """Advance a batch of members from step ``start`` to the last.

        The members are stacked along the link axis, member-major: row
        ``b * links + l`` is link ``l`` of member ``b``, so each member's
        rows keep the layout of a run of its own, every reduction runs
        along the same axes in the same order, and each member's values
        equal those of its own run bit for bit.  ``frac`` and ``src`` are
        ``(steps + 1, rows, commodities)`` and ``need`` is the members'
        node-major (node, commodity) flags, all stacked from
        :meth:`fill`.  ``rho`` is ``(rows, slots, commodities, cells)``
        with the densities of step ``start`` in its slot: step ``m`` lives
        in slot ``m % slots``, so ``steps + 1`` slots keep the history and
        2 keep only the current and next step.  ``record``, when given, is
        ``(speeds, inflow, outflow)`` shaped ``(rows, steps + 1[,
        commodities])`` and filled step by step.  Returns the flow into
        each node, ``(steps + 1, members × nodes, commodities)``, zero
        before ``start``.
        """
        n_rows, slots, n_k = rho.shape[:3]
        n_l, n_v = len(self.tail), len(self.node_pos)
        n_b = n_rows // n_l
        times, dt, steps = self.times, self.dt, self.steps
        dx = 1.0 / self.cells
        # each member's junctions read its own rows; padding reads row n_rows
        shift = np.arange(n_b)[:, None, None] * n_l
        in_idx = np.where(self.in_idx < n_l, self.in_idx + shift,
                          n_rows).reshape(-1, self.in_idx.shape[1])
        tail = (self.tail + np.arange(n_b)[:, None] * n_v).ravel()
        v0, gain, slope, low = np.tile(self.coefficients, n_b)
        partial = [(b * n_l + i, bounds) for b in range(n_b)
                   for i, bounds in self.partial]
        custom = [(b * n_l + i, law) for b in range(n_b)
                  for i, law in self.custom]
        guard = np.flatnonzero(need)
        totals = np.zeros((steps + 1, n_b * n_v, n_k))
        # face fluxes of every row and the zero row n_rows; outflux last
        faces = np.zeros((n_rows + 1, n_k, self.cells + 1))
        out_pad, flux = faces[..., -1], faces[:n_rows]
        right = flux[..., 1:]     # each cell's right face
        cfl_limit = dx * (1.0 + 1e-12)
        add, fmax = np.add.reduce, np.fmax.reduce   # fmax skips NaN, as > does

        for m in range(start, steps + 1):
            # speeds and outfluxes from the state at this step
            rho_m = rho[:, m % slots]
            agg = add(rho_m, axis=1)
            w = add(agg, axis=-1) * dx
            for i, bounds in partial:
                w[i] = _window_mass(agg[i], bounds, dx)
            c = np.maximum(v0 / (1.0 + gain * w) - slope * w, low)
            for i, law in custom:
                c[i] = float(law(times[m], float(w[i])))
            if fmax(c, initial=0.0) * dt > cfl_limit:
                over = (c * dt > cfl_limit).reshape(n_b, n_l)
                raise _CflRetry(np.flatnonzero(over.any(axis=1)))
            np.multiply(c[:, None, None], rho_m, out=right)
            # junction exchange: in-link outfluxes added in order to 0.0
            total = add(out_pad[in_idx], axis=1, initial=0.0, out=totals[m])
            if guard.size and fmax(total.ravel()[guard]) > 1e-12:
                hot = total.ravel()[guard] > 1e-12
                _junction_error(self.net, self.commodities,
                                guard[np.argmax(hot)] % (n_v * n_k))
            into = total[tail]
            inflow = src[m] + np.where(into > 0.0, frac[m] * into, 0.0)
            if record:
                record[0][:, m] = c
                record[1][:, m] = inflow
                record[2][:, m] = out_pad[:n_rows]
            # advance every link one step
            if m < steps:
                upwind_step(rho_m, None, inflow, dt, dx,
                            out=(rho[:, (m + 1) % slots], flux))
        return totals

    def arrivals(self, totals: np.ndarray) -> np.ndarray:
        """What the destinations absorb, ``(members, commodities, steps +
        1)``, from :meth:`advance`'s node inflows."""
        n_v = len(self.node_pos)
        by_member = totals.reshape(len(totals), -1, n_v, len(self.commodities))
        out = np.zeros((by_member.shape[1], len(self.commodities),
                        self.steps + 1))
        for i, k in enumerate(self.commodities):
            if k.destination in self.node_pos:
                out[:, i] = by_member[:, :, self.node_pos[k.destination], i].T
        return out


class ArrivalSimulator:
    """Objective-only runs of a batch of members on one network.

    Members share the network, commodities, laws, windows, grid and
    horizon, start empty, and differ in their split rows and sources: a
    ``(splits, sources)`` pair, or an object with the ``budget`` it
    injects and ``arrays(plan)``, its :meth:`_StepPlan.fill` on a plan's
    grid.  Members with the same step count advance together as one
    ``(members × links, commodities, cells)`` block through the time loop
    :func:`simulate` uses; a member that breaks the CFL bound reruns alone
    with the step halved, as :func:`simulate` would, so every member's
    arrivals equal its own :func:`simulate` run's bit for bit.  The laws
    are checked and the step sized once per distinct mass budget.

    A run keeps its members' histories until the next one; the history
    :meth:`stand_on` picks is the base.  A batch with the base's step count
    starts at the first step where any member's ``frac`` or ``src`` differs
    from the base's, from copies of the base's densities up to that step
    and its node inflows before it: the inputs before it are equal and
    every reduction stays within one member's rows, so each member's state
    up to there is the base's, bit for bit.
    """

    def __init__(self, net: RoadNetwork, commodities: Sequence[Commodity],
                 laws: VelocityLaw | Mapping[Link, VelocityLaw], *,
                 horizon: float, grid: GridSpec | None = None, windows=None):
        (self.grid, self.commodities, self.topo_links, self.law_map,
         self.window_map, self.centers) = _setup(net, commodities, laws,
                                                 horizon, grid, windows)
        self.net, self.horizon = net, horizon
        self._steps: dict[float, int] = {}       # mass budget -> steps
        self._last: list = []    # (steps, rho, totals, frac, src)
        self._base: Optional[tuple] = None

    def run(self, members: Sequence) -> list[ArrivalRecord]:
        """Arrivals of each member, in order."""
        members = list(members)
        groups: dict[int, list[int]] = {}
        for b, member in enumerate(members):
            if isinstance(member, tuple):
                splits, sources = member
                sources.validate(self.net, self.commodities)
                members[b] = member = SimpleNamespace(
                    budget=0.0 + sum(sources.total(k, 0.0, self.horizon)
                                     for k in self.commodities),
                    arrays=lambda plan, s=splits, q=sources: plan.member(
                        s, q)[2:])
            if member.budget not in self._steps:
                self._steps[member.budget] = _checked_steps(
                    self.law_map, self.horizon, self.grid, member.budget)
            groups.setdefault(self._steps[member.budget], []).append(b)
        done: dict = {}
        for steps, group in groups.items():
            done.update(_retry(steps, group, lambda n, part: self._advance(
                n, [members[b] for b in part])))
        self._last = [done[b][1] for b in range(len(members))]
        return [done[b][0] for b in range(len(members))]

    def stand_on(self, member: int) -> None:
        """Make the history of the last run's ``member``-th member the
        base."""
        self._base = self._last[member]

    def _advance(self, steps: int, members: list) -> list:
        """The arrivals and history of each of ``members``, advanced
        together with ``steps`` steps."""
        plan = _StepPlan(self.net, self.commodities, self.law_map,
                         self.window_map, self.horizon, steps, self.centers,
                         self.topo_links)
        parts = [member.arrays(plan) for member in members]
        base = self._base if self._base and self._base[0] == steps else None
        start = min(_restart(base, *p[:2]) for p in parts) if base else 0
        n_b, n_v = len(members), len(plan.node_pos)
        # step-major, so each step's block is contiguous for the loop
        rho = np.empty((steps + 1, n_b, len(self.topo_links),
                        len(self.commodities), len(self.centers)))
        rho[:start + 1] = base[1][:start + 1, None] if base else 0.0
        # members side by side along the link axis; need along its only one
        frac, src, need = map(np.hstack, zip(*parts))
        totals = plan.advance(
            frac, src, need,
            rho.reshape(steps + 1, -1, *rho.shape[3:]).swapaxes(0, 1),
            start=start)
        by_member = totals.reshape(steps + 1, n_b, n_v, -1)
        if base:
            by_member[:start] = base[2][:start, None]
        return [(ArrivalRecord(commodities=self.commodities, times=plan.times,
                               arrivals={k: arrivals[i] for i, k in
                                         enumerate(self.commodities)}),
                 (steps, rho[:, b], by_member[:, b], *parts[b][:2]))
                for b, arrivals in enumerate(plan.arrivals(totals))]


def _restart(base: tuple, frac: np.ndarray, src: np.ndarray) -> int:
    """The first step whose ``frac`` or ``src`` differ from the history
    ``base``'s, bit for bit, or its last step if none does.  A member whose
    ``need`` differs has a row where the base has none or the reverse, and
    rows sum to 1, so its ``frac`` differs from step 0."""
    steps, _, _, frac0, src0 = base
    differs = ((frac.view(np.int64) != frac0.view(np.int64))
               | (src.view(np.int64) != src0.view(np.int64)))
    first = np.flatnonzero(differs.reshape(steps + 1, -1).any(axis=1))
    return int(first[0]) if first.size else steps


def _mapped_zeros(shape: tuple) -> np.ndarray:
    """A zeroed float64 array on pages mapped for it alone, unmapped when
    the last view goes.  Freeing a block of several MB that ``malloc``
    mapped raises glibc's dynamic mmap threshold to its size, after which
    the heap keeps up to twice that unreturned: on the ``day-to-day``
    benchmark peak RSS was 2.4 MB higher with ``np.zeros``."""
    count = math.prod(shape)
    pages = mmap.mmap(-1, max(8 * count, 1))
    return np.frombuffer(pages, dtype=float, count=count).reshape(shape)


def _junction_error(net: RoadNetwork, commodities, flat: int):
    """Raise for flow at the ``flat``-th (node, commodity) pair."""
    i, k = divmod(int(flat), len(commodities))
    node, commodity = net.nodes[i], commodities[k]
    if not net.out_links(node):
        raise SplitRowInvalid(
            f"{commodity.label()} flow reaches sink node {node} "
            "that is not its destination")
    raise SplitRowInvalid(
        f"no split row at node {node} for {commodity.label()} "
        "but flow arrives there")


def enumerate_paths(net: RoadNetwork, origin: int, destination: int,
                    allowed_links: Optional[set] = None) -> list[tuple[Link, ...]]:
    """All simple link paths from ``origin`` to ``destination``.

    Raises :class:`NoPath` when none exists and :class:`PathCapExceeded`
    when more than ``PATH_CAP`` paths would be returned.
    """
    if origin == destination:
        raise ValueError("origin equals destination")
    paths: list[tuple[Link, ...]] = []

    def walk(node, prefix, visited):
        if node == destination:
            paths.append(tuple(prefix))
            if len(paths) > PATH_CAP:
                raise PathCapExceeded(f"more than {PATH_CAP} simple paths")
            return
        for link in net.out_links(node):
            if allowed_links is not None and link not in allowed_links:
                continue
            if link[1] in visited:
                continue
            walk(link[1], prefix + [link], visited | {link[1]})

    walk(origin, [], {origin})
    if not paths:
        raise NoPath(f"no path from {origin} to {destination}")
    return paths

