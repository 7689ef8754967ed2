"""Explicit multi-commodity simulation on an acyclic road network.

Every link carries the same uniform cell grid and shares one global time
step.  The state is one block of shape ``(links, steps + 1, commodities,
cells)``, links in topological order, and each time step is a fixed
number of array operations on the ``(links, commodities, cells)`` slice:

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
The per-link arrays of :class:`NetworkState` are views into the blocks.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (CflViolated, HorizonExceeded, NoPath, PathCapExceeded,
                     SplitRowInvalid)
from .network import (Commodity, Link, RoadNetwork, SourceSchedule,
                      SplitSchedule, _check_grid_row, validate_acyclic)
from .nonlocal_solver import (MAX_DT_HALVINGS, GridSpec, NonlocalWindow,
                              VelocityLaw, _CflRetry, _sample_initial,
                              cumulative_mass, upwind_step)

#: default cap on enumerated simple paths
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
class NetworkState:
    """Full space-time record of one network run."""

    net: RoadNetwork
    commodities: tuple[Commodity, ...]
    times: np.ndarray
    cells: np.ndarray
    rho: dict            # link -> (steps+1, K, N)
    speeds: dict         # link -> (steps+1,)
    inflow: dict         # link -> (steps+1, K) boundary flux per commodity
    outflow: dict        # link -> (steps+1, K)
    arrivals: dict       # commodity -> (steps+1,) absorbed flux at destination
    split_rows: dict     # (node, commodity) -> (n_out, steps+1)
    source_grid: dict    # (link, commodity) -> (steps+1,)
    laws: dict           # link -> VelocityLaw used for that link
    windows: dict        # link -> (lower, upper) or None for whole link

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

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
        """Mass inside the link's averaging window at time index ``index``;
        an array of indices gives an array of masses, each equal to the
        scalar call bit for bit."""
        idx = np.asarray(index)
        rows = self.rho[link][idx].sum(axis=-2)
        bounds = self.windows.get(link)
        if idx.ndim == 0:
            return _link_window_mass(rows, bounds, self.dx)
        if bounds is None:
            return rows.sum(axis=-1) * self.dx
        edges, cum = cumulative_mass(rows, self.dx)
        return (_interp_rows(bounds[1], edges, cum)
                - _interp_rows(bounds[0], edges, cum))

    def cumulative_arrivals(self, commodity: Commodity) -> np.ndarray:
        """Arrived mass up to each time node (left Riemann of the flux)."""
        flux = self.arrivals[commodity]
        return np.concatenate(([0.0], np.cumsum(flux[:-1]) * self.dt))

    def mass_report(self) -> dict:
        """Per-commodity budget: initial + injected - arrived - stored."""
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
            residual = stored0 + injected - arrived - stored1
            scale = max(stored0 + injected, stored1, 1e-30)
            report[commodity] = {
                "injected": injected, "arrived": arrived,
                "stored_initial": stored0, "stored_final": stored1,
                "residual": residual, "relative_residual": residual / scale,
            }
        return report


def _link_window_mass(row: np.ndarray, window_bounds, dx: float) -> float:
    """Aggregate windowed mass for one link (constant window bounds)."""
    if window_bounds is None:
        return float(row.sum() * dx)
    lo, up = window_bounds
    edges, cum = cumulative_mass(row, dx)
    return float(np.interp(up, edges, cum) - np.interp(lo, edges, cum))


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
    sources.validate(net, commodities)

    n = grid.cells
    dx = 1.0 / n
    centers = (np.arange(n) + 0.5) * dx

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
    for a in net.links:
        law_map[a].check(horizon, budget)
    steps = _time_steps(law_map.values(), horizon, grid, budget)

    for _ in range(MAX_DT_HALVINGS + 1):
        try:
            return _run(net, commodities, splits, sources, law_map, window_map,
                        horizon, steps, centers, init, topo_links)
        except _CflRetry:
            steps *= 2
    raise CflViolated(f"time step still too large after {MAX_DT_HALVINGS} halvings")


def _run(net, commodities, splits, sources, law_map, window_map, horizon,
         steps, centers, init, topo_links) -> NetworkState:
    times = np.linspace(0.0, horizon, steps + 1)
    dt = times[1] - times[0]
    n = len(centers)
    dx = 1.0 / n
    n_k = len(commodities)
    n_l = len(topo_links)
    k_index = {k: i for i, k in enumerate(commodities)}
    pos = {a: i for i, a in enumerate(topo_links)}
    nodes = net.nodes
    node_pos = {v: i for i, v in enumerate(nodes)}

    split_rows = {}
    for node in nodes:
        out = net.out_links(node)
        if not out:
            continue
        for commodity in commodities:
            if node == commodity.destination:
                continue
            if node not in net.reaches(commodity.destination):
                continue
            if not splits.has_row(node, commodity):
                continue  # tolerated while no flow arrives there
            split_rows[(node, commodity)] = splits.grid_row(node, commodity,
                                                            times, out)
    # frac[m, l, k]: the share of commodity k at link l's tail sent onto l;
    # refuse fractions routed toward nodes that cannot reach the destination
    frac = np.zeros((steps + 1, n_l, n_k))
    for (node, commodity), row in split_rows.items():
        for i, link in enumerate(net.out_links(node)):
            if not net.link_leads_to(link, commodity.destination):
                if np.any(row[i] > 1e-12):
                    raise SplitRowInvalid(
                        f"fraction on link {link} routes {commodity.label()} "
                        "toward a node that cannot reach the destination")
            frac[:, pos[link], k_index[commodity]] = row[i]

    # per-step average rates, so the injected total is the exact series
    # integral regardless of where the breakpoints fall on the grid
    source_grid = {}
    src = np.zeros((steps + 1, n_l, n_k))
    for (node, link, commodity), series in sources.items():
        vals = np.zeros(steps + 1)
        vals[:steps] = series.integral(times[:-1], times[1:]) / dt
        source_grid[(link, commodity)] = vals
        src[:, pos[link], k_index[commodity]] = vals

    # junction incidence: each node's in-links in ``net.in_links`` order,
    # padded with the index of a zero row
    width = max(len(net.in_links(v)) for v in nodes)
    in_idx = np.full((len(nodes), width), n_l)
    for i, v in enumerate(nodes):
        in_idx[i, :len(net.in_links(v))] = [pos[a] for a in net.in_links(v)]
    tail = np.array([node_pos[a[0]] for a in topo_links])
    # (node, commodity) pairs, node-major, where arriving flow is an error:
    # a sink that is not the destination, or a junction without a row
    guard = np.flatnonzero([
        bool(net.in_links(v)) and v != k.destination
        and (v, k) not in split_rows
        for v in nodes for k in commodities])

    # links whose speed is one elementwise expression of the windowed mass
    v0, gain, slope, low = np.array(
        [law_map[a].coefficients or (1.0, 0.0, 0.0, 0.0)
         for a in topo_links]).T
    custom = [(i, law_map[a]) for i, a in enumerate(topo_links)
              if law_map[a].coefficients is None]
    partial = [(i, window_map[a]) for i, a in enumerate(topo_links)
               if window_map[a] is not None]

    rho = _mapped_zeros((n_l, steps + 1, n_k, n))
    for (link, commodity), vals in init.items():
        rho[pos[link], 0, k_index[commodity]] = vals
    speeds = np.zeros((n_l, steps + 1))
    inflow = np.zeros((n_l, steps + 1, n_k))
    outflow = np.zeros((n_l, steps + 1, n_k))
    totals = np.zeros((steps + 1, len(nodes), n_k))   # flow into each node
    out_pad = np.zeros((n_l + 1, n_k))
    cfl_limit = dx * (1.0 + 1e-12)

    for m in range(steps + 1):
        # speeds and outfluxes from the state at this step
        rho_m = rho[:, m]
        agg = rho_m.sum(axis=1)
        w = agg.sum(axis=-1) * dx
        for i, bounds in partial:
            w[i] = _link_window_mass(agg[i], bounds, dx)
        c = np.maximum(v0 / (1.0 + gain * w) - slope * w, low)
        for i, law in custom:
            c[i] = float(law(times[m], float(w[i])))
        if (c * dt > cfl_limit).any():
            raise _CflRetry
        speeds[:, m] = c
        out_pad[:n_l] = c[:, None] * rho_m[:, :, -1]
        outflow[:, m] = out_pad[:n_l]
        # junction exchange: in-link outfluxes added in order to 0.0
        total = out_pad[in_idx].sum(axis=1, initial=0.0, out=totals[m])
        if guard.size:
            hot = total.ravel()[guard] > 1e-12
            if hot.any():
                _junction_error(net, commodities, guard[np.argmax(hot)])
        into = total[tail]
        inflow[:, m] = src[m] + np.where(into > 0.0, frac[m] * into, 0.0)
        # advance every link one step
        if m < steps:
            rho[:, m + 1] = upwind_step(rho_m, c[:, None, None],
                                        inflow[:, m], dt, dx)[0]

    # the destinations absorb what reaches them
    arrivals = np.zeros((n_k, steps + 1))
    for i, k in enumerate(commodities):
        if k.destination in node_pos:
            arrivals[i] = totals[:, node_pos[k.destination], i]
    return NetworkState(
        net=net, commodities=commodities, times=times, cells=centers,
        rho={a: rho[pos[a]] for a in net.links},
        speeds={a: speeds[pos[a]] for a in net.links},
        inflow={a: inflow[pos[a]] for a in net.links},
        outflow={a: outflow[pos[a]] for a in net.links},
        arrivals={k: arrivals[i] for i, k in enumerate(commodities)},
        split_rows=split_rows, source_grid=source_grid,
        laws=dict(law_map), windows=dict(window_map))


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
                    cap: int = PATH_CAP,
                    allowed_links: Optional[set] = None) -> list[tuple[Link, ...]]:
    """All simple link paths from ``origin`` to ``destination``.

    Raises :class:`NoPath` when none exists and :class:`PathCapExceeded`
    when more than ``cap`` paths would be returned.
    """
    if origin == destination:
        raise ValueError("origin equals destination")
    paths: list[tuple[Link, ...]] = []

    def walk(node, prefix, visited):
        if node == destination:
            paths.append(tuple(prefix))
            if len(paths) > cap:
                raise PathCapExceeded(f"more than {cap} simple paths")
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

