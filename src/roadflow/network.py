"""Directed road networks carrying multi-commodity flow.

A network is a finite set of nodes joined by directed unit-length links.
Traffic is split into commodities (routed or habit-driven, each bound for
one destination node).  At every junction a time-dependent row of turning
fractions distributes arriving flux over the outgoing links, and source
schedules inject new demand directly onto links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CycleDetected, Disconnected, SplitRowInvalid

Link = tuple[int, int]

#: tolerance for turning-fraction row sums; rows further from 1 are refused,
#: never renormalized silently
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Commodity:
    """One flow class bound for a single destination node.

    ``group`` is ``"routed"`` for populations steered by an information
    policy and ``"non_routed"`` for habit-driven background traffic.
    """

    group: str
    destination: int

    def __post_init__(self) -> None:
        if self.group not in ("routed", "non_routed"):
            raise ValueError(f"unknown commodity group {self.group!r}")

    def label(self) -> str:
        return f"{self.group}->{self.destination}"


class PiecewiseConstant:
    """Right-open step function of time, zero outside its segments."""

    def __init__(self, segments: Iterable[tuple[float, float, float]]):
        segs = sorted((float(a), float(b), float(v)) for a, b, v in segments)
        for a, b, _ in segs:
            if not b > a:
                raise ValueError(f"segment [{a}, {b}) is empty")
        for (_, b0, _), (a1, _, _) in zip(segs, segs[1:]):
            if a1 < b0 - 1e-15:
                raise ValueError("segments overlap")
        self.segments = segs
        self._starts = np.array([s[0] for s in segs])
        self._ends = np.array([s[1] for s in segs])
        self._values = np.array([s[2] for s in segs])

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        return cls([(-math.inf, math.inf, value)])

    def sample(self, t):
        """Value at time(s) ``t``; scalar in, scalar out."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._starts, t_arr, side="right") - 1
        idx_c = np.clip(idx, 0, len(self._starts) - 1)
        inside = (idx >= 0) & (t_arr >= self._starts[idx_c]) & (t_arr < self._ends[idx_c])
        out = np.where(inside, self._values[idx_c], 0.0)
        return out if out.ndim else float(out)

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral over ``[t0, t1]``."""
        lo = np.maximum(self._starts, t0)
        hi = np.minimum(self._ends, t1)
        return float(np.sum(np.clip(hi - lo, 0.0, None) * self._values))

    def scaled(self, factor: float) -> "PiecewiseConstant":
        return PiecewiseConstant([(a, b, v * factor) for a, b, v in self.segments])

    def covers(self, t):
        """True when some segment contains ``t`` (data exists there);
        scalar in, scalar out."""
        t_arr = np.asarray(t, dtype=float)
        inside = np.zeros(t_arr.shape, dtype=bool)
        for a, b, _ in self.segments:
            inside |= (a <= t_arr) & (t_arr < b)
        return inside if inside.ndim else bool(inside)

    def is_nonnegative(self) -> bool:
        return bool(np.all(self._values >= 0.0))


class RoadNetwork:
    """Immutable directed graph of unit-length links.

    Nodes are integers; links are ordered node pairs (no self loops, no
    parallel links).  Destination reachability is memoized because routing
    validity checks consult it for every junction row.
    """

    def __init__(self, nodes: Iterable[int], links: Iterable[Link]):
        self.nodes: tuple[int, ...] = tuple(sorted(set(int(v) for v in nodes)))
        node_set = set(self.nodes)
        seen: list[Link] = []
        for tail, head in links:
            link = (int(tail), int(head))
            if link[0] == link[1]:
                raise ValueError(f"self loop at node {link[0]}")
            if link[0] not in node_set or link[1] not in node_set:
                raise ValueError(f"link {link} uses an unknown node")
            if link in seen:
                raise ValueError(f"duplicate link {link}")
            seen.append(link)
        self.links: tuple[Link, ...] = tuple(seen)
        self._out: dict[int, tuple[Link, ...]] = {v: () for v in self.nodes}
        self._in: dict[int, tuple[Link, ...]] = {v: () for v in self.nodes}
        for link in self.links:
            self._out[link[0]] = self._out[link[0]] + (link,)
            self._in[link[1]] = self._in[link[1]] + (link,)
        self._reach_cache: dict[int, frozenset[int]] = {}

    def out_links(self, node: int) -> tuple[Link, ...]:
        return self._out[node]

    def in_links(self, node: int) -> tuple[Link, ...]:
        return self._in[node]

    def reaches(self, destination: int) -> frozenset[int]:
        """Nodes from which ``destination`` is reachable (itself included)."""
        cached = self._reach_cache.get(destination)
        if cached is not None:
            return cached
        seen = {destination}
        stack = [destination]
        while stack:
            v = stack.pop()
            for tail, _ in self._in[v]:
                if tail not in seen:
                    seen.add(tail)
                    stack.append(tail)
        result = frozenset(seen)
        self._reach_cache[destination] = result
        return result

    def link_leads_to(self, link: Link, destination: int) -> bool:
        """True when traffic on ``link`` can still arrive at ``destination``."""
        return link[1] == destination or link[1] in self.reaches(destination)

    def __repr__(self) -> str:
        return f"RoadNetwork(nodes={len(self.nodes)}, links={len(self.links)})"


def validate_acyclic(net: RoadNetwork) -> list[Link]:
    """Check connectivity and acyclicity; return links in topological order.

    The order lists every link after all links feeding its tail node.
    Raises :class:`Disconnected` or :class:`CycleDetected` (with one witness
    cycle attached).
    """
    if not net.nodes:
        raise Disconnected("network has no nodes")
    # weak connectivity
    seen = {net.nodes[0]}
    stack = [net.nodes[0]]
    while stack:
        v = stack.pop()
        for link in net.out_links(v) + net.in_links(v):
            for w in link:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    if len(seen) != len(net.nodes):
        missing = sorted(set(net.nodes) - seen)
        raise Disconnected(f"nodes unreachable from node {net.nodes[0]}: {missing}")

    indeg = {v: len(net.in_links(v)) for v in net.nodes}
    frontier = [v for v in net.nodes if indeg[v] == 0]
    order: list[int] = []
    while frontier:
        frontier.sort()
        v = frontier.pop(0)
        order.append(v)
        for _, head in net.out_links(v):
            indeg[head] -= 1
            if indeg[head] == 0:
                frontier.append(head)
    if len(order) != len(net.nodes):
        raise CycleDetected(_find_cycle(net, {v for v in net.nodes if indeg[v] > 0}))

    rank = {v: i for i, v in enumerate(order)}
    return sorted(net.links, key=lambda link: (rank[link[0]], rank[link[1]]))


def _find_cycle(net: RoadNetwork, residual: set[int]) -> list[int]:
    """Walk forward inside the residual node set until a node repeats."""
    start = min(residual)
    path = [start]
    index = {start: 0}
    v = start
    while True:
        v = next(head for _, head in net.out_links(v) if head in residual)
        if v in index:
            return path[index[v]:] + [v]
        index[v] = len(path)
        path.append(v)


class SplitSchedule:
    """Turning-fraction rows per (junction, commodity) over time.

    ``rows`` maps ``(node, commodity)`` to ``{out_link: PiecewiseConstant}``.
    Missing entries sample as zero.  Rows must sum to one over the outgoing
    links of the junction wherever the commodity can be present; rows that
    do not are refused, never renormalized.
    """

    def __init__(self, rows: Mapping[tuple[int, Commodity], Mapping[Link, PiecewiseConstant]]):
        self._rows = {key: dict(entry) for key, entry in rows.items()}

    def entries(self, node: int, commodity: Commodity) -> dict[Link, PiecewiseConstant]:
        return self._rows.get((node, commodity), {})

    def has_row(self, node: int, commodity: Commodity) -> bool:
        return bool(self._rows.get((node, commodity)))

    def grid_row(self, node: int, commodity: Commodity, times: np.ndarray,
                 out_links: Sequence[Link]) -> np.ndarray:
        """Row sampled on a whole time grid, shape ``(n_out, len(times))``."""
        entry = self.entries(node, commodity)
        out = np.zeros((len(out_links), len(times)))
        for i, a in enumerate(out_links):
            if a in entry:
                out[i] = entry[a].sample(times)
        sums = out.sum(axis=0)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad) or np.any(out < -ROW_SUM_TOL):
            k = int(np.argmax(bad)) if np.any(bad) else 0
            raise SplitRowInvalid(
                f"row at node {node} for {commodity.label()} sums to "
                f"{sums[k]:.17g} at t={times[k]:.6g} (must be 1 within {ROW_SUM_TOL})")
        return out


def as_split_schedule(rows, commodities: Sequence[Commodity]) -> SplitSchedule:
    """Split rows as a schedule.

    A :class:`SplitSchedule` is returned as it is and ``None`` gives the
    empty schedule.  Commodity-agnostic rows ``{node: {out_link: value}}``
    apply to every commodity; each value is a :class:`PiecewiseConstant`
    or a number held for all time.
    """
    if isinstance(rows, SplitSchedule):
        return rows
    expanded = {}
    for v, entry in (rows or {}).items():
        series = {a: (val if isinstance(val, PiecewiseConstant)
                      else PiecewiseConstant.constant(float(val)))
                  for a, val in entry.items()}
        for k in commodities:
            expanded[(v, k)] = series
    return SplitSchedule(expanded)


class SourceSchedule:
    """Demand injected directly onto links, per commodity.

    ``entries`` maps ``(node, link, commodity)`` to a nonnegative flux
    series; ``node`` must be the tail of ``link``.
    """

    def __init__(self, entries: Mapping[tuple[int, Link, Commodity], PiecewiseConstant]):
        self._entries: dict[tuple[int, Link, Commodity], PiecewiseConstant] = {}
        for (node, link, commodity), series in entries.items():
            if link[0] != node:
                raise ValueError(f"source at node {node} must feed a link leaving it, got {link}")
            if not series.is_nonnegative():
                raise ValueError(f"negative source rate at node {node} on {link}")
            self._entries[(node, link, commodity)] = series

    def items(self):
        return self._entries.items()

    def total(self, commodity: Commodity, t0: float, t1: float) -> float:
        return sum(series.integral(t0, t1)
                   for (_, _, com), series in self._entries.items() if com == commodity)

    def validate(self, net: RoadNetwork, commodities: Sequence[Commodity]) -> None:
        """Sources must feed links from which the destination stays reachable."""
        for (node, link, commodity), _ in self._entries.items():
            if link not in net.links:
                raise ValueError(f"source on unknown link {link}")
            if commodity not in commodities:
                raise ValueError(f"source for undeclared commodity {commodity.label()}")
            if not net.link_leads_to(link, commodity.destination):
                raise SplitRowInvalid(
                    f"source on link {link} strands {commodity.label()}: "
                    "destination unreachable from the link head")
