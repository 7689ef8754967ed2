"""Discrete platoon coordination by delay scheduling on a freight graph.

Vehicles follow fixed walks over directed hub-to-hub edges; each may
postpone its whole assignment by an integer number of steps inside a
personal window.  The shared cost rewards many vehicles occupying the
same edge at the same step, so aligning arrivals creates platooning
opportunities.  One vehicle at a time resamples its delay from a Gibbs
distribution over its window (log-linear learning); the total cost is a
potential for the induced game, which is what makes the stationary
distribution explicit and the dynamics convergent.

The count reward ``f`` must be vectorised over integer arrays and must
satisfy ``f(0) == 0`` so that unoccupied edge-steps contribute nothing.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ComputeError, InfeasibleDelay

#: brute force refuses joint spaces larger than this
BRUTE_FORCE_CAP = 10 ** 6
#: learning keeps each profile's rated rows when the joint space is at most this big
CACHE_JOINT_CAP = 4096
#: most count cells (delays x edges x horizon) one scoring block holds
SCORE_BLOCK = 1 << 16
#: most arrival pairs one block of ``pair_distance_histogram`` holds
PAIR_BLOCK = 1 << 14
#: learning draws this many (vehicle, uniform) pairs at a time
DRAW_BLOCK = 1 << 12
#: draws the learning look-ahead reads first after a move, doubled per chunk
LOOK_AHEAD = 8


def square_reward(z):
    """Default super-linear count reward."""
    return np.asarray(z, dtype=float) ** 2


class FreightGraph:
    """Directed hub graph with per-edge weights and integer dwell lengths.

    ``dwell`` is the number of consecutive time steps a vehicle occupies
    the edge; ``weight`` scales how much aligned occupancy on the edge is
    worth (long freeways count more).
    """

    def __init__(self, edges: Sequence[tuple[str, str, float, int]]):
        if not edges:
            raise ValueError("graph needs at least one edge")
        self.edges: tuple[tuple[str, str], ...] = ()
        tails, heads, weights, dwells = [], [], [], []
        seen = {}
        for tail, head, weight, dwell in edges:
            tail, head = str(tail), str(head)
            if (tail, head) in seen:
                raise ValueError(f"duplicate edge {tail}->{head}")
            if not weight > 0.0:
                raise ValueError(f"edge {tail}->{head} weight must be positive")
            if int(dwell) != dwell or dwell < 1:
                raise ValueError(f"edge {tail}->{head} dwell must be a positive integer")
            seen[(tail, head)] = len(tails)
            tails.append(tail)
            heads.append(head)
            weights.append(float(weight))
            dwells.append(int(dwell))
        self.edges = tuple(zip(tails, heads))
        self.vertices = tuple(dict.fromkeys(tails + heads))
        self.weights = np.array(weights)
        self.dwells = np.array(dwells, dtype=int)
        self._index = seen

    def __len__(self) -> int:
        return len(self.edges)

    def edge_index(self, tail: str, head: str) -> int:
        try:
            return self._index[(str(tail), str(head))]
        except KeyError:
            raise KeyError(f"no edge {tail}->{head}") from None


class CellTable(NamedTuple):
    """Delay ``lo + k`` of a window occupies ``cells[starts[k]:starts[k + 1]]``
    of a grid of ``size`` cells."""
    cells: np.ndarray
    starts: list
    size: int

    @property
    def block(self) -> np.ndarray:
        """The cells plus ``k * size``, each delay's row of a scoring block."""
        return self.cells + self.size * np.repeat(
            np.arange(len(self.starts) - 1), np.diff(self.starts))


class VehicleAssignment:
    """One vehicle's walk, delay window and delay cost.

    The walk is stored sparsely as parallel arrays: ``occupied_edges[k]``
    is the edge index occupied at step ``occupied_steps[k]`` when the
    vehicle runs undelayed.  A delay of ``tau`` shifts every occupied
    step by ``tau``; steps pushed outside ``[0, horizon)`` simply drop
    out of the occupancy counts.
    """

    def __init__(self, graph: FreightGraph, edge_seq: Sequence[int],
                 depart: int, window: tuple[int, int],
                 delay_cost: Optional[Callable[[int], float]] = None):
        edge_seq = [int(e) for e in edge_seq]
        if not edge_seq:
            raise ValueError("assignment needs at least one edge")
        for a, b in zip(edge_seq, edge_seq[1:]):
            if graph.edges[a][1] != graph.edges[b][0]:
                raise ValueError(
                    f"edges {graph.edges[a]} and {graph.edges[b]} do not chain into a walk")
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError("delay window is empty")
        if lo < 0:
            raise ValueError("delays are forward shifts, window must be nonnegative")
        self.edge_seq = tuple(edge_seq)
        self.depart = int(depart)
        self.window = (lo, hi)
        self.delay_cost = delay_cost

        dwells = graph.dwells[edge_seq]
        # entry step of each visited edge at zero delay
        self.entry_steps = self.depart + np.concatenate(([0], np.cumsum(dwells[:-1])))
        self.occupied_edges = np.repeat(np.array(edge_seq, dtype=int), dwells)
        self.occupied_steps = self.depart + np.arange(int(dwells.sum()))
        self._cell_tables: dict = {}

    @classmethod
    def from_hub_path(cls, graph: FreightGraph, hubs: Sequence[str], depart: int,
                      window: tuple[int, int],
                      delay_cost: Optional[Callable[[int], float]] = None
                      ) -> "VehicleAssignment":
        if len(hubs) < 2:
            raise ValueError("hub path needs at least two hubs")
        seq = [graph.edge_index(a, b) for a, b in zip(hubs, hubs[1:])]
        return cls(graph, seq, depart, window, delay_cost)

    def delays(self) -> np.ndarray:
        lo, hi = self.window
        return np.arange(lo, hi + 1)

    def delay_costs(self) -> np.ndarray:
        if self.delay_cost is None:
            return np.zeros(self.window[1] - self.window[0] + 1)
        return np.array([float(self.delay_cost(int(d))) for d in self.delays()])

    def check_delay(self, tau: int) -> None:
        lo, hi = self.window
        if not lo <= tau <= hi:
            raise InfeasibleDelay(f"delay {tau} outside window [{lo}, {hi}]")

    def _shifted_cells(self, delays: np.ndarray, horizon: int):
        """Flat cells ``edge * horizon + step`` of the walk, one row per
        delay, and the mask of the steps inside ``[0, horizon)``."""
        cols = self.occupied_steps + delays[:, None]
        keep = (cols >= 0) & (cols < horizon)
        return self.occupied_edges * horizon + cols, keep

    def cell_table(self, n_edges: int, horizon: int) -> CellTable:
        """The walk's cells at every delay of the window, built on first use
        (not when a scenario is built) and kept per grid shape.  A walk
        occupies each step once, so a fancy-index ``+=`` over one delay's
        cells equals ``np.add.at``."""
        key = (int(n_edges), int(horizon))
        table = self._cell_tables.get(key)
        if table is None:
            flat, keep = self._shifted_cells(self.delays(), key[1])
            starts = [0] + np.cumsum(keep.sum(axis=1)).tolist()
            table = CellTable(flat[keep], starts, key[0] * key[1])
            self._cell_tables[key] = table
        return table

    def cells(self, tau: int, n_edges: int, horizon: int) -> np.ndarray:
        """Flat cells of the walk at delay ``tau``, which may lie outside
        the window; steps shifted outside ``[0, horizon)`` drop out."""
        k = int(tau) - self.window[0]
        if 0 <= k <= self.window[1] - self.window[0]:
            table = self.cell_table(n_edges, horizon)
            return table.cells[table.starts[k]:table.starts[k + 1]]
        flat, keep = self._shifted_cells(np.array([int(tau)]), int(horizon))
        return flat[keep]


@dataclass(frozen=True)
class ScheduleState:
    """Joint delay profile plus the game parameters."""

    graph: FreightGraph
    assignments: tuple[VehicleAssignment, ...]
    tau: np.ndarray
    gamma: float = 1.0
    reward: Callable = square_reward
    temperature: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))
        tau = np.asarray(self.tau, dtype=int)
        if tau.shape != (len(self.assignments),):
            raise ValueError("one delay per vehicle required")
        object.__setattr__(self, "tau", tau)
        for veh, t in zip(self.assignments, tau):
            veh.check_delay(int(t))
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")
        if float(np.asarray(self.reward(np.array([0])))[0]) != 0.0:
            raise ValueError("count reward must vanish at zero occupancy")

    def cost(self) -> float:
        return coordination_cost(self.graph, self.assignments, self.tau,
                                 gamma=self.gamma, reward=self.reward)


def default_horizon(assignments: Sequence[VehicleAssignment]) -> int:
    """Smallest horizon containing every walk at its largest delay."""
    return max(int(v.occupied_steps[-1]) + v.window[1] + 1 for v in assignments)


def occupancy_counts(graph: FreightGraph,
                     assignments: Sequence[VehicleAssignment],
                     tau: Sequence[int], horizon: Optional[int] = None,
                     exclude: Optional[int] = None) -> np.ndarray:
    """Dense per-(edge, step) vehicle counts under the given delays.

    Steps shifted outside ``[0, horizon)`` do not contribute.  ``exclude``
    drops one vehicle, which is the view a querying vehicle receives.
    """
    horizon = default_horizon(assignments) if horizon is None else int(horizon)
    counts = np.zeros((len(graph), horizon), dtype=int)
    flat = counts.reshape(-1)
    for i, veh in enumerate(assignments):
        if i != exclude:
            flat[veh.cells(int(tau[i]), len(graph), horizon)] += 1
    return counts


def coordination_cost(graph: FreightGraph,
                      assignments: Sequence[VehicleAssignment],
                      tau: Sequence[int], *, gamma: float = 1.0,
                      reward: Callable = square_reward,
                      horizon: Optional[int] = None) -> float:
    """Total delay cost minus the weighted platooning reward."""
    tau = np.asarray(tau, dtype=int)
    for veh, t in zip(assignments, tau):
        veh.check_delay(int(t))
    counts = occupancy_counts(graph, assignments, tau, horizon)
    # the platooning term: -gamma * sum over edge-steps of w_e * reward(count);
    # with gamma 0 it is -0.0 even where the weighted sum overflows
    total = -0.0
    if gamma != 0.0:
        total = -float(gamma) * float(np.sum(graph.weights[:, None]
                                             * reward(counts)))
    return _plus_delay_costs(total, assignments, tau)


def _plus_delay_costs(total: float, assignments: Sequence[VehicleAssignment],
                      tau: Sequence[int]) -> float:
    """``total`` plus each vehicle's delay cost, added in vehicle order."""
    for veh, t in zip(assignments, tau):
        if veh.delay_cost is not None:
            total += float(veh.delay_cost(int(t)))
    return total


def conditional_scores(graph: FreightGraph, vehicle: VehicleAssignment,
                       counts_excl: np.ndarray, *, gamma: float,
                       reward: Callable = square_reward) -> np.ndarray:
    """``h_i(tau') + g(tau', others)`` for every delay in the window.

    ``counts_excl`` are the occupancy counts of the other vehicles; the
    private aggregation path produces the same matrix by decryption, so
    both paths share this evaluation bit for bit.  The window is scored
    in blocks of at most ``SCORE_BLOCK`` cells, one row of ``edges *
    horizon`` counts per delay, with one ``reward`` call per block.  Each
    weighted row is summed along its own contiguous axis, the pairwise
    order ``np.sum`` takes over one ``(edges, horizon)`` grid, so each
    platooning term equals the one ``coordination_cost`` takes of that
    delay's grid, bit for bit.
    """
    n_edges, horizon = counts_excl.shape
    size = n_edges * horizon
    scores = vehicle.delay_costs()
    if gamma == 0.0:
        return scores   # adding -0.0 platooning terms changes no bit
    table = vehicle.cell_table(n_edges, horizon)
    block = table.block
    weights = graph.weights[:, None]
    per = max(1, SCORE_BLOCK // size)
    for k0 in range(0, len(scores), per):
        k1 = min(k0 + per, len(scores))
        total = np.empty((k1 - k0, size), dtype=counts_excl.dtype)
        total[...] = counts_excl.reshape(-1)
        cells = block[table.starts[k0]:table.starts[k1]] - k0 * size
        total.reshape(-1)[cells] += 1
        r = reward(total.reshape(k1 - k0, n_edges, horizon))
        scores[k0:k1] += (-float(gamma)) * (weights * r).reshape(
            k1 - k0, -1).sum(axis=-1)
    return scores


def gibbs_row(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Cumulative Gibbs distribution over one window, overflow-guarded."""
    # the ufuncs behind ndarray.min, .cumsum and .sum, without the wrappers;
    # m - s is -(s - m) but for the sign of a zero, which exp maps to 1
    weights = np.exp((np.minimum.reduce(scores) - scores) / float(temperature))
    return np.add.accumulate(weights) / np.add.reduce(weights)


def _learning_draws(rng: np.random.Generator, n: int,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` pairs ``(rng.integers(n), rng.random())`` as two arrays, and
    ``rng`` left as those calls leave it.  From PCG64's ``random_raw``,
    ``integers`` is Lemire's multiply-shift (ACM TOMACS 2019) of the low
    half of a fresh word or of the high half it kept (``has_uint32``), and
    ``random`` is ``(w >> 11) * 2**-53``; a block with a draw Lemire
    rejects, or another generator, takes the scalar calls."""
    bitgen, state = rng.bit_generator, rng.bit_generator.state
    if type(bitgen) is np.random.PCG64 and 1 < n <= 2 ** 32:
        kept = state["has_uint32"]
        fresh = (np.arange(count) + kept) % 2 == 0
        ends = np.cumsum(1 + fresh)     # each pair's words end at its uniform
        words = bitgen.random_raw(int(ends[-1]))
        ints = words[ends[fresh] - 2]
        halves = np.append(np.full(kept, state["uinteger"], np.uint64),
                           np.stack([ints & 0xFFFFFFFF, ints >> 32], axis=1))
        scaled = halves[:count] * np.uint64(n)
        if not np.logical_or.reduce(scaled & 0xFFFFFFFF < 2 ** 32 % n):
            bitgen.state = dict(bitgen.state, has_uint32=(count + kept) % 2,
                                uinteger=int(halves[-1]))
            return ((scaled >> 32).astype(np.intp),
                    (words[ends - 1] >> 11) * 2.0 ** -53)
        bitgen.state = state
    draws = np.array([(rng.integers(n), rng.random()) for _ in range(count)])
    return draws[:, 0].astype(np.intp), draws[:, 1]


@dataclass
class LearningResult:
    trajectory: np.ndarray          # (iterations + 1, vehicles) delay profiles
    cost_trace: np.ndarray          # coordination cost after each iteration
    visits: dict                    # joint profile -> occurrence count, initial excluded
    best_tau: np.ndarray
    best_cost: float

    def visit_distribution(self) -> dict:
        total = sum(self.visits.values())
        return {k: v / total for k, v in self.visits.items()}


def joint_state_count(assignments: Sequence[VehicleAssignment]) -> int:
    n = 1
    for veh in assignments:
        n *= veh.window[1] - veh.window[0] + 1
        if n > BRUTE_FORCE_CAP:
            break
    return n


class _LiveGrid:
    """A grid over the edge-step cells, moved to each queried profile."""

    def __init__(self, state: ScheduleState, horizon: int):
        self.assignments = state.assignments
        self.shape = (len(state.graph), int(horizon))
        self.tau = state.tau.copy()
        self.grid = occupancy_counts(state.graph, state.assignments,
                                     self.tau, self.shape[1]).reshape(-1)

    def _sync(self, tau: np.ndarray) -> None:
        for j in (self.tau != tau).nonzero()[0]:
            self._move(j, int(tau[j]))


class _LiveCounts(_LiveGrid):
    """Edge-step counts of every vehicle; a query for vehicle ``i`` under
    ``tau`` returns the integers of ``occupancy_counts(..., exclude=i)``."""

    def _move(self, j: int, delay: int) -> None:
        # a walk holds each cell once, so a fancy-index += moves it
        self.grid[self.assignments[j].cells(int(self.tau[j]),
                                            *self.shape)] -= 1
        self.grid[self.assignments[j].cells(delay, *self.shape)] += 1
        self.tau[j] = delay

    def __call__(self, i: int, tau: np.ndarray) -> np.ndarray:
        self._sync(tau)
        counts = self.grid.copy()
        counts[self.assignments[i].cells(int(tau[i]), *self.shape)] -= 1
        return counts.reshape(self.shape)


class _LiveSums(_LiveGrid):
    """The integer platooning sum of every vehicle, for the square reward
    on integer edge weights ``w``.

    Built where ``_integer_cell_weights`` allows: then every term ``w *
    c**2`` of the platooning sum, and every partial sum of it, is an
    integer a float holds exactly, in any summation order.  The instance
    keeps ``total``, that sum at the kept profile, and the grid ``w * (2c
    + 1)``, what one more vehicle on a cell adds to it, with one more cell
    that stays 0.  ``_rate`` rates and keeps rows from the vehicles' own
    cells against the full grid, less their own overlap, bit for bit as
    ``conditional_scores`` rates the counts of the others; on a small game
    (``CACHE_JOINT_CAP``) ``memo`` keeps each profile's rows, and the grid
    moves to a profile only to rate a row there.
    """

    def __init__(self, state: ScheduleState, horizon: int,
                 weights: np.ndarray):
        super().__init__(state, horizon)
        self.gamma = float(state.gamma)
        self.temperature = float(state.temperature)
        self.total = int(weights @ (self.grid * self.grid))
        self.grid = np.append(weights * (2 * self.grid + 1), 0)
        self.double_weights = 2 * weights
        n = len(state.assignments)
        self.plans: list = [None] * n
        unrated = lambda: (np.full((2, n), np.nan), [None] * n)    # noqa: E731
        self.memo = (defaultdict(unrated) if joint_state_count(
            state.assignments) <= CACHE_JOINT_CAP else None)
        self.stay, self.kept = unrated()

    def _move(self, j: int, delay: int) -> None:
        # leaving takes the new w * (2c + 1) off, entering adds the old one
        vehicle = self.assignments[j]
        cells = vehicle.cells(int(self.tau[j]), *self.shape)
        self.grid[cells] -= self.double_weights[cells]
        self.total -= int(np.add.reduce(self.grid[cells]))
        cells = vehicle.cells(delay, *self.shape)
        self.total += int(np.add.reduce(self.grid[cells]))
        self.grid[cells] += self.double_weights[cells]
        self.tau[j] = delay
        if self.memo is None:   # a kept row is read only where stay is set
            self.stay[:] = np.nan

    def _plan(self, i: int) -> tuple:
        """Keep and return vehicle ``i``'s window start, delay costs,
        own-overlap band, and the gather with the segment lengths that sum
        the grid over its cells at each delay: each delay's cells and then
        the zero cell, between ``half`` segments of the zero cell alone at
        either end.  ``band[k, half + s]`` is those sums over twice the
        weights on the cells of delay ``k`` alone, at delay ``k + s``
        (delays ``len(walk)`` or more apart share no cell)."""
        vehicle = self.assignments[i]
        table = vehicle.cell_table(*self.shape)
        half = min(len(table.starts), len(vehicle.occupied_steps) + 1) - 2
        ends = [0] * half + table.starts + table.starts[-1:] * half
        gather = np.insert(table.cells, ends[1:], self.grid.size - 1)
        segs = np.array(ends[:-1]) + np.arange(len(ends) - 1)
        band = np.empty((len(table.starts) - 1, 2 * half + 1), dtype=np.int64)
        own = np.zeros_like(self.grid)
        for k in range(len(band)):
            cells = table.cells[table.starts[k]:table.starts[k + 1]]
            own[cells] = self.double_weights[cells]
            band[k] = np.add.reduceat(own[gather], segs)[k:k + 2 * half + 1]
            own[cells] = 0
        self.plans[i] = (vehicle.window[0], vehicle.delay_costs(), band,
                         gather, np.diff(ends) + 1)
        return self.plans[i]

    def _rate(self, vehicles) -> None:
        """Rate ``vehicles`` at the kept profile.  Keep each one's row ``(cum,
        scores, totals)``, its Gibbs row, ``conditional_scores`` and integer
        sums per delay, and ``stay[:, i]``, the uniforms ``[lower, upper)``
        that keep its delay; one gather and ``np.add.reduceat`` per shape."""
        stacks: dict = {}
        for i in vehicles:
            plan = self.plans[i] or self._plan(i)
            stacks.setdefault(plan[2].shape, []).append((i, *plan))
        for (width, span), rows in stacks.items():
            members, starts, costs, bands, gathers, lengths = zip(*rows)
            members, at = np.array(members), np.arange(len(rows))
            k = self.tau[members] - starts
            lengths = np.concatenate(lengths)
            sums = np.add.reduceat(self.grid[np.concatenate(gathers)],
                                   np.cumsum(lengths) - lengths).reshape(
                                       len(rows), -1)
            # the grid over each delay's cells less the vehicle's own
            # overlap with delay k: the sums with every other vehicle on it
            sums[at[:, None], k[:, None] + np.arange(span)] -= [
                band[kk] for band, kk in zip(bands, k.tolist())]
            totals = sums[:, span // 2:span // 2 + width]
            totals += (self.total - totals[at, k])[:, None]
            scores = np.array(costs) + (-self.gamma) * totals.astype(float)
            # a column of the transpose is one row, reduced along its
            # contiguous axis: the bits of gibbs_row on that row alone
            cum = gibbs_row(scores.T, self.temperature).T
            for r, i in enumerate(members.tolist()):
                self.kept[i] = (cum[r], scores[r], totals[r])
            lower = np.where(k > 0, cum[at, k - 1], -np.inf)
            # a row that is not finite stops the look-ahead where it is drawn
            lower[~np.logical_and.reduce(np.isfinite(scores), axis=1)] = np.inf
            self.stay[:, members] = lower, np.where(k < width - 1,
                                                    cum[at, k], np.inf)

    def next_move(self, tau: np.ndarray, picks: np.ndarray,
                  uniforms: np.ndarray, start: int) -> int:
        """The first draw from ``start`` on that moves its vehicle off its
        delay in ``tau`` or draws a row that is not finite, else
        ``len(picks)``; looks ahead ``LOOK_AHEAD`` draws, then twice as many
        and so on, rating (and keeping) the rows each chunk draws anew."""
        if self.memo is None:
            self._sync(tau)
        else:   # the grid moves to a profile only to rate a row there
            self.stay, self.kept = self.memo[tuple(tau.tolist())]
        size = LOOK_AHEAD
        while start < len(picks):
            drawn = picks[start:start + size]
            if len(fresh := drawn[np.isnan(self.stay[0, drawn])]):
                self._sync(tau)
                self._rate(dict.fromkeys(fresh.tolist()))
            u = uniforms[start:start + size]
            moved = ((u < self.stay[0, drawn])
                     | (u >= self.stay[1, drawn])).nonzero()[0]
            if len(moved):
                return start + int(moved[0])
            start, size = start + size, 2 * size
        return len(picks)


def _integer_cell_weights(state: ScheduleState,
                          horizon: int) -> Optional[np.ndarray]:
    """The edge weights as integers, one per flat edge-step cell, when
    ``_LiveSums`` holds the platooning sum exactly; else None."""
    weights = state.graph.weights
    if (state.reward is not square_reward or state.gamma == 0.0
            or not all(float(w).is_integer() for w in weights)):
        return None
    n = len(state.assignments)
    if sum(int(w) for w in weights) * horizon * n * n > 2 ** 53:
        return None
    return np.repeat(weights.astype(np.int64), horizon)


def drive_learning(state: ScheduleState, iterations: int,
                   rng: np.random.Generator,
                   counts_without: Union[Callable[[int, np.ndarray],
                                                  np.ndarray], _LiveSums],
                   *, horizon: int) -> LearningResult:
    """The log-linear learning loop behind every learning driver.

    Each iteration draws the vehicle index, then one uniform, so drivers
    given the same seed follow the same trajectory.  ``counts_without(i,
    tau)`` is the counts oracle: the edge-step counts of every vehicle but
    ``i`` under ``tau``, scored by ``conditional_scores`` every iteration.
    A ``_LiveSums`` in its place sends every iteration through its
    look-ahead (``next_move``): the iterations before the next move, which
    price no new best, are filled at once with the ``cost + 0.0`` each
    adds, and the move is played from the row the look-ahead kept, with the
    same bits, and its integer sums price the initial profile and each new
    best exactly.  Costs are over ``horizon``; an initial cost or a drawn
    row that is not finite has no Gibbs distribution: ``ComputeError``.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    n_vehicles = len(state.assignments)
    exact = isinstance(counts_without, _LiveSums)

    trajectory = np.empty((iterations + 1, n_vehicles), dtype=int)
    trajectory[0] = state.tau
    cost_trace = np.empty(iterations + 1)
    if exact:   # the kept sum prices the initial profile
        total = -float(state.gamma) * float(counts_without.total)
        cost = _plus_delay_costs(total, state.assignments, state.tau)
    else:
        cost = coordination_cost(state.graph, state.assignments, state.tau,
                                 gamma=state.gamma, reward=state.reward,
                                 horizon=horizon)
    if not math.isfinite(cost):
        raise ComputeError(f"the initial coordination cost is {cost}; gamma, "
                           "the edge weights or the delay costs are too large")
    cost_trace[0] = cost
    best_tau = state.tau.copy()
    best_cost = cost
    visits: dict = {}
    tau = state.tau.copy()

    step = 1
    while step <= iterations:
        at = (step - 1) % DRAW_BLOCK
        if at == 0:
            picks, uniforms = _learning_draws(
                rng, n_vehicles, min(DRAW_BLOCK, iterations + 1 - step))
        if exact:
            ahead = counts_without.next_move(tau, picks, uniforms, at) - at
            if ahead:
                trajectory[step:step + ahead] = tau
                cost_trace[step:step + ahead] = cost = cost + 0.0
                profile = tuple(tau.tolist())
                visits[profile] = visits.get(profile, 0) + ahead
                step, at = step + ahead, at + ahead
                if at == len(picks):
                    continue
        i = int(picks[at])
        if exact:   # a move, or a row that is not finite
            cum, scores, totals = counts_without.kept[i]
        else:
            scores = conditional_scores(state.graph, state.assignments[i],
                                        counts_without(i, tau),
                                        gamma=state.gamma, reward=state.reward)
            totals = None
        if not np.logical_and.reduce(np.isfinite(scores)):
            raise ComputeError(f"vehicle {i} scored a non-finite cost at "
                               f"iteration {step}; gamma, the edge weights "
                               "or the delay costs are too large")
        if not exact:
            cum = gibbs_row(scores, state.temperature)
        lo = state.assignments[i].window[0]
        k = min(int(cum.searchsorted(uniforms[at], side="right")),
                len(cum) - 1)
        # unilateral move, so the potential (= total cost) shifts by the
        # score difference of the moving vehicle
        cost += float(scores[k] - scores[int(tau[i]) - lo])
        tau[i] = lo + k
        trajectory[step] = tau
        cost_trace[step] = cost
        if cost < best_cost - 1e-12:
            if totals is None:      # block scoring
                exact_cost = coordination_cost(
                    state.graph, state.assignments, tau, gamma=state.gamma,
                    reward=state.reward, horizon=horizon)
            else:   # the same float: the sum is an exact integer
                exact_cost = _plus_delay_costs(
                    -float(state.gamma) * float(totals[k]),
                    state.assignments, tau)
            if exact_cost < best_cost:
                best_cost = exact_cost
                best_tau = tau.copy()
        profile = tuple(tau.tolist())
        visits[profile] = visits.get(profile, 0) + 1
        step += 1

    return LearningResult(trajectory, cost_trace, visits, best_tau, best_cost)


def run_learning(state0: ScheduleState, iterations: int, rng_seed: int,
                 *, horizon: Optional[int] = None) -> LearningResult:
    """Run log-linear learning; deterministic given the seed.

    The plaintext driver.  Occupancy counts are built once from the
    initial profile and then kept incrementally (``_LiveCounts``).  A row
    is scored as one block of delays, each summed in the order of a
    delay-by-delay ``np.sum`` (see ``conditional_scores``), so scores and
    trajectory are exactly those of a full rebuild.  With the square
    reward, ``gamma`` not 0, integer edge weights and ``sum(w) * horizon *
    vehicles**2 <= 2**53`` (the Sweden corridor), that sum is an exact
    integer in any order, and ``_LiveSums`` rates rows from the vehicles'
    own cells with the same bits, once per profile: the look-ahead rates
    the rows it draws together and jumps to the next move.  On small games
    (a joint space of at most ``CACHE_JOINT_CAP`` profiles) each profile's
    rated rows are kept for its next visit.
    """
    horizon = default_horizon(state0.assignments) if horizon is None else horizon
    weights = _integer_cell_weights(state0, horizon)
    live = (_LiveCounts(state0, horizon) if weights is None
            else _LiveSums(state0, horizon, weights))
    return drive_learning(state0, iterations, np.random.default_rng(rng_seed),
                          live, horizon=horizon)


def pair_distance_histogram(graph: FreightGraph,
                            assignments: Sequence[VehicleAssignment],
                            tau: Sequence[int],
                            horizon: Optional[int] = None) -> dict:
    """Per-edge histogram of |arrival-step difference| over vehicle pairs.

    Arrivals falling outside the horizon are dropped, matching the
    occupancy truncation; two arrivals of one vehicle are no pair.  Each
    edge's pairs are counted in blocks of at most ``PAIR_BLOCK``, without
    a sort: numpy's first sort call alone reads about 0.4 MB of code.
    """
    tau = np.asarray(tau, dtype=int)
    horizon = default_horizon(assignments) if horizon is None else horizon
    owner = np.repeat(np.arange(len(assignments)),
                      [len(veh.edge_seq) for veh in assignments])
    edge = np.array([e for veh in assignments for e in veh.edge_seq], int)
    step = tau[owner] + np.array(
        [s for veh in assignments for s in veh.entry_steps.tolist()], int)
    keep = (step >= 0) & (step < horizon)
    hist: dict = {}
    for e in (np.bincount(edge[keep]) > 1).nonzero()[0].tolist():
        on = keep & (edge == e)
        who, at = owner[on], step[on]
        rows = max(1, PAIR_BLOCK // len(at))
        bins = np.zeros(horizon, dtype=int)     # a gap is under the horizon
        for r in range(0, len(at), rows):
            first = np.arange(r, min(r + rows, len(at)))[:, None]
            pair = (first < np.arange(len(at))) & (who[first] != who)
            gap = np.abs(at[first] - at)[pair]
            bins += np.bincount(gap, minlength=horizon)
        gaps = bins.nonzero()[0]
        if len(gaps):
            hist[e] = dict(zip(gaps.tolist(), bins[gaps].tolist()))
    return hist


def pair_distance_ratio(hist_scheduled: Mapping, hist_baseline: Mapping) -> dict:
    """Scheduled over baseline pair counts per edge and distance.

    Distances absent from both runs are omitted; a scheduled count with a
    zero baseline reports as infinity.
    """
    ratios: dict = {}
    for e in set(hist_scheduled) | set(hist_baseline):
        top = hist_scheduled.get(e, {})
        bot = hist_baseline.get(e, {})
        row = {}
        for d in set(top) | set(bot):
            a, b = top.get(d, 0), bot.get(d, 0)
            if a == 0 and b == 0:
                continue
            row[d] = a / b if b else math.inf
        if row:
            ratios[e] = row
    return ratios


def platoon_opportunity_gain(hist_scheduled: Mapping,
                             hist_baseline: Mapping) -> float:
    """Relative increase of exact-alignment pairs, summed over edges.

    A proxy for the fuel-saving gain: the map from distance-zero pairs to
    fuel saved is linear with unknown constants, so only the relative
    change is meaningful.
    """
    top = sum(row.get(0, 0) for row in hist_scheduled.values())
    bot = sum(row.get(0, 0) for row in hist_baseline.values())
    if bot == 0:
        raise ValueError("baseline run has no aligned pairs to compare against")
    return top / bot - 1.0


# Swedish long-haul scenario.  Dwell steps for the northern corridor come
# from the published travel plan; the two southern edges get dwells from
# their physical road lengths at the same pace (about 7.1 km per 5-min
# step), and edge weights equal dwell lengths (both proportional to
# physical length).
SWEDEN_EDGES = (
    ("Kiruna", "Lulea", 48.0, 48),
    ("Lulea", "Umea", 39.0, 39),
    ("Umea", "Sundsvall", 39.0, 39),
    ("Sundsvall", "Uppsala", 42.0, 42),
    ("Uppsala", "Stockholm", 9.0, 9),
    ("Stockholm", "Helsingborg", 73.0, 73),
    ("Helsingborg", "Malmo", 8.0, 8),
    ("Ostersund", "Sundsvall", 30.0, 30),
)
KIRUNA_STOCKHOLM = ("Kiruna", "Lulea", "Umea", "Sundsvall", "Uppsala",
                    "Stockholm")
OSTERSUND_MALMO = ("Ostersund", "Sundsvall", "Uppsala", "Stockholm",
                   "Helsingborg", "Malmo")


def build_sweden_scenario(max_delay_steps: int = 3,
                          vehicles_per_flow: int = 40
                          ) -> tuple[FreightGraph, list]:
    """Two 40-vehicle flows on the Swedish corridor, 5-minute steps.

    Kiruna-Stockholm departures spread equally over midnight to 2am,
    Ostersund-Malmo departures over 7am to 9am; both flows share the
    Sundsvall-Uppsala-Stockholm stretch.  Delay cost is zero and the
    allowed delay is 3 steps (15 min) or 6 steps (30 min).
    """
    if max_delay_steps < 0:
        raise ValueError("delay bound must be nonnegative")
    graph = FreightGraph(SWEDEN_EDGES)
    window = (0, int(max_delay_steps))
    assignments = []
    # n departures spread equally over a two-hour band = 24 steps
    for j in range(vehicles_per_flow):
        offset = int(24 * j // vehicles_per_flow)
        assignments.append(VehicleAssignment.from_hub_path(
            graph, KIRUNA_STOCKHOLM, offset, window))
    for j in range(vehicles_per_flow):
        offset = 84 + int(24 * j // vehicles_per_flow)
        assignments.append(VehicleAssignment.from_hub_path(
            graph, OSTERSUND_MALMO, offset, window))
    return graph, assignments
