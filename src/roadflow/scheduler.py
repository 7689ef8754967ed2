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

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ComputeError, InfeasibleDelay, InstanceTooLarge

#: brute force refuses joint spaces larger than this
BRUTE_FORCE_CAP = 10 ** 6
#: conditional distributions are cached when the joint space is at most this big
CACHE_JOINT_CAP = 4096
#: most count cells (delays x edges x horizon) one scoring block holds
SCORE_BLOCK = 1 << 16


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
    """Delay ``lo + k`` of a window occupies ``cells[starts[k]:starts[k + 1]]``;
    ``block`` adds ``k * edges * horizon``, its row of a scoring block."""
    cells: np.ndarray
    starts: list
    block: np.ndarray


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
            rows = np.arange(len(flat))[:, None] * (key[0] * key[1])
            starts = [0] + np.cumsum(keep.sum(axis=1)).tolist()
            table = CellTable(flat[keep], starts, (flat + rows)[keep])
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

    def horizon(self) -> int:
        return default_horizon(self.assignments)

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
    # the platooning term: -gamma * sum over edge-steps of w_e * reward(count)
    total = -float(gamma) * float(np.sum(graph.weights[:, None] * reward(counts)))
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
    table = vehicle.cell_table(n_edges, horizon)
    scores = vehicle.delay_costs()
    weights = graph.weights[:, None]
    per = max(1, SCORE_BLOCK // size)
    for k0 in range(0, len(scores), per):
        k1 = min(k0 + per, len(scores))
        total = np.empty((k1 - k0, size), dtype=counts_excl.dtype)
        total[...] = counts_excl.reshape(-1)
        cells = table.block[table.starts[k0]:table.starts[k1]] - k0 * size
        total.reshape(-1)[cells] += 1
        r = reward(total.reshape(k1 - k0, n_edges, horizon))
        scores[k0:k1] += (-float(gamma)) * (weights * r).reshape(
            k1 - k0, -1).sum(axis=-1)
    return scores


def gibbs_row(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Cumulative Gibbs distribution over one window, overflow-guarded."""
    z = -(scores - scores.min()) / float(temperature)
    weights = np.exp(z)
    return np.cumsum(weights) / weights.sum()


def _sample_index(cum: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


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


class _LiveCounts:
    """Edge-step counts of every vehicle except the one last queried.

    The counts are built once from the initial profile.  A query for
    vehicle ``i`` under profile ``tau`` puts the previously queried
    vehicle back at its delay in ``tau``, moves any other vehicle whose
    delay differs from the kept profile, and takes vehicle ``i`` out.  It
    returns the same integers as ``occupancy_counts(..., exclude=i)`` at
    the cost of one vehicle's cells per move.  The returned array is
    changed in place by the next query.
    """

    def __init__(self, state: ScheduleState, horizon: int):
        self.assignments = state.assignments
        self.shape = (len(state.graph), int(horizon))
        self.tau = state.tau.copy()
        self.counts = occupancy_counts(state.graph, state.assignments,
                                       self.tau, self.shape[1])
        self.out: Optional[int] = None

    def _shift(self, j: int, delay: int, step: int) -> None:
        self.counts.reshape(-1)[self.assignments[j].cells(delay,
                                                          *self.shape)] += step

    def __call__(self, i: int, tau: np.ndarray) -> np.ndarray:
        if self.out is not None:
            self._shift(self.out, int(tau[self.out]), 1)
            self.tau[self.out] = tau[self.out]
        for j in np.flatnonzero(self.tau != tau):
            self._shift(j, int(self.tau[j]), -1)
            self._shift(j, int(tau[j]), 1)
            self.tau[j] = tau[j]
        self._shift(i, int(tau[i]), -1)
        self.out = i
        return self.counts


def drive_learning(state: ScheduleState, iterations: int,
                   rng: np.random.Generator,
                   counts_without: Callable[[int, np.ndarray], np.ndarray],
                   *, horizon: int, cache: bool = False) -> LearningResult:
    """The log-linear learning loop behind every learning driver.

    Each iteration draws the vehicle index, then one uniform, so drivers
    given the same seed follow the same trajectory.  ``counts_without(i,
    tau)`` is the counts oracle: the edge-step counts of every vehicle but
    ``i`` under profile ``tau``, which the loop only reads.  Every oracle's
    counts are scored by ``conditional_scores``.  With ``cache`` on, the
    conditional row of vehicle ``i`` is kept per frozen delays of the
    others and the oracle is asked only on a miss.  Tracks the best
    profile seen by exact coordination cost.  An initial cost or a freshly
    scored row that is not finite has no Gibbs distribution and raises
    ``ComputeError``.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    n_vehicles = len(state.assignments)
    rows: dict = {}

    trajectory = np.empty((iterations + 1, n_vehicles), dtype=int)
    trajectory[0] = state.tau
    cost_trace = np.empty(iterations + 1)
    cost = state.cost()
    if not math.isfinite(cost):
        raise ComputeError(f"the initial coordination cost is {cost}; gamma, "
                           "the edge weights or the delay costs are too large")
    cost_trace[0] = cost
    best_tau = state.tau.copy()
    best_cost = cost
    visits: dict = {}
    tau = state.tau.copy()

    for step in range(1, iterations + 1):
        i = int(rng.integers(n_vehicles))
        u = float(rng.random())
        key = None
        row = None
        if cache:
            others = tau.tolist()
            del others[i]
            key = (i, tuple(others))
            row = rows.get(key)
        if row is None:
            scores = conditional_scores(state.graph, state.assignments[i],
                                        counts_without(i, tau),
                                        gamma=state.gamma,
                                        reward=state.reward)
            if not np.isfinite(scores).all():
                raise ComputeError(
                    f"vehicle {i} scored a non-finite cost at iteration "
                    f"{step}; gamma, the edge weights or the delay costs are "
                    "too large")
            row = (gibbs_row(scores, state.temperature), scores)
            if cache:
                rows[key] = row
        cum, scores = row
        lo = state.assignments[i].window[0]
        k = _sample_index(cum, u)
        # unilateral move, so the potential (= total cost) shifts by the
        # score difference of the moving vehicle
        cost += float(scores[k] - scores[int(tau[i]) - lo])
        tau[i] = lo + k
        trajectory[step] = tau
        cost_trace[step] = cost
        if cost < best_cost - 1e-12:
            exact = coordination_cost(state.graph, state.assignments, tau,
                                      gamma=state.gamma, reward=state.reward,
                                      horizon=horizon)
            if exact < best_cost:
                best_cost = exact
                best_tau = tau.copy()
        profile = tuple(tau.tolist())
        visits[profile] = visits.get(profile, 0) + 1

    return LearningResult(trajectory, cost_trace, visits, best_tau, best_cost)


def log_linear_step(state: ScheduleState, rng: np.random.Generator,
                    horizon: Optional[int] = None) -> ScheduleState:
    """One learning iteration: a uniformly random vehicle resamples its delay.

    Consumes exactly two draws (vehicle index, then one uniform) so that
    trajectories line up across plaintext and encrypted drivers.
    """
    horizon = default_horizon(state.assignments) if horizon is None else horizon
    result = drive_learning(state, 1, rng, _LiveCounts(state, horizon),
                            horizon=horizon)
    return replace(state, tau=result.trajectory[-1])


def run_learning(state0: ScheduleState, iterations: int, rng_seed: int,
                 *, horizon: Optional[int] = None) -> LearningResult:
    """Run log-linear learning; deterministic given the seed.

    The plaintext driver.  Occupancy counts are built once from the
    initial profile and then kept incrementally (``_LiveCounts``): each
    query takes the moving vehicle's cells out, and the next puts them
    back at its new delay.  A row is scored as one block of delays, each
    summed in the order of a delay-by-delay ``np.sum`` (see
    ``conditional_scores``), so the counts, scores and trajectory are
    exactly those of a full rebuild and per-delay scoring per iteration.
    On small instances (a joint space of at most ``CACHE_JOINT_CAP``
    profiles) conditional rows are cached, keyed by the frozen delays of
    the other vehicles.  A cache hit touches no counts; the next miss
    brings them up to date with every move made since.  The cache never
    changes sampled values, only skips their recomputation.
    """
    horizon = default_horizon(state0.assignments) if horizon is None else horizon
    cache = joint_state_count(state0.assignments) <= CACHE_JOINT_CAP
    return drive_learning(state0, iterations, np.random.default_rng(rng_seed),
                          _LiveCounts(state0, horizon), horizon=horizon,
                          cache=cache)


def brute_force_schedule(graph: FreightGraph,
                         assignments: Sequence[VehicleAssignment],
                         *, gamma: float = 1.0,
                         reward: Callable = square_reward,
                         horizon: Optional[int] = None
                         ) -> tuple[np.ndarray, float]:
    """Exhaustive global optimum; ties go to the lexicographically first profile."""
    if joint_state_count(assignments) > BRUTE_FORCE_CAP:
        raise InstanceTooLarge(
            f"joint delay space exceeds {BRUTE_FORCE_CAP} profiles")
    best_tau = None
    best_cost = math.inf
    for combo in itertools.product(*(v.delays() for v in assignments)):
        cost = coordination_cost(graph, assignments, combo, gamma=gamma,
                                 reward=reward, horizon=horizon)
        if cost < best_cost:
            best_cost = cost
            best_tau = np.array(combo, dtype=int)
    return best_tau, best_cost


def exact_gibbs_distribution(state: ScheduleState,
                             horizon: Optional[int] = None) -> dict:
    """Stationary law by full enumeration; only viable on tiny instances."""
    if joint_state_count(state.assignments) > CACHE_JOINT_CAP:
        raise InstanceTooLarge("joint space too large to enumerate")
    profiles = list(itertools.product(*(v.delays() for v in state.assignments)))
    costs = np.array([
        coordination_cost(state.graph, state.assignments, combo,
                          gamma=state.gamma, reward=state.reward,
                          horizon=horizon)
        for combo in profiles])
    weights = np.exp(-(costs - costs.min()) / state.temperature)
    weights /= weights.sum()
    return {tuple(int(t) for t in combo): float(w)
            for combo, w in zip(profiles, weights)}


def potential_check(graph: FreightGraph,
                    assignments: Sequence[VehicleAssignment],
                    tau: Sequence[int], i: int, tau_prime: int,
                    *, gamma: float = 1.0, reward: Callable = square_reward,
                    horizon: Optional[int] = None) -> tuple[float, float]:
    """Potential difference vs the moving vehicle's utility difference.

    The two are computed through independent code paths (global cost vs
    the conditional scores used by the learning step) and must agree to
    machine precision for the learning dynamics to sample the right law.
    """
    tau = np.asarray(tau, dtype=int)
    vehicle = assignments[i]
    vehicle.check_delay(int(tau[i]))
    vehicle.check_delay(int(tau_prime))
    horizon = default_horizon(assignments) if horizon is None else horizon

    tau_new = tau.copy()
    tau_new[i] = tau_prime
    d_phi = (coordination_cost(graph, assignments, tau, gamma=gamma,
                               reward=reward, horizon=horizon)
             - coordination_cost(graph, assignments, tau_new, gamma=gamma,
                                 reward=reward, horizon=horizon))

    counts = occupancy_counts(graph, assignments, tau, horizon, exclude=i)
    scores = conditional_scores(graph, vehicle, counts, gamma=gamma,
                                reward=reward)
    delays = vehicle.delays()
    d_util = float(scores[int(tau[i]) - delays[0]]
                   - scores[int(tau_prime) - delays[0]])
    return d_phi, d_util


def interaction_groups(graph: FreightGraph,
                       assignments: Sequence[VehicleAssignment]) -> list:
    """Partition vehicles into groups whose shifted walks can ever meet.

    Two vehicles interact when some shared edge has overlapping reachable
    occupancy intervals under feasible delays.  The cost separates
    additively across groups, so each group can be scheduled on its own.
    """
    n = len(assignments)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    spans = []
    for veh in assignments:
        lo, hi = veh.window
        per_edge = {}
        for e, s in zip(veh.occupied_edges, veh.occupied_steps):
            a, b = per_edge.get(int(e), (math.inf, -math.inf))
            per_edge[int(e)] = (min(a, s + lo), max(b, s + hi))
        spans.append(per_edge)
    for i in range(n):
        for j in range(i + 1, n):
            shared = spans[i].keys() & spans[j].keys()
            if any(spans[i][e][0] <= spans[j][e][1]
                   and spans[j][e][0] <= spans[i][e][1] for e in shared):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def pair_distance_histogram(graph: FreightGraph,
                            assignments: Sequence[VehicleAssignment],
                            tau: Sequence[int],
                            horizon: Optional[int] = None) -> dict:
    """Per-edge histogram of |arrival-step difference| over vehicle pairs.

    Arrivals falling outside the horizon are dropped, matching the
    occupancy truncation.
    """
    tau = np.asarray(tau, dtype=int)
    horizon = default_horizon(assignments) if horizon is None else horizon
    arrivals: dict = {e: [] for e in range(len(graph))}
    for i, veh in enumerate(assignments):
        for e, entry in zip(veh.edge_seq, veh.entry_steps):
            step = int(entry) + int(tau[i])
            if 0 <= step < horizon:
                arrivals[int(e)].append((i, step))
    hist: dict = {}
    for e, items in arrivals.items():
        if len(items) < 2:
            continue
        bins: dict = {}
        for (i, si), (j, sj) in itertools.combinations(items, 2):
            if i == j:
                continue
            d = abs(si - sj)
            bins[d] = bins.get(d, 0) + 1
        if bins:
            hist[e] = bins
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
