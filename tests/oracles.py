"""Verification oracles that only the tests call.

For the delay-coordination game, exhaustive and one-step references: the
global optimum and the stationary Gibbs law by enumeration, the
exact-potential identity through two independent code paths, the split of
vehicles into groups that can ever meet, a single learning iteration, the
pair-distance histogram pair by pair, and learning with the counts and
every row rebuilt one delay at a time.
For the single link, the displacement fixed point on one window, the
boundary outflux and a parcel's exit time; for routing, the single-class
Wardrop gap; for the social optimum, the controls as the simulator's
schedule objects; for platooning, the truck density of a freight pair by
first-order conservative upwind on the cell grid (LeVeque, *Finite Volume
Methods for Hyperbolic Problems*, 2002), the cross-check of the particle
solver.  For the Paillier keys, the prime search one candidate after
another, testing every one of the ``MR_ROUNDS`` Miller-Rabin witnesses and
drawing straight from the generator.
"""

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from roadflow.errors import HorizonExceeded, InstanceTooLarge
from roadflow.network import (Commodity, PiecewiseConstant, SourceSchedule,
                              SplitSchedule, as_split_schedule)
from roadflow.network_sim import NetworkState
from roadflow.nonlocal_solver import (CharacteristicResult, LinkState,
                                      VelocityLaw, _picard_window,
                                      _sample_initial, _sample_series,
                                      mass_row, upwind_step)
from roadflow.private_agg import (MR_ROUNDS, PRIME_ATTEMPTS, _SMALL_PRIMES,
                                  _rand_below)
from roadflow.platoon_flow import (AdmissibleVelocityField, FreightPair,
                                   _ParticleRun)
from roadflow.routing import USED_PATH_EPS, mixed_gap
from roadflow.scheduler import (BRUTE_FORCE_CAP, CACHE_JOINT_CAP, FreightGraph,
                                ScheduleState, VehicleAssignment, _LiveCounts,
                                conditional_scores, coordination_cost,
                                default_horizon, drive_learning, gibbs_row,
                                joint_state_count, occupancy_counts,
                                square_reward)
from roadflow.social_optimum import ControlParameterization, DemandSpec


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


def reference_pair_distance_histogram(graph: FreightGraph,
                                      assignments: Sequence[VehicleAssignment],
                                      tau: Sequence[int],
                                      horizon: Optional[int] = None) -> dict:
    """``pair_distance_histogram`` one pair of arrivals at a time."""
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


def reference_counts(graph, assignments, tau, horizon, exclude=None):
    """Edge-step counts, one ``np.add.at`` per vehicle on its shifted walk."""
    counts = np.zeros((len(graph), horizon), dtype=int)
    for i, veh in enumerate(assignments):
        if i == exclude:
            continue
        cols = veh.occupied_steps + int(tau[i])
        keep = (cols >= 0) & (cols < horizon)
        np.add.at(counts, (veh.occupied_edges[keep], cols[keep]), 1)
    return counts


def reference_scores(graph, vehicle, counts_excl, *, gamma,
                     reward=square_reward):
    """Conditional scores one delay at a time: the others' counts copied,
    the vehicle's walk added with ``np.add.at``, and the weighted reward
    summed over the whole grid."""
    horizon = counts_excl.shape[1]
    h_vals = vehicle.delay_costs()
    scores = np.empty(len(h_vals))
    for k, tau in enumerate(vehicle.delays()):
        cols = vehicle.occupied_steps + int(tau)
        keep = (cols >= 0) & (cols < horizon)
        total = counts_excl.copy()
        np.add.at(total, (vehicle.occupied_edges[keep], cols[keep]), 1)
        scores[k] = h_vals[k] + -float(gamma) * float(
            np.sum(graph.weights[:, None] * reward(total)))
    return scores


def rebuilt_learning(state, iterations, seed, horizon=None):
    """Learning with the counts rebuilt from scratch at every iteration by
    ``reference_counts`` and the row scored by ``reference_scores``, one
    iteration at a time with scalar draws and no row kept between
    iterations; the best-profile rule and visit counts as in run_learning,
    the oracle for every path of its driver."""
    rng = np.random.default_rng(seed)
    if horizon is None:
        horizon = default_horizon(state.assignments)
    tau = state.tau.copy()
    cost = coordination_cost(state.graph, state.assignments, tau,
                             gamma=state.gamma, reward=state.reward,
                             horizon=horizon)
    trajectory, costs = [tau.copy()], [cost]
    best_tau, best_cost = tau.copy(), cost
    visits = {}
    for _ in range(iterations):
        i = int(rng.integers(len(tau)))
        u = float(rng.random())
        counts = reference_counts(state.graph, state.assignments, tau,
                                  horizon, exclude=i)
        scores = reference_scores(state.graph, state.assignments[i], counts,
                                  gamma=state.gamma, reward=state.reward)
        cum = gibbs_row(scores, state.temperature)
        k = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
        lo = state.assignments[i].window[0]
        cost += float(scores[k] - scores[tau[i] - lo])
        tau[i] = lo + k
        trajectory.append(tau.copy())
        costs.append(cost)
        if cost < best_cost - 1e-12:
            exact = coordination_cost(state.graph, state.assignments, tau,
                                      gamma=state.gamma, reward=state.reward,
                                      horizon=horizon)
            if exact < best_cost:
                best_tau, best_cost = tau.copy(), exact
        profile = tuple(tau.tolist())
        visits[profile] = visits.get(profile, 0) + 1
    return (np.array(trajectory), np.array(costs), best_tau, best_cost,
            visits)


# ---------------------------------------------------------------- single link

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


# ---------------------------------------------------------------- routing

def wardrop_gap(state: NetworkState, t: float, origin: int, destination: int,
                commodity: Commodity, *, eps: float = USED_PATH_EPS) -> float:
    """Single-class gap: spread of path times over the plan's used paths."""
    return mixed_gap(state, t, origin, destination, [(commodity, 1.0)],
                     eps=eps)


# ------------------------------------------------------- social optimum

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


# ------------------------------------------------------------ platooning

@dataclass
class GridTruckRun:
    """Truck density on the cell grid at every time node, with its mass
    record."""

    times: np.ndarray
    x_centers: np.ndarray
    fields: np.ndarray                  # (steps+1, cells)
    rho_rows: Optional[np.ndarray] = None
    injected: float = 0.0
    initial_mass: float = 0.0
    exited: float = 0.0

    @property
    def dx(self) -> float:
        return float(self.x_centers[1] - self.x_centers[0])

    def objectives(self) -> tuple[float, float]:
        """(unweighted, background-weighted) concentration objectives: each
        cell's mass sits at its center, weighted by (1 + background density)
        in the second."""
        j = []
        for rows in (None, self.rho_rows):
            m1, m2 = np.zeros((2, len(self.times)))
            for m in range(len(self.times)):
                w, xs = self.fields[m] * self.dx, self.x_centers
                if rows is not None:
                    w = w * (1.0 + np.interp(xs, xs, rows[m]))
                m1[m], m2[m] = np.vecdot(w, xs), np.vecdot(w, xs * xs)
            j.append(float(np.trapezoid(m2 - m1 ** 2, self.times)))
        return j[0], j[1]

    def mass_report(self) -> dict:
        return mass_row(self.initial_mass, self.injected, self.exited,
                        float(self.fields[-1].sum() * self.dx))


def reference_fv_pair(pair: FreightPair, control: AdmissibleVelocityField,
                      cells: int) -> GridTruckRun:
    """The trucks of ``pair`` under ``control`` by conservative upwind steps
    on ``cells`` cells, at the particle solver's time nodes, background rows
    and initial and inflow masses."""
    control.check()
    run = _ParticleRun(pair, control, cells)
    times, dx, dt = run.times, run.dx, run.dt
    edges = np.arange(cells + 1) * dx
    q = np.zeros((len(times), cells))
    q[0] = run.q0
    injected = 0.0
    exited = 0.0
    for m in range(len(times) - 1):
        lam_e = control.evaluate(times[m], edges, run.mass_argument(m, edges))
        if float(lam_e.max()) * dt > dx * (1.0 + 1e-12):
            raise ValueError("time step too large for the control bound")
        inflow = run.spawn_mass[m] / dt
        q[m + 1], out = upwind_step(q[m], lam_e[1:], inflow, dt, dx)
        injected += inflow * dt
        exited += out * dt
    return GridTruckRun(times=times, x_centers=run.centers, fields=q,
                        rho_rows=run.rho_rows, injected=injected,
                        initial_mass=float(run.q0.sum() * dx), exited=exited)


def reference_is_probable_prime(n, rng):
    """Miller-Rabin with every one of the MR_ROUNDS witnesses tested."""
    if n < 3 or n % 2 == 0:
        return n == 2
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(MR_ROUNDS):
        a = 2 + _rand_below(rng, n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_random_prime(bits, rng):
    for _ in range(PRIME_ATTEMPTS):
        candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        candidate &= (1 << bits) - 1
        if reference_is_probable_prime(candidate, rng):
            return candidate
    raise AssertionError("no prime found")
