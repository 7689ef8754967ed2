"""Verification oracles for the delay-coordination game.

Exhaustive and one-step references that only the tests call: the global
optimum and the stationary Gibbs law by enumeration, the exact-potential
identity through two independent code paths, the split of vehicles into
groups that can ever meet, and a single learning iteration.
"""

import itertools
import math
from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from roadflow.errors import InstanceTooLarge
from roadflow.scheduler import (BRUTE_FORCE_CAP, CACHE_JOINT_CAP, FreightGraph,
                                ScheduleState, VehicleAssignment, _LiveCounts,
                                conditional_scores, coordination_cost,
                                default_horizon, drive_learning,
                                joint_state_count, occupancy_counts,
                                square_reward)


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
