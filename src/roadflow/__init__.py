"""Traffic flow on networks with windowed-average speed coupling.

Subpackages cover the single-link conservation law, multi-commodity network
simulation, routing policies and equilibrium gaps, demand shaping toward a
social optimum, platoon concentration through a controlled velocity field,
delay coordination games for freight schedules, and an additively
homomorphic aggregation layer that runs the same coordination privately.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors
from .network import (Commodity, PiecewiseConstant, RoadNetwork, SourceSchedule,
                      SplitSchedule, validate_acyclic)
from .network_sim import GridSplits, NetworkState, simulate
from .nonlocal_solver import (GridSpec, LinkState, NonlocalWindow, VelocityLaw,
                              congestion_law, constant_law, linear_law,
                              solve_link)
from .platoon_flow import (AdmissibleVelocityField, FreightPair,
                           PlatoonSolution, VelocityOptResult,
                           optimize_velocity, solve_freight_pair)
from .private_agg import (Ciphertext, CipherMatrix, Keypair, PrivateKey,
                          PublicKey, chain_aggregate, decrypt, encrypt, keygen,
                          run_private_learning)
from .routing import (EquilibriumDemand, EquilibriumRound, LogitRule,
                      RoutingPolicy, equilibrium_iterate, mixed_gap,
                      policy_grid_splits)
from .scheduler import (FreightGraph, LearningResult, ScheduleState,
                        VehicleAssignment, build_sweden_scenario,
                        coordination_cost, default_horizon, occupancy_counts,
                        pair_distance_histogram, pair_distance_ratio,
                        platoon_opportunity_gain, run_learning, square_reward)
from .social_optimum import (ControlParameterization, DemandSpec,
                             SocialOptResult, SourceControl, ThetaControl,
                             backlog_objective, optimize_social,
                             project_controls)

__all__ = [
    "AdmissibleVelocityField", "Ciphertext", "CipherMatrix", "Commodity",
    "ControlParameterization", "DemandSpec", "EquilibriumDemand",
    "EquilibriumRound", "FreightGraph", "FreightPair", "GridSpec",
    "GridSplits", "Keypair", "LearningResult", "LinkState", "LogitRule",
    "NetworkState", "NonlocalWindow", "PiecewiseConstant", "PlatoonSolution",
    "PrivateKey", "PublicKey", "RoadNetwork", "RoutingPolicy", "ScheduleState",
    "SocialOptResult", "SourceControl", "SourceSchedule", "SplitSchedule",
    "ThetaControl", "VehicleAssignment", "VelocityLaw", "VelocityOptResult",
    "backlog_objective", "build_sweden_scenario",
    "chain_aggregate", "congestion_law", "constant_law", "coordination_cost",
    "decrypt", "default_horizon", "encrypt", "equilibrium_iterate", "errors",
    "keygen", "linear_law", "mixed_gap", "occupancy_counts", "optimize_social",
    "optimize_velocity", "pair_distance_histogram", "pair_distance_ratio",
    "platoon_opportunity_gain", "policy_grid_splits", "project_controls",
    "run_learning", "run_private_learning", "simulate", "solve_freight_pair",
    "solve_link", "square_reward", "validate_acyclic", "__version__",
]
