"""Traffic flow on networks with windowed-average speed coupling.

Subpackages cover the single-link conservation law, multi-commodity network
simulation, routing policies and equilibrium gaps, demand shaping toward a
social optimum, platoon concentration through a controlled velocity field,
delay coordination games for freight schedules, and an additively
homomorphic aggregation layer that runs the same coordination privately.

Each exported name is imported from its module on first use, so
``import roadflow`` loads no layer until one is asked for.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: exported name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("network", "Commodity PiecewiseConstant RoadNetwork SourceSchedule "
                "SplitSchedule validate_acyclic"),
    ("network_sim", "GridSplits NetworkState simulate"),
    ("nonlocal_solver", "GridSpec LinkState NonlocalWindow VelocityLaw "
                        "congestion_law constant_law linear_law solve_link"),
    ("platoon_flow", "AdmissibleVelocityField FreightPair PlatoonSolution "
                     "VelocityOptResult optimize_velocity solve_freight_pair"),
    ("private_agg", "Ciphertext CipherMatrix Keypair PrivateKey PublicKey "
                    "chain_aggregate decrypt encrypt keygen "
                    "run_private_learning"),
    ("routing", "EquilibriumDemand EquilibriumRound LogitRule RoutingPolicy "
                "equilibrium_iterate mixed_gap policy_grid_splits"),
    ("scheduler", "FreightGraph LearningResult ScheduleState "
                  "VehicleAssignment build_sweden_scenario coordination_cost "
                  "default_horizon occupancy_counts pair_distance_histogram "
                  "pair_distance_ratio platoon_opportunity_gain run_learning "
                  "square_reward"),
    ("social_optimum", "ControlParameterization DemandSpec SocialOptResult "
                       "SourceControl ThetaControl backlog_objective "
                       "optimize_social project_controls"),
) for name in names.split()}

__all__ = sorted(_EXPORTS) + ["errors", "__version__"]


def __getattr__(name: str):
    if name == "errors":
        return importlib.import_module(f"{__name__}.errors")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
