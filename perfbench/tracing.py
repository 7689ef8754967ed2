"""Spans and counts around the program's public functions.

The wrappers are installed where each caller looks the function up (the
``cli`` module's imported names, the modules that call each other, the
``BUILDERS`` table), so nothing inside ``roadflow`` is edited.  A span is
(name, start, end, parent); spans stay in memory and are written out when
the run ends.  Self time is a span's duration minus the time its child
spans cover.  Counts are read from the wrapped functions' arguments and
return values.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _state_bytes(state) -> int:
    total = state.times.nbytes + state.cells.nbytes
    for table in (state.rho, state.speeds, state.inflow, state.outflow,
                  state.arrivals, state.split_rows, state.source_grid):
        total += sum(np.asarray(v).nbytes for v in table.values())
    return total


def _simulate_counts(args, kwargs, state) -> dict:
    steps = len(state.times) - 1
    return {"cell_steps": (len(state.net.links) * len(state.commodities)
                           * len(state.cells) * steps),
            "state_bytes": _state_bytes(state)}


def _grid_counts(args, kwargs, result) -> dict:
    return {"grid_nodes": len(args[1].times)}


def _accepted_counts(args, kwargs, result) -> dict:
    return {"evaluations": result.evaluations,
            "accepted": len(result.trace) - 1}


def _particle_counts(args, kwargs, sol) -> dict:
    if sol.positions is None:
        return {"particle_steps": 0}
    steps = len(sol.times) - 1
    return {"particle_steps": int(np.clip(steps - sol.release_steps, 0,
                                          None).sum())}


def _learning_counts(args, kwargs, result) -> dict:
    return {"iterations": len(result.cost_trace) - 1}


#: (module, attribute, span name, count reader); one row per place a caller
#: looks the function up
POINTS = (
    ("roadflow.cli", "load_scenario", "scenario.load", None),
    ("roadflow.cli", "simulate", "network_sim.simulate", _simulate_counts),
    ("roadflow.routing", "simulate", "network_sim.simulate", _simulate_counts),
    ("roadflow.social_optimum", "simulate", "network_sim.simulate",
     _simulate_counts),
    ("roadflow.cli", "equilibrium_iterate", "routing.equilibrium_iterate",
     None),
    ("roadflow.routing", "policy_grid_splits", "routing.policy_grid_splits",
     _grid_counts),
    ("roadflow.routing", "mixed_gap", "routing.mixed_gap", None),
    ("roadflow.cli", "optimize_social", "social_optimum.optimize_social",
     _accepted_counts),
    ("roadflow.cli", "optimize_velocity", "platoon_flow.optimize_velocity",
     _accepted_counts),
    ("roadflow.cli", "solve_freight_pair", "platoon_flow.solve_freight_pair",
     _particle_counts),
    ("roadflow.platoon_flow", "solve_freight_pair",
     "platoon_flow.solve_freight_pair", _particle_counts),
    ("roadflow.cli", "run_learning", "scheduler.run_learning",
     _learning_counts),
    ("roadflow.scheduler", "occupancy_counts", "scheduler.occupancy_counts",
     None),
    ("roadflow.scheduler", "conditional_scores", "scheduler.conditional_scores",
     None),
    ("roadflow.scheduler", "coordination_cost", "scheduler.coordination_cost",
     None),
    ("roadflow.private_agg", "coordination_cost",
     "scheduler.coordination_cost", None),
    ("roadflow.cli", "pair_distance_histogram",
     "scheduler.pair_distance_histogram", None),
    ("roadflow.cli", "run_private_learning",
     "private_agg.run_private_learning", _learning_counts),
    ("roadflow.cli", "keygen", "private_agg.keygen", None),
    ("roadflow.private_agg", "keygen", "private_agg.keygen", None),
    ("roadflow.cli", "chain_aggregate", "private_agg.chain_aggregate", None),
    ("roadflow.private_agg", "chain_aggregate", "private_agg.chain_aggregate",
     None),
    ("roadflow.private_agg", "encrypt", "private_agg.encrypt", None),
    ("roadflow.private_agg", "decrypt", "private_agg.decrypt", None),
)


#: ``roadflow.cli`` names whose last return value the checks read
CAPTURED = ("equilibrium_iterate", "run_private_learning")


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so the benchmark's own checks leave no spans.  Whether
    active or not, the last return value of each ``CAPTURED`` function is
    kept in ``captured`` for the checks."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent, counts]
        self.captured: dict = {}
        self.active = False
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, count=None, keep=None):
        spans, stack, captured = self.spans, self._stack, self.captured

        def traced(*args, **kwargs):
            if not self.active:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, perf_counter(), 0.0,
                              stack[-1] if stack else -1, None])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx][2] = perf_counter()
                    stack.pop()
                if count is not None:
                    spans[idx][4] = count(args, kwargs, result)
            if keep is not None:
                captured[keep] = result
            return result

        return traced

    def install(self, trace: bool = True) -> None:
        """Wrap every point when ``trace``; otherwise only the captured
        ones, so an untraced run pays for nothing else."""
        for mod_name, attr, name, count in POINTS:
            keep = attr if (mod_name == "roadflow.cli"
                            and attr in CAPTURED) else None
            if not trace and keep is None:
                continue
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            setattr(mod, attr, self.wrap(name, original, count, keep))
            self._undo.append((mod, attr, original))
        if not trace:
            return
        builders = importlib.import_module("roadflow.scenario").BUILDERS
        for kind, original in list(builders.items()):
            builders[kind] = self.wrap("scenario.build", original)
            self._undo.append((builders, kind, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps([name, start, end, parent, counts]) + "\n")

    # ----------------------------------------------------------- metrics

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Per span name: total time, self time, call count, summed counts
        (keyed by (name, count)); names never seen read 0."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        calls, counts = defaultdict(int), defaultdict(int)
        for k, (name, start, end, _, cnt) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[k]
            calls[name] += 1
            for key, val in (cnt or {}).items():
                counts[(name, key)] += val
        return total, own, calls, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metrics: name -> unit, better
LAYER_METRICS = {
    "traced.wall_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.artifact_mb": ("MB", "lower"),
    "scenario.build_s": ("s", "lower"),
    "network_sim.simulate_s": ("s", "lower"),
    "network_sim.simulate_calls": ("count", "lower"),
    "network_sim.cell_steps": ("count", "lower"),
    "network_sim.ns_per_cell_step": ("ns", "lower"),
    "network_sim.state_mb": ("MB", "lower"),
    "routing.policy_grid_splits_s": ("s", "lower"),
    "routing.grid_nodes": ("count", "lower"),
    "routing.us_per_grid_node": ("us", "lower"),
    "routing.mixed_gap_s": ("s", "lower"),
    "routing.mixed_gap_calls": ("count", "lower"),
    "routing.equilibrium_self_s": ("s", "lower"),
    "social_optimum.self_s": ("s", "lower"),
    "social_optimum.simulations": ("count", "lower"),
    "social_optimum.accepted_per_simulation": ("ratio", "higher"),
    "platoon_flow.solve_s": ("s", "lower"),
    "platoon_flow.solves": ("count", "lower"),
    "platoon_flow.particle_steps": ("count", "lower"),
    "platoon_flow.ns_per_particle_step": ("ns", "lower"),
    "platoon_flow.accepted_per_solve": ("ratio", "higher"),
    "scheduler.occupancy_counts_s": ("s", "lower"),
    "scheduler.occupancy_counts_calls": ("count", "lower"),
    "scheduler.conditional_scores_s": ("s", "lower"),
    "scheduler.coordination_cost_s": ("s", "lower"),
    "scheduler.learning_iters": ("count", "higher"),
    "scheduler.us_per_iter": ("us", "lower"),
    "scheduler.pair_histogram_s": ("s", "lower"),
    "private_agg.keygen_s": ("s", "lower"),
    "private_agg.ring_passes": ("count", "lower"),
    "private_agg.chain_aggregate_s": ("s", "lower"),
    "private_agg.encrypt_calls": ("count", "lower"),
    "private_agg.decrypt_calls": ("count", "lower"),
    "private_agg.encrypt_s": ("s", "lower"),
    "private_agg.decrypt_s": ("s", "lower"),
    "private_agg.us_per_encrypt": ("us", "lower"),
    "private_agg.ciphertexts_per_pass": ("count", "lower"),
}


def layer_metrics(tracer: Tracer, rounds: int, traced_wall: float,
                  artifact_bytes: int) -> dict:
    """Every per-layer metric, per round (totals over the run, including
    ``artifact_bytes``, divided by ``rounds``); a layer the workload never
    reaches reads 0."""
    t, own, n, c = tracer.totals()

    sim_s = t["network_sim.simulate"]
    cell_steps = c["network_sim.simulate", "cell_steps"]
    grid_s = t["routing.policy_grid_splits"]
    grid_nodes = c["routing.policy_grid_splits", "grid_nodes"]
    solve_s = t["platoon_flow.solve_freight_pair"]
    particle_steps = c["platoon_flow.solve_freight_pair", "particle_steps"]
    learn_s = (t["scheduler.run_learning"]
               + t["private_agg.run_private_learning"])
    iters = (c["scheduler.run_learning", "iterations"]
             + c["private_agg.run_private_learning", "iterations"])
    enc_s, enc_n = t["private_agg.encrypt"], n["private_agg.encrypt"]
    social_sims = c["social_optimum.optimize_social", "evaluations"]
    velocity_solves = c["platoon_flow.optimize_velocity", "evaluations"]

    per_round = {
        "cli.self_s": own["cli.main"],
        "cli.artifact_mb": artifact_bytes / 1e6,
        "scenario.build_s": t["scenario.load"] + t["scenario.build"],
        "network_sim.simulate_s": sim_s,
        "network_sim.simulate_calls": n["network_sim.simulate"],
        "network_sim.cell_steps": cell_steps,
        "network_sim.state_mb": c["network_sim.simulate", "state_bytes"] / 1e6,
        "routing.policy_grid_splits_s": grid_s,
        "routing.grid_nodes": grid_nodes,
        "routing.mixed_gap_s": t["routing.mixed_gap"],
        "routing.mixed_gap_calls": n["routing.mixed_gap"],
        "routing.equilibrium_self_s": own["routing.equilibrium_iterate"],
        "social_optimum.self_s": own["social_optimum.optimize_social"],
        "social_optimum.simulations": social_sims,
        "platoon_flow.solve_s": solve_s,
        "platoon_flow.solves": n["platoon_flow.solve_freight_pair"],
        "platoon_flow.particle_steps": particle_steps,
        "scheduler.occupancy_counts_s": t["scheduler.occupancy_counts"],
        "scheduler.occupancy_counts_calls": n["scheduler.occupancy_counts"],
        "scheduler.conditional_scores_s": t["scheduler.conditional_scores"],
        "scheduler.coordination_cost_s": own["scheduler.coordination_cost"],
        "scheduler.learning_iters": iters,
        "scheduler.pair_histogram_s": t["scheduler.pair_distance_histogram"],
        "private_agg.keygen_s": t["private_agg.keygen"],
        "private_agg.ring_passes": n["private_agg.chain_aggregate"],
        "private_agg.chain_aggregate_s": t["private_agg.chain_aggregate"],
        "private_agg.encrypt_calls": enc_n,
        "private_agg.decrypt_calls": n["private_agg.decrypt"],
        "private_agg.encrypt_s": enc_s,
        "private_agg.decrypt_s": t["private_agg.decrypt"],
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out["traced.wall_s"] = traced_wall
    out["network_sim.ns_per_cell_step"] = 1e9 * _ratio(sim_s, cell_steps)
    out["routing.us_per_grid_node"] = 1e6 * _ratio(grid_s, grid_nodes)
    out["social_optimum.accepted_per_simulation"] = _ratio(
        c["social_optimum.optimize_social", "accepted"], social_sims)
    out["platoon_flow.ns_per_particle_step"] = 1e9 * _ratio(solve_s,
                                                            particle_steps)
    out["platoon_flow.accepted_per_solve"] = _ratio(
        c["platoon_flow.optimize_velocity", "accepted"], velocity_solves)
    out["scheduler.us_per_iter"] = 1e6 * _ratio(learn_s, iters)
    out["private_agg.us_per_encrypt"] = 1e6 * _ratio(enc_s, enc_n)
    out["private_agg.ciphertexts_per_pass"] = _ratio(
        enc_n, n["private_agg.chain_aggregate"])
    return {name: out[name] for name in LAYER_METRICS}
