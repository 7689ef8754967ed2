"""Seeded scenario generators and the operations of each workload.

Every workload writes its scenario files from ``--seed`` alone and keeps
the generated parameters (its *spec*) so that the checks in
``checks.py`` can recompute expected values without asking the program.
The sizes that set the amount of work (links, cells, horizon, rounds,
budgets, vehicles, iterations, key size) do not depend on the seed;
the seed only moves rates, split fractions, speeds, departures and the
learning stream, so different seeds cost about the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

#: work sizes per workload; ``smoke`` is the small variant for quick runs
SIZES = {
    "day-to-day": {
        "full": {"cells": 32, "horizon": 10.0, "demand_end": 3.0,
                 "rounds": 5},
        "smoke": {"cells": 8, "horizon": 9.0, "demand_end": 2.0,
                  "rounds": 2},
    },
    "shaping": {
        "full": {"social_cells": 24, "social_budget": 180,
                 "platoon_cells": 80, "platoon_budget": 120},
        "smoke": {"social_cells": 8, "social_budget": 14,
                  "platoon_cells": 20, "platoon_budget": 12},
    },
    "freight": {
        "full": {"vehicles_per_flow": 40, "max_delay": 3,
                 "iterations": 3000},
        "smoke": {"vehicles_per_flow": 40, "max_delay": 3,
                  "iterations": 200},
    },
    "freight-private": {
        "full": {"vehicles": 5, "iterations": 7, "bits": 512},
        "smoke": {"vehicles": 3, "iterations": 2, "bits": 256},
    },
}

WORKLOADS = tuple(SIZES)


@dataclass
class Op:
    """One operation: a ``roadflow`` subcommand on one scenario file.

    ``check(op, captured)`` raises :class:`checks.CheckFailed` when the
    operation's outputs are wrong; ``captured`` holds what the benchmark's
    probes recorded from the program during the operation.
    """

    name: str
    kind: str
    scenario: Path
    out: Path
    spec: dict
    check: Callable

    @property
    def argv(self) -> list:
        return [self.kind, "--scenario", str(self.scenario),
                "--out", str(self.out)]


def _write(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _r(x: float) -> float:
    return round(x, 4)


# ------------------------------------------------------------ day-to-day

def ladder(levels: int = 5) -> dict:
    """Two-wide ladder: entry link 0->1, node 1 fans out to the first rung,
    every rung node links to both nodes of the next rung, and the last
    rung joins the destination.  ``levels`` rungs give 2**levels paths
    from node 1 and 4 * levels + 1 links."""
    a = [2 * i for i in range(1, levels + 1)]
    b = [2 * i + 1 for i in range(1, levels + 1)]
    dest = 2 * levels + 2
    links = [(0, 1), (1, a[0]), (1, b[0])]
    for i in range(levels - 1):
        for u in (a[i], b[i]):
            for v in (a[i + 1], b[i + 1]):
                links.append((u, v))
    links += [(a[-1], dest), (b[-1], dest)]
    paths = []
    for mask in range(2 ** levels):
        rung = [a[i] if (mask >> i) & 1 == 0 else b[i] for i in range(levels)]
        nodes = [0, 1] + rung + [dest]
        paths.append(tuple(zip(nodes, nodes[1:])))
    out = {}
    for u, v in links:
        out.setdefault(u, []).append((u, v))
    return {"links": links, "paths": paths, "origin": 1, "destination": dest,
            "out": out}


def make_day_to_day(seed: int, work: Path, size: str) -> list[Op]:
    p = SIZES["day-to-day"][size]
    rng = random.Random(seed)
    net = ladder()
    # the entry link runs at the top speed 1.0, so the time step (set by
    # the fastest link) is the same for every seed
    laws = {}
    for u, v in net["links"]:
        if (u, v) == (0, 1):
            laws[(u, v)] = (1.0, _r(rng.uniform(0.5, 1.5)))
        else:
            laws[(u, v)] = (_r(rng.uniform(0.6, 1.0)),
                            _r(rng.uniform(1.0, 4.0)))
    rows = {}
    for node, outs in net["out"].items():
        if node == 0:
            continue
        if len(outs) == 1:
            rows[node] = {outs[0]: 1.0}
        else:
            frac = _r(rng.uniform(0.3, 0.7))
            rows[node] = {outs[0]: frac, outs[1]: _r(1.0 - frac)}
    end = p["demand_end"]
    mid = _r(end * rng.uniform(0.35, 0.65))
    sources = [
        [[0.0, mid, _r(rng.uniform(0.3, 0.6))],
         [mid, end, _r(rng.uniform(0.2, 0.5))]],
        [[0.0, end, _r(rng.uniform(0.2, 0.5))]],
    ]
    dest = net["destination"]
    common = {
        "seed": seed,
        "network": {"links": [{"tail": u, "head": v}
                              for u, v in net["links"]]},
        "laws": {f"{u}-{v}": {"kind": "congestion", "free_speed": fs,
                              "gain": g}
                 for (u, v), (fs, g) in laws.items()},
        "horizon": p["horizon"],
        "grid": {"cells": p["cells"], "cfl": 0.9},
    }
    split_doc = {str(node): {f"{u}-{v}": f for (u, v), f in row.items()}
                 for node, row in rows.items()}
    sim_doc = dict(common, kind="simulate", commodities=[
        {"group": "routed", "destination": dest},
        {"group": "non_routed", "destination": dest}],
        cases=[{"name": "base", "sources": [
            {"node": 0, "link": [0, 1], "commodity": k, "segments": segs}
            for k, segs in enumerate(sources)]}],
        splits=split_doc)
    rate = [[0.0, mid, _r(rng.uniform(0.6, 1.0))],
            [mid, end, _r(rng.uniform(0.4, 0.8))]]
    alpha = _r(rng.uniform(0.4, 0.6))
    eq_doc = dict(common, kind="equilibrium", entry_link=[0, 1],
                  destination=dest, demand_segments=rate, alpha=alpha,
                  rounds=p["rounds"], eps=1e-3, base_splits=split_doc,
                  routed_policy={"kind": "full_information", "beta": 2.0},
                  non_routed_policy={"kind": "static"})
    spec = {"net": net, "laws": laws, "horizon": p["horizon"],
            "cells": p["cells"]}
    d = work / "day-to-day"
    return [
        Op("simulate", "simulate", _write(d / "simulate.json", sim_doc),
           d / "simulate_out", dict(spec, sources=sources),
           checks.check_simulate),
        Op("equilibrium", "equilibrium",
           _write(d / "equilibrium.json", eq_doc), d / "equilibrium_out",
           dict(spec, rate=rate, alpha=alpha, rounds=p["rounds"], eps=1e-3),
           checks.check_equilibrium),
    ]


# --------------------------------------------------------------- shaping

def make_shaping(seed: int, work: Path, size: str) -> list[Op]:
    p = SIZES["shaping"][size]
    rng = random.Random(seed)
    links = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]
    laws = {f"{u}-{v}": {"kind": "congestion",
                         "free_speed": 1.0 if (u, v) == (0, 1)
                         else _r(rng.uniform(0.6, 1.0)),
                         "gain": _r(rng.uniform(2.0, 5.0))}
            for u, v in links}
    knots = [0.0, 0.75, 1.5, 2.25, 3.0]
    total = _r(rng.uniform(0.8, 1.2))
    social_doc = {
        "kind": "social-opt", "seed": seed,
        "network": {"links": [{"tail": u, "head": v} for u, v in links]},
        "laws": laws,
        "grid": {"cells": p["social_cells"], "cfl": 0.9},
        "commodities": [{"group": "non_routed", "destination": 4}],
        "knots": knots,
        "demand": [{"node": 0, "link": [0, 1], "commodity": 0,
                    "total": total}],
        "source_controls": [{"node": 0, "link": [0, 1], "commodity": 0}],
        "theta_controls": [{"node": 1, "commodity": 0,
                            "links": [[1, 2], [1, 3]]}],
        "base_splits": {"2": {"2-4": 1.0}, "3": {"3-4": 1.0}},
        "budget": p["social_budget"],
        "initial_step": 0.25,
    }
    control = {"t_knots": 3, "x_knots": 3, "lam_min": 0.5, "lam_max": 1.0,
               "lip": _r(rng.uniform(0.1, 0.2))}
    lo = _r(rng.uniform(0.8, 1.2))
    platoon_doc = {
        "kind": "platoon-flow", "seed": seed,
        "length": 5.0, "horizon": 2.0,
        "initial": {"kind": "bump", "lo": lo, "hi": _r(lo + 1.6),
                    "scale": _r(rng.uniform(0.8, 1.2))},
        "control": control,
        "baseline_speed": 0.75,
        "budget": p["platoon_budget"],
        "cells": p["platoon_cells"],
        "objective": "unweighted",
    }
    d = work / "shaping"
    return [
        Op("social-opt", "social-opt",
           _write(d / "social.json", social_doc), d / "social_out",
           {"knots": knots, "total": total, "budget": p["social_budget"]},
           checks.check_social),
        Op("platoon-flow", "platoon-flow",
           _write(d / "platoon.json", platoon_doc), d / "platoon_out",
           dict(control, budget=p["platoon_budget"]),
           checks.check_platoon),
    ]


# --------------------------------------------------------------- freight

#: the Sweden corridor of the paper: (tail, head, weight, dwell steps); kept
#: here, not read from the program's preset, so the recount in checks.py is
#: independent of it
SWEDEN_EDGES = (
    ("Kiruna", "Lulea", 48.0, 48), ("Lulea", "Umea", 39.0, 39),
    ("Umea", "Sundsvall", 39.0, 39), ("Sundsvall", "Uppsala", 42.0, 42),
    ("Uppsala", "Stockholm", 9.0, 9), ("Stockholm", "Helsingborg", 73.0, 73),
    ("Helsingborg", "Malmo", 8.0, 8), ("Ostersund", "Sundsvall", 30.0, 30),
)
NORTH = ("Kiruna", "Lulea", "Umea", "Sundsvall", "Uppsala", "Stockholm")
WEST = ("Ostersund", "Sundsvall", "Uppsala", "Stockholm", "Helsingborg",
        "Malmo")


def sweden_vehicles(per_flow: int, max_delay: int) -> list:
    """Departures spread evenly over two-hour bands (24 five-minute steps):
    the northern flow from step 0, the western flow from step 84."""
    window = (0, max_delay)
    out = [(NORTH, 24 * j // per_flow, window, 0.0) for j in range(per_flow)]
    out += [(WEST, 84 + 24 * j // per_flow, window, 0.0)
            for j in range(per_flow)]
    return out


def make_freight(seed: int, work: Path, size: str) -> list[Op]:
    p = SIZES["freight"][size]
    doc = {"kind": "schedule", "seed": seed, "preset": "sweden",
           "max_delay": p["max_delay"],
           "vehicles_per_flow": p["vehicles_per_flow"],
           "gamma": 1.0, "temperature": 100.0,
           "iterations": p["iterations"]}
    spec = {"edges": SWEDEN_EDGES, "gamma": 1.0,
            "vehicles": sweden_vehicles(p["vehicles_per_flow"],
                                        p["max_delay"]),
            "iterations": p["iterations"]}
    d = work / "freight"
    return [Op("schedule", "schedule", _write(d / "sweden.json", doc),
               d / "schedule_out", spec, checks.check_schedule)]


# ------------------------------------------------------- freight-private

#: hub graph of the private ring: a trunk that splits into two branches
PRIVATE_EDGES = (("A", "B", 2.0, 2), ("B", "C", 1.0, 2), ("B", "D", 1.0, 2))


def make_freight_private(seed: int, work: Path, size: str) -> list[Op]:
    p = SIZES["freight-private"][size]
    rng = random.Random(seed)
    vehicles = []
    for k in range(p["vehicles"]):
        hubs = ("A", "B", "C") if k % 2 == 0 else ("A", "B", "D")
        if k == 0:
            # pins the horizon: the latest departure with the widest window
            depart, window = 2, (0, 3)
        else:
            depart, window = rng.randint(0, 2), (0, rng.randint(2, 3))
        slope = float(rng.randint(0, 1))
        vehicles.append((hubs, depart, window, slope))
    doc = {"kind": "schedule-private", "seed": seed,
           "graph": {"edges": [list(e) for e in PRIVATE_EDGES]},
           "vehicles": [{"hubs": list(h), "depart": dep, "window": list(w),
                         "delay_cost_slope": s}
                        for h, dep, w, s in vehicles],
           "gamma": 1.0, "temperature": 2.0,
           "iterations": p["iterations"], "bits": p["bits"]}
    spec = {"edges": PRIVATE_EDGES, "gamma": 1.0, "vehicles": vehicles,
            "iterations": p["iterations"]}
    d = work / "freight-private"
    return [Op("schedule-private", "schedule-private",
               _write(d / "ring.json", doc), d / "private_out", spec,
               checks.check_schedule_private)]


MAKERS = {
    "day-to-day": make_day_to_day,
    "shaping": make_shaping,
    "freight": make_freight,
    "freight-private": make_freight_private,
}


def make_ops(workload: str, seed: int, work: Path, size: str = "full"
             ) -> list[Op]:
    """Generate the workload's scenario files under ``work`` and return its
    operations in the order one round runs them."""
    return MAKERS[workload](seed, work, size)
