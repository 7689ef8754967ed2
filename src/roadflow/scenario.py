"""Scenario documents: JSON schema validation and domain-object builders.

A scenario file is a single JSON object with a ``kind`` selecting the
pipeline and a payload the kind's builder validates field by field
before any computation starts.  Builders raise :class:`SchemaError`
with the offending field path, so a failed validation never costs a
simulation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .errors import SchemaError
from .network import (ROW_SUM_TOL, Commodity, PiecewiseConstant,
                      RoadNetwork, SourceSchedule)
from .network_sim import _DEFAULT_CELLS, _time_steps
from .nonlocal_solver import (GridSpec, NonlocalWindow, VelocityLaw,
                              congestion_law, constant_law, linear_law)
from .platoon_flow import AdmissibleVelocityField, FreightPair, truck_steps
from .routing import EquilibriumDemand, LogitRule, RoutingPolicy
from .scheduler import (FreightGraph, ScheduleState, VehicleAssignment,
                        build_sweden_scenario, default_horizon)
from .social_optimum import (ControlParameterization, DemandSpec,
                             SourceControl, ThetaControl)

KINDS = ("simulate", "equilibrium", "social-opt", "platoon-flow",
         "schedule", "schedule-private")
#: largest Paillier modulus a scenario may ask for: keygen's pure-Python
#: prime search grows steeply with the key size (about 2 s at 2048 bits)
MAX_KEY_BITS = 4096
#: largest array one run may ask for, in float64 values (128 MiB): a network
#: run's density block (links x (time steps + 1) x commodities x cells), a
#: platoon-flow solve's particle positions ((time steps + 1) x particles), or
#: a schedule run's trajectory ((iterations + 1) x vehicles) or count grid
#: (edges x horizon); the bundled and benchmark scenarios need at most 480 000
_MAX_STATE_VALUES = 2 ** 24

_MISSING = object()


@dataclass
class Scenario:
    kind: str
    seed: int
    payload: dict
    path: Path
    raw_bytes: bytes


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    kind = _string(doc, "kind", "scenario")
    if kind not in KINDS:
        raise SchemaError(f"scenario.kind: {kind!r} is not one of {KINDS}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError("scenario.seed: must be a nonnegative integer")
    return Scenario(kind, seed, doc, path, raw)


def validate_scenario(scenario: Scenario) -> None:
    """Run the kind's builder, discarding the result."""
    BUILDERS[scenario.kind](scenario.payload)


# ---------------------------------------------------------------- helpers

def _fail(path: str, message: str) -> None:
    raise SchemaError(f"{path}: {message}")


def _field(obj: Mapping, name: str, path: str, default=_MISSING):
    if name in obj:
        return obj[name]
    if default is _MISSING:
        _fail(f"{path}.{name}", "required field is missing")
    return default


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_finite(val) -> bool:
    """A JSON number that is a finite float (``json`` reads NaN and
    Infinity, and integers too large for a float)."""
    try:
        return _is_number(val) and math.isfinite(val)
    except OverflowError:
        return False


def _number(obj, name, path, default=_MISSING, minimum=None) -> float:
    val = _field(obj, name, path, default)
    if val is default and default is not _MISSING:
        return val
    if not _is_number(val):
        _fail(f"{path}.{name}", f"expected a number, got {val!r}")
    if not _is_finite(val):
        _fail(f"{path}.{name}", f"expected a finite number, got {val!r}")
    if minimum is not None and val < minimum:
        _fail(f"{path}.{name}", f"must be >= {minimum}")
    return float(val)

def _integer(obj, name, path, default=_MISSING, minimum=None,
             maximum=None) -> int:
    val = _field(obj, name, path, default)
    if val is default and default is not _MISSING:
        return val
    if isinstance(val, bool) or not isinstance(val, int):
        _fail(f"{path}.{name}", f"expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        _fail(f"{path}.{name}", f"must be >= {minimum}")
    if maximum is not None and val > maximum:
        _fail(f"{path}.{name}", f"must be <= {maximum}")
    return int(val)


def _string(obj, name, path, default=_MISSING) -> str:
    val = _field(obj, name, path, default)
    if val is default and default is not _MISSING:
        return val
    if not isinstance(val, str):
        _fail(f"{path}.{name}", f"expected a string, got {val!r}")
    return val


def _list(obj, name, path, default=_MISSING) -> list:
    val = _field(obj, name, path, default)
    if val is default and default is not _MISSING:
        return val
    if not isinstance(val, list):
        _fail(f"{path}.{name}", f"expected a list, got {val!r}")
    return val


def _dict(obj, name, path, default=_MISSING) -> dict:
    val = _field(obj, name, path, default)
    if val is default and default is not _MISSING:
        return val
    if not isinstance(val, dict):
        _fail(f"{path}.{name}", f"expected an object, got {val!r}")
    return val


def _parse_link(value, path) -> tuple:
    if isinstance(value, str) and value.count("-") == 1:
        a, b = value.split("-")
        try:
            return (int(a), int(b))
        except ValueError:
            _fail(path, f"link {value!r} must be '<tail>-<head>' with integer nodes")
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        return (value[0], value[1])
    _fail(path, f"expected a link as [tail, head] or 'tail-head', got {value!r}")


def _segments(value, path) -> PiecewiseConstant:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of [start, end, value] segments")
    segs = []
    for k, seg in enumerate(value):
        # bounds may be infinite, values may not; NaN is never a number here
        if (not isinstance(seg, list) or len(seg) != 3
                or not all(_is_number(v) and v == v for v in seg[:2])
                or not _is_finite(seg[2])):
            _fail(f"{path}[{k}]", "segment must be [start, end, value] "
                  "numbers with a finite value")
        segs.append((float(seg[0]), float(seg[1]), float(seg[2])))
    try:
        return PiecewiseConstant(segs)
    except ValueError as exc:
        _fail(path, str(exc))


# ------------------------------------------------------- shared builders

def build_velocity_law(spec, path) -> VelocityLaw:
    """Named speed laws: constant, congestion (v0/(1+g W)), linear."""
    if not isinstance(spec, dict):
        _fail(path, "expected a law object")
    kind = _string(spec, "kind", path)
    if kind == "constant":
        return constant_law(_number(spec, "speed", path, minimum=1e-9))
    if kind == "congestion":
        v0 = _number(spec, "free_speed", path, minimum=1e-9)
        gain = _number(spec, "gain", path, minimum=0.0)
        return congestion_law(v0, gain)
    if kind == "linear":
        v0 = _number(spec, "free_speed", path, minimum=1e-9)
        slope = _number(spec, "slope", path, minimum=0.0)
        floor = _number(spec, "floor", path, minimum=1e-9)
        return linear_law(v0, slope, floor)
    _fail(f"{path}.kind", f"unknown law kind {kind!r}")


def build_window(spec, path) -> Optional[NonlocalWindow]:
    if spec is None or spec == "whole":
        return NonlocalWindow()
    if not isinstance(spec, dict):
        _fail(path, "expected 'whole' or an object with lower/upper")
    lower = _number(spec, "lower", path, default=0.0, minimum=0.0)
    upper = spec.get("upper")
    if upper is not None:
        upper = _number(spec, "upper", path, minimum=0.0)
    return NonlocalWindow(lower=lower, upper=upper)


def build_profile(spec, path):
    """Initial-density profile: scalar, slab, or quadratic bump."""
    if _is_number(spec):
        if not _is_finite(spec):
            _fail(path, f"expected a finite number, got {spec!r}")
        return float(spec)
    if not isinstance(spec, dict):
        _fail(path, "expected a number or a profile object")
    kind = _string(spec, "kind", path)
    if kind == "slab":
        height = _number(spec, "height", path, minimum=0.0)
        lo = _number(spec, "lo", path)
        hi = _number(spec, "hi", path)
        if hi <= lo:
            _fail(path, "slab needs lo < hi")
        return lambda x: height if lo <= x < hi else 0.0
    if kind == "bump":
        lo = _number(spec, "lo", path)
        hi = _number(spec, "hi", path)
        scale = _number(spec, "scale", path, default=1.0, minimum=0.0)
        if hi <= lo:
            _fail(path, "bump needs lo < hi")
        return lambda x: scale * (hi - x) * (x - lo) if lo <= x <= hi else 0.0
    _fail(f"{path}.kind", f"unknown profile kind {kind!r}")


def build_network(spec, path) -> RoadNetwork:
    links_spec = _list(spec, "links", path)
    links = []
    for k, entry in enumerate(links_spec):
        if not isinstance(entry, dict):
            _fail(f"{path}.links[{k}]", "expected an object")
        tail = _integer(entry, "tail", f"{path}.links[{k}]")
        head = _integer(entry, "head", f"{path}.links[{k}]")
        links.append((tail, head))
    if not links:
        _fail(f"{path}.links", "network needs at least one link")
    nodes = sorted({n for link in links for n in link})
    try:
        return RoadNetwork(nodes, links)
    except Exception as exc:
        _fail(path, f"invalid network: {exc}")


def build_laws(spec, net: RoadNetwork, path):
    """One shared law or a per-link mapping keyed 'tail-head'."""
    if isinstance(spec, dict) and "kind" in spec:
        return build_velocity_law(spec, path)
    if isinstance(spec, dict):
        laws = {}
        for key, sub in spec.items():
            link = _parse_link(key, f"{path}.{key}")
            if link not in net.links:
                _fail(f"{path}.{key}", "law given for a link not in the network")
            laws[link] = build_velocity_law(sub, f"{path}.{key}")
        missing = [a for a in net.links if a not in laws]
        if missing:
            _fail(path, f"links without a law: {missing}")
        return laws
    _fail(path, "expected a law object or a per-link mapping")


def build_grid(spec, path) -> Optional[GridSpec]:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        _fail(path, "expected an object with cells/cfl")
    cells = _integer(spec, "cells", path, minimum=4)
    cfl = _number(spec, "cfl", path, default=0.9)
    try:
        return GridSpec(cells=cells, cfl=cfl)
    except ValueError as exc:
        _fail(path, str(exc))


def build_commodities(spec, path) -> tuple:
    if not isinstance(spec, list) or not spec:
        _fail(path, "expected a nonempty list of commodities")
    out = []
    for k, entry in enumerate(spec):
        if not isinstance(entry, dict):
            _fail(f"{path}[{k}]", "expected an object")
        group = _string(entry, "group", f"{path}[{k}]", default="non_routed")
        dest = _integer(entry, "destination", f"{path}[{k}]")
        try:
            out.append(Commodity(group=group, destination=dest))
        except ValueError as exc:
            _fail(f"{path}[{k}]", str(exc))
    if len(set(out)) != len(out):
        _fail(path, "duplicate commodities")
    return tuple(out)


def _state_values(net: RoadNetwork, n_commodities: int, laws, horizon: float,
                  grid: Optional[GridSpec]) -> int:
    """Values in the density block of one network run before any CFL
    halving, with the simulator's step count.  Every law the schema builds
    is nonincreasing, so the step count needs no mass budget."""
    grid = grid or GridSpec(cells=_DEFAULT_CELLS)
    law_list = list(laws.values()) if isinstance(laws, dict) else [laws]
    steps = _time_steps(law_list, horizon, grid, 0.0)
    return len(net.links) * (steps + 1) * n_commodities * grid.cells


def _check_state_size(built: dict, n_commodities: int, horizon: float,
                      path: str) -> dict:
    size = _state_values(built["net"], n_commodities, built["laws"], horizon,
                         built["grid"])
    if size > _MAX_STATE_VALUES:
        _fail(path, f"a run would hold {size} density values (links x "
              f"(time steps + 1) x commodities x cells), more than the cap "
              f"of {_MAX_STATE_VALUES}; shorten the horizon or use fewer "
              "cells")
    return built


def _commodity_ref(obj, name, commodities, path) -> Commodity:
    idx = _integer(obj, name, path, minimum=0)
    if idx >= len(commodities):
        _fail(f"{path}.{name}", f"commodity index {idx} out of range")
    return commodities[idx]


def build_sources(spec, net, commodities, path) -> SourceSchedule:
    entries = {}
    for k, entry in enumerate(spec):
        p = f"{path}[{k}]"
        if not isinstance(entry, dict):
            _fail(p, "expected an object")
        node = _integer(entry, "node", p)
        link = _parse_link(_field(entry, "link", p), f"{p}.link")
        commodity = _commodity_ref(entry, "commodity", commodities, p)
        series = _segments(_field(entry, "segments", p), f"{p}.segments")
        key = (node, link, commodity)
        if key in entries:
            _fail(p, "duplicate source entry")
        entries[key] = series
    try:
        schedule = SourceSchedule(entries)
        schedule.validate(net, commodities)
    except Exception as exc:
        _fail(path, f"invalid sources: {exc}")
    return schedule


def build_base_rows(spec, net, path) -> dict:
    """Plain split rows {node: {out_link: fraction}} shared by both classes."""
    rows: dict = {}
    if not isinstance(spec, dict):
        _fail(path, "expected {node: {link: fraction}}")
    for node_key, row_spec in spec.items():
        try:
            node = int(node_key)
        except ValueError:
            _fail(f"{path}.{node_key}", "node keys must be integers")
        if not isinstance(row_spec, dict):
            _fail(f"{path}.{node_key}", "expected {link: fraction}")
        row = {}
        for link_key, frac in row_spec.items():
            link = _parse_link(link_key, f"{path}.{node_key}.{link_key}")
            if link not in net.links:
                _fail(f"{path}.{node_key}.{link_key}", "link not in the network")
            if isinstance(frac, bool) or not isinstance(frac, (int, float)) or frac < 0:
                _fail(f"{path}.{node_key}.{link_key}",
                      "fraction must be a nonnegative number")
            row[link] = float(frac)
        # summed in out-link order, as the simulator sums it; NaN fails too
        total = sum(row.get(a, 0.0) for a in net.links if a[0] == node)
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            _fail(f"{path}.{node_key}",
                  f"row sums to {total!r}, expected 1 within {ROW_SUM_TOL}")
        rows[node] = row
    return rows


def build_policy(spec, net, base_rows, path) -> RoutingPolicy:
    if not isinstance(spec, dict):
        _fail(path, "expected a policy object")
    kind = _string(spec, "kind", path)
    beta = _number(spec, "beta", path, default=1.0, minimum=0.0)
    kwargs: dict = {"kind": kind, "logit": LogitRule(beta=beta)}
    if kind in ("delayed",):
        kwargs["delay"] = _number(spec, "delay", path, minimum=0.0)
    if kind == "incentivized":
        kwargs["congestion_weight"] = _number(spec, "congestion_weight", path,
                                              minimum=0.0)
    if kind == "simplified_forecast":
        kwargs["forecast"] = _number(spec, "forecast", path, minimum=0.0)
    if kind == "local":
        kwargs["radius"] = _integer(spec, "radius", path, default=1, minimum=1)
    if kind == "sub_network":
        mask_spec = _list(spec, "mask", path)
        mask = frozenset(_parse_link(v, f"{path}.mask[{k}]")
                         for k, v in enumerate(mask_spec))
        unknown = [a for a in mask if a not in net.links]
        if unknown:
            _fail(f"{path}.mask", f"links not in the network: {unknown}")
        kwargs["mask"] = mask
    if kind == "database":
        table_spec = _dict(spec, "table", path)
        table = {}
        for key, segs in table_spec.items():
            link = _parse_link(key, f"{path}.table.{key}")
            table[link] = _segments(segs, f"{path}.table.{key}")
        kwargs["table"] = table
    if kind in ("static", "local", "delayed", "database"):
        if base_rows is None:
            _fail(path, f"{kind} policy needs base_splits in the scenario")
        kwargs["base"] = base_rows
    try:
        return RoutingPolicy(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


# ------------------------------------------------------ per-kind builders

def build_simulate(payload: dict) -> dict:
    path = "simulate"
    net = build_network(_dict(payload, "network", path), f"{path}.network")
    laws = build_laws(_field(payload, "laws", path), net, f"{path}.laws")
    horizon = _number(payload, "horizon", path, minimum=1e-9)
    grid = build_grid(payload.get("grid"), f"{path}.grid")
    commodities = build_commodities(_list(payload, "commodities", path),
                                    f"{path}.commodities")
    windows_spec = payload.get("windows")
    windows = None
    if windows_spec is not None:
        if isinstance(windows_spec, dict) and (
                "lower" in windows_spec or "upper" in windows_spec):
            windows = build_window(windows_spec, f"{path}.windows")
        elif isinstance(windows_spec, dict):
            windows = {}
            for key, sub in windows_spec.items():
                link = _parse_link(key, f"{path}.windows.{key}")
                windows[link] = build_window(sub, f"{path}.windows.{key}")
        else:
            windows = build_window(windows_spec, f"{path}.windows")

    cases_spec = payload.get("cases", [{"name": "run"}])
    if not isinstance(cases_spec, list) or not cases_spec:
        _fail(f"{path}.cases", "expected a nonempty list")
    shared_sources = payload.get("sources", [])
    shared_initial = payload.get("initial_density", [])
    cases = []
    names = set()
    for k, case in enumerate(cases_spec):
        p = f"{path}.cases[{k}]"
        if not isinstance(case, dict):
            _fail(p, "expected an object")
        name = _string(case, "name", p)
        if not name or any(c in name for c in "/\\ "):
            _fail(f"{p}.name", "case name must be nonempty without separators")
        if name in names:
            _fail(f"{p}.name", f"duplicate case name {name!r}")
        names.add(name)
        sources = build_sources(case.get("sources", shared_sources), net,
                                commodities, f"{p}.sources")
        initial = {}
        for j, entry in enumerate(case.get("initial_density", shared_initial)):
            ip = f"{p}.initial_density[{j}]"
            if not isinstance(entry, dict):
                _fail(ip, "expected an object")
            link = _parse_link(_field(entry, "link", ip), f"{ip}.link")
            if link not in net.links:
                _fail(f"{ip}.link", "link not in the network")
            commodity = _commodity_ref(entry, "commodity", commodities, ip)
            initial[(link, commodity)] = build_profile(
                _field(entry, "profile", ip), f"{ip}.profile")
        cases.append({"name": name, "sources": sources, "initial": initial})

    splits_spec = payload.get("splits")
    base_rows = (build_base_rows(splits_spec, net, f"{path}.splits")
                 if splits_spec is not None else None)
    built = {"net": net, "laws": laws, "horizon": horizon, "grid": grid,
             "commodities": commodities, "windows": windows, "cases": cases,
             "base_rows": base_rows}
    return _check_state_size(built, len(commodities), horizon, path)


def build_equilibrium(payload: dict) -> dict:
    path = "equilibrium"
    net = build_network(_dict(payload, "network", path), f"{path}.network")
    laws = build_laws(_field(payload, "laws", path), net, f"{path}.laws")
    horizon = _number(payload, "horizon", path, minimum=1e-9)
    grid = build_grid(payload.get("grid"), f"{path}.grid")
    entry_link = _parse_link(_field(payload, "entry_link", path),
                             f"{path}.entry_link")
    if entry_link not in net.links:
        _fail(f"{path}.entry_link", "link not in the network")
    destination = _integer(payload, "destination", path)
    if destination not in net.nodes:
        _fail(f"{path}.destination", "node not in the network")
    rate = _segments(_field(payload, "demand_segments", path),
                     f"{path}.demand_segments")
    alpha = _number(payload, "alpha", path, minimum=0.0)
    if alpha > 1.0:
        _fail(f"{path}.alpha", "routed fraction must lie in [0, 1]")
    rounds = _integer(payload, "rounds", path, minimum=1)
    eps = _number(payload, "eps", path, default=1e-6, minimum=0.0)
    base_rows = build_base_rows(_dict(payload, "base_splits", path), net,
                                f"{path}.base_splits")
    routed = build_policy(_dict(payload, "routed_policy", path), net,
                          base_rows, f"{path}.routed_policy")
    non_routed = build_policy(_dict(payload, "non_routed_policy", path), net,
                              base_rows, f"{path}.non_routed_policy")
    if not routed.is_routed():
        _fail(f"{path}.routed_policy.kind", "not a routed policy kind")
    if non_routed.is_routed():
        _fail(f"{path}.non_routed_policy.kind", "not a non-routed policy kind")
    demand = EquilibriumDemand(entry_link=entry_link, rate=rate,
                               destination=destination)
    built = {"net": net, "laws": laws, "horizon": horizon, "grid": grid,
             "demand": demand, "alpha": alpha, "rounds": rounds, "eps": eps,
             "base_rows": base_rows, "policies": (routed, non_routed)}
    # the routed and the non-routed commodity
    return _check_state_size(built, 2, horizon, path)


def build_social_opt(payload: dict) -> dict:
    path = "social-opt"
    net = build_network(_dict(payload, "network", path), f"{path}.network")
    laws = build_laws(_field(payload, "laws", path), net, f"{path}.laws")
    grid = build_grid(payload.get("grid"), f"{path}.grid")
    commodities = build_commodities(_list(payload, "commodities", path),
                                    f"{path}.commodities")
    knots_spec = _list(payload, "knots", path)
    if len(knots_spec) < 2 or not all(_is_finite(v) for v in knots_spec):
        _fail(f"{path}.knots", "expected at least two finite numeric knots")
    totals = {}
    for k, entry in enumerate(_list(payload, "demand", path)):
        p = f"{path}.demand[{k}]"
        if not isinstance(entry, dict):
            _fail(p, "expected an object")
        node = _integer(entry, "node", p)
        link = _parse_link(_field(entry, "link", p), f"{p}.link")
        commodity = _commodity_ref(entry, "commodity", commodities, p)
        totals[(node, link, commodity)] = _number(entry, "total", p, minimum=0.0)
    theta = []
    theta_spec = payload.get("theta_controls", [])
    for k, entry in enumerate(theta_spec):
        p = f"{path}.theta_controls[{k}]"
        if not isinstance(entry, dict):
            _fail(p, "expected an object")
        node = _integer(entry, "node", p)
        commodity = _commodity_ref(entry, "commodity", commodities, p)
        links = tuple(_parse_link(v, f"{p}.links[{j}]")
                      for j, v in enumerate(_list(entry, "links", p)))
        out = net.out_links(node)
        if tuple(links) != out:
            _fail(f"{p}.links",
                  f"must list every out-link of node {node} in order {list(out)}")
        theta.append(ThetaControl(node=node, commodity=commodity, links=links))
    sources = []
    for k, entry in enumerate(payload.get("source_controls", [])):
        p = f"{path}.source_controls[{k}]"
        if not isinstance(entry, dict):
            _fail(p, "expected an object")
        node = _integer(entry, "node", p)
        link = _parse_link(_field(entry, "link", p), f"{p}.link")
        commodity = _commodity_ref(entry, "commodity", commodities, p)
        control = SourceControl(node=node, link=link, commodity=commodity)
        if control.key() not in totals:
            _fail(p, "controlled source has no demand total")
        sources.append(control)
    if not theta and not sources:
        _fail(path, "need at least one theta or source control")
    budget = _integer(payload, "budget", path, minimum=1)
    fd_step = _number(payload, "fd_step", path, default=1e-3, minimum=1e-12)
    initial_step = _number(payload, "initial_step", path, default=0.25,
                           minimum=1e-12)
    splits_spec = payload.get("base_splits")
    base_rows = (build_base_rows(splits_spec, net, f"{path}.base_splits")
                 if splits_spec is not None else None)
    try:
        demand = DemandSpec(totals=totals)
        param = ControlParameterization([float(v) for v in knots_spec],
                                        theta=theta, sources=sources)
    except ValueError as exc:
        _fail(path, str(exc))
    built = {"net": net, "laws": laws, "grid": grid, "demand": demand,
             "param": param, "budget": budget, "fd_step": fd_step,
             "initial_step": initial_step, "base_rows": base_rows}
    return _check_state_size(built, len(demand.commodities()), param.horizon,
                             path)


def build_platoon_flow(payload: dict) -> dict:
    path = "platoon-flow"
    length = _number(payload, "length", path, minimum=1e-9)
    horizon = _number(payload, "horizon", path, minimum=1e-9)
    initial = build_profile(_field(payload, "initial", path), f"{path}.initial")
    inflow = payload.get("inflow_segments")
    inflow_series = (_segments(inflow, f"{path}.inflow_segments")
                     if inflow is not None else None)

    background = payload.get("background")
    bg_kwargs: dict = {}
    if background is not None:
        p = f"{path}.background"
        if not isinstance(background, dict):
            _fail(p, "expected an object")
        bg_kwargs["background_law"] = build_velocity_law(
            _dict(background, "law", p), f"{p}.law")
        bg_kwargs["background_initial"] = build_profile(
            _field(background, "initial", p), f"{p}.initial")
        bg_inflow = background.get("inflow_segments")
        if bg_inflow is not None:
            bg_kwargs["background_inflow"] = _segments(
                bg_inflow, f"{p}.inflow_segments")
        bg_kwargs["window"] = build_window(background.get("window"),
                                           f"{p}.window")

    control = _dict(payload, "control", path)
    cp = f"{path}.control"
    nt = _integer(control, "t_knots", cp, minimum=2)
    nx = _integer(control, "x_knots", cp, minimum=2)
    lam_min = _number(control, "lam_min", cp, minimum=1e-9)
    lam_max = _number(control, "lam_max", cp)
    lip = _number(control, "lip", cp, minimum=0.0)
    if lam_max < lam_min:
        _fail(cp, "lam_max must be >= lam_min")
    baseline = _number(payload, "baseline_speed", path, minimum=1e-9)
    if not lam_min <= baseline <= lam_max:
        _fail(f"{path}.baseline_speed", "baseline must lie within the bounds")
    budget = _integer(payload, "budget", path, minimum=1)
    cells = _integer(payload, "cells", path, default=120, minimum=8)
    objective = _string(payload, "objective", path, default="unweighted")
    if objective not in ("unweighted", "background_weighted"):
        _fail(f"{path}.objective", f"unknown objective {objective!r}")
    if objective == "background_weighted" and background is None:
        _fail(f"{path}.objective",
              "background_weighted objective needs a background section")
    fd_step = _number(payload, "fd_step", path, default=1e-3, minimum=1e-12)
    try:
        steps = truck_steps(length, horizon, cells, lam_max)
    except ArithmeticError:                 # the step count overflows
        steps = math.inf
    positions = (steps + 1) * (cells + (steps if inflow is not None else 0))
    if positions > _MAX_STATE_VALUES:
        _fail(path, f"a solve would hold {positions} particle positions "
              "((time steps + 1) x particles), more than the cap of "
              f"{_MAX_STATE_VALUES}; shorten the horizon or use fewer cells")

    pair = FreightPair(length=length, horizon=horizon, truck_initial=initial,
                       truck_inflow=inflow_series, **bg_kwargs)
    baseline_field = AdmissibleVelocityField.constant(
        baseline, horizon=horizon, length=length,
        lam_min=lam_min, lam_max=lam_max, lip=lip)
    control0 = AdmissibleVelocityField(
        np.linspace(0.0, horizon, nt), np.linspace(0.0, length, nx),
        np.full((nt, nx), baseline), lam_min=lam_min, lam_max=lam_max, lip=lip)
    return {"pair": pair, "baseline": baseline_field, "control0": control0,
            "budget": budget, "cells": cells, "objective": objective,
            "fd_step": fd_step}


def _check_schedule_size(path: str, name: str, size: int, shape: str) -> None:
    if size > _MAX_STATE_VALUES:
        _fail(path, f"a run would hold a {name} of {size} values ({shape}), "
              f"more than the cap of {_MAX_STATE_VALUES}; use fewer "
              "iterations, vehicles, delays or steps")


def _build_schedule_common(payload: dict, path: str) -> dict:
    iterations = _integer(payload, "iterations", path, minimum=1)
    preset = payload.get("preset")
    if preset is not None:
        if preset != "sweden":
            _fail(f"{path}.preset", f"unknown preset {preset!r}")
        max_delay = _integer(payload, "max_delay", path, default=3, minimum=0)
        per_flow = _integer(payload, "vehicles_per_flow", path, default=40,
                            minimum=1)
        # checked before the build, which makes one object per vehicle
        _check_schedule_size(path, "trajectory", (iterations + 1) * 2 * per_flow,
                             "(iterations + 1) x vehicles")
        graph, assignments = build_sweden_scenario(max_delay, per_flow)
    else:
        graph_spec = _dict(payload, "graph", path)
        edges_spec = _list(graph_spec, "edges", f"{path}.graph")
        edges = []
        for k, entry in enumerate(edges_spec):
            p = f"{path}.graph.edges[{k}]"
            if (not isinstance(entry, list) or len(entry) != 4
                    or not isinstance(entry[0], str)
                    or not isinstance(entry[1], str)
                    or not all(_is_finite(v) for v in entry[2:])):
                _fail(p, "expected [tail, head, weight, dwell] with finite "
                      "numbers")
            edges.append((entry[0], entry[1], entry[2], entry[3]))
        try:
            graph = FreightGraph(edges)
        except (ValueError, OverflowError) as exc:   # dwell beyond int64
            _fail(f"{path}.graph", str(exc))
        vehicles = _list(payload, "vehicles", path)
        _check_schedule_size(path, "trajectory",
                             (iterations + 1) * len(vehicles),
                             "(iterations + 1) x vehicles")
        assignments = []
        for k, entry in enumerate(vehicles):
            p = f"{path}.vehicles[{k}]"
            if not isinstance(entry, dict):
                _fail(p, "expected an object")
            hubs = _list(entry, "hubs", p)
            depart = _integer(entry, "depart", p, minimum=0)
            window_spec = _list(entry, "window", p)
            if (len(window_spec) != 2
                    or any(isinstance(v, bool) or not isinstance(v, int)
                           for v in window_spec)):
                _fail(f"{p}.window", "expected [lo, hi] integers")
            slope = _number(entry, "delay_cost_slope", p, default=0.0,
                            minimum=0.0)
            cost = (lambda t, s=slope: s * t) if slope > 0.0 else None
            try:
                # checked before the build, which holds every step of the walk
                walk = [graph.edge_index(a, b) for a, b in zip(hubs, hubs[1:])]
                _check_schedule_size(p, "walk",
                                     sum(int(graph.dwells[e]) for e in walk),
                                     "the sum of its dwells")
                assignments.append(VehicleAssignment.from_hub_path(
                    graph, hubs, depart, (window_spec[0], window_spec[1]),
                    cost))
            except (ValueError, KeyError, OverflowError) as exc:
                _fail(p, str(exc))
        if not assignments:
            _fail(f"{path}.vehicles", "need at least one vehicle")
    _check_schedule_size(path, "count grid",
                         len(graph) * default_horizon(assignments),
                         "edges x horizon")
    gamma = _number(payload, "gamma", path, default=1.0, minimum=0.0)
    temperature = _number(payload, "temperature", path, default=100.0,
                          minimum=1e-12)
    tau0 = np.array([v.window[0] for v in assignments], dtype=int)
    state = ScheduleState(graph, tuple(assignments), tau0, gamma=gamma,
                          temperature=temperature)
    return {"graph": graph, "assignments": assignments, "state": state,
            "iterations": iterations}


def build_schedule(payload: dict) -> dict:
    return _build_schedule_common(payload, "schedule")


def build_schedule_private(payload: dict) -> dict:
    built = _build_schedule_common(payload, "schedule-private")
    built["bits"] = _integer(payload, "bits", "schedule-private", default=512,
                             minimum=256, maximum=MAX_KEY_BITS)
    return built


BUILDERS = {
    "simulate": build_simulate,
    "equilibrium": build_equilibrium,
    "social-opt": build_social_opt,
    "platoon-flow": build_platoon_flow,
    "schedule": build_schedule,
    "schedule-private": build_schedule_private,
}
