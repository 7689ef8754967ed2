"""Scenario documents: JSON schema validation and domain-object builders.

A scenario file is a single JSON object with a ``kind`` selecting the
pipeline and a payload the kind's builder validates field by field
before any computation starts.  Builders raise :class:`SchemaError`
with the offending field path, so a failed validation never costs a
simulation.  Each builder, and each reader it calls, imports the classes
it builds, so reading a scenario loads only the layers of its kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .errors import SchemaError

KINDS = ("simulate", "equilibrium", "social-opt", "platoon-flow",
         "schedule", "schedule-private")
#: largest Paillier modulus a scenario may ask for: keygen's pure-Python
#: prime search grows steeply with the key size (median 1.3 s at 2048 bits
#: and 14 s at 4096 on a 2-CPU x86_64 VM without gmpy2)
MAX_KEY_BITS = 4096
#: largest array one run may ask for, in float64 values (128 MiB): a network
#: run's density block (links x (time steps + 1) x commodities x cells; an
#: equilibrium keeps rounds + 1 of them), a platoon-flow solve's particle
#: positions ((time steps + 1) x particles) or knot grid, or a schedule run's
#: trajectory ((iterations + 1) x vehicles), walk, count grid (edges x
#: horizon) or learning tables (see ``_build_schedule_common``); the bundled
#: and benchmark scenarios need at most 2 878 848
_MAX_STATE_VALUES = 2 ** 24
#: how a network run's density block is counted
_DENSITY_SHAPE = "links x (time steps + 1) x commodities x cells"

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
    twice: dict = {}     # id of an object -> a key it names twice

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            twice[id(obj)] = next(k for i, k in enumerate(keys)
                                  if k in keys[:i])
        return obj

    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if twice:
        _fail(_key_twice(doc, "scenario", twice),
              "key named twice in one object")
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    kind = _string(doc, "kind", "scenario")
    if kind not in KINDS:
        raise SchemaError(f"scenario.kind: {kind!r} is not one of {KINDS}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError("scenario.seed: must be a nonnegative integer")
    return Scenario(kind, seed, doc, path, raw)


def _key_twice(value, path: str, twice: dict) -> Optional[str]:
    """The path of the first key that an object in ``value`` names twice,
    ``twice`` mapping each such object's id to the key."""
    if isinstance(value, dict):
        if id(value) in twice:
            return f"{path}.{twice[id(value)]}"
        items = [(f"{path}.{k}", v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{k}]", v) for k, v in enumerate(value)]
    else:
        return None
    for sub_path, sub in items:
        found = _key_twice(sub, sub_path, twice)
        if found is not None:
            return found
    return None


def validate_scenario(scenario: Scenario) -> None:
    """Run the kind's builder, discarding the result."""
    BUILDERS[scenario.kind](scenario.payload)


# ---------------------------------------------------------------- helpers

def _fail(path: str, message: str) -> None:
    raise SchemaError(f"{path}: {message}")


def _check_size(path: str, what: str, size, shape: str) -> None:
    """Refuse a run that would hold ``what`` of ``size`` float64 values,
    counted as ``shape`` by its solver's own formula, above the cap."""
    if size > _MAX_STATE_VALUES:
        _fail(path, f"a run would hold {what} of {size} values ({shape}), "
              f"more than the cap of {_MAX_STATE_VALUES}")


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


def _typed(kind: type, noun: str):
    """The reader of a field that holds a ``kind``, named ``noun``."""
    def read(obj, name, path, default=_MISSING):
        val = _field(obj, name, path, default)
        if val is not default and not isinstance(val, kind):
            _fail(f"{path}.{name}", f"expected {noun}, got {val!r}")
        return val
    return read


_string = _typed(str, "a string")
_list = _typed(list, "a list")
_dict = _typed(dict, "an object")


def _object(value, path) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    return value


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


def _net_link(value, net: RoadNetwork, path, what="link") -> tuple:
    """``value`` as a link of ``net``; ``what`` names it when it is not."""
    link = _parse_link(value, path)
    if link not in net.links:
        _fail(path, f"{what} not in the network")
    return link


def _net_node(obj, name, net: RoadNetwork, path) -> int:
    node = _integer(obj, name, path)
    if node not in net.nodes:
        _fail(f"{path}.{name}", "node not in the network")
    return node


def _per_link(spec: dict, net: RoadNetwork, path, what, build) -> dict:
    """A mapping keyed 'tail-head' as {link: build(value, path)}; two keys
    that name one link ('0-1' and '00-1') are refused."""
    out = {}
    for key, sub in spec.items():
        link = _net_link(key, net, f"{path}.{key}", what)
        if link in out:
            _fail(f"{path}.{key}", f"link {link[0]}-{link[1]} named twice")
        out[link] = build(sub, f"{path}.{key}")
    return out


def _segments(value, path) -> PiecewiseConstant:
    from .network import PiecewiseConstant
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of [start, end, value] segments")
    segs = []
    for k, seg in enumerate(value):
        # bounds may be infinite, values may not; NaN and integers too large
        # for a float are refused
        if (not isinstance(seg, list) or len(seg) != 3
                or not all(_is_finite(v) or v in (-math.inf, math.inf)
                           for v in seg[:2])
                or not (_is_finite(seg[2]) and seg[2] >= 0)):
            _fail(f"{path}[{k}]", "segment must be [start, end, value] "
                  "numbers with a finite nonnegative value")
        segs.append((float(seg[0]), float(seg[1]), float(seg[2])))
    try:
        return PiecewiseConstant(segs)
    except ValueError as exc:
        _fail(path, str(exc))


# ------------------------------------------------------- shared builders

def build_velocity_law(spec, path) -> VelocityLaw:
    """Named speed laws: constant, congestion (v0/(1+g W)), linear."""
    from .nonlocal_solver import congestion_law, constant_law, linear_law
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


def build_window(spec, path, length: Optional[float] = None
                 ) -> NonlocalWindow:
    """Window bounds with ``lower <= upper``; with a ``length``, on a link
    of that length (an absent ``upper`` is the link's end)."""
    from .nonlocal_solver import NonlocalWindow
    if spec is None or spec == "whole":
        return NonlocalWindow()
    if not isinstance(spec, dict):
        _fail(path, "expected 'whole' or an object with lower/upper")
    lower = _number(spec, "lower", path, default=0.0, minimum=0.0)
    upper = spec.get("upper")
    if upper is not None:
        upper = _number(spec, "upper", path, minimum=lower)
    if length is not None and (lower if upper is None else upper) > length:
        _fail(path, f"window reaches beyond the link's length {length:g}")
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
    from .network import RoadNetwork
    links_spec = _list(spec, "links", path)
    links = []
    for k, entry in enumerate(links_spec):
        _object(entry, f"{path}.links[{k}]")
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
        laws = _per_link(spec, net, path, "law given for a link",
                         build_velocity_law)
        missing = [a for a in net.links if a not in laws]
        if missing:
            _fail(path, f"links without a law: {missing}")
        return laws
    _fail(path, "expected a law object or a per-link mapping")


def build_grid(spec, path) -> Optional[GridSpec]:
    from .nonlocal_solver import GridSpec
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


def build_commodities(spec, net, path) -> tuple:
    from .network import Commodity
    if not isinstance(spec, list) or not spec:
        _fail(path, "expected a nonempty list of commodities")
    out = []
    for k, entry in enumerate(spec):
        _object(entry, f"{path}[{k}]")
        group = _string(entry, "group", f"{path}[{k}]", default="non_routed")
        dest = _net_node(entry, "destination", net, f"{path}[{k}]")
        try:
            out.append(Commodity(group=group, destination=dest))
        except ValueError as exc:
            _fail(f"{path}[{k}]", str(exc))
    if len(set(out)) != len(out):
        _fail(path, "duplicate commodities")
    return tuple(out)


def _state_values(net: RoadNetwork, n_commodities: int, laws, horizon: float,
                  grid: Optional[GridSpec],
                  fields: tuple = ("horizon", "laws")) -> int:
    """Values in the density block of one network run before any CFL
    halving, with the simulator's step count.  Every law the schema builds
    is nonincreasing, so the step count needs no mass budget.  A step count
    that overflows a float names ``fields[0]``, the horizon, if it does so
    at unit speed, and the laws, ``fields[1]``, otherwise."""
    from .network_sim import _DEFAULT_CELLS, _time_steps
    from .nonlocal_solver import GridSpec
    grid = grid or GridSpec(cells=_DEFAULT_CELLS)
    law_list = list(laws.values()) if isinstance(laws, dict) else [laws]
    try:
        steps = _time_steps(law_list, horizon, grid, 0.0)
    except OverflowError:
        _fail(fields[math.isfinite(horizon * grid.cells / grid.cfl)],
              "the run's time steps, horizon x top speed / (cfl x cell "
              "width), overflow a float")
    return len(net.links) * (steps + 1) * n_commodities * grid.cells


def _commodity_ref(obj, name, commodities, path) -> Commodity:
    idx = _integer(obj, name, path, minimum=0)
    if idx >= len(commodities):
        _fail(f"{path}.{name}", f"commodity index {idx} out of range")
    return commodities[idx]


def _source_key(entry, net, commodities, path) -> tuple:
    """The (node, link, commodity) of a source entry: a link of the
    network that leaves the node and leads to the commodity's destination."""
    _object(entry, path)
    node = _integer(entry, "node", path)
    link = _net_link(_field(entry, "link", path), net, f"{path}.link")
    commodity = _commodity_ref(entry, "commodity", commodities, path)
    if link[0] != node:
        _fail(f"{path}.link", f"link does not leave node {node}")
    if not net.link_leads_to(link, commodity.destination):
        _fail(f"{path}.link", f"destination {commodity.destination} cannot "
              "be reached from the link")
    return node, link, commodity


def build_sources(spec, net, commodities, path) -> SourceSchedule:
    from .network import SourceSchedule
    entries = {}
    for k, entry in enumerate(spec):
        p = f"{path}[{k}]"
        key = _source_key(entry, net, commodities, p)
        if key in entries:
            _fail(p, "duplicate source entry")
        entries[key] = _segments(_field(entry, "segments", p), f"{p}.segments")
    return SourceSchedule(entries)


def _fraction(value, path) -> float:
    if not (_is_finite(value) and value >= 0):
        _fail(path, "fraction must be a finite nonnegative number")
    return float(value)


def build_base_rows(spec, net, path) -> dict:
    """Plain split rows {node: {out_link: fraction}} shared by both classes."""
    from .network import ROW_SUM_TOL
    rows: dict = {}
    if not isinstance(spec, dict):
        _fail(path, "expected {node: {link: fraction}}")
    for node_key, row_spec in spec.items():
        p = f"{path}.{node_key}"
        try:
            keyed = {node_key: int(node_key)}
        except ValueError:
            _fail(p, "node keys must be integers")
        node = _net_node(keyed, node_key, net, path)
        if node in rows:
            _fail(p, f"node {node} named twice")
        if not isinstance(row_spec, dict):
            _fail(p, "expected {link: fraction}")
        row = _per_link(row_spec, net, p, "link", _fraction)
        for a in row:
            if a[0] != node:
                _fail(p, f"link {a[0]}-{a[1]} does not leave node {node}")
        # summed in out-link order, as the simulator sums it
        total = sum(row.get(a, 0.0) for a in net.out_links(node))
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            _fail(p, f"row sums to {total!r}, expected 1 within {ROW_SUM_TOL}")
        rows[node] = row
    return rows


def build_policy(spec, net, base_rows, path) -> RoutingPolicy:
    from .routing import LogitRule, RoutingPolicy
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
        kwargs["mask"] = frozenset(
            _net_link(v, net, f"{path}.mask[{k}]")
            for k, v in enumerate(_list(spec, "mask", path)))
    if kind == "database":
        kwargs["table"] = _per_link(_dict(spec, "table", path), net,
                                    f"{path}.table", "cost given for a link",
                                    _segments)
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
    commodities = build_commodities(_list(payload, "commodities", path), net,
                                    f"{path}.commodities")
    # network links have unit length
    windows_spec = payload.get("windows")
    if isinstance(windows_spec, dict) and not (
            "lower" in windows_spec or "upper" in windows_spec):
        windows = _per_link(windows_spec, net, f"{path}.windows",
                            "window given for a link",
                            lambda sub, p: build_window(sub, p, 1.0))
    else:
        windows = build_window(windows_spec, f"{path}.windows", 1.0)

    cases_spec = _list(payload, "cases", path, default=[{"name": "run"}])
    if not cases_spec:
        _fail(f"{path}.cases", "expected a nonempty list")
    shared_sources = _list(payload, "sources", path, default=[])
    shared_initial = _list(payload, "initial_density", path, default=[])
    cases = []
    names = set()
    for k, case in enumerate(cases_spec):
        p = f"{path}.cases[{k}]"
        _object(case, p)
        name = _string(case, "name", p)
        if not name or any(c in name for c in "/\\ "):
            _fail(f"{p}.name", "case name must be nonempty without separators")
        if name in names:
            _fail(f"{p}.name", f"duplicate case name {name!r}")
        names.add(name)
        sources = build_sources(_list(case, "sources", p, shared_sources),
                                net, commodities, f"{p}.sources")
        initial = {}
        for j, entry in enumerate(_list(case, "initial_density", p,
                                        shared_initial)):
            ip = f"{p}.initial_density[{j}]"
            _object(entry, ip)
            link = _net_link(_field(entry, "link", ip), net, f"{ip}.link")
            commodity = _commodity_ref(entry, "commodity", commodities, ip)
            initial[(link, commodity)] = build_profile(
                _field(entry, "profile", ip), f"{ip}.profile")
        cases.append({"name": name, "sources": sources, "initial": initial})

    splits_spec = payload.get("splits")
    base_rows = (build_base_rows(splits_spec, net, f"{path}.splits")
                 if splits_spec is not None else None)
    _check_size(path, "a density block", _state_values(
        net, len(commodities), laws, horizon, grid,
        (f"{path}.horizon", f"{path}.laws")), _DENSITY_SHAPE)
    return {"net": net, "laws": laws, "horizon": horizon, "grid": grid,
            "commodities": commodities, "windows": windows, "cases": cases,
            "base_rows": base_rows}


def build_equilibrium(payload: dict) -> dict:
    from .routing import EquilibriumDemand
    path = "equilibrium"
    net = build_network(_dict(payload, "network", path), f"{path}.network")
    laws = build_laws(_field(payload, "laws", path), net, f"{path}.laws")
    horizon = _number(payload, "horizon", path, minimum=1e-9)
    grid = build_grid(payload.get("grid"), f"{path}.grid")
    entry_link = _net_link(_field(payload, "entry_link", path), net,
                           f"{path}.entry_link")
    destination = _net_node(payload, "destination", net, path)
    if (destination == entry_link[1]
            or not net.link_leads_to(entry_link, destination)):
        _fail(f"{path}.destination",
              "cannot be reached beyond the head of entry_link")
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
    # every round keeps its state; two commodities, routed and non-routed
    _check_size(path, "density blocks", (rounds + 1) * _state_values(
        net, 2, laws, horizon, grid, (f"{path}.horizon", f"{path}.laws")),
        f"(rounds + 1) x {_DENSITY_SHAPE}")
    return {"net": net, "laws": laws, "horizon": horizon, "grid": grid,
            "demand": demand, "alpha": alpha, "rounds": rounds, "eps": eps,
            "base_rows": base_rows, "policies": (routed, non_routed)}


def build_social_opt(payload: dict) -> dict:
    from .social_optimum import (ControlParameterization, DemandSpec,
                                 SourceControl, ThetaControl)
    path = "social-opt"
    net = build_network(_dict(payload, "network", path), f"{path}.network")
    laws = build_laws(_field(payload, "laws", path), net, f"{path}.laws")
    grid = build_grid(payload.get("grid"), f"{path}.grid")
    commodities = build_commodities(_list(payload, "commodities", path), net,
                                    f"{path}.commodities")
    knots_spec = _list(payload, "knots", path)
    if len(knots_spec) < 2 or not all(_is_finite(v) for v in knots_spec):
        _fail(f"{path}.knots", "expected at least two finite numeric knots")
    totals = {}
    for k, entry in enumerate(_list(payload, "demand", path)):
        p = f"{path}.demand[{k}]"
        key = _source_key(entry, net, commodities, p)
        if key in totals:
            _fail(p, "duplicate demand entry")
        totals[key] = _number(entry, "total", p, minimum=0.0)
    theta = []
    for k, entry in enumerate(_list(payload, "theta_controls", path, [])):
        p = f"{path}.theta_controls[{k}]"
        _object(entry, p)
        node = _net_node(entry, "node", net, p)
        commodity = _commodity_ref(entry, "commodity", commodities, p)
        links = tuple(_parse_link(v, f"{p}.links[{j}]")
                      for j, v in enumerate(_list(entry, "links", p)))
        out = net.out_links(node)
        if not out:
            _fail(f"{p}.node", f"node {node} has no out-link to split over")
        if links != out:
            _fail(f"{p}.links",
                  f"must list every out-link of node {node} in order {list(out)}")
        control = ThetaControl(node=node, commodity=commodity, links=links)
        if control in theta:
            _fail(p, "duplicate theta control")
        theta.append(control)
    sources = []
    for k, entry in enumerate(_list(payload, "source_controls", path, [])):
        p = f"{path}.source_controls[{k}]"
        control = SourceControl(*_source_key(entry, net, commodities, p))
        if control.key() not in totals:
            _fail(p, "controlled source has no demand total")
        if control in sources:
            _fail(p, "duplicate source control")
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
    _check_size(path, "a density block", _state_values(
        net, len(demand.commodities()), laws, param.horizon, grid,
        (f"{path}.knots", f"{path}.laws")), _DENSITY_SHAPE)
    return {"net": net, "laws": laws, "grid": grid, "demand": demand,
            "param": param, "budget": budget, "fd_step": fd_step,
            "initial_step": initial_step, "base_rows": base_rows}


def build_platoon_flow(payload: dict) -> dict:
    from .nonlocal_solver import GridSpec, link_steps
    from .platoon_flow import AdmissibleVelocityField, FreightPair, truck_steps
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
        _object(background, p)
        bg_kwargs["background_law"] = build_velocity_law(
            _dict(background, "law", p), f"{p}.law")
        bg_kwargs["background_initial"] = build_profile(
            _field(background, "initial", p), f"{p}.initial")
        bg_inflow = background.get("inflow_segments")
        if bg_inflow is not None:
            bg_kwargs["background_inflow"] = _segments(
                bg_inflow, f"{p}.inflow_segments")
        bg_kwargs["window"] = build_window(background.get("window"),
                                           f"{p}.window", length)

    control = _dict(payload, "control", path)
    cp = f"{path}.control"
    nt = _integer(control, "t_knots", cp, minimum=2)
    nx = _integer(control, "x_knots", cp, minimum=2)
    _check_size(cp, "a knot grid", nt * nx, "t_knots x x_knots")
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
    _check_size(path, "particle positions",
                (steps + 1) * (cells + (steps if inflow is not None else 0)),
                "(time steps + 1) x particles")
    if background is not None:
        # a law the schema builds is nonincreasing: no mass budget needed
        try:
            bg_steps = link_steps(bg_kwargs["background_law"], horizon,
                                  GridSpec(cells=cells), length, 0.0)
        except OverflowError:
            _fail(f"{path}.background.law", "the background run's time "
                  "steps, horizon x top speed / (cfl x cell width), "
                  "overflow a float")
        _check_size(f"{path}.background", "a density block",
                    (bg_steps + 1) * cells, "(time steps + 1) x cells")

    pair = FreightPair(length=length, horizon=horizon, truck_initial=initial,
                       truck_inflow=inflow_series, **bg_kwargs)
    baseline_field = AdmissibleVelocityField.constant(
        baseline, horizon=horizon, length=length,
        lam_min=lam_min, lam_max=lam_max, lip=lip)
    control0 = AdmissibleVelocityField.constant(
        baseline, horizon=horizon, length=length,
        lam_min=lam_min, lam_max=lam_max, lip=lip, shape=(nt, nx))
    return {"pair": pair, "baseline": baseline_field, "control0": control0,
            "budget": budget, "cells": cells, "objective": objective,
            "fd_step": fd_step}


def _build_schedule_common(payload: dict, path: str) -> dict:
    from .scheduler import (FreightGraph, ScheduleState, VehicleAssignment,
                            build_sweden_scenario, default_horizon)
    iterations = _integer(payload, "iterations", path, minimum=1)
    preset = payload.get("preset")
    if preset is not None:
        if preset != "sweden":
            _fail(f"{path}.preset", f"unknown preset {preset!r}")
        max_delay = _integer(payload, "max_delay", path, default=3, minimum=0)
        per_flow = _integer(payload, "vehicles_per_flow", path, default=40,
                            minimum=1)
        # checked before the build, which makes one object per vehicle
        _check_size(path, "a trajectory", (iterations + 1) * 2 * per_flow,
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
        _check_size(path, "a trajectory", (iterations + 1) * len(vehicles),
                    "(iterations + 1) x vehicles")
        assignments = []
        for k, entry in enumerate(vehicles):
            p = f"{path}.vehicles[{k}]"
            _object(entry, p)
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
                _check_size(p, "a walk",
                            sum(int(graph.dwells[e]) for e in walk),
                            "the sum of its dwells")
                assignments.append(VehicleAssignment.from_hub_path(
                    graph, hubs, depart, (window_spec[0], window_spec[1]),
                    cost))
            except (ValueError, KeyError, OverflowError) as exc:
                _fail(p, str(exc))
        if not assignments:
            _fail(f"{path}.vehicles", "need at least one vehicle")
    _check_size(path, "a count grid",
                len(graph) * default_horizon(assignments), "edges x horizon")
    # learning keeps, for each vehicle, its walk's cells at every delay and
    # the band of its walk's overlaps with itself at nearby delays
    tables = 0
    for veh in assignments:
        delays = veh.window[1] - veh.window[0] + 1
        walk = len(veh.occupied_steps)
        tables += delays * (walk + 2 * min(delays, walk) - 1)
    _check_size(path, "learning tables", tables, "the sum over vehicles of "
                "delays x (walk + 2 x min(delays, walk) - 1)")
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
