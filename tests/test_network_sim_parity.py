"""The array-step simulator against the per-link loop it replaced.

``reference_run`` is the per-link, per-node, per-commodity time loop kept
as an oracle.  It takes the arguments of ``network_sim._run``, so
``simulate`` runs either one behind the same set-up and step sizing, and
every array of the two states must agree bit for bit on seeded random
acyclic networks of up to six nodes.
"""

import math

import numpy as np
import pytest

from roadflow import network_sim
from roadflow.errors import SplitRowInvalid
from roadflow.network import (Commodity, PiecewiseConstant, RoadNetwork,
                              SourceSchedule, SplitSchedule)
from roadflow.network_sim import NetworkState, _link_window_mass, simulate
from roadflow.nonlocal_solver import (GridSpec, NonlocalWindow, VelocityLaw,
                                      _CflRetry, congestion_law, constant_law,
                                      linear_law, upwind_step)


def reference_run(net, commodities, splits, sources, law_map, window_map,
                  horizon, steps, centers, init, topo_links) -> NetworkState:
    """One step at a time: links in topological order, then every node and
    commodity of the junction exchange, then one upwind update per link."""
    times = np.linspace(0.0, horizon, steps + 1)
    dt = times[1] - times[0]
    n = len(centers)
    dx = 1.0 / n
    n_k = len(commodities)
    k_index = {k: i for i, k in enumerate(commodities)}

    split_rows = {}
    for node in net.nodes:
        out = net.out_links(node)
        if not out:
            continue
        for commodity in commodities:
            if node == commodity.destination:
                continue
            if node not in net.reaches(commodity.destination):
                continue
            if not splits.has_row(node, commodity):
                continue
            split_rows[(node, commodity)] = splits.grid_row(node, commodity,
                                                            times, out)
    for (node, commodity), row in split_rows.items():
        for i, link in enumerate(net.out_links(node)):
            if not net.link_leads_to(link, commodity.destination):
                if np.any(row[i] > 1e-12):
                    raise SplitRowInvalid(
                        f"fraction on link {link} routes {commodity.label()} "
                        "toward a node that cannot reach the destination")

    source_grid = {}
    for (node, link, commodity), series in sources.items():
        key = (link, commodity)
        vals = np.zeros(steps + 1)
        for m in range(steps):
            vals[m] = series.integral(times[m], times[m + 1]) / dt
        source_grid[key] = source_grid.get(key, 0.0) + vals
    source_grid = {key: np.asarray(val) for key, val in source_grid.items()}

    rho = {a: np.zeros((steps + 1, n_k, n)) for a in net.links}
    for (link, commodity), vals in init.items():
        rho[link][0, k_index[commodity]] = vals
    speeds = {a: np.zeros(steps + 1) for a in net.links}
    inflow = {a: np.zeros((steps + 1, n_k)) for a in net.links}
    outflow = {a: np.zeros((steps + 1, n_k)) for a in net.links}
    arrivals = {k: np.zeros(steps + 1) for k in commodities}

    for m in range(steps + 1):
        t = times[m]
        for a in topo_links:
            row_agg = rho[a][m].sum(axis=0)
            w = _link_window_mass(row_agg, window_map[a], dx)
            c = float(law_map[a](t, w))
            if c * dt > dx * (1.0 + 1e-12):
                raise _CflRetry
            speeds[a][m] = c
            outflow[a][m] = c * rho[a][m, :, -1]
        for node in net.nodes:
            out = net.out_links(node)
            in_ = net.in_links(node)
            for commodity in commodities:
                ki = k_index[commodity]
                total_in = float(sum(outflow[a][m, ki] for a in in_))
                if node == commodity.destination:
                    arrivals[commodity][m] += total_in
                    continue
                if not out:
                    if total_in > 1e-12:
                        raise SplitRowInvalid(
                            f"{commodity.label()} flow reaches sink node {node} "
                            "that is not its destination")
                    continue
                row = split_rows.get((node, commodity))
                if row is None and total_in > 1e-12:
                    raise SplitRowInvalid(
                        f"no split row at node {node} for {commodity.label()} "
                        "but flow arrives there")
                for i, a in enumerate(out):
                    u = 0.0
                    src = source_grid.get((a, commodity))
                    if src is not None:
                        u += float(src[m])
                    if row is not None and total_in > 0.0:
                        u += row[i, m] * total_in
                    inflow[a][m, ki] += u
        if m < steps:
            for a in topo_links:
                rho[a][m + 1] = upwind_step(rho[a][m], speeds[a][m],
                                            inflow[a][m], dt, dx)[0]

    return NetworkState(net=net, commodities=commodities, times=times,
                        cells=centers, rho=rho, speeds=speeds, inflow=inflow,
                        outflow=outflow, arrivals=arrivals,
                        split_rows=split_rows, source_grid=source_grid,
                        laws=dict(law_map), windows=dict(window_map))


def custom_law() -> VelocityLaw:
    """A time-dependent law without coefficients: called per link."""
    return VelocityLaw(
        lambda t, w: 0.7 + 0.3 * np.cos(np.asarray(t, dtype=float))
        / (1.0 + np.asarray(w, dtype=float)), floor=0.1)


def random_case(seed: int) -> dict:
    """A random acyclic network on 4 to 6 nodes with 1 to 3 commodities.

    A chain 0 -> 1 -> ... -> n-1 keeps every node upstream of the last one,
    which also gets at least three in-links.  Laws cycle through the three
    coefficient kinds and one custom law; about half the links average over
    a partial window; sources have four to seven segments, some shorter
    than a time step.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    last = n - 1
    links = {(i, i + 1) for i in range(last)}
    links |= {(n - 4, last), (n - 3, last)}
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.4:
                links.add((i, j))
    net = RoadNetwork(range(n), sorted(links))
    commodities = [Commodity("routed", last), Commodity("non_routed", last),
                   Commodity("routed", last - 1)][:1 + seed % 3]
    horizon = float(rng.uniform(2.5, 4.0))
    cells = int(rng.integers(8, 15))

    laws = {}
    for idx, link in enumerate(net.links):
        kind = (idx + seed) % 4
        if kind == 0:
            laws[link] = congestion_law(float(rng.uniform(0.6, 1.2)),
                                        float(rng.uniform(0.5, 3.0)))
        elif kind == 1:
            laws[link] = constant_law(float(rng.uniform(0.5, 1.2)))
        elif kind == 2:
            laws[link] = linear_law(float(rng.uniform(0.8, 1.2)),
                                    float(rng.uniform(0.5, 4.0)), 0.2)
        else:
            laws[link] = custom_law()
    windows = {}
    for link in net.links:
        if rng.random() < 0.5:
            lo, up = np.sort(rng.uniform(0.0, 1.0, 2))
            windows[link] = (float(lo), float(up))
    if windows:
        windows[next(iter(windows))] = NonlocalWindow(lower=0.5)

    rows = {}
    for v in net.nodes:
        for k in commodities:
            if v == k.destination or v not in net.reaches(k.destination):
                continue
            good = [a for a in net.out_links(v)
                    if net.link_leads_to(a, k.destination)]
            cut = float(rng.uniform(0.3, 0.7)) * horizon
            p1, p2 = rng.uniform(0.1, 1.0, (2, len(good)))
            p1, p2 = p1 / p1.sum(), p2 / p2.sum()
            rows[(v, k)] = {
                a: PiecewiseConstant([(-math.inf, cut, float(p1[i])),
                                      (cut, math.inf, float(p2[i]))])
                for i, a in enumerate(good)}

    entries = {}
    for k in commodities:
        link = next(a for a in net.out_links(0)
                    if net.link_leads_to(a, k.destination))
        # a burst of segments shorter than a time step, so one step sums
        # several nonzero segment terms and their order shows in the bits
        burst = float(rng.uniform(0.1, 0.5) * horizon) + 0.013 * np.arange(4)
        cuts = rng.uniform(0.0, 0.6 * horizon, int(rng.integers(1, 3)))
        edges = np.unique(np.concatenate(([0.0], cuts, burst)))
        entries[(0, link, k)] = PiecewiseConstant(
            [(float(a), float(b), float(rng.uniform(0.2, 0.8)))
             for a, b in zip(edges[:-1], edges[1:])])
    initial = {}
    for link in net.links:
        for k in commodities:
            if net.link_leads_to(link, k.destination) and rng.random() < 0.3:
                initial[(link, k)] = rng.uniform(0.0, 0.5, cells)
    return {"net": net, "commodities": commodities,
            "splits": SplitSchedule(rows), "sources": SourceSchedule(entries),
            "laws": laws, "horizon": horizon, "grid": GridSpec(cells=cells),
            "initial_density": initial or None, "windows": windows}


def run_case(case: dict) -> NetworkState:
    return simulate(case["net"], case["commodities"], case["splits"],
                    case["sources"], case["laws"], horizon=case["horizon"],
                    grid=case["grid"],
                    initial_density=case["initial_density"],
                    windows=case["windows"])


def run_both(case: dict, monkeypatch) -> tuple:
    state = run_case(case)
    with monkeypatch.context() as patch:
        patch.setattr(network_sim, "_run", reference_run)
        reference = run_case(case)
    return state, reference


def assert_same_state(state: NetworkState, reference: NetworkState) -> None:
    assert state.times.tobytes() == reference.times.tobytes()
    for table in ("rho", "speeds", "inflow", "outflow", "arrivals",
                  "source_grid", "split_rows"):
        got, want = getattr(state, table), getattr(reference, table)
        assert list(got) == list(want), table
        for key in want:
            assert got[key].shape == want[key].shape, (table, key)
            assert got[key].tobytes() == want[key].tobytes(), (table, key)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_array_step_matches_per_link_loop(seed, monkeypatch):
    state, reference = run_both(random_case(seed), monkeypatch)
    assert_same_state(state, reference)
    # the comparison means little unless mass crossed junctions and arrived
    assert all(state.arrivals[k].max() > 0.0 for k in state.commodities)


def test_random_cases_cover_the_simulator_paths():
    cases = [random_case(seed) for seed in SEEDS]
    assert {len(c["commodities"]) for c in cases} == {1, 2, 3}
    assert all(max(len(c["net"].in_links(v)) for v in c["net"].nodes) >= 3
               for c in cases)
    assert all(len(s.segments) >= 3
               for c in cases for _, s in c["sources"].items())
    assert all(c["windows"] for c in cases)
    assert {law_kind(law) for c in cases for law in c["laws"].values()} == {
        "congestion", "constant", "linear", "custom"}
    assert any(c["initial_density"] for c in cases)


def law_kind(law: VelocityLaw) -> str:
    if law.coefficients is None:
        return "custom"
    if law.name == "linear" or law.name.startswith("const"):
        return law.name.split()[0].replace("const", "constant")
    return "congestion"


def error_message(case: dict, monkeypatch, reference: bool) -> str:
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(network_sim, "_run", reference_run)
        with pytest.raises(SplitRowInvalid) as info:
            run_case(case)
    return str(info.value)


@pytest.mark.parametrize("seed", [1, 5])
def test_missing_row_error_matches_per_link_loop(seed, monkeypatch):
    # flow enters on link 0 -> 1, so node 1 sees it within the horizon
    case = random_case(seed)
    splits = case["splits"]
    dropped = (1, case["commodities"][0])
    case["splits"] = SplitSchedule({
        (v, k): splits.entries(v, k)
        for v in case["net"].nodes for k in case["commodities"]
        if splits.has_row(v, k) and (v, k) != dropped})
    got = error_message(case, monkeypatch, reference=False)
    assert got.startswith("no split row at node")
    assert got == error_message(case, monkeypatch, reference=True)


def test_sink_error_matches_per_link_loop(monkeypatch):
    # node 1 sends all but 5e-13 of the flow on to node 2; the sliver onto
    # the dead end 1 -> 3 is under the routing tolerance, but a heavy source
    # makes the flow reaching sink node 3 exceed the arrival tolerance
    net = RoadNetwork([0, 1, 2, 3], [(0, 1), (1, 2), (1, 3)])
    k = Commodity("non_routed", 2)
    splits = SplitSchedule({(1, k): {
        (1, 2): PiecewiseConstant.constant(1.0 - 5e-13),
        (1, 3): PiecewiseConstant.constant(5e-13)}})
    case = {"net": net, "commodities": [k], "splits": splits,
            "sources": SourceSchedule({(0, (0, 1), k): PiecewiseConstant(
                [(0.0, 3.0, 400.0)])}),
            "laws": constant_law(1.0), "horizon": 4.0,
            "grid": GridSpec(cells=10), "initial_density": None,
            "windows": None}
    got = error_message(case, monkeypatch, reference=False)
    assert got == "non_routed->2 flow reaches sink node 3 that is not its destination"
    assert got == error_message(case, monkeypatch, reference=True)
