"""The array-step simulator against the per-link loop it replaced.

``reference_run`` is the per-link, per-node, per-commodity time loop kept
as an oracle.  It takes the arguments of ``network_sim._run``, so
``simulate`` runs either one behind the same set-up and step sizing, and
every array of the two states must agree bit for bit on seeded random
acyclic networks of up to six nodes.

Batches of members on the same networks must give each member the
arrivals of its own ``simulate`` run, also when a batch restarts from a
kept run, and ``sequential_search`` keeps the social-opt search as it ran
one simulation at a time, as the reference for the batched
``optimize_social``.  The search's controls, read from its packed vector
as arrays, must equal ``build_schedules`` sampled by ``_StepPlan.member``.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from roadflow import network_sim, nonlocal_solver
from roadflow.errors import CflViolated, SplitRowInvalid
from roadflow.network import (Commodity, PiecewiseConstant, RoadNetwork,
                              SourceSchedule, SplitSchedule, as_split_schedule)
from roadflow.network_sim import ArrivalSimulator, NetworkState, simulate
from roadflow.nonlocal_solver import (MAX_DT_HALVINGS, GridSpec,
                                      NonlocalWindow, VelocityLaw, _CflRetry,
                                      _retry, congestion_law, constant_law,
                                      linear_law, solve_link, upwind_step)
from roadflow.scenario import build_social_opt, load_scenario
from roadflow.social_optimum import (ControlParameterization, DemandSpec,
                                     SocialOptResult, SourceControl,
                                     ThetaControl, _Controls, _project,
                                     _project_rows, backlog_objective,
                                     optimize_social, project_controls)

from oracles import build_schedules

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


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
            if window_map[a] is None:
                w = float(row_agg.sum() * dx)
            else:
                cum = np.concatenate(([0.0], np.cumsum(row_agg) * dx))
                edges = np.arange(n + 1) * dx
                lo, up = window_map[a]
                w = float(np.interp(up, edges, cum) - np.interp(lo, edges, cum))
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

    splits = random_splits(net, commodities, horizon, rng)
    sources = random_sources(net, commodities, horizon, rng)
    initial = {}
    for link in net.links:
        for k in commodities:
            if net.link_leads_to(link, k.destination) and rng.random() < 0.3:
                initial[(link, k)] = rng.uniform(0.0, 0.5, cells)
    return {"net": net, "commodities": commodities,
            "splits": splits, "sources": sources,
            "laws": laws, "horizon": horizon, "grid": GridSpec(cells=cells),
            "initial_density": initial or None, "windows": windows}


def random_splits(net, commodities, horizon, rng) -> SplitSchedule:
    """Rows at every junction that can reach each destination, switching
    between two random rows at a random time."""
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
    return SplitSchedule(rows)


def random_sources(net, commodities, horizon, rng) -> SourceSchedule:
    """One source per commodity at node 0, of four to seven segments."""
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
    return SourceSchedule(entries)


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


# ---------------------------------------------------------------- batches

def batch_members(case: dict, count: int) -> list:
    """The case's own rows and sources, then ``count - 1`` members with
    rows and sources drawn afresh on the same network."""
    members = [(case["splits"], case["sources"])]
    for b in range(1, count):
        rng = np.random.default_rng([len(case["net"].links), b])
        members.append((random_splits(case["net"], case["commodities"],
                                      case["horizon"], rng),
                        random_sources(case["net"], case["commodities"],
                                       case["horizon"], rng)))
    return members


def run_alone(case: dict, splits, sources) -> NetworkState:
    return simulate(case["net"], case["commodities"], splits, sources,
                    case["laws"], horizon=case["horizon"], grid=case["grid"],
                    windows=case["windows"])


def run_batch(case: dict, members: list) -> list:
    runs = ArrivalSimulator(case["net"], case["commodities"], case["laws"],
                            horizon=case["horizon"], grid=case["grid"],
                            windows=case["windows"])
    return runs.run(members)


def assert_same_arrivals(record, state: NetworkState) -> None:
    assert record.times.tobytes() == state.times.tobytes()
    assert list(record.arrivals) == list(state.arrivals)
    for k, flux in state.arrivals.items():
        assert record.arrivals[k].tobytes() == flux.tobytes(), k


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_arrivals_match_single_runs(seed):
    case = random_case(seed)
    members = batch_members(case, 4)
    records = run_batch(case, members)
    # the members share one step count, so they ran as one block
    assert len({len(r.times) for r in records}) == 1
    for record, (splits, sources) in zip(records, members):
        assert_same_arrivals(record, run_alone(case, splits, sources))
        assert all(record.arrivals[k].max() > 0.0
                   for k in case["commodities"])


def striped_law(budget: float, speed: float, peak: float) -> VelocityLaw:
    """``peak`` on stripes of the mass between the 65 points at which
    ``max_speed`` samples ``[0, budget]``, ``speed`` on and near them: the
    step is sized for ``speed`` and too long wherever the mass on the link
    lies on a stripe."""
    def fn(t, w):
        phase = np.mod(np.asarray(w, dtype=float) * 64.0 / budget, 1.0)
        stripe = (phase > 0.1) & (phase < 0.9)
        return speed + (peak - speed) * stripe + 0.0 * np.asarray(t)
    return VelocityLaw(fn, floor=0.1, name="striped")


def test_batch_reruns_a_cfl_member_alone_with_half_the_step():
    # seed 3 has one commodity and the shortcut (n-3, n-1) next to the
    # chain link (n-3, n-2); members 0 and 2 send nothing onto the
    # shortcut, member 1 sends half, so only member 1 sees the stripes
    case = random_case(3)
    case["initial_density"] = None
    net, (k,) = case["net"], case["commodities"]
    last = len(net.nodes) - 1
    fork, shortcut = last - 2, (last - 2, last)
    case["windows"].pop(shortcut, None)
    members = batch_members(case, 3)
    sources = members[0][1]
    budget = sources.total(k, 0.0, case["horizon"])
    vmax = max(law.max_speed(case["horizon"], budget)
               for law in case["laws"].values())
    case["laws"][shortcut] = striped_law(budget, 0.5 * vmax,
                                         1.8 * vmax / case["grid"].cfl)
    for b, share in enumerate([0.0, 0.5, 0.0]):
        rows = dict(members[b][0]._rows)
        rows[(fork, k)] = {
            (fork, fork + 1): PiecewiseConstant.constant(1.0 - share),
            shortcut: PiecewiseConstant.constant(share)}
        members[b] = (SplitSchedule(rows), sources)
    records = run_batch(case, members)
    steps = [len(r.times) - 1 for r in records]
    assert steps[1] == 2 * steps[0] == 2 * steps[2]
    for record, (splits, sources) in zip(records, members):
        assert_same_arrivals(record, run_alone(case, splits, sources))


def spy_advance(patch) -> list:
    """``(members, steps, start)`` of every batch the time loop advances
    while ``patch`` is active."""
    calls = []
    advance = network_sim._StepPlan.advance

    def spy(self, frac, src, need, rho, record=None, start=0):
        calls.append((rho.shape[0] // len(self.tail), self.steps, start))
        return advance(self, frac, src, need, rho, record, start)

    patch.setattr(network_sim._StepPlan, "advance", spy)
    return calls


def test_restarted_batch_reruns_a_cfl_member_alone_from_step_zero(
        monkeypatch):
    # the striped shortcut of the test above; the base sends nothing onto
    # it, the other member sends half from t0 on: the batch restarts at
    # t0, and that member breaks the bound there and reruns alone with
    # twice the steps from step 0
    case = random_case(3)
    case["initial_density"] = None
    net, (k,) = case["net"], case["commodities"]
    last = len(net.nodes) - 1
    fork, shortcut = last - 2, (last - 2, last)
    case["windows"].pop(shortcut, None)
    splits, sources = batch_members(case, 1)[0]
    budget = sources.total(k, 0.0, case["horizon"])
    vmax = max(law.max_speed(case["horizon"], budget)
               for law in case["laws"].values())
    case["laws"][shortcut] = striped_law(budget, 0.5 * vmax,
                                         1.8 * vmax / case["grid"].cfl)
    t0 = 0.25 * case["horizon"]
    rows = dict(splits._rows)
    rows[(fork, k)] = {(fork, fork + 1): PiecewiseConstant.constant(1.0),
                       shortcut: PiecewiseConstant.constant(0.0)}
    base = (SplitSchedule(rows), sources)
    rows = dict(rows)
    rows[(fork, k)] = {
        (fork, fork + 1): PiecewiseConstant([(-math.inf, t0, 1.0),
                                             (t0, math.inf, 0.5)]),
        shortcut: PiecewiseConstant([(t0, math.inf, 0.5)])}
    late = (SplitSchedule(rows), sources)
    runs = ArrivalSimulator(case["net"], case["commodities"], case["laws"],
                            horizon=case["horizon"], grid=case["grid"],
                            windows=case["windows"])
    [first] = runs.run([base])
    runs.stand_on(0)
    with monkeypatch.context() as patch:
        calls = spy_advance(patch)
        records = runs.run([late, base])
    n = len(first.times) - 1
    restart = int(np.searchsorted(first.times, t0))
    assert 0 < restart < n
    assert calls == [(2, n, restart), (1, n, n), (1, 2 * n, 0)]
    for record, member in zip(records, [late, base]):
        assert_same_arrivals(record, run_alone(case, *member))


def test_batch_groups_members_by_step_count():
    # a law that speeds up with mass sizes the step by the mass budget, so
    # the member with four times the demand runs with more, shorter steps
    case = random_case(0)
    first = case["net"].links[0]
    case["laws"][first] = VelocityLaw(lambda t, w: 0.5 + 0.5 * np.asarray(w),
                                      floor=0.1, name="rising")
    members = batch_members(case, 4)
    splits, sources = members[2]
    members[2] = (splits, SourceSchedule({key: series.scaled(4.0)
                                          for key, series in sources.items()}))
    records = run_batch(case, members)
    steps = [len(r.times) - 1 for r in records]
    assert steps[2] > max(steps[0], steps[1], steps[3])
    for record, (splits, sources) in zip(records, members):
        assert_same_arrivals(record, run_alone(case, splits, sources))


def test_retry_halves_each_member_as_often_as_it_needs():
    # members 0, 1 and 2 fit the CFL bound at 10, 20 and 40 steps
    need = {0: 10, 1: 20, 2: 40}
    calls = []

    def attempt(steps, group):
        calls.append((steps, list(group)))
        over = [j for j, b in enumerate(group) if need[b] > steps]
        if over:
            raise _CflRetry(over)
        return [(b, steps) for b in group]

    assert _retry(10, [0, 1, 2], attempt) == {0: (0, 10), 1: (1, 20),
                                              2: (2, 40)}
    # the member that fits reruns at the same steps, the others alone
    assert calls == [(10, [0, 1, 2]), (10, [0]), (20, [1]), (20, [2]),
                     (40, [2])]


def never_fits(budget: float) -> VelocityLaw:
    """A speed of 1 where ``max_speed`` samples the mass, 1e12 between:
    too fast for every step count the halvings reach."""
    return striped_law(budget, 1.0, 1e12)


def counted(patch, owner, name: str) -> list:
    """Count the calls of ``owner.name`` while ``patch`` is active."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    patch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("runner", ["solve_link", "simulate", "batch"])
def test_cfl_violated_after_every_halving(runner, monkeypatch):
    inflow = PiecewiseConstant([(0.0, 1.0, 0.8)])
    law = never_fits(0.8)
    net = RoadNetwork([0, 1], [(0, 1)])
    k = Commodity("non_routed", 1)
    sources = SourceSchedule({(0, (0, 1), k): inflow})
    grid = GridSpec(cells=10)
    with monkeypatch.context() as patch:
        if runner == "solve_link":
            calls = counted(patch, nonlocal_solver, "_solve_link_upwind")
            run = lambda: solve_link(law, NonlocalWindow(upper=np.ones_like),
                                     inflow, 0.0, horizon=2.0, grid=grid)
        elif runner == "simulate":
            calls = counted(patch, network_sim, "_run")
            run = lambda: simulate(net, [k], SplitSchedule({}), sources, law,
                                   horizon=2.0, grid=grid)
        else:
            calls = counted(patch, ArrivalSimulator, "_advance")
            runs = ArrivalSimulator(net, [k], law, horizon=2.0, grid=grid)
            run = lambda: runs.run([(SplitSchedule({}), sources)])
        with pytest.raises(CflViolated):
            run()
    assert len(calls) == MAX_DT_HALVINGS + 1


# ------------------------------------------------ the social-opt search

def sequential_search(net, demand, param, budget, *, laws, base_splits=None,
                      grid=None, fd_step=1e-3, initial_step=0.25,
                      min_fd_step=1e-6, log=None) -> SocialOptResult:
    """``optimize_social`` as it ran before batching: one ``simulate`` per
    evaluation.  ``log`` collects what each evaluation was: "start",
    "probe" or "move" (the first move of a line search) or "backtrack"."""
    commodities = demand.commodities()
    evals = 0

    def evaluate(x, kind):
        nonlocal evals
        evals += 1
        if log is not None:
            log.append(kind)
        trial = project_controls(param.with_vector(x), demand)
        splits, sources = build_schedules(trial, demand, base_splits,
                                          commodities)
        state = simulate(net, commodities, splits, sources, laws,
                         horizon=param.horizon, grid=grid)
        return backlog_objective(state, demand)

    x = project_controls(param, demand).pack()
    best_j = evaluate(x, "start")
    trace = [(evals, best_j)]
    h = fd_step
    step = initial_step
    dim = len(x)
    status = "budget_exhausted"
    while evals < budget:
        improved = False
        for i in range(dim):
            if evals + 2 > budget:
                break
            e = np.zeros(dim)
            e[i] = 1.0
            jp = evaluate(x + h * e, "probe")
            jm = evaluate(x - h * e, "probe")
            g = (jp - jm) / (2.0 * h)
            if g == 0.0:
                continue
            trial_step = step
            kind = "move"
            while evals < budget:
                cand = x.copy()
                cand[i] -= trial_step * math.copysign(1.0, g)
                j_cand = evaluate(cand, kind)
                kind = "backtrack"
                if j_cand < best_j:
                    x = project_controls(param.with_vector(cand),
                                         demand).pack()
                    best_j = j_cand
                    trace.append((evals, best_j))
                    improved = True
                    break
                trial_step *= 0.5
                if trial_step < 1e-4:
                    break
        if evals >= budget:
            break
        if not improved:
            h *= 0.5
            step *= 0.5
            if h < min_fd_step:
                status = "converged"
                break
    controls = project_controls(param.with_vector(x), demand)
    return SocialOptResult(status=status, controls=controls, objective=best_j,
                           trace=trace, evaluations=evals)


def social_case() -> dict:
    scenario = load_scenario(SCENARIO_DIR / "departure_spread_social.json")
    built = build_social_opt(scenario.payload)
    return dict(net=built["net"], demand=built["demand"],
                param=built["param"], laws=built["laws"],
                base_splits=built["base_rows"], grid=built["grid"],
                fd_step=built["fd_step"], initial_step=built["initial_step"])


def assert_same_search(got: SocialOptResult, want: SocialOptResult) -> None:
    assert got.trace == want.trace
    assert got.evaluations == want.evaluations
    assert got.status == want.status
    assert got.objective == want.objective
    assert got.controls.pack().tobytes() == want.controls.pack().tobytes()


def test_batched_search_matches_the_sequential_search():
    case = social_case()
    log: list = []
    # a coarser stopping step, so the search converges in ~500 evaluations
    full = sequential_search(budget=1000, min_fd_step=6e-4, log=log, **case)
    assert full.status == "converged"
    assert_same_search(optimize_social(budget=1000, min_fd_step=6e-4, **case),
                       full)
    # budgets that stop the search inside a batch: right after a probe
    # pair (evals + 2 == budget when the pair ran, so no move was run
    # ahead), right after a failed first move whose other sign was run
    # ahead and discarded, and two backtracking moves into a longer run,
    # where the budget cut the batch run ahead to those two
    after_pair = [n for n in range(2, len(log))
                  if log[n - 2:n] == ["probe", "probe"] and log[n] == "move"]
    after_move = [n + 1 for n in range(len(log) - 1)
                  if log[n:n + 2] == ["move", "backtrack"]]
    mid_backtrack = [n + 3 for n in range(len(log) - 3)
                     if log[n:n + 4] == ["move"] + ["backtrack"] * 3]
    budgets = sorted({*after_pair[:2], *after_move[:2], *mid_backtrack[:2]})
    assert len(budgets) == 6
    for budget in budgets:
        assert_same_search(optimize_social(budget=budget, **case),
                           sequential_search(budget=budget, **case))


def test_failed_batch_falls_back_to_single_runs(monkeypatch):
    # a batch that raises is rerun one point at a time as the search reads
    # them, so an error in a discarded member never surfaces
    case = social_case()
    run = ArrivalSimulator.run

    def fail_batches(self, members):
        if len(members) > 1:
            raise SplitRowInvalid("batch refused")
        return run(self, members)

    monkeypatch.setattr(ArrivalSimulator, "run", fail_batches)
    assert_same_search(optimize_social(budget=30, **case),
                       sequential_search(budget=30, **case))


# ------------------------------------------- social-opt controls as arrays

FORK = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]


def fork_social_case() -> dict:
    """The layout of the benchmark's shaping scenario: a departure-rate
    control on the entry link and a turning control at the fork, on four
    knot intervals."""
    speeds = {"0-1": (1.0, 3.0), "1-2": (0.8, 2.5), "1-3": (0.9, 4.0),
              "2-4": (0.7, 2.0), "3-4": (1.0, 3.0)}
    built = build_social_opt({
        "network": {"links": [{"tail": u, "head": v} for u, v in FORK]},
        "laws": {key: {"kind": "congestion", "free_speed": v, "gain": g}
                 for key, (v, g) in speeds.items()},
        "grid": {"cells": 12, "cfl": 0.9},
        "commodities": [{"group": "non_routed", "destination": 4}],
        "knots": [0.0, 0.75, 1.5, 2.25, 3.0],
        "demand": [{"node": 0, "link": [0, 1], "commodity": 0,
                    "total": 1.0}],
        "source_controls": [{"node": 0, "link": [0, 1], "commodity": 0}],
        "theta_controls": [{"node": 1, "commodity": 0,
                            "links": [[1, 2], [1, 3]]}],
        "base_splits": {"2": {"2-4": 1.0}, "3": {"3-4": 1.0}},
        "budget": 60})
    return dict(net=built["net"], demand=built["demand"],
                param=built["param"], laws=built["laws"],
                base_splits=built["base_rows"], grid=built["grid"])


def test_search_simulates_fewer_members_than_it_charges(monkeypatch):
    # points met again, within a batch or across batches, are not rerun
    case = social_case()
    with monkeypatch.context() as patch:
        calls = spy_advance(patch)
        got = optimize_social(budget=1000, min_fd_step=6e-4, **case)
    assert sum(members for members, _, _ in calls) < got.evaluations
    # a turning row moves only from its knot interval on, so batches that
    # move one restart from the current point past step 0
    case = fork_social_case()
    with monkeypatch.context() as patch:
        calls = spy_advance(patch)
        got = optimize_social(budget=60, **case)
    assert sum(start > 0 for _, _, start in calls) >= 5
    assert_same_search(got, sequential_search(budget=60, **case))


def project_rows_by_column(rows: np.ndarray) -> np.ndarray:
    """The column loop that ``_project_rows`` replaced."""
    out = np.clip(rows, 0.0, None)
    sums = out.sum(axis=0)
    for j in range(out.shape[1]):
        if sums[j] > 0.0:
            out[:, j] /= sums[j]
        else:
            out[:, j] = np.full(out.shape[0], 1.0 / out.shape[0])
    return out


@pytest.mark.parametrize("seed", range(10))
def test_control_arrays_equal_the_sampled_schedules(seed):
    """A point's rows and source integrals, read from its vector through
    the map of each step count, against ``build_schedules`` sampled by
    ``_StepPlan.member``: random knots, step counts (some steps longer
    than a knot interval) and vectors (some values zero of either sign,
    some columns empty), two commodities and three sources, one with no
    demand."""
    rng = np.random.default_rng([seed, 19])
    net = RoadNetwork(range(5), FORK)
    ks = (Commodity("non_routed", 4), Commodity("routed", 4))
    knots = np.concatenate(([0.0], np.cumsum(
        rng.uniform(0.02, 1.0, int(rng.integers(1, 7))))))
    sources = [SourceControl(0, (0, 1), ks[0]),
               SourceControl(0, (0, 1), ks[1]),
               SourceControl(1, (1, 2), ks[0])]
    demand = DemandSpec({sources[0].key(): float(rng.uniform(0.5, 2.0)),
                         sources[1].key(): float(rng.uniform(0.5, 2.0)),
                         sources[2].key(): float(seed % 2)})
    param = ControlParameterization(
        knots, [ThetaControl(1, k, ((1, 2), (1, 3))) for k in ks], sources)
    base = as_split_schedule({2: {(2, 4): 1.0}, 3: {(3, 4): 1.0}}, ks)
    runs = ArrivalSimulator(net, ks, constant_law(1.0),
                            horizon=param.horizon, grid=GridSpec(cells=6))
    controls = _Controls(net, ks, param, demand, base)
    for _ in range(3):
        x = rng.normal(1.0, 0.8, len(param.pack()))
        x[rng.random(len(x)) < 0.2] = 0.0
        x[rng.random(len(x)) < 0.2] = -0.0
        p = _project(param, demand, x)
        assert p.tobytes() == project_controls(param.with_vector(x),
                                               demand).pack().tobytes()
        splits, source_schedule = build_schedules(param.with_vector(p),
                                                  demand, base, ks)
        point = controls.member(p)
        assert repr(point.budget) == repr(0.0 + sum(
            source_schedule.total(k, 0.0, param.horizon) for k in ks))
        for steps in [4, *rng.integers(5, 200, 3)]:
            plan = network_sim._StepPlan(
                net, ks, runs.law_map, runs.window_map, runs.horizon,
                int(steps), runs.centers, runs.topo_links)
            for got, ref in zip(point.arrays(plan),
                                plan.member(splits, source_schedule)[2:]):
                assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_projected_rows_equal_the_column_loop(seed):
    rng = np.random.default_rng([seed, 7])
    rows = rng.normal(0.3, 0.5, (int(rng.integers(1, 5)), 6))
    rows[:, 0] = -1.0                   # an empty column becomes uniform
    rows[0, 1] = math.nan               # so does one that sums to NaN
    assert (_project_rows(rows).tobytes()
            == project_rows_by_column(rows).tobytes())
