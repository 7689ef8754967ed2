"""Output checks, one per operation kind.

Each check recomputes what it can from the workload's own spec (the
parameters the generator drew) and from the artifacts the program wrote,
and tests the properties the method guarantees.  A check raises
:class:`CheckFailed` with the first defect it finds.  Nothing here calls
into ``roadflow`` except to build the plaintext reference learning run of
the private workload, which the program must match bit for bit.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import numpy as np

#: relative tolerance for mass balances and recomputed floating sums
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_table(path: Path) -> tuple[list, np.ndarray]:
    """Header and float matrix of an all-numeric CSV artifact."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def segments_integral(segments, t0: float, t1: float) -> float:
    return sum(max(0.0, min(b, t1) - max(a, t0)) * v for a, b, v in segments)


def segments_sample(segments, times: np.ndarray) -> np.ndarray:
    """Right-open step function, zero outside its segments."""
    out = np.zeros(len(times))
    for a, b, v in segments:
        out[(times >= a) & (times < b)] = v
    return out


# ------------------------------------------------------------- simulate

def check_simulate(op, captured) -> None:
    spec = op.spec
    cells = spec["cells"]
    dx = 1.0 / cells
    labels = [f"routed->{spec['net']['destination']}",
              f"non_routed->{spec['net']['destination']}"]
    stored = [0.0, 0.0]
    for link in spec["net"]["links"]:
        path = op.out / f"density_base_{link[0]}-{link[1]}.csv"
        header, data = read_table(path)
        _require(header == ["t", "x", "rho_0", "rho_1", "speed"],
                 f"{path.name}: unexpected header {header}")
        _require(data.shape[0] % cells == 0 and data.shape[0] >= cells,
                 f"{path.name}: {data.shape[0]} rows is not whole time rows")
        rho = data[:, 2:4]
        _require(bool(np.all(rho >= 0.0)),
                 f"{path.name}: negative density {rho.min()!r}")
        free = spec["laws"][link][0]
        speed = data[:, 4]
        _require(bool(np.all((speed > 0.0) & (speed <= free))),
                 f"{path.name}: speed outside (0, {free}]")
        last = data[-cells:]
        _require(bool(np.all(last[:, 0] == last[0, 0])),
                 f"{path.name}: last time row is incomplete")
        for k in range(2):
            stored[k] += float(last[:, 2 + k].sum()) * dx
    report = {row["commodity"]: row
              for row in read_rows(op.out / "mass_report_base.csv")}
    _require(sorted(report) == sorted(labels),
             f"mass report classes {sorted(report)}")
    for k, label in enumerate(labels):
        injected = float(report[label]["injected"])
        arrived = float(report[label]["arrived"])
        expected = segments_integral(spec["sources"][k], 0.0, spec["horizon"])
        _require(_close(injected, expected),
                 f"{label}: injected {injected!r}, segments give {expected!r}")
        _require(arrived > 0.0, f"{label}: nothing arrived")
        _require(_close(stored[k] + arrived, injected),
                 f"{label}: stored {stored[k]!r} + arrived {arrived!r} "
                 f"!= injected {injected!r}")


# ---------------------------------------------------------- equilibrium

def recompute_gap(state, spec, commodities, weights) -> float:
    """Mean over active grid times of the spread of frozen-state path
    times over the paths whose demand-weighted plan share exceeds eps."""
    times = state.times
    active = np.nonzero(segments_sample(spec["rate"], times) > 0.0)[0]
    if active.size == 0:
        active = np.array([0])
    m = np.minimum(active, len(times) - 2)
    out = spec["net"]["out"]
    path_times, shares = [], []
    for path in spec["net"]["paths"]:
        share = 0.0
        for k, w in zip(commodities, weights):
            if w <= 0.0:
                continue
            s = np.ones(len(m))
            for link in path:
                row = state.split_rows.get((link[0], k))
                if row is not None:
                    s = s * row[out[link[0]].index(link), m]
            share = share + w * s
        tt = 0.0
        for link in path:
            tt = tt + 1.0 / state.speeds[link][m]
        shares.append(share)
        path_times.append(tt)
    shares = np.array(shares)
    path_times = np.array(path_times)
    used = shares > spec["eps"]
    _require(bool(np.all(used.any(axis=0))), "a grid time has no used path")
    hi = np.where(used, path_times, -np.inf).max(axis=0)
    lo = np.where(used, path_times, np.inf).min(axis=0)
    return float(np.mean(hi - lo))


def check_equilibrium(op, captured) -> None:
    spec = op.spec
    rounds = captured.get("equilibrium_iterate")
    _require(rounds is not None, "equilibrium rounds were not captured")
    _require(len(rounds) == spec["rounds"] + 1,
             f"{len(rounds)} rounds, expected {spec['rounds'] + 1}")
    gaps_csv = read_rows(op.out / "gaps.csv")
    _require(len(gaps_csv) == len(rounds), "gaps.csv row count")
    alpha = spec["alpha"]
    total = segments_integral(spec["rate"], 0.0, spec["horizon"])
    for rnd, row in zip(rounds, gaps_csv):
        st = rnd.state
        where = f"round {rnd.index}"
        _require(float(row["gap"]) == rnd.gap, f"{where}: gaps.csv differs")
        _require(not rnd.used_fallback,
                 f"{where}: full-information round used a fallback")
        dt = float(st.times[1] - st.times[0])
        dx = 1.0 / len(st.cells)
        commodities = st.commodities
        _require([k.group for k in commodities] == ["routed", "non_routed"],
                 f"{where}: classes {commodities}")
        for ki, (k, share) in enumerate(zip(commodities,
                                            (alpha, 1.0 - alpha))):
            injected = sum(float(series[:-1].sum()) * dt
                           for (link, kk), series in st.source_grid.items()
                           if kk == k)
            _require(_close(injected, share * total),
                     f"{where}: {k.label()} injected {injected!r}, "
                     f"expected {share * total!r}")
            stored = sum(float(st.rho[a][-1, ki].sum()) * dx
                         for a in spec["net"]["links"])
            arrived = float(st.arrivals[k][:-1].sum()) * dt
            _require(arrived > 0.0, f"{where}: {k.label()} nothing arrived")
            _require(_close(stored + arrived, injected),
                     f"{where}: {k.label()} mass does not balance")
        for key, row_arr in st.split_rows.items():
            _require(bool(np.all(row_arr >= 0.0)),
                     f"{where}: negative split at node {key[0]}")
            _require(bool(np.all(np.abs(row_arr.sum(axis=0) - 1.0) <= 1e-9)),
                     f"{where}: split row at node {key[0]} does not sum to 1")
        gap = recompute_gap(st, spec, commodities, (alpha, 1.0 - alpha))
        _require(_close(gap, rnd.gap),
                 f"{where}: reported gap {rnd.gap!r}, recomputed {gap!r}")


# ---------------------------------------------------------------- shaping

def _strictly_decreasing(path: Path, budget: int) -> None:
    rows = read_rows(path)
    _require(len(rows) >= 1, f"{path.name}: empty trace")
    first = next(iter(rows[0]))
    used = [int(r[first]) for r in rows]
    values = [float(r["objective"]) for r in rows]
    _require(all(b < a for a, b in zip(values, values[1:])),
             f"{path.name}: accepted objectives do not strictly decrease")
    _require(all(b > a for a, b in zip(used, used[1:])),
             f"{path.name}: evaluation counts do not increase")
    _require(used[-1] <= budget, f"{path.name}: over budget")


def check_social(op, captured) -> None:
    spec = op.spec
    budget = spec["budget"]
    _strictly_decreasing(op.out / "j_trace.csv", budget)
    summary = read_rows(op.out / "summary.csv")[0]
    _require(int(summary["simulations"]) <= budget,
             f"social-opt used {summary['simulations']} of {budget}")
    knots = spec["knots"]
    lengths = np.diff(knots)
    horizon = knots[-1]
    theta: dict = {}
    source = {}
    for row in read_rows(op.out / "controls.csv"):
        p = int(row["interval"])
        v = float(row["value"])
        _require(v >= 0.0, f"negative {row['control']} value {v!r}")
        if row["control"] == "theta":
            theta.setdefault(p, []).append(v)
        else:
            source[p] = v
    _require(sorted(theta) == list(range(len(lengths))),
             "split controls missing intervals")
    for p, vals in theta.items():
        _require(len(vals) == 2 and abs(sum(vals) - 1.0) <= 1e-9,
                 f"split fractions in interval {p} sum to {sum(vals)!r}")
    _require(sorted(source) == list(range(len(lengths))),
             "source controls missing intervals")
    # stored relative to the uniform rate total / horizon
    rates = np.array([source[p] for p in range(len(lengths))]) \
        * spec["total"] / horizon
    _require(_close(float(np.dot(rates, lengths)), spec["total"]),
             f"source rates integrate to {float(np.dot(rates, lengths))!r}, "
             f"demand is {spec['total']!r}")


def check_platoon(op, captured) -> None:
    spec = op.spec
    _strictly_decreasing(op.out / "j_trace.csv", spec["budget"])
    summary = read_rows(op.out / "summary.csv")[0]
    _require(int(summary["solves"]) <= spec["budget"],
             f"platoon-flow used {summary['solves']} solves")
    _, star = read_table(op.out / "velocity_star.csv")
    t_knots = np.unique(star[:, 0])
    x_knots = np.unique(star[:, 1])
    _require(len(t_knots) == spec["t_knots"] and len(x_knots) == spec["x_knots"],
             "velocity knot grid has the wrong shape")
    values = star[:, 2].reshape(len(t_knots), len(x_knots))
    tol = 1e-9
    _require(bool(np.all(values >= spec["lam_min"] - tol)
                  and np.all(values <= spec["lam_max"] + tol)),
             "velocity knot outside [lam_min, lam_max]")
    lip = spec["lip"]
    dt = np.abs(np.diff(values, axis=0)) - lip * np.diff(t_knots)[:, None]
    dxv = np.abs(np.diff(values, axis=1)) - lip * np.diff(x_knots)[None, :]
    _require(float(max(dt.max(), dxv.max())) <= tol,
             "adjacent velocity knots differ by more than lip * spacing")
    for name in ("q_baseline.csv", "q_optimized.csv"):
        _, q = read_table(op.out / name)
        _require(bool(np.all(q[:, 2] >= 0.0)), f"{name}: negative density")


# --------------------------------------------------------------- freight

def walks(spec) -> list:
    """(edge index per occupied step, zero-delay steps, entry steps) for
    every vehicle, from the spec's hub paths and edge dwells."""
    index = {(t, h): k for k, (t, h, _, _) in enumerate(spec["edges"])}
    dwell = [e[3] for e in spec["edges"]]
    out = []
    for hubs, depart, _, _ in spec["vehicles"]:
        seq = [index[(a, b)] for a, b in zip(hubs, hubs[1:])]
        occ_e, occ_s, entry = [], [], []
        step = depart
        for e in seq:
            entry.append((e, step))
            for _ in range(dwell[e]):
                occ_e.append(e)
                occ_s.append(step)
                step += 1
        out.append((np.array(occ_e), np.array(occ_s), entry))
    return out


def schedule_cost(spec, tau) -> float:
    """Delay costs minus gamma * sum_e w_e * sum_t count(e, t)^2."""
    wk = walks(spec)
    horizon = max(int(s[-1]) + v[2][1] + 1
                  for (_, s, _), v in zip(wk, spec["vehicles"]))
    counts = np.zeros((len(spec["edges"]), horizon), dtype=np.int64)
    for (e, s, _), t in zip(wk, tau):
        np.add.at(counts, (e, s + int(t)), 1)
    weights = np.array([e[2] for e in spec["edges"]])
    reward = float((weights[:, None] * counts.astype(float) ** 2).sum())
    delay = sum(v[3] * int(t) for v, t in zip(spec["vehicles"], tau))
    return delay - spec["gamma"] * reward


def pair_counts(spec, tau) -> dict:
    """{(edge, |entry-step difference|): pairs} over vehicle pairs."""
    per_edge: dict = {}
    for i, (_, _, entry) in enumerate(walks(spec)):
        for e, s in entry:
            per_edge.setdefault(e, []).append(s + int(tau[i]))
    out: dict = {}
    for e, steps in per_edge.items():
        for a, b in itertools.combinations(steps, 2):
            key = (e, abs(a - b))
            out[key] = out.get(key, 0) + 1
    return out


def check_schedule(op, captured) -> None:
    spec = op.spec
    vehicles = spec["vehicles"]
    rows = read_rows(op.out / "best_delays.csv")
    _require(len(rows) == len(vehicles), "best_delays.csv vehicle count")
    tau = []
    for row, (_, _, (lo, hi), _) in zip(rows, vehicles):
        d = int(row["delay"])
        _require(lo <= d <= hi,
                 f"vehicle {row['vehicle']}: delay {d} outside [{lo}, {hi}]")
        tau.append(d)
    trace = [float(r["cost"]) for r in read_rows(op.out / "cost_trace.csv")]
    _require(len(trace) == spec["iterations"] + 1, "cost_trace length")
    summary = read_rows(op.out / "summary.csv")[0]
    best = float(summary["best_cost"])
    expected = schedule_cost(spec, tau)
    _require(_close(best, expected),
             f"best_cost {best!r}, recount from best_delays gives {expected!r}")
    _require(_close(best, min(trace)),
             f"best_cost {best!r} is not the minimum {min(trace)!r} of the trace")
    names = {(t, h): k for k, (t, h, _, _) in enumerate(spec["edges"])}
    scheduled = pair_counts(spec, tau)
    baseline = pair_counts(spec, [v[2][0] for v in vehicles])
    seen = set()
    for row in read_rows(op.out / "distance_ratio.csv"):
        key = (names[(row["tail"], row["head"])], int(row["distance"]))
        seen.add(key)
        _require(int(row["scheduled_pairs"]) == scheduled.get(key, 0),
                 f"scheduled pairs at {key}: {row['scheduled_pairs']}, "
                 f"recount {scheduled.get(key, 0)}")
        _require(int(row["baseline_pairs"]) == baseline.get(key, 0),
                 f"baseline pairs at {key}: {row['baseline_pairs']}, "
                 f"recount {baseline.get(key, 0)}")
    missing = (set(scheduled) | set(baseline)) - seen
    _require(not missing, f"pair counts missing for {sorted(missing)[:3]}")


def check_schedule_private(op, captured) -> None:
    check_schedule(op, captured)
    result = captured.get("run_private_learning")
    _require(result is not None, "private learning result was not captured")
    reference = plaintext_reference(op)
    _require(np.array_equal(result.trajectory, reference.trajectory),
             "private trajectory differs from plaintext run_learning")
    _require(np.array_equal(result.cost_trace, reference.cost_trace)
             and np.array_equal(result.best_tau, reference.best_tau)
             and result.best_cost == reference.best_cost,
             "private costs differ from plaintext run_learning")
    rows = read_rows(op.out / "transcript.csv")
    ring = len(op.spec["vehicles"])
    hops = [r for r in rows if r["event"] == "hop"]
    _require(len(hops) == ring, f"{len(hops)} hops for a ring of {ring}")
    for k, r in enumerate(hops):
        _require((int(r["hop"]), int(r["sender"]), int(r["receiver"]))
                 == (k, k, (k + 1) % ring), f"hop {k} is out of order")
    _require(len(rows) == ring + 1 and rows[-1]["event"] == "decrypt"
             and rows[-1]["hop"] == "0",
             "transcript does not end with the holder's decrypt marker")


def plaintext_reference(op):
    """Plaintext ``run_learning`` on the same scenario state and seed."""
    from roadflow.scenario import BUILDERS, load_scenario
    from roadflow.scheduler import run_learning

    scn = load_scenario(op.scenario)
    built = BUILDERS[scn.kind](scn.payload)
    return run_learning(built["state"], built["iterations"], scn.seed)

