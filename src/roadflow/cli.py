"""Command-line front end: run scenario files, write CSV artifacts.

Every run writes its artifacts plus ``run_manifest.json`` into the output
directory.  Artifact bytes are deterministic for a fixed scenario and
seed; the manifest's wall time and timestamp are the only fields exempt
from that contract.  Schema problems exit with status 2 before any
computation, runtime failures with status 1, both as one JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ComputeError, RoadflowError, SchemaError
from .scenario import BUILDERS, KINDS, load_scenario

#: the layer functions the runners call, each imported through the package
#: root on its first lookup here, so a command loads only the layers it
#: runs; the runners look them up on this module (``_cli``) at call time,
#: so a function set in one's place is the one called
_LAYER_CALLS = frozenset((
    "simulate", "equilibrium_iterate", "optimize_social", "optimize_velocity",
    "solve_freight_pair", "run_learning", "pair_distance_histogram",
    "pair_distance_ratio", "platoon_opportunity_gain", "default_horizon",
    "run_private_learning", "keygen", "chain_aggregate"))
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAYER_CALLS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


TIME_ROW_CAP = 201   # density tables subsample to at most this many time rows


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _time_rows(n: int, cap: int = TIME_ROW_CAP) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, cap).round().astype(int))


def _reprs(values) -> list:
    """``repr`` of each value as a Python float: the text ``_cell`` gives."""
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def _write_space_time(path: Path, header, t_text, x_text, values,
                      tail=None) -> None:
    """Write one line per (time, cell): the time, the cell centre, the
    cell's values and then the time's ``tail`` value, if any.

    ``t_text`` and ``x_text`` are the formatted times and cell centres
    (see ``_reprs``), reused across tables; ``values`` has shape
    (times, cells, values per cell).  The bytes equal ``_write_csv`` on
    the same rows; each time's lines go out in one write.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for j, t in enumerate(t_text):
            end = "\n" if tail is None else f",{tail[j]!r}\n"
            fh.write("".join(
                f"{t},{x},{','.join(map(repr, cell))}{end}"
                for x, cell in zip(x_text, values[j].tolist())))


def _write_share(jobs, indices) -> list:
    """Write ``jobs[i]`` for each of ``indices`` in order, up to the first
    that fails: its error in its place, None in every other."""
    errors = [None] * len(indices)
    for k, i in enumerate(indices):
        try:
            _write_space_time(*jobs[i])
        except Exception as exc:     # reported in file order by the caller
            errors[k] = exc
            break
    return errors


def _write_tables(jobs) -> None:
    """Write each ``_write_space_time`` argument tuple of ``jobs``.

    ``repr`` of every float holds the interpreter lock, so the tables are
    dealt round-robin over forked helpers, one per usable CPU beside this
    process, which the fork hands ``jobs``.  The error raised is that of
    the first failing table in ``jobs`` order, wherever it was written;
    the bytes do not depend on the split.
    """
    from .forked import Helpers
    with Helpers(functools.partial(_write_share, jobs), len(jobs)) as helpers:
        errors = helpers.map(list(range(len(jobs))))
    for error in errors:
        if error is not None:
            raise error


# ----------------------------------------------------------------- runners

def _run_simulate(built, out: Path, seed: int) -> list:
    from .network import as_split_schedule
    net = built["net"]
    commodities = built["commodities"]
    splits = as_split_schedule(built["base_rows"], commodities)
    names, tables = [], []
    for case in built["cases"]:
        state = _cli.simulate(net, commodities, splits, case["sources"],
                              built["laws"], horizon=built["horizon"],
                              grid=built["grid"],
                              initial_density=case["initial"] or None,
                              windows=built["windows"])
        keep = _time_rows(len(state.times))
        t_text = _reprs(state.times[keep])
        x_text = _reprs(state.cells)
        header = (["t", "x"]
                  + [f"rho_{k}" for k in range(len(commodities))]
                  + ["speed"])
        for link in net.links:
            fname = f"density_{case['name']}_{link[0]}-{link[1]}.csv"
            tables.append((out / fname, header, t_text, x_text,
                           state.rho[link][keep].transpose(0, 2, 1),
                           state.speeds[link][keep].tolist()))
            names.append(fname)
        fname = f"mass_report_{case['name']}.csv"
        report = state.mass_report()
        _write_csv(out / fname,
                   ["commodity", "injected", "arrived", "stored_initial",
                    "stored_final", "residual", "relative_residual"],
                   [[k.label(), r["injected"], r["exited"],
                     r["stored_initial"], r["stored_final"], r["residual"],
                     r["relative_residual"]]
                    for k, r in report.items()])
        names.append(fname)
    _write_tables(tables)
    return names


def _run_equilibrium(built, out: Path, seed: int) -> list:
    rounds = _cli.equilibrium_iterate(
        built["net"], built["demand"], built["alpha"], built["policies"],
        built["rounds"], laws=built["laws"], horizon=built["horizon"],
        base_splits=built["base_rows"], grid=built["grid"], eps=built["eps"])
    _write_csv(out / "gaps.csv", ["round", "gap", "used_fallback"],
               [[r.index, r.gap, r.used_fallback] for r in rounds])
    return ["gaps.csv"]


def _run_social_opt(built, out: Path, seed: int) -> list:
    result = _cli.optimize_social(
        built["net"], built["demand"], built["param"], built["budget"],
        laws=built["laws"], base_splits=built["base_rows"],
        grid=built["grid"], fd_step=built["fd_step"],
        initial_step=built["initial_step"])
    _write_csv(out / "j_trace.csv", ["simulations", "objective"],
               [[n, j] for n, j in result.trace])
    controls = result.controls
    rows = []
    for c, vals in zip(controls.theta, controls.theta_values):
        for i, link in enumerate(c.links):
            for p in range(vals.shape[1]):
                rows.append(["theta", c.node, c.commodity.label(),
                             link[0], link[1], p, vals[i, p]])
    for c, vals in zip(controls.sources, controls.source_values):
        for p in range(len(vals)):
            rows.append(["source", c.node, c.commodity.label(),
                         c.link[0], c.link[1], p, vals[p]])
    _write_csv(out / "controls.csv",
               ["control", "node", "commodity", "tail", "head",
                "interval", "value"], rows)
    _write_csv(out / "summary.csv", ["status", "objective", "simulations"],
               [[result.status, result.objective, result.evaluations]])
    return ["j_trace.csv", "controls.csv", "summary.csv"]


def _write_q_table(path: Path, sol) -> None:
    fields = sol.density_fields()
    keep = _time_rows(fields.shape[0])
    _write_space_time(path, ["t", "x", "q"], _reprs(sol.times[keep]),
                      _reprs(sol.x_centers), fields[keep][:, :, None])


def _run_platoon_flow(built, out: Path, seed: int) -> list:
    pair = built["pair"]
    cells = built["cells"]
    base_sol = _cli.solve_freight_pair(pair, built["baseline"], cells=cells)
    result = _cli.optimize_velocity(pair, built["control0"], built["budget"],
                                    objective=built["objective"], cells=cells,
                                    fd_step=built["fd_step"])
    opt_sol = _cli.solve_freight_pair(pair, result.control, cells=cells)

    _write_csv(out / "j_trace.csv", ["solves", "objective"],
               [[n, j] for n, j in result.trace])
    star = result.control
    rows = [[star.t_knots[i], star.x_knots[j], star.values[i, j]]
            for i in range(len(star.t_knots))
            for j in range(len(star.x_knots))]
    _write_csv(out / "velocity_star.csv", ["t", "x", "value"], rows)
    _write_q_table(out / "q_baseline.csv", base_sol)
    _write_q_table(out / "q_optimized.csv", opt_sol)
    jb1, jb2 = base_sol.objectives()
    js1, js2 = opt_sol.objectives()
    _write_csv(out / "summary.csv",
               ["status", "solves", "objective",
                "j_unweighted_baseline", "j_unweighted_star",
                "j_weighted_baseline", "j_weighted_star",
                "final_variance_baseline", "final_variance_star"],
               [[result.status, result.evaluations, built["objective"],
                 jb1, js1, jb2, js2,
                 base_sol.final_spatial_variance(),
                 opt_sol.final_spatial_variance()]])
    return ["j_trace.csv", "velocity_star.csv", "q_baseline.csv",
            "q_optimized.csv", "summary.csv"]


def _schedule_artifacts(built, result, out: Path) -> list:
    graph = built["graph"]
    assignments = built["assignments"]
    state = built["state"]
    with open(out / "cost_trace.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("iteration,cost\n" + "".join(
            f"{m},{c}\n" for m, c in enumerate(_reprs(result.cost_trace))))
    _write_csv(out / "best_delays.csv",
               ["vehicle", "depart", "window_lo", "window_hi", "delay"],
               [[i, v.depart, v.window[0], v.window[1], result.best_tau[i]]
                for i, v in enumerate(assignments)])
    tau0 = state.tau
    hist_base = _cli.pair_distance_histogram(graph, assignments, tau0)
    hist_sched = _cli.pair_distance_histogram(graph, assignments,
                                              result.best_tau)
    ratios = _cli.pair_distance_ratio(hist_sched, hist_base)
    rows = []
    for e in sorted(ratios):
        tail, head = graph.edges[e][0], graph.edges[e][1]
        for d in sorted(ratios[e]):
            rows.append([tail, head, d,
                         hist_sched.get(e, {}).get(d, 0),
                         hist_base.get(e, {}).get(d, 0), ratios[e][d]])
    _write_csv(out / "distance_ratio.csv",
               ["tail", "head", "distance", "scheduled_pairs",
                "baseline_pairs", "ratio"], rows)
    try:
        gain = _cli.platoon_opportunity_gain(hist_sched, hist_base)
    except ValueError:
        gain = ""
    _write_csv(out / "summary.csv",
               ["initial_cost", "best_cost", "iterations", "aligned_gain"],
               [[result.cost_trace[0], result.best_cost,
                 len(result.cost_trace) - 1, gain]])
    return ["cost_trace.csv", "best_delays.csv", "distance_ratio.csv",
            "summary.csv"]


def _run_schedule(built, out: Path, seed: int) -> list:
    result = _cli.run_learning(built["state"], built["iterations"], seed)
    return _schedule_artifacts(built, result, out)


def _run_schedule_private(built, out: Path, seed: int) -> list:
    from .private_agg import modexp_helpers
    assignments = built["assignments"]
    transcript: list = []
    with modexp_helpers():      # one helper for the whole command
        result = _cli.run_private_learning(built["state"],
                                           built["iterations"], seed,
                                           bits=built["bits"])
        # one demonstration ring pass at the best profile, fresh keypair
        rng = np.random.default_rng([seed, 0xDEC0DE])
        keypair = _cli.keygen(built["bits"], rng)
        ring = [(veh, int(result.best_tau[i]))
                for i, veh in enumerate(assignments)]
        _cli.chain_aggregate(ring, built["graph"],
                             _cli.default_horizon(assignments), keypair, rng,
                             transcript=transcript)
    names = _schedule_artifacts(built, result, out)
    rows = [[entry[0], entry[1], entry[2], entry[3], entry[4].hex()]
            if entry[0] == "hop" else [entry[0], entry[1], "", "", ""]
            for entry in transcript]
    _write_csv(out / "transcript.csv",
               ["event", "hop", "sender", "receiver", "digest"], rows)
    return names + ["transcript.csv"]


RUNNERS = {
    "simulate": _run_simulate,
    "equilibrium": _run_equilibrium,
    "social-opt": _run_social_opt,
    "platoon-flow": _run_platoon_flow,
    "schedule": _run_schedule,
    "schedule-private": _run_schedule_private,
}


# -------------------------------------------------------------- manifest

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out: Path, scn, seed: int, names: list,
                    wall: float) -> None:
    manifest = {
        "scenario": scn.path.name,
        "scenario_sha256": hashlib.sha256(scn.raw_bytes).hexdigest(),
        "kind": scn.kind,
        "seed": seed,
        "versions": {
            "roadflow": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "artifacts": {name: _sha256(out / name) for name in sorted(names)},
        # wall time and timestamp are informational, not reproducible
        "wall_time_s": round(wall, 3),
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    with open(out / "run_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ main

def _emit_error(category: str, exc: Exception) -> None:
    print(json.dumps({"error": category, "message": str(exc)}),
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadflow",
        description="Run traffic, routing, platooning, and scheduling "
                    "scenarios from JSON files.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "multi-commodity network runs with windowed speeds",
        "equilibrium": "day-to-day routing iteration and gap trace",
        "social-opt": "demand and split shaping against the backlog cost",
        "platoon-flow": "velocity-field optimization for truck concentration",
        "schedule": "departure-delay coordination by log-linear learning",
        "schedule-private": "the same learning over encrypted aggregates",
        "validate": "check a scenario file of any kind and exit",
    }
    for kind in KINDS + ("validate",):
        sp = sub.add_parser(kind, help=helps[kind])
        sp.add_argument("--scenario", required=True,
                        help="path to the scenario JSON file")
        if kind != "validate":
            sp.add_argument("--out", default=None,
                            help="output directory (default: "
                                 "<scenario stem>_out)")
            sp.add_argument("--seed", type=int, default=None,
                            help="override the scenario seed")
            sp.add_argument("--threads", type=int, default=1,
                            help="accepted and ignored (kept so older "
                                 "scripts still run): simulate's tables "
                                 "and schedule-private's modular powers "
                                 "use one process per usable CPU, "
                                 "everything else is serial")
            sp.add_argument("--validate-only", action="store_true",
                            help="stop after schema validation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a value that overflows to an infinity or NaN is refused or raised as
    # an error of its own; numpy's warning would be a second message on
    # stderr
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            scn = load_scenario(args.scenario)
            if args.command != "validate" and scn.kind != args.command:
                raise SchemaError(
                    f"scenario kind {scn.kind!r} does not match "
                    f"subcommand {args.command!r}")
            built = BUILDERS[scn.kind](scn.payload)
        except SchemaError as exc:
            _emit_error("schema", exc)
            return 2
        if args.command == "validate" or getattr(args, "validate_only", False):
            print(f"ok kind={scn.kind} scenario={scn.path.name}")
            return 0

        seed = args.seed if args.seed is not None else scn.seed
        out = Path(args.out) if args.out else Path(f"{scn.path.stem}_out")
        out.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        try:
            names = RUNNERS[scn.kind](built, out, seed)
        except RoadflowError as exc:
            _emit_error("compute",
                        ComputeError(f"{scn.kind} run failed: {exc}"))
            return 1
        except (ValueError, ArithmeticError, KeyError, OSError, RuntimeError,
                MemoryError) as exc:
            _emit_error("compute",
                        ComputeError(f"{scn.kind} run failed: {exc!r}"))
            return 1
        _write_manifest(out, scn, seed, names, time.perf_counter() - started)
        print(f"wrote {len(names) + 1} files to {out}")
        for name in names + ["run_manifest.json"]:
            print(f"  {name}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
