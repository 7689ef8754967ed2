"""End-to-end benchmark of the ``roadflow`` command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

A run generates the workload's scenario files from ``--seed`` under
``.perfbench/`` in the repository root, then runs rounds of the workload's
operations through ``roadflow.cli.main`` in this process (closed loop: one
thread, one operation at a time) until ``--seconds`` of rounds have passed.
Between rounds, fresh interpreters time the program's set-up.  Every
operation's outputs are checked after its round.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--smoke`` runs one small round of every
workload, untraced and traced, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: fresh interpreters timed per untraced run for ``setup_s`` (the median
#: is reported), taken a few after each round so they sample the whole run
SETUP_PROBES = 18
PROBES_PER_ROUND = 3


def probe_setup(ops, count: int) -> list:
    """Seconds each of ``count`` fresh interpreters takes to import
    ``roadflow`` and validate the workload's scenario files."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    argv += [str(op.scenario) for op in ops]
    times = []
    for _ in range(count):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_round(ops, main, tracer, trace: bool):
    """Run every operation once, then check them all.

    Returns the wall time from the start of the first operation to the end
    of the last, the artifact bytes written, and one message per failed
    operation.
    """
    for op in ops:
        shutil.rmtree(op.out, ignore_errors=True)
    codes = []
    tracer.active = trace
    start = time.perf_counter()
    for op in ops:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(op.argv)
        except Exception as exc:  # the operation failed; keep measuring
            code = repr(exc)
        codes.append((code, sink.getvalue()))
    wall = time.perf_counter() - start
    tracer.active = False
    written = sum(f.stat().st_size for op in ops for f in op.out.iterdir()
                  if f.is_file()) if trace else 0
    failures = []
    for op, (code, text) in zip(ops, codes):
        if code != 0:
            failures.append(f"{op.name}: exit {code!r}: {text.strip()[-400:]}")
            continue
        try:
            op.check(op, tracer.captured)
        except checks.CheckFailed as exc:
            failures.append(f"{op.name}: check failed: {exc}")
        except Exception as exc:  # unreadable or missing artifact
            failures.append(f"{op.name}: check error: {exc!r}")
    tracer.captured.clear()
    return wall, written, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", probes: int = SETUP_PROBES) -> dict:
    import roadflow.cli as cli

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.make_ops(workload, seed, WORK, size)

    tracer = Tracer()
    tracer.install(trace)
    main = tracer.wrap("cli.main", cli.main) if trace else cli.main
    walls, written, failures, attempted, setup = [], 0, [], 0, []
    measured = 0.0       # seconds of rounds, set-up probes excluded
    try:
        while True:
            start = time.perf_counter()
            wall, nbytes, fails = run_round(ops, main, tracer, trace)
            measured += time.perf_counter() - start
            walls.append(wall)
            written += nbytes
            failures += fails
            attempted += len(ops)
            if not trace:
                setup += probe_setup(ops, min(PROBES_PER_ROUND,
                                              probes - len(setup)))
            if measured >= seconds:
                break
    finally:
        tracer.uninstall()
    if not trace:
        setup += probe_setup(ops, probes - len(setup))

    for message in failures[:5]:
        print(message, file=sys.stderr)
    if trace:
        tracer.write(work / "spans.jsonl")
        metrics = layer_metrics(tracer, len(walls), statistics.median(walls),
                                written)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup), "peak_rss_mb": peak}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def smoke(names) -> int:
    ok = True
    for name in names:
        for trace in (False, True):
            result = run_workload(name, seed=1, seconds=0, trace=trace,
                                  size="smoke", probes=1)
            ok = ok and result["correct"]
            print(json.dumps({"workload": name, "trace": int(trace),
                              **result}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small round of every workload")
    args = parser.parse_args(argv)
    if not (SRC / "roadflow" / "__init__.py").is_file():
        print(f"no roadflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import roadflow

    if Path(roadflow.__file__).resolve().parent != SRC / "roadflow":
        print(f"imported roadflow from {roadflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke([args.workload] if args.workload else workloads.WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
