"""Self-test of the benchmark: every check accepts the program's real
outputs and rejects each of a set of corrupted copies.

Run with ``python3 perfbench/selftest.py`` (or point pytest at this file).
It runs every workload once at the small smoke size, untraced and traced,
then corrupts one output at a time and expects the check to fail.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SELFTEST = run.WORK / "selftest"
_produced: dict = {}


def produce(workload: str):
    """Run the workload's operations once at smoke size; keep the outputs
    and the captured return values."""
    if workload not in _produced:
        import roadflow.cli as cli

        ops = workloads.make_ops(workload, 5, SELFTEST, "smoke")
        tracer = tracing.Tracer()
        tracer.install(trace=False)
        try:
            for op in ops:
                shutil.rmtree(op.out, ignore_errors=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(op.argv) == 0
        finally:
            tracer.uninstall()
        _produced[workload] = ({op.name: op for op in ops},
                               dict(tracer.captured))
    return _produced[workload]


def corrupted(op, tag: str):
    """A copy of the operation whose outputs may be edited freely."""
    out = op.out.parent / f"{op.out.name}_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(op.out, out)
    return dataclasses.replace(op, out=out)


def edit_csv(path: Path, edit) -> None:
    """Apply ``edit(rows)`` to the data rows (lists of strings) of a CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = rows[1:]
    edit(data)
    rows[1:] = data
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def rejects(op, captured) -> bool:
    try:
        op.check(op, captured)
    except checks.CheckFailed:
        return True
    return False


def nudge(row, col: int, delta: float) -> None:
    row[col] = repr(float(row[col]) + delta)


# ----------------------------------------------------------------- tests

def test_smoke_every_workload():
    with contextlib.redirect_stdout(io.StringIO()):
        assert run.smoke(workloads.WORKLOADS) == 0


def test_simulate_check_rejects_corruption():
    ops, captured = produce("day-to-day")
    op = ops["simulate"]
    op.check(op, captured)
    link = op.spec["net"]["links"][3]
    name = f"density_base_{link[0]}-{link[1]}.csv"
    bad = corrupted(op, "nudge")
    edit_csv(bad.out / name, lambda rows: nudge(rows[-1], 2, 1e-6))
    assert rejects(bad, captured)
    bad = corrupted(op, "negative")
    edit_csv(bad.out / name, lambda rows: rows[len(rows) // 2]
             .__setitem__(3, "-1e-300"))
    assert rejects(bad, captured)
    bad = corrupted(op, "speed")
    edit_csv(bad.out / name, lambda rows: rows[0].__setitem__(4, "1.5"))
    assert rejects(bad, captured)
    bad = corrupted(op, "injected")
    edit_csv(bad.out / "mass_report_base.csv",
             lambda rows: nudge(rows[0], 1, 1e-6))
    assert rejects(bad, captured)


def test_equilibrium_check_rejects_corruption():
    ops, captured = produce("day-to-day")
    op = ops["equilibrium"]
    op.check(op, captured)
    rounds = captured["equilibrium_iterate"]

    def with_round(k, **changes):
        changed = list(rounds)
        changed[k] = dataclasses.replace(rounds[k], **changes)
        return dict(captured, equilibrium_iterate=changed)

    last = rounds[-1]
    assert rejects(op, with_round(-1, used_fallback=True))
    bad = corrupted(op, "gap")
    bad_gap = last.gap * (1 + 1e-6)
    edit_csv(bad.out / "gaps.csv",
             lambda rows: rows[-1].__setitem__(1, repr(bad_gap)))
    assert rejects(bad, with_round(-1, gap=bad_gap))

    def state_with(table: str, key, edit):
        arrays = {k: v.copy() for k, v in getattr(last.state, table).items()}
        edit(arrays[key])
        return with_round(-1, state=dataclasses.replace(
            last.state, **{table: arrays}))

    link = op.spec["net"]["links"][5]
    assert rejects(op, state_with(
        "rho", link, lambda a: a.__setitem__((-1, 0, 2), a[-1, 0, 2] + 1e-6)))
    node_key = next(iter(last.state.split_rows))
    assert rejects(op, state_with(
        "split_rows", node_key, lambda a: a.__setitem__((0, 3), a[0, 3] + 1e-6)))


def test_social_check_rejects_corruption():
    ops, captured = produce("shaping")
    op = ops["social-opt"]
    op.check(op, captured)
    bad = corrupted(op, "trace")
    edit_csv(bad.out / "j_trace.csv",
             lambda rows: rows.append([str(int(rows[-1][0]) + 1), rows[-1][1]]))
    assert rejects(bad, captured)
    bad = corrupted(op, "theta")
    edit_csv(bad.out / "controls.csv", lambda rows: nudge(rows[0], 6, 1e-6))
    assert rejects(bad, captured)
    bad = corrupted(op, "source")
    edit_csv(bad.out / "controls.csv", lambda rows: nudge(rows[-1], 6, 1e-6))
    assert rejects(bad, captured)


def test_platoon_check_rejects_corruption():
    ops, captured = produce("shaping")
    op = ops["platoon-flow"]
    op.check(op, captured)
    bad = corrupted(op, "box")
    edit_csv(bad.out / "velocity_star.csv",
             lambda rows: rows[0].__setitem__(2, repr(op.spec["lam_max"] + 1e-6)))
    assert rejects(bad, captured)
    bad = corrupted(op, "lip")

    def steep(rows):
        # knots (t0, x1) and (t1, x1) one time spacing apart, 0.5 apart
        rows[1][2] = repr(op.spec["lam_min"])
        rows[4][2] = repr(op.spec["lam_max"])
    edit_csv(bad.out / "velocity_star.csv", steep)
    assert rejects(bad, captured)
    bad = corrupted(op, "density")
    edit_csv(bad.out / "q_optimized.csv",
             lambda rows: rows[-1].__setitem__(2, "-1e-12"))
    assert rejects(bad, captured)


def _schedule_corruptions(op, captured):
    bad = corrupted(op, "window")
    hi = op.spec["vehicles"][0][2][1]
    edit_csv(bad.out / "best_delays.csv",
             lambda rows: rows[0].__setitem__(4, str(hi + 1)))
    assert rejects(bad, captured)
    bad = corrupted(op, "best")
    edit_csv(bad.out / "summary.csv", lambda rows: nudge(rows[0], 1, 1.0))
    assert rejects(bad, captured)
    bad = corrupted(op, "pairs")
    edit_csv(bad.out / "distance_ratio.csv",
             lambda rows: rows[0].__setitem__(3, str(int(rows[0][3]) + 1)))
    assert rejects(bad, captured)


def test_schedule_check_rejects_corruption():
    ops, captured = produce("freight")
    op = ops["schedule"]
    op.check(op, captured)
    _schedule_corruptions(op, captured)


def test_private_check_rejects_corruption():
    ops, captured = produce("freight-private")
    op = ops["schedule-private"]
    op.check(op, captured)
    _schedule_corruptions(op, captured)
    result = captured["run_private_learning"]
    trajectory = result.trajectory.copy()
    row = trajectory[-1]
    window = op.spec["vehicles"][0][2]
    row[0] = window[0] if row[0] != window[0] else window[1]
    assert rejects(op, dict(captured, run_private_learning=dataclasses.replace(
        result, trajectory=trajectory)))
    bad = corrupted(op, "transcript")
    edit_csv(bad.out / "transcript.csv", lambda rows: rows.pop())
    assert rejects(bad, captured)


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL  {name}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
