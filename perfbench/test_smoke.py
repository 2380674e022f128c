"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""
import csv
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import check
import run

HERE = Path(__file__).resolve().parent


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "smoke.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


@pytest.fixture
def linear_run(tmp_path):
    """A tiny table-linear pipeline whose outputs pass every check."""
    _, cli = run.import_package()
    wl = replace(run.WORKLOADS["table-linear"], players=3, apps=2)
    rec = run.run_pipeline(cli.main, wl, 0, tmp_path)
    assert run.problems_of(rec, wl, {}) == []
    return rec, wl


def _rewrite(path: Path, edit) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _problems(rec, wl, verify_code=None, floor=None):
    code = rec["verify"] if verify_code is None else verify_code
    return check.check_pipeline(rec["scenario"], rec["out"], wl.method, code, floor)


def test_check_catches_wrong_coalition_value(linear_run):
    rec, wl = linear_run

    def bump(rows):
        rows[1][3] = repr(float(rows[1][3]) + 1e-6)
        return rows

    _rewrite(rec["out"] / "coalition.csv", bump)
    assert any("closed form" in p for p in _problems(rec, wl))


def test_check_catches_wrong_fast_payoff(linear_run):
    rec, wl = linear_run

    def bump_payoffs(rows):
        fast = next(r for r in rows if r[0] == "fast")
        fast[2] = repr(float(fast[2]) + 1e-6)
        return rows

    _rewrite(rec["out"] / "payoffs.csv", bump_payoffs)
    assert any("differs from payoffs.csv" in p for p in _problems(rec, wl))

    def bump_row(rows):
        fast = next(r for r in rows if r[2].endswith(" fast"))
        fast[4] = repr(float(fast[4]) + 1e-6)
        return rows

    _rewrite(rec["out"] / "coalition.csv", bump_row)
    assert any("hand-traced split" in p for p in _problems(rec, wl))


def test_check_catches_missing_player(linear_run):
    rec, wl = linear_run
    _rewrite(rec["out"] / "payoffs.csv", lambda rows: rows[:-1])
    assert any("do not cover players" in p for p in _problems(rec, wl))


def test_check_catches_value_below_floor(linear_run):
    rec, wl = linear_run
    values = check.read_coalition_csv(rec["out"] / "coalition.csv")[0]
    floor = [values[m] + 1e-6 for m in sorted(values)]
    assert any("below the recorded floor" in p for p in _problems(rec, wl, floor=floor))
    assert _problems(rec, wl, floor=[values[m] for m in sorted(values)]) == []


def test_check_catches_wrong_verdict(linear_run):
    rec, wl = linear_run
    assert any("verify exited" in p for p in _problems(rec, wl, verify_code=1 - rec["verify"]))


def test_self_times_subtract_children():
    tracer = run.layers.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(10000)))
    outer, inner = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert inner > 0 and outer >= 0
    assert outer + inner == pytest.approx(total)


def test_determinism_guard_reports_changed_counts():
    first = {"0": {"solver.coalition.calls": 15, "solver.coalition.iterations": 900}}
    assert run.compare_counts(first, {"0": dict(first["0"])}) == []
    second = {"0": {**first["0"], "solver.coalition.iterations": 901}}
    problems = run.compare_counts(first, second)
    assert len(problems) == 1 and "solver.coalition.iterations 900 -> 901" in problems[0]
    assert run.compare_counts(first, {}) != []


def test_host_speed_takes_its_own_time_out():
    host = run.hostspeed.HostSpeed()
    for _ in range(3):
        host.sample()
    a, b = host.starts[1], host.starts[2]
    assert host.busy(a, b) == pytest.approx(host.times[1])
    assert host.busy(0.0, host.starts[-1] + 1) == pytest.approx(sum(host.times))
    assert host.slowdown(a, b) == pytest.approx(host.times[1] / run.hostspeed.REFERENCE_S)
    # an interval with no sample in it takes the nearest sample before it
    assert host.slowdown(b + 1e-9, b + 2e-9) == pytest.approx(
        host.times[2] / run.hostspeed.REFERENCE_S)
