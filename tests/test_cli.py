"""End-to-end checks of the command-line front end and its CSV formats."""
import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgeshare import model
from edgeshare.cli import main, read_payoffs_csv, write_payoffs_csv


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def gen(tmp_path: Path, name="s.json", **overrides) -> Path:
    """Generate a small linear scenario through the CLI and return its path."""
    args = {"players": "3", "apps": "2", "resources": "2", "seed": "0"}
    args.update({k: str(v) for k, v in overrides.items()})
    out = tmp_path / name
    flags = [f"--{k.replace('_', '-')}" for k in args]
    assert main(["gen", *sum(([f, v] for f, v in zip(flags, args.values())), []),
                 "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic(tmp_path, capsys):
    a = gen(tmp_path, "a.json", seed=5)
    b = gen(tmp_path, "b.json", seed=5)
    assert a.read_bytes() == b.read_bytes()
    assert "digest=" in capsys.readouterr().out


def test_gen_rejects_zero_players(tmp_path, capsys):
    assert main(["gen", "--players", "0", "--out", str(tmp_path / "x.json")]) == 2


def test_gen_sigmoid_needs_mu(tmp_path):
    assert main(["gen", "--utility", "sigmoid", "--out", str(tmp_path / "x.json")]) == 2


def test_gen_linear_rejects_mu(tmp_path):
    assert main(["gen", "--utility", "linear", "--mu", "5",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_gen_bad_weights(tmp_path):
    assert main(["gen", "--weights", "oops", "--out", str(tmp_path / "x.json")]) == 2


def test_gen_unwritable_path_is_io_error(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")]) == 3


# ---------------------------------------------------------------------------
# run


def test_run_both_emits_all_csvs(tmp_path):
    scenario = gen(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0

    rows = read_csv(out / "coalition.csv")
    assert len(rows) == 7 + 2  # every coalition, then one payoff row per method
    value_rows, payoff_rows = rows[:7], rows[7:]
    assert [int(r["mask"]) for r in value_rows] == list(range(1, 8))
    assert payoff_rows[0]["members"] == "{1,2,3} fast"
    assert payoff_rows[1]["members"] == "{1,2,3} shapley"
    for r in payoff_rows:
        split = [float(r[f"u_p{i}"]) for i in (1, 2, 3)]
        assert sum(split) == pytest.approx(float(r["value"]), abs=1e-9)
    # per-player columns of a solved value row add up to the row's value
    grand = value_rows[-1]
    parts = [float(grand[f"u_p{i}"]) for i in (1, 2, 3)]
    assert sum(parts) == pytest.approx(float(grand["value"]), abs=1e-6)

    payoffs = read_csv(out / "payoffs.csv")
    assert len(payoffs) == 6
    for r in payoffs:
        assert float(r["gain"]) == pytest.approx(
            float(r["payoff"]) - float(r["standalone"]), abs=1e-12)

    comparison = read_csv(out / "comparison.csv")
    assert [r["method"] for r in comparison] == ["shapley", "fast"]
    assert [int(r["solves"]) for r in comparison] == [7, 6]


def test_run_fast_skips_enumeration(tmp_path):
    scenario = gen(tmp_path, players=10, apps=1, resources=1)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--method", "fast",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "coalition.csv")
    assert len(rows) == 10 + 1  # singletons only, plus the fast payoff row
    assert [int(r["mask"]) for r in rows[:10]] == [1 << n for n in range(10)]
    assert rows[10]["mask"] == str(2**10 - 1)
    (comp,) = read_csv(out / "comparison.csv")
    assert comp["method"] == "fast" and int(comp["solves"]) == 20


def test_run_zero_requests_gives_zero_values(tmp_path):
    s = model.generate_scenario(2, 2, 2, utility="linear", seed=0)
    s = dataclasses.replace(s, requests=np.zeros_like(s.requests))
    path = tmp_path / "zero.json"
    model.save_scenario(s, path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    for row in read_csv(out / "coalition.csv"):
        assert float(row["value"]) == 0.0


def test_run_missing_scenario(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 3


def test_run_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_two_players_passes(tmp_path, capsys):
    scenario = gen(tmp_path, players=2)
    assert main(["verify", "--scenario", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert "core[fast]: PASS" in out
    assert "core[shapley]: PASS" in out
    assert "superadditivity: PASS" in out


def test_verify_flags_supplied_bad_payoffs(tmp_path, capsys):
    scenario = gen(tmp_path, players=2)
    s = model.load_scenario(scenario)
    from edgeshare.engine import build_characteristic_table
    grand = build_characteristic_table(s).value(0b11)
    payoffs = tmp_path / "payoffs.csv"
    write_payoffs_csv(payoffs, [("greedy", np.array([grand, 0.0]), np.zeros(2))])
    assert main(["verify", "--scenario", str(scenario),
                 "--payoffs", str(payoffs), "--out", str(tmp_path / "v")]) == 1
    out = capsys.readouterr().out
    assert "core[greedy]: FAIL coalition {2}" in out
    statuses = {r["check"]: r["status"] for r in read_csv(tmp_path / "v" / "verify.csv")}
    assert statuses["core"] == "fail"
    assert statuses["superadditivity"] == "pass"


def test_verify_writes_pass_rows(tmp_path):
    scenario = gen(tmp_path, players=2)
    assert main(["verify", "--scenario", str(scenario), "--method", "fast",
                 "--out", str(tmp_path / "v")]) == 0
    rows = read_csv(tmp_path / "v" / "verify.csv")
    assert {r["status"] for r in rows} == {"pass"}
    assert {r["check"] for r in rows} == {"core", "superadditivity"}


def test_verify_tol_gap_reaches_the_table(tmp_path, capsys):
    # a huge solver gap stops Frank-Wolfe at its starting points, so the
    # table's grand value depends on --tol-gap; payoffs that add up to the
    # loose table's grand value are group rational only against that table
    scenario = gen(tmp_path, players=2, utility="sigmoid", mu=3)
    s = model.load_scenario(scenario)
    from edgeshare.engine import build_characteristic_table
    loose = build_characteristic_table(s, gap_tol=1e9).value(0b11)
    assert loose < build_characteristic_table(s).value(0b11) - 1e-3
    payoffs = tmp_path / "payoffs.csv"
    write_payoffs_csv(payoffs, [("split", np.array([loose, 0.0]), np.zeros(2))])
    main(["verify", "--scenario", str(scenario), "--payoffs", str(payoffs),
          "--tol-gap", "1e9"])
    assert "core[split]: FAIL group rationality" not in capsys.readouterr().out


def test_verify_rejects_gappy_payoffs_file(tmp_path):
    scenario = gen(tmp_path, players=2)
    bad = tmp_path / "payoffs.csv"
    bad.write_text("method,player,payoff,standalone,gain\nfast,2,1.0,0.0,1.0\n",
                   encoding="utf-8")
    assert main(["verify", "--scenario", str(scenario), "--payoffs", str(bad)]) == 2


def test_verify_missing_payoffs_file(tmp_path):
    scenario = gen(tmp_path, players=2)
    assert main(["verify", "--scenario", str(scenario),
                 "--payoffs", str(tmp_path / "nope.csv")]) == 3


# ---------------------------------------------------------------------------
# bench


def test_bench_grid_and_plotdata(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--players", "2", "--apps", "1,2", "--resources", "2",
                 "--utility", "linear", "--repetitions", "2",
                 "--out", str(out)]) == 0
    comparison = read_csv(out / "comparison.csv")
    assert len(comparison) == 4  # two app counts x two methods
    assert {r["m_per_player"] for r in comparison} == {"1", "2"}
    plot = read_csv(out / "plotdata.csv")
    # per setting: 2 standalone + 2 methods x (2 players + 3 summary rows)
    assert len(plot) == 2 * (2 + 2 * 5)
    metrics = {r["metric"] for r in plot}
    assert metrics == {"utility_alone", "utility_sharing", "total_value",
                       "solves", "median_ms"}


def test_bench_values_independent_of_repetitions(tmp_path):
    outs = []
    for reps, name in ((1, "a"), (3, "b")):
        out = tmp_path / name
        assert main(["bench", "--players", "2", "--apps", "2", "--resources", "2",
                     "--utility", "sigmoid", "--mu", "0.5", "--seed", "3",
                     "--repetitions", str(reps), "--out", str(out)]) == 0
        outs.append([r for r in read_csv(out / "plotdata.csv")
                     if r["metric"] != "median_ms"])
    assert outs[0] == outs[1]


def test_bench_fast_only(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--players", "2", "--apps", "2", "--resources", "1",
                 "--utility", "linear", "--method", "fast", "--repetitions", "1",
                 "--out", str(out)]) == 0
    assert {r["method"] for r in read_csv(out / "comparison.csv")} == {"fast"}


# ---------------------------------------------------------------------------
# CSV round trips and the installed entry point


def test_payoffs_csv_roundtrip_is_exact(tmp_path):
    path = tmp_path / "payoffs.csv"
    fast = np.array([0.1 + 0.2, 1.0 / 3.0, 62.06])
    shap = np.array([1e-17, 2.5, np.pi])
    write_payoffs_csv(path, [("fast", fast, np.zeros(3)), ("shapley", shap, np.zeros(3))])
    back = read_payoffs_csv(path)
    assert np.array_equal(back["fast"], fast)
    assert np.array_equal(back["shapley"], shap)


def test_console_script_installed(tmp_path):
    """The ``edgeshare`` entry point declared in pyproject.toml launches the CLI.

    The launcher is built from this checkout into ``tmp_path`` with the declared
    build backend, so the test neither needs a prior install nor picks up an
    ``edgeshare`` from another checkout on ``PATH``; nothing is written into the
    working tree.
    """
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    lib, bin_dir = tmp_path / "lib", tmp_path / "bin"
    build = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "egg_info", "--egg-base", str(tmp_path),
         "build", "--build-base", str(tmp_path / "build"),
         "install", "--single-version-externally-managed",
         "--record", str(tmp_path / "rec.txt"),
         "--install-lib", str(lib), "--install-scripts", str(bin_dir)],
        cwd=root, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    # PYTHONPATH holds only the built copy, so the launcher resolves the
    # package and its entry-point metadata from there, not from src/.
    proc = subprocess.run(
        [str(bin_dir / "edgeshare"), "gen", "--players", "2", "--apps", "1",
         "--resources", "1", "--out", str(tmp_path / "s.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(lib)})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s.json").exists()
