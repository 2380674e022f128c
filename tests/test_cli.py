"""End-to-end checks of the command-line front end and its CSV formats."""
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edgeshare
from edgeshare import analysis, cli, engine, model, solver, utility
from edgeshare.cli import main, read_payoffs_csv, write_payoffs_csv

from oracles import embed


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


def test_gen_summary_prints_the_m_per_player_field(tmp_path, capsys):
    """The summary names m as the CSVs' m_per_player column does, one count
    when every player has it, not the per-player tuple."""
    path = gen(tmp_path, players=4, apps=20)
    out = capsys.readouterr().out
    assert out.startswith(f"wrote {path} (n=4 k=2 m=20) digest=")


def test_gen_rejects_zero_players(tmp_path, capsys):
    assert main(["gen", "--players", "0", "--out", str(tmp_path / "x.json")]) == 2


def test_gen_sigmoid_needs_mu(tmp_path, capsys):
    assert main(["gen", "--utility", "sigmoid", "--out", str(tmp_path / "x.json")]) == 2
    for mu in ("inf", "nan", "0"):
        assert main(["gen", "--utility", "sigmoid", "--mu", mu,
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert f"sigmoid utility needs mu finite and > 0, got {float(mu)}" in err
    assert not (tmp_path / "x.json").exists()


def test_gen_linear_rejects_mu(tmp_path):
    assert main(["gen", "--utility", "linear", "--mu", "5",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_gen_negative_seed_is_a_usage_error(tmp_path, capsys):
    assert main(["gen", "--seed", "-1", "--out", str(tmp_path / "x.json")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


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
    assert (out / "table.npz").is_file()


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
    assert not (out / "table.npz").exists()  # the fast route builds no table


def test_run_fast_singleton_rows_credit_their_member(tmp_path):
    # the u_p* columns split a row's value; a singleton's goes to its member
    scenario = gen(tmp_path, players=3, apps=2, resources=2, weights="2:1")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--method", "fast",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "coalition.csv")
    for n, row in enumerate(rows[:3]):
        split = [float(row[f"u_p{p + 1}"]) for p in range(3)]
        assert float(row["value"]) > 0.0
        assert split == [float(row["value"]) if p == n else 0.0 for p in range(3)]


@pytest.mark.parametrize("specs, mu", [
    ((model.UtilitySpec("linear"), model.UtilitySpec("sigmoid", mu=3.0)), "3.0"),
    ((model.UtilitySpec("sigmoid", mu=2.0), model.UtilitySpec("sigmoid", mu=3.0)), ""),
], ids=["one-sigmoid-mu", "two-mus"])
def test_run_comparison_mu_is_the_one_sigmoid_mu(tmp_path, specs, mu):
    # the rule bench's rows follow too
    s = model.Scenario(n_players=2, n_resources=1, capacities=np.array([[1.0], [2.0]]),
                       requests=np.array([[1.5], [1.0]]), owner=np.array([0, 1]),
                       utilities=specs, w=np.ones(2), zeta=np.ones(2))
    model.save_scenario(s, tmp_path / "s.json")
    assert main(["run", "--scenario", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert [r["mu"] for r in read_csv(tmp_path / "out" / "comparison.csv")] == [mu, mu]


def test_coalition_rows_attribute_each_block_of_masks_in_one_call(monkeypatch):
    """Up to ATTRIBUTION_BLOCK masks share a breakdown call, and every row
    splits its value as the breakdown of its allocation alone does."""
    s = model.generate_scenario(5, 1, 1, utility="linear", seed=4)
    table = engine.build_characteristic_table(s)
    breakdown = utility.breakdown
    calls = []

    def counted(scenario, x):
        calls.append(len(x))
        return breakdown(scenario, x)

    monkeypatch.setattr(utility, "breakdown", counted)
    rows = cli.coalition_rows(s, table)
    assert analysis.ATTRIBUTION_BLOCK == 16 and calls == [16, 15]
    assert [row[0] for row in rows] == list(range(1, 32))
    assert [row[3] for row in rows] == [table.value(m) for m in range(1, 32)]
    for row in rows:
        coalition = model.Coalition(row[0])
        x = embed(s, row[0], table.reports[row[0]].allocation.x)
        totals = breakdown(s, x).weighted_total
        want = [totals[p] if coalition.contains(p) else 0.0 for p in range(5)]
        assert row[4:] == want, coalition.label()
    calls.clear()  # the fast route's singleton rows need no attribution
    singles = cli.singleton_rows(np.ones(5))
    assert [row[0] for row in singles] == [1, 2, 4, 8, 16]
    assert [row[4:] for row in singles] == np.eye(5).tolist()
    assert calls == []


@pytest.mark.parametrize("command", [
    ["run", "--method", "shapley"], ["run", "--method", "both"], ["verify"]])
def test_table_above_the_player_limit_exits_2_before_any_solve(tmp_path, capsys, solve_calls,
                                                                command):
    scenario = gen(tmp_path, players=engine.TABLE_PLAYER_LIMIT + 1, apps=1, resources=1)
    capsys.readouterr()
    assert main([*command, "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"limited to {engine.TABLE_PLAYER_LIMIT} players" in err and "--method fast" in err
    assert solve_calls == {}
    assert not (tmp_path / "o").exists()


def test_max_players_is_the_scenario_limit(tmp_path, capsys):
    # gen draws no scenario above MAX_PLAYERS, so the 25th player is
    # written into the JSON by hand
    scenario = gen(tmp_path, players=model.MAX_PLAYERS, apps=1, resources=1)
    assert main(["run", "--scenario", str(scenario), "--method", "fast",
                 "--out", str(tmp_path / "fast")]) == 0
    doc = json.loads(scenario.read_text(encoding="utf-8"))
    doc["players"].append(doc["players"][-1])
    doc["n"] = model.MAX_PLAYERS + 1
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in (["run", "--method", "fast", "--out", str(tmp_path / "o")], ["verify"]):
        assert main([*command, "--scenario", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert f"n_players must be in [1, {model.MAX_PLAYERS}], got 25" in err, command
        assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_bench_forced_shapley_above_the_player_limit_exits_2(tmp_path, capsys, solve_calls):
    assert main(["bench", "--players", str(engine.TABLE_PLAYER_LIMIT + 1), "--apps", "1",
                 "--utility", "linear", "--method", "shapley", "--repetitions", "1",
                 "--out", str(tmp_path)]) == 2
    assert "--method fast" in capsys.readouterr().err
    assert solve_calls == {}


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


def test_run_scenario_with_infinite_mu_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(gen(tmp_path, utility="sigmoid", mu="3").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"mu": 3.0', '"mu": Infinity'), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "sigmoid utility needs mu finite and > 0, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("n", "2"), ("players", None)])
def test_run_scenario_with_mistyped_field_is_a_usage_error(tmp_path, capsys, field, value):
    doc = json.loads(gen(tmp_path).read_text(encoding="utf-8"))
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for argv in (["run", "--out", str(tmp_path / "out")], ["verify"]):
        assert main([*argv, "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert repr(field) in err and "Traceback" not in err


def _edit_player(player: dict, how: str) -> str:
    """Break player 0 of a 2-resource scenario the way `how` names, in
    place, and return the field the refusal must name."""
    if how == "mu on linear":
        player["utility"]["mu"] = 3.0
        return "mu"
    if how == "coeffs on sigmoid":
        player["utility"] = {"kind": "sigmoid", "mu": 3.0, "coeffs": [[1.0, 1.0]] * 2}
        return "coeffs"
    if how == "flat requests":
        player["requests"] = sum(player["requests"], [])
    elif how == "requests three deep":
        player["requests"] = [player["requests"]]
    elif how == "one row of 4":  # reshaped, it read as the 2 x 2 original
        player["requests"] = [sum(player["requests"], [])]
    return "requests"


@pytest.mark.parametrize("how", ["mu on linear", "coeffs on sigmoid", "flat requests",
                                 "requests three deep", "one row of 4"])
def test_run_scenario_with_a_field_the_reader_would_drop_or_reshape_is_a_usage_error(
        tmp_path, capsys, how):
    """Nothing in the file is ignored or reshaped: a field that does not
    belong to the player's utility kind, or requests that are not rows of
    k numbers, is refused by name."""
    doc = json.loads(gen(tmp_path).read_text(encoding="utf-8"))
    field = _edit_player(doc["players"][0], how)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for argv in (["run", "--out", str(tmp_path / "out")], ["verify"]):
        assert main([*argv, "--scenario", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert "players[0]" in err and repr(field) in err and "Traceback" not in err
        assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value, message", [
    ("requests", 1e308, "requests must have finite totals per resource"),
    ("capacity", 1e308, "capacities must have finite totals per resource"),
    ("mu", 1e300, "player 0 mu times its largest request must be finite"),
])
def test_run_scenario_whose_sums_overflow_is_a_usage_error_before_solving(
        tmp_path, capsys, field, value, message):
    """Finite entries whose per-resource totals, or a sigmoid player's
    mu times its largest request (with a request of 1e10), overflow to
    inf are refused before anything is solved or written."""
    doc = json.loads(gen(tmp_path, utility="sigmoid", mu="3").read_text(encoding="utf-8"))
    for p in doc["players"]:
        if field == "requests":
            p["requests"] = [[value] * 2 for _ in p["requests"]]
        elif field == "capacity":
            p["capacity"] = [value] * 2
    if field == "mu":
        doc["players"][0]["utility"]["mu"] = value
        doc["players"][0]["requests"][0][0] = 1e10
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for argv in (["run", "--out", str(tmp_path / "out")], ["verify", "--out", str(tmp_path / "v")]):
        assert main([*argv, "--scenario", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err
        assert out == ""  # nothing was solved
    assert not (tmp_path / "out").exists() and not (tmp_path / "v").exists()


def test_run_negative_seed_is_a_usage_error_before_solving(tmp_path, capsys):
    doc = json.loads(gen(tmp_path, utility="sigmoid", mu="3").read_text(encoding="utf-8"))
    doc["seed"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for argv in (["run", "--out", str(tmp_path / "out")], ["verify"]):
        assert main([*argv, "--scenario", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert out == ""  # nothing was solved
    assert not (tmp_path / "out").exists()


def test_seed_beyond_32_bits_runs(tmp_path, capsys):
    """A seed of 2^32 or more seeds every restart stream as numpy reads the
    list [seed, tag, ident, r]: two words for the seed."""
    path = gen(tmp_path, utility="sigmoid", mu="3", seed=str(2**32))
    s = model.load_scenario(path)
    assert s.seed == 2**32
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = read_csv(tmp_path / "out" / "coalition.csv")
    grand = engine.solve_coalition(s, model.Coalition.grand(3))
    assert float(rows[6]["value"]) == grand.value
    assert grand.restarts_used == 16


def test_restarts_below_one_is_a_usage_error(tmp_path, capsys):
    scenario = gen(tmp_path, utility="sigmoid", mu="3")
    capsys.readouterr()
    for restarts in ("0", "-2"):
        for argv in (["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")],
                     ["verify", "--scenario", str(scenario)],
                     ["bench", "--players", "2", "--apps", "2", "--mu", "3",
                      "--repetitions", "1", "--out", str(tmp_path / "bench")]):
            assert main([*argv, "--restarts", restarts]) == 2
            err = capsys.readouterr().err
            assert "--restarts" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_invalid_tolerance_is_a_usage_error(tmp_path, capsys, tol):
    # a NaN or infinite --tol used to stop Frank-Wolfe at its start points
    # and write unoptimized payoffs with exit 0
    scenario = gen(tmp_path, players=2, utility="sigmoid", mu="3")
    capsys.readouterr()
    bench = ["bench", "--players", "2", "--apps", "2", "--mu", "3",
             "--repetitions", "1", "--out", str(tmp_path / "bench")]
    for argv, flag in ((["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")],
                        "--tol"),
                       (["verify", "--scenario", str(scenario)], "--tol"),
                       (["verify", "--scenario", str(scenario)], "--tol-gap"),
                       (bench, "--tol")):
        assert main([*argv, flag, tol]) == 2, (argv[0], flag)
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "bench").exists()


def test_bench_repetitions_below_one_is_a_usage_error(tmp_path, capsys):
    assert main(["bench", "--players", "2", "--apps", "2", "--utility", "linear",
                 "--repetitions", "0", "--out", str(tmp_path / "bench")]) == 2
    err = capsys.readouterr().err
    assert "--repetitions" in err and "Traceback" not in err


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


def test_verify_rejects_payoffs_of_the_wrong_length(tmp_path, capsys, monkeypatch):
    # a method with fewer rows than players was skipped, so it went unchecked
    scenario = gen(tmp_path, players=3)
    payoffs = tmp_path / "payoffs.csv"
    write_payoffs_csv(payoffs, [("fast", np.ones(3), np.zeros(3)),
                                ("shapley", np.ones(2), np.zeros(2))])

    def no_table(*args, **kwargs):
        raise AssertionError("the table was built before the payoffs were checked")

    monkeypatch.setattr(engine, "build_characteristic_table", no_table)
    assert main(["verify", "--scenario", str(scenario), "--payoffs", str(payoffs)]) == 2
    err = capsys.readouterr().err
    assert "'shapley'" in err and "2 rows" in err and "N = 3" in err


@pytest.mark.parametrize("payoff", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_payoffs(tmp_path, capsys, payoff):
    # a NaN or infinite payoff used to be read and reported as a core FAIL
    scenario = gen(tmp_path, players=2)
    bad = tmp_path / "payoffs.csv"
    bad.write_text("method,player,payoff,standalone,gain\n"
                   f"fast,1,1.0,0.0,1.0\nfast,2,{payoff},0.0,1.0\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--scenario", str(scenario), "--payoffs", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert f"payoff of player 2 for 'fast' in {bad} is {payoff}" in err
    assert out == ""


@pytest.mark.parametrize("row", ["fast,2", "fast,two,1.0", "fast,2,"])
def test_verify_names_a_malformed_payoffs_row(tmp_path, capsys, row):
    # a short row used to end in a TypeError traceback
    scenario = gen(tmp_path, players=2)
    bad = tmp_path / "payoffs.csv"
    bad.write_text(f"method,player,payoff\nfast,1,1.0\n{row}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--scenario", str(scenario), "--payoffs", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad} line 3: expected an integer player and a number payoff" in err
    assert "Traceback" not in err


def test_verify_rejects_a_repeated_payoffs_row(tmp_path, capsys):
    # the second row for one method and player used to replace the first
    scenario = gen(tmp_path, players=2)
    bad = tmp_path / "payoffs.csv"
    bad.write_text("method,player,payoff\nfast,1,1.0\nfast,2,1.0\nfast,1,999.0\n",
                   encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--scenario", str(scenario), "--payoffs", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert f"{bad} line 4: a second payoff row for player 1 of 'fast'" in err
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("column", ["method", "player", "payoff"])
def test_verify_names_a_missing_payoffs_column(tmp_path, capsys, column):
    scenario = gen(tmp_path, players=2)
    header = [c for c in ("method", "player", "payoff") if c != column]
    rows = [{"method": "fast", "player": str(p), "payoff": "1.0"} for p in (1, 2)]
    bad = tmp_path / "payoffs.csv"
    bad.write_text("".join(",".join(line) + "\n" for line in
                           [header, *([r[c] for c in header] for r in rows)]),
                   encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--scenario", str(scenario), "--payoffs", str(bad)]) == 2
    assert f"{bad} has no {column} column" in capsys.readouterr().err


def test_verify_missing_payoffs_file(tmp_path):
    scenario = gen(tmp_path, players=2)
    assert main(["verify", "--scenario", str(scenario),
                 "--payoffs", str(tmp_path / "nope.csv")]) == 3


# ---------------------------------------------------------------------------
# table.npz: run saves the table, verify --payoffs audits it


def run_both(tmp_path: Path, *gen_args) -> tuple[Path, Path]:
    """gen with these arguments, then run --method both; the scenario and
    the output directory."""
    scenario, out = tmp_path / "s.json", tmp_path / "out"
    assert main(["gen", *gen_args, "--out", str(scenario)]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    return scenario, out


def verify_rows(scenario: Path, payoffs: Path, out: Path, *extra) -> tuple[int, list[dict]]:
    code = main(["verify", "--scenario", str(scenario), "--payoffs", str(payoffs),
                 "--out", str(out), *extra])
    return code, read_csv(out / "verify.csv")


def without_table(out: Path, tmp_path: Path) -> Path:
    """A copy of out's payoffs.csv with no table.npz beside it."""
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "payoffs.csv").write_bytes((out / "payoffs.csv").read_bytes())
    return bare / "payoffs.csv"


SIGMOID_WEIGHTED = ["--players", "3", "--apps", "5", "--utility", "sigmoid", "--mu", "3",
                    "--weights", "1:0.5"]


@pytest.mark.parametrize("gen_args", [
    [*SIGMOID_WEIGHTED, "--seed", "2"],
    ["--players", "3", "--apps", "3", "--utility", "linear", "--weights", "2:1"],
    ["--players", "4", "--apps", "3", "--utility", "linear"],
], ids=["sigmoid-1:0.5", "linear-2:1", "linear-1:1"])
def test_saved_table_reads_back_as_the_table_run_built(tmp_path, monkeypatch, gen_args):
    built = []

    def keep(path, s, table, restarts, gap_tol):
        built.append(table)
        return write_table(path, s, table, restarts, gap_tol)

    write_table = cli.write_table_npz
    monkeypatch.setattr(cli, "write_table_npz", keep)
    scenario, out = run_both(tmp_path, *gen_args)
    (table,) = built
    back, differ = cli.read_table_npz(out / "table.npz", model.load_scenario(scenario),
                                      solver.DEFAULT_RESTARTS, solver.DEFAULT_GAP_TOL)
    assert differ == ""
    assert back.values.tobytes() == table.values.tobytes()
    # "alloc" is the reports' arrays as they are, concatenated in mask order
    with np.load(out / "table.npz") as npz:
        assert npz["alloc"].tobytes() == b"".join(
            table.reports[mask].allocation.x.tobytes() for mask in sorted(table.reports))
    assert sorted(back.reports) == sorted(table.reports) == list(range(1, len(table.values) + 1))
    for mask, want in table.reports.items():
        got = back.reports[mask]
        assert np.array_equal(got.allocation.x, want.allocation.x), mask
        assert dataclasses.replace(got, allocation=None) == dataclasses.replace(
            want, allocation=None), mask


def test_verify_with_the_saved_table_solves_no_coalition(tmp_path, capsys, monkeypatch):
    scenario, out = run_both(tmp_path, *SIGMOID_WEIGHTED, "--seed", "0")

    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved a coalition")

    monkeypatch.setattr(engine, "build_characteristic_table", no_solve)
    monkeypatch.setattr(engine, "solve_coalition", no_solve)
    capsys.readouterr()
    code, rows = verify_rows(scenario, out / "payoffs.csv", tmp_path / "v")
    assert code in (0, 1)
    assert f"table: read {out / 'table.npz'}, solved no coalition; PASS" in capsys.readouterr().out
    assert [r["status"] for r in rows if r["check"] == "table"] == ["pass"]
    assert float(rows[0]["detail"]) <= 1e-9


@pytest.mark.parametrize("gen_args", [
    [*SIGMOID_WEIGHTED, "--seed", str(seed)] for seed in (0, 2, 5)] + [
    ["--players", "4", "--apps", "20", "--utility", "sigmoid", "--mu", "3", "--seed", "0"],
], ids=["3x5-1:0.5-seed0", "3x5-1:0.5-seed2", "3x5-1:0.5-seed5", "4x20-1:1-seed0"])
def test_verify_verdicts_are_the_same_with_and_without_the_table(tmp_path, capsys, gen_args):
    scenario, out = run_both(tmp_path, *gen_args)
    code, rows = verify_rows(scenario, out / "payoffs.csv", tmp_path / "with")
    capsys.readouterr()
    bare_code, bare_rows = verify_rows(scenario, without_table(out, tmp_path),
                                       tmp_path / "without")
    assert "table: no " in capsys.readouterr().out
    assert code == bare_code
    assert [r["check"] for r in rows[:1]] == ["table"]
    assert rows[1:] == bare_rows


def _change_value(out: Path, monkeypatch) -> None:
    arrays = dict(np.load(out / "table.npz"))
    arrays["values"][2] += 0.5  # coalition {1,2}
    np.savez(out / "table.npz", **arrays)


def _over_capacity(out: Path, monkeypatch) -> None:
    # coalition {1}'s block comes first: player 1 alone, its 5 apps, 3 resources
    arrays = dict(np.load(out / "table.npz"))
    arrays["alloc"][:15] *= 10.0
    np.savez(out / "table.npz", **arrays)


@pytest.mark.parametrize("tamper, subject, problem", [
    (_change_value, "{1,2}", "is not its value"),
    (_over_capacity, "{1}", "provider 1 exceeds capacity of resource 3"),
], ids=["value", "capacity"])
def test_verify_fails_a_tampered_table(tmp_path, capsys, monkeypatch, tamper, subject, problem):
    scenario, out = run_both(tmp_path, *SIGMOID_WEIGHTED, "--seed", "2")
    tamper(out, monkeypatch)
    capsys.readouterr()
    code, rows = verify_rows(scenario, out / "payoffs.csv", tmp_path / "v")
    assert code == 1
    assert f"table: FAIL coalition {subject}: " in capsys.readouterr().out
    failed = [(r["subject"], r["detail"]) for r in rows
              if r["check"] == "table" and r["status"] == "fail"]
    assert any(s == subject and problem in d for s, d in failed), failed


def _edit_scenario(scenario: Path) -> list[str]:
    s = model.load_scenario(scenario)
    model.save_scenario(dataclasses.replace(s, capacities=s.capacities * 1.5), scenario)
    return []


@pytest.mark.parametrize("change, differ", [
    (lambda scenario: ["--tol-gap", "1e9"], "gap_tol 1e-06, not 1000000000.0"),
    (lambda scenario: ["--restarts", "4"], "restarts 16, not 4"),
    (_edit_scenario, "digest '"),
], ids=["tol-gap", "restarts", "edited-scenario"])
def test_verify_solves_again_when_the_table_key_differs(tmp_path, capsys, change, differ):
    scenario, out = run_both(tmp_path, *SIGMOID_WEIGHTED, "--seed", "2")
    extra = change(scenario)
    capsys.readouterr()
    code, rows = verify_rows(scenario, out / "payoffs.csv", tmp_path / "v", *extra)
    said = capsys.readouterr().out
    assert f"table: {out / 'table.npz'} was saved for {differ}" in said
    assert "solving all 7 coalitions" in said
    bare_code, bare_rows = verify_rows(scenario, without_table(out, tmp_path),
                                       tmp_path / "bare-v", *extra)
    assert (code, rows) == (bare_code, bare_rows)


def test_table_key_is_the_digest_of_the_scenario_text_read(tmp_path, capsys):
    """A scenario written as compact JSON keys its table by that text; the
    same scenario re-saved canonically between run and verify no longer
    matches, so verify solves again and says why."""
    scenario = tmp_path / "s.json"
    assert main(["gen", *SIGMOID_WEIGHTED, "--seed", "2", "--out", str(scenario)]) == 0
    compact = json.dumps(json.loads(scenario.read_text(encoding="utf-8")))
    scenario.write_text(compact, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    verify_rows(scenario, out / "payoffs.csv", tmp_path / "v")
    assert f"table: read {out / 'table.npz'}, solved no coalition" in capsys.readouterr().out

    model.save_scenario(model.load_scenario(scenario), scenario)
    code, rows = verify_rows(scenario, out / "payoffs.csv", tmp_path / "v2")
    said = capsys.readouterr().out
    assert (f"table: {out / 'table.npz'} was saved for digest "
            f"{model.text_digest(compact)!r}, not ") in said
    assert "solving all 7 coalitions" in said
    bare_code, bare_rows = verify_rows(scenario, without_table(out, tmp_path),
                                       tmp_path / "bare-v")
    assert (code, rows) == (bare_code, bare_rows)


def test_pipeline_builds_one_parser_and_serializes_no_scenario(tmp_path, monkeypatch):
    """In one process gen → run → verify --payoffs builds the parser once,
    and run and verify take the table key's digest from the text read."""
    cli.build_parser.cache_clear()
    scenario = gen(tmp_path)
    calls, to_json = [], model.scenario_to_json

    def counted(s):
        calls.append(s)
        return to_json(s)

    monkeypatch.setattr(model, "scenario_to_json", counted)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert main(["verify", "--scenario", str(scenario),
                 "--payoffs", str(out / "payoffs.csv")]) == 0
    assert calls == []
    assert cli.build_parser.cache_info().misses == 1


def test_options_do_not_leak_between_main_calls(tmp_path, capsys):
    scenario = gen(tmp_path)
    assert main(["run", "--scenario", str(scenario), "--restarts", "4", "--tol", "1e-3",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--scenario", str(scenario), "--restarts", "0"]) == 2
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "b")]) == 0
    with np.load(tmp_path / "a" / "table.npz") as npz:
        assert (npz["restarts"], npz["gap_tol"]) == (4, 1e-3)
    with np.load(tmp_path / "b" / "table.npz") as npz:
        assert (npz["restarts"], npz["gap_tol"]) == (16, 1e-6)


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _drop_gaps(path: Path) -> None:
    arrays = dict(np.load(path))
    del arrays["gap"]
    np.savez(path, **arrays)


def _short_values(path: Path) -> None:
    arrays = dict(np.load(path))
    arrays["values"] = arrays["values"][:-1]
    np.savez(path, **arrays)


def _alloc_entry(value):
    def spoil(path: Path) -> None:
        arrays = dict(np.load(path))
        arrays["alloc"][-1] = value
        np.savez(path, **arrays)
    return spoil


@pytest.mark.parametrize("spoil, says", [
    (_truncate, "File is not a zip file"),
    (_drop_gaps, "gap is not a file"),
    (_short_values, "'values' is float64 of shape (6,), expected dtype kind 'f' and shape (7,)"),
    (_alloc_entry(np.nan), "'alloc' holds a NaN or infinite entry"),
    (_alloc_entry(-1.0), "allocation entries must be >= 0"),
], ids=["truncated", "missing-array", "wrong-shape", "nan-allocation", "negative-allocation"])
def test_verify_rejects_an_unreadable_table(tmp_path, capsys, spoil, says):
    scenario, out = run_both(tmp_path, "--players", "3", "--apps", "2", "--resources", "2")
    spoil(out / "table.npz")
    capsys.readouterr()
    assert main(["verify", "--scenario", str(scenario), "--payoffs",
                 str(out / "payoffs.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'table.npz'} holds no readable coalition table" in err
    assert says in err and "Traceback" not in err


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


@pytest.mark.parametrize("apps", ["", ","])
def test_bench_without_apps_is_a_usage_error(tmp_path, capsys, apps):
    # an empty --apps list used to exit 0 and write header-only CSVs
    assert main(["bench", "--players", "2", "--apps", apps, "--utility", "linear",
                 "--out", str(tmp_path / "bench")]) == 2
    assert "at least one --apps value" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("option, values, message", [
    ("--apps", "x", "argument --apps: expected an integer, got 'x'"),
    ("--apps", "2,-1", "argument --apps: must be at least 1, got -1"),
    ("--apps", "2,0", "argument --apps: must be at least 1, got 0"),
    ("--mu", "x", "argument --mu: expected a number, got 'x'"),
    ("--mu", "3,0", "argument --mu: must be finite and > 0, got 0"),
    ("--mu", "3,inf", "argument --mu: must be finite and > 0, got inf"),
    ("--mu", "nan", "argument --mu: must be finite and > 0, got nan"),
])
def test_bench_bad_grid_item_is_a_usage_error_before_solving(tmp_path, capsys, option,
                                                              values, message):
    # --apps 2,-1 used to time and print the m = 2 grid point, then exit 2
    # with no CSV written
    argv = {"--apps": "2", "--mu": "3", option: values}
    assert main(["bench", "--players", "2", "--resources", "1", "--repetitions", "1",
                 "--apps", argv["--apps"], "--mu", argv["--mu"],
                 "--out", str(tmp_path / "bench")]) == 2
    out, err = capsys.readouterr()
    assert message in err and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "bench").exists()


def test_bench_fast_only(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--players", "2", "--apps", "2", "--resources", "1",
                 "--utility", "linear", "--method", "fast", "--repetitions", "1",
                 "--out", str(out)]) == 0
    assert {r["method"] for r in read_csv(out / "comparison.csv")} == {"fast"}


@pytest.mark.parametrize("method, players, timed", [
    ("both", engine.TABLE_PLAYER_LIMIT + 1, ["fast"]),  # no table above the limit
    ("shapley", 2, ["fast", "shapley"]),  # the fast split is timed alongside
], ids=["both-above-the-limit", "shapley"])
def test_bench_method_chooses_the_timed_pipelines(tmp_path, capsys, method, players, timed):
    out = tmp_path / "bench"
    assert main(["bench", "--players", str(players), "--apps", "1", "--resources", "1",
                 "--utility", "linear", "--method", method, "--repetitions", "1",
                 "--out", str(out)]) == 0
    assert [r["method"] for r in read_csv(out / "comparison.csv")] == timed
    plot_methods = {r["method"] for r in read_csv(out / "plotdata.csv")}
    assert plot_methods == {"standalone", *timed}
    assert ("speedup=" in capsys.readouterr().out) == (len(timed) == 2)


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


# Run in a fresh interpreter: prints, after each step, the scipy modules
# loaded so far.  argv: a work directory.
STARTUP_PROBE = """
import contextlib, io, json, sys
from pathlib import Path

def lazy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m == "numpy.random" or m.startswith("numpy.random."))

work = Path(sys.argv[1])
loaded = {}
import edgeshare
loaded["import edgeshare"] = lazy_modules()
from edgeshare.cli import main
loaded["import edgeshare.cli"] = lazy_modules()
linear, sigmoid = str(work / "linear.json"), str(work / "sigmoid.json")
weighted, below = str(work / "weighted.json"), str(work / "below.json")
small = ["--players", "3", "--apps", "2", "--resources", "2"]
steps = [
    ("--help", ["--help"], 0),
    ("run --restarts 0", ["run", "--scenario", linear, "--restarts", "0"], 2),
    ("gen", ["gen", *small, "--out", linear], 0),
    ("linear run", ["run", "--scenario", linear, "--out", str(work / "linear")], 0),
    ("sigmoid gen", ["gen", *small, "--utility", "sigmoid", "--mu", "3", "--out", sigmoid], 0),
    ("sigmoid run", ["run", "--scenario", sigmoid, "--out", str(work / "sigmoid")], 0),
    ("sigmoid verify", ["verify", "--scenario", sigmoid,
                        "--payoffs", str(work / "sigmoid" / "payoffs.csv")], 0),
    ("weighted gen", ["gen", *small, "--utility", "sigmoid", "--mu", "3",
                      "--weights", "1:0.5", "--out", weighted], 0),
    ("weighted run", ["run", "--scenario", weighted, "--out", str(work / "weighted")], 0),
    ("w below zeta gen", ["gen", *small, "--weights", "0.5:1", "--out", below], 0),
    ("w below zeta run", ["run", "--scenario", below, "--out", str(work / "below")], 0),
]
for name, argv, code in steps:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, name
    loaded[name] = lazy_modules()
print(json.dumps(loaded))
"""


def test_startup_loads_numpy_only(tmp_path):
    """Importing the package, `--help` and a usage error load neither scipy
    nor numpy.random; `gen`, a linear and a sigmoid `run --method both` at
    weights 1:1, `verify --payoffs` on the sigmoid run and a sigmoid run at
    1:0.5, whose weighted coalitions take the LP-free oracle, load no scipy
    module.  numpy.random loads at the scenario draw or the first restart
    stream, scipy's HiGHS binding at the first transport LP, which the
    linear run at 0.5:1 (w below zeta) solves: the extension alone,
    without the scipy.optimize package or the scipy.special, scipy.sparse
    and scipy.linalg its __init__ brings.  The steps run in order in one
    fresh interpreter."""
    src = Path(edgeshare.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) == 13
    for step in ("import edgeshare", "import edgeshare.cli", "--help", "run --restarts 0"):
        assert loaded.pop(step) == [], step
    below = loaded.pop("w below zeta run")
    # every step before it, the sigmoid runs and verify at 1:1 and 1:0.5
    # included, evaluates the logistic in numpy and solves no LP
    for step, modules in loaded.items():
        assert not [m for m in modules if m.startswith("scipy")], step
    core = "scipy.optimize._highspy._core"
    assert core in below
    # the extension and the submodules its pybind11 init registers, but no
    # scipy.optimize or scipy.optimize._highspy package __init__
    optimize = [m for m in below if m.startswith("scipy.optimize")]
    assert all(m == core or m.startswith(core + ".") for m in optimize), optimize
    assert not [m for m in below
                if m.startswith(("scipy.special", "scipy.sparse", "scipy.linalg"))], below


def test_public_names_resolve():
    missing = [name for name in edgeshare.__all__ if not hasattr(edgeshare, name)]
    assert not missing
