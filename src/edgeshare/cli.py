"""Command-line front end.

Subcommands:
  gen     draw a scenario and write it as JSON
  run     solve one scenario and emit coalition/payoff CSVs
  verify  check core membership and superadditivity, exit 1 on violation
  bench   time the Shapley and fast pipelines across settings

Exit codes: 0 success/verified, 1 verification failure, 2 usage error,
3 I/O error.  All value output is deterministic for a given scenario and
seed; only *_ms timing columns vary between runs.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, engine, model, solver

MAX_ENUMERATION_PLAYERS = model.MAX_PLAYERS


def _fmt(x) -> str:
    """Floats are written as repr so re-reading reproduces them exactly."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _player_columns(n: int) -> list[str]:
    return [f"u_p{i + 1}" for i in range(n)]


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[_fmt(v) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# CSV emission


def coalition_rows(s: model.Scenario, table: engine.CharacteristicTable | None,
                   payoff_rows: list[tuple[str, np.ndarray]]) -> list[list]:
    """Value rows (one per solved coalition, ascending mask) followed by one
    grand-coalition payoff row per method."""
    from .utility import breakdown

    rows: list[list] = []
    if table is not None:
        for mask in sorted(table.values):
            coalition = model.Coalition(mask)
            per_player = [0.0] * s.n_players
            report = table.reports.get(mask)
            if report is not None:
                for b in breakdown(s, report.allocation):
                    if coalition.contains(b.player):
                        per_player[b.player] = b.weighted_total
            rows.append([mask, coalition.size, coalition.label(),
                         table.value(mask), *per_player])
    grand = model.Coalition.grand(s.n_players)
    for method, payoffs in payoff_rows:
        rows.append([grand.mask, grand.size, f"{grand.label()} {method}",
                     float(np.sum(payoffs)), *[float(p) for p in payoffs]])
    return rows


def write_coalition_csv(path: Path, s: model.Scenario,
                        table: engine.CharacteristicTable | None,
                        payoff_rows: list[tuple[str, np.ndarray]]) -> None:
    header = ["mask", "size", "members", "value", *_player_columns(s.n_players)]
    _write_rows(path, header, coalition_rows(s, table, payoff_rows))


def write_payoffs_csv(path: Path, entries: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    """entries: (method, payoffs, standalone) triples."""
    rows = []
    for method, payoffs, standalone in entries:
        for player, (p, v1) in enumerate(zip(payoffs, standalone), start=1):
            rows.append([method, player, float(p), float(v1), float(p) - float(v1)])
    _write_rows(path, ["method", "player", "payoff", "standalone", "gain"], rows)


def read_payoffs_csv(path: Path) -> dict[str, np.ndarray]:
    """Re-read a payoffs CSV into method -> payoff vector (player order)."""
    by_method: dict[str, dict[int, float]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            by_method.setdefault(row["method"], {})[int(row["player"])] = float(row["payoff"])
    out = {}
    for method, entries in by_method.items():
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"payoff rows for {method!r} do not cover players 1..N")
        out[method] = np.array([entries[i] for i in sorted(entries)])
    return out


def comparison_row(rep: analysis.ComparisonReport, method: str) -> list:
    ms = rep.m_per_player
    m_field = ms[0] if len(set(ms)) == 1 else "|".join(map(str, ms))
    stat = rep.stats[method]
    return [rep.n_players, m_field, rep.n_resources,
            "" if rep.mu is None else rep.mu, method, stat.solves, stat.median_ms]


def write_comparison_csv(path: Path, reports: list[analysis.ComparisonReport]) -> None:
    rows = [comparison_row(rep, method)
            for rep in reports for method in sorted(rep.stats)]
    _write_rows(path, ["n", "m_per_player", "k", "mu", "method", "solves", "median_ms"], rows)


def plotdata_rows(rep: analysis.ComparisonReport) -> list[list]:
    """Long-format rows behind the standard figures: per-player utility
    alone vs with sharing, totals, solve counts and timing."""
    ms = rep.m_per_player
    m_field = ms[0] if len(set(ms)) == 1 else "|".join(map(str, ms))
    base = [rep.n_players, m_field, rep.n_resources, rep.utility_kind,
            "" if rep.mu is None else rep.mu]
    rows = []
    for player, v in enumerate(rep.standalone, start=1):
        rows.append([*base, "standalone", "utility_alone", player, v])
    for method, stat in sorted(rep.stats.items()):
        for player, p in enumerate(stat.payoffs, start=1):
            rows.append([*base, method, "utility_sharing", player, p])
        rows.append([*base, method, "total_value", "", stat.total])
        rows.append([*base, method, "solves", "", stat.solves])
        rows.append([*base, method, "median_ms", "", stat.median_ms])
    return rows


def write_plotdata_csv(path: Path, reports: list[analysis.ComparisonReport]) -> None:
    rows = [row for rep in reports for row in plotdata_rows(rep)]
    _write_rows(path, ["n", "m_per_player", "k", "utility", "mu",
                       "method", "metric", "key", "value"], rows)


def write_verify_csv(path: Path, rows: list[list]) -> None:
    _write_rows(path, ["check", "method", "subject", "status", "detail"], rows)


# ---------------------------------------------------------------------------
# subcommands


def _parse_weights(text: str, parser: argparse.ArgumentParser) -> tuple[float, float]:
    try:
        w, zeta = text.split(":")
        return float(w), float(zeta)
    except ValueError:
        parser.error(f"--weights expects 'w:zeta', got {text!r}")


def cmd_gen(args, parser) -> int:
    if args.utility == "sigmoid" and args.mu is None:
        parser.error("--utility sigmoid requires --mu")
    if args.utility == "linear" and args.mu is not None:
        parser.error("--mu only applies to sigmoid utilities")
    w, zeta = _parse_weights(args.weights, parser)
    s = model.generate_scenario(
        n_players=args.players, n_resources=args.resources,
        m_per_player=args.apps, utility=args.utility, mu=args.mu,
        seed=args.seed, w=w, zeta=zeta)
    out = Path(args.out)
    model.save_scenario(s, out)
    print(f"wrote {out} (n={s.n_players} k={s.n_resources} m={s.m_per_player}) digest={s.digest()}")
    return 0


def _load(args) -> model.Scenario:
    return model.load_scenario(Path(args.scenario))


def cmd_run(args, parser) -> int:
    from time import perf_counter

    s = _load(args)
    if args.method in ("shapley", "both") and s.n_players > MAX_ENUMERATION_PLAYERS:
        parser.error(f"coalition enumeration caps at {MAX_ENUMERATION_PLAYERS} players; use --method fast")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    mu = s.utilities[0].mu if s.utilities[0].kind == "sigmoid" else ""
    ms = s.m_per_player
    m_field = ms[0] if len(set(ms)) == 1 else "|".join(map(str, ms))
    table = None
    phi = None
    fast_result = None
    comparison_rows = []
    if args.method in ("shapley", "both"):
        counter = solver.SolveCounter()
        t0 = perf_counter()
        phi, table = engine.shapley_payoffs(
            s, restarts=args.restarts, gap_tol=args.tol, counter=counter)
        elapsed = (perf_counter() - t0) * 1e3
        comparison_rows.append([s.n_players, m_field, s.n_resources, mu,
                                "shapley", counter.count, elapsed])
        print(f"shapley: total={phi.sum():.6g} solves={counter.count}")
    if args.method in ("fast", "both"):
        counter = solver.SolveCounter()
        t0 = perf_counter()
        fast_result = engine.fast_core(
            s, restarts=args.restarts, gap_tol=args.tol, counter=counter)
        elapsed = (perf_counter() - t0) * 1e3
        comparison_rows.append([s.n_players, m_field, s.n_resources, mu,
                                "fast", counter.count, elapsed])
        print(f"fast: total={fast_result.payoffs.sum():.6g} solves={counter.count}")
    # payoff rows in the fixed presentation order: fast split, then Shapley
    payoff_rows: list[tuple[str, np.ndarray]] = []
    payoff_entries = []
    standalone = (table.singleton_values() if table is not None
                  else s.w * fast_result.phase1)
    if fast_result is not None:
        payoff_rows.append(("fast", fast_result.payoffs))
        payoff_entries.append(("fast", fast_result.payoffs, standalone))
    if phi is not None:
        payoff_rows.append(("shapley", phi))
        payoff_entries.append(("shapley", phi, standalone))
    if table is None:
        # no enumeration: report the singleton values the fast route solved
        singles = {1 << n: float(v) for n, v in enumerate(s.w * fast_result.phase1)}
        table = engine.CharacteristicTable(n_players=s.n_players, values=singles, reports={})
    write_coalition_csv(outdir / "coalition.csv", s, table, payoff_rows)
    write_payoffs_csv(outdir / "payoffs.csv", payoff_entries)
    _write_rows(outdir / "comparison.csv",
                ["n", "m_per_player", "k", "mu", "method", "solves", "median_ms"],
                comparison_rows)
    print(f"wrote {outdir / 'coalition.csv'}, {outdir / 'payoffs.csv'} "
          f"and {outdir / 'comparison.csv'}")
    return 0


def cmd_verify(args, parser) -> int:
    s = _load(args)
    if s.n_players > MAX_ENUMERATION_PLAYERS:
        parser.error("core verification needs the full table; "
                     f"caps at {MAX_ENUMERATION_PLAYERS} players")
    tol = args.tol
    table = engine.build_characteristic_table(
        s, restarts=args.restarts, gap_tol=args.tol_gap)
    vectors: dict[str, np.ndarray] = {}
    if args.payoffs:
        vectors = {m: v for m, v in read_payoffs_csv(Path(args.payoffs)).items()
                   if v.shape == (s.n_players,)}
        if not vectors:
            parser.error(f"no usable payoff vectors in {args.payoffs}")
    else:
        if args.method in ("shapley", "both"):
            vectors["shapley"] = engine.shapley_from_table(table)
        if args.method in ("fast", "both"):
            vectors["fast"] = engine.fast_core(
                s, restarts=args.restarts, gap_tol=args.tol_gap).payoffs
    core_reports, sa_report = analysis.verify_scenario(s, table, vectors, tol=tol)

    rows, ok = [], True
    for method, report in sorted(core_reports.items()):
        if report.in_core:
            print(f"core[{method}]: PASS (total={report.total:.6g})")
            rows.append(["core", method, "all coalitions", "pass", ""])
        else:
            ok = False
            for coalition, deficit in report.violated_coalitions():
                print(f"core[{method}]: FAIL coalition {coalition.label()} "
                      f"deficit {deficit:.6g}")
                rows.append(["core", method, coalition.label(), "fail", deficit])
            if not report.is_group_rational:
                gap = report.total - report.grand_value
                print(f"core[{method}]: FAIL group rationality (gap {gap:.6g})")
                rows.append(["group_rationality", method, "grand", "fail", gap])
    if sa_report.ok:
        print(f"superadditivity: PASS ({sa_report.pairs_checked} pairs)")
        rows.append(["superadditivity", "", f"{sa_report.pairs_checked} pairs", "pass", ""])
    else:
        ok = False
        for m1, m2, gap in sa_report.violations:
            label = f"{model.Coalition(m1).label()}+{model.Coalition(m2).label()}"
            print(f"superadditivity: FAIL {label} gap {gap:.6g}")
            rows.append(["superadditivity", "", label, "fail", gap])
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_verify_csv(outdir / "verify.csv", rows)
        print(f"wrote {outdir / 'verify.csv'}")
    return 0 if ok else 1


def cmd_bench(args, parser) -> int:
    apps_list = [int(a) for a in args.apps.split(",") if a]
    mu_list = ([float(m) for m in args.mu.split(",") if m]
               if args.utility == "sigmoid" else [None])
    if args.utility == "sigmoid" and not mu_list:
        parser.error("sigmoid bench needs at least one --mu value")
    w, zeta = _parse_weights(args.weights, parser)
    reports = []
    for m_apps in apps_list:
        for mu in mu_list:
            s = model.generate_scenario(
                n_players=args.players, n_resources=args.resources,
                m_per_player=m_apps, utility=args.utility, mu=mu,
                seed=args.seed, w=w, zeta=zeta)
            include = {"both": None, "fast": False, "shapley": True}[args.method]
            rep = analysis.compare_methods(
                s, repetitions=args.repetitions, restarts=args.restarts,
                gap_tol=args.tol, include_shapley=include)
            reports.append(rep)
            for method in sorted(rep.stats):
                stat = rep.stats[method]
                print(f"n={rep.n_players} m={m_apps} mu={mu} {method}: "
                      f"solves={stat.solves} median={stat.median_ms:.2f}ms")
            if rep.speedup_pct is not None:
                print(f"n={rep.n_players} m={m_apps} mu={mu} speedup={rep.speedup_pct:.1f}%")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_comparison_csv(outdir / "comparison.csv", reports)
    write_plotdata_csv(outdir / "plotdata.csv", reports)
    print(f"wrote {outdir / 'comparison.csv'} and {outdir / 'plotdata.csv'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeshare",
        description="Cooperative resource sharing: coalition values, Shapley "
                    "payoffs and the linear-time core split.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario JSON")
    gen.add_argument("--players", type=int, default=3)
    gen.add_argument("--apps", type=int, default=3, help="applications per player")
    gen.add_argument("--resources", type=int, default=3)
    gen.add_argument("--utility", choices=("linear", "sigmoid"), default="linear")
    gen.add_argument("--mu", type=float, default=None, help="sigmoid steepness")
    gen.add_argument("--weights", default="1:1", help="w:zeta applied to every player")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="scenario.json")

    run = sub.add_parser("run", help="solve a scenario and write CSVs")
    run.add_argument("--scenario", required=True)
    run.add_argument("--method", choices=("shapley", "fast", "both"), default="both")
    run.add_argument("--restarts", type=int, default=solver.DEFAULT_RESTARTS)
    run.add_argument("--tol", type=float, default=solver.DEFAULT_GAP_TOL,
                     help="solver stopping gap")
    run.add_argument("--out", default=".")

    ver = sub.add_parser("verify", help="check core membership and superadditivity")
    ver.add_argument("--scenario", required=True)
    ver.add_argument("--payoffs", default=None,
                     help="payoffs.csv to verify instead of recomputing")
    ver.add_argument("--method", choices=("shapley", "fast", "both"), default="both")
    ver.add_argument("--restarts", type=int, default=solver.DEFAULT_RESTARTS)
    ver.add_argument("--tol", type=float, default=analysis.DEFAULT_CORE_TOL,
                     help="verification tolerance")
    ver.add_argument("--tol-gap", type=float, default=solver.DEFAULT_GAP_TOL,
                     dest="tol_gap", help="solver stopping gap")
    ver.add_argument("--out", default=None, help="directory for verify.csv")

    bench = sub.add_parser("bench", help="time both pipelines across settings")
    bench.add_argument("--players", type=int, default=3)
    bench.add_argument("--apps", default="3,20,100",
                       help="comma list of applications per player")
    bench.add_argument("--resources", type=int, default=3)
    bench.add_argument("--utility", choices=("linear", "sigmoid"), default="sigmoid")
    bench.add_argument("--mu", default="0.01,10", help="comma list of sigmoid mu")
    bench.add_argument("--weights", default="1:1")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--method", choices=("shapley", "fast", "both"), default="both")
    bench.add_argument("--restarts", type=int, default=solver.DEFAULT_RESTARTS)
    bench.add_argument("--tol", type=float, default=solver.DEFAULT_GAP_TOL)
    bench.add_argument("--repetitions", type=int, default=5)
    bench.add_argument("--out", default=".")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    handlers = {"gen": cmd_gen, "run": cmd_run, "verify": cmd_verify, "bench": cmd_bench}
    try:
        return handlers[args.command](args, parser)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
