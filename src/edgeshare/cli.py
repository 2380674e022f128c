"""Command-line front end.

Subcommands:
  gen     draw a scenario and write it as JSON
  run     solve one scenario and emit coalition/payoff CSVs
  verify  check core membership and superadditivity, exit 1 on violation
  bench   time the Shapley and fast pipelines across settings

When Shapley ran, `run` also saves its characteristic table as
table.npz beside payoffs.csv.  `verify --payoffs P` reads the table.npz
beside P when its key (format version, scenario digest, restarts, solver
gap) matches, audits it and solves no coalition; otherwise it solves the
table again, and it says on stdout which it did.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error or
unreadable table.npz, 3 I/O error.  All value output is deterministic for
a given scenario and seed; only *_ms timing columns vary between runs.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import analysis, engine, model, solver

COMPARISON_HEADER = ["n", "m_per_player", "k", "mu", "method", "solves", "median_ms"]
# Masks attributed per breakdown call: every mask up to N = 4 in one call,
# and a bounded stack beyond.  At N = 12 (linear, 3 apps) the rows raised
# peak RSS by 23 MB at 256 masks a call and by 3.5 MB at 16, in about the
# same time.
ATTRIBUTION_BLOCK = 16
TABLE_FILE = "table.npz"
TABLE_FORMAT_VERSION = 1
# table.npz holds the 0-d key arrays, one array per solve field with an
# entry per coalition in ascending mask order (here with its dtype kind),
# and "alloc": every coalition's allocation as the table holds it, in its
# own coordinates (|S|, M_S, K) of Scenario.local_axes, raveled and
# concatenated in ascending mask order
TABLE_KEY = ("version", "digest", "restarts", "gap_tol")
TABLE_COLUMNS = {"values": "f", "kind": "U", "iterations": "i", "restarts_used": "i",
                 "gap": "f", "wall_time": "f"}


def _fmt(x) -> str:
    """Floats are written as repr so re-reading reproduces them exactly."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _m_field(ms: tuple[int, ...]):
    """The m_per_player column: the common count, or every player's count
    joined by '|'."""
    return ms[0] if len(set(ms)) == 1 else "|".join(map(str, ms))


def _player_columns(n: int) -> list[str]:
    return [f"u_p{i + 1}" for i in range(n)]


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[_fmt(v) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# CSV emission


def coalition_rows(s: model.Scenario, table: engine.CharacteristicTable) -> list[list]:
    """One value row per coalition, ascending mask, its value split over
    the members as its allocation credits them.  The allocations of each
    ATTRIBUTION_BLOCK masks are attributed in one breakdown call."""
    from .utility import breakdown

    rows: list[list] = []
    for lo in range(1, 1 << s.n_players, ATTRIBUTION_BLOCK):
        block = range(lo, min(lo + ATTRIBUTION_BLOCK, 1 << s.n_players))
        # each local allocation placed in its own (N, M, K) slice of one stack
        stack = np.zeros((len(block), s.n_players, s.m_total, s.n_resources))
        for b, mask in enumerate(block):
            members, apps = s.local_axes(mask)
            stack[b, members[:, None], apps] = table.reports[mask].allocation.x
        split = breakdown(s, [model.Allocation(x) for x in stack])
        for mask, players in zip(block, split):
            coalition = model.Coalition(mask)
            per_player = [b.weighted_total if coalition.contains(b.player) else 0.0
                          for b in players]
            rows.append([mask, coalition.size, coalition.label(),
                         table.value(mask), *per_player])
    return rows


def singleton_rows(values: np.ndarray) -> list[list]:
    """One value row per singleton coalition, each value credited wholly to
    its member (the fast route solves no coalition but these)."""
    n = len(values)
    return [[1 << p, 1, model.Coalition(1 << p).label(), float(v),
             *[float(v) if q == p else 0.0 for q in range(n)]]
            for p, v in enumerate(values)]


def write_coalition_csv(path: Path, s: model.Scenario, value_rows: list[list],
                        payoff_rows: list[tuple[str, np.ndarray]]) -> None:
    """value_rows, then one grand-coalition payoff row per method."""
    grand = model.Coalition.grand(s.n_players)
    rows = value_rows + [[grand.mask, grand.size, f"{grand.label()} {method}",
                          float(np.sum(payoffs)), *[float(p) for p in payoffs]]
                         for method, payoffs in payoff_rows]
    header = ["mask", "size", "members", "value", *_player_columns(s.n_players)]
    _write_rows(path, header, rows)


def write_payoffs_csv(path: Path, entries: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    """entries: (method, payoffs, standalone) triples."""
    rows = []
    for method, payoffs, standalone in entries:
        for player, (p, v1) in enumerate(zip(payoffs, standalone), start=1):
            rows.append([method, player, float(p), float(v1), float(p) - float(v1)])
    _write_rows(path, ["method", "player", "payoff", "standalone", "gain"], rows)


def read_payoffs_csv(path: Path) -> dict[str, np.ndarray]:
    """Re-read a payoffs CSV into method -> payoff vector (player order).
    A missing method, player or payoff column, a row whose player is not
    an integer or whose payoff is not a number, a second row for one
    method and player, and a NaN or infinite payoff are ValueErrors that
    name the column, row, or method and player."""
    by_method: dict[str, dict[int, float]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row reads as blanks
        if reader.fieldnames is not None:
            missing = [c for c in ("method", "player", "payoff") if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{path} has no {', '.join(missing)} column")
        for row in reader:
            method = row["method"]
            try:
                player, payoff = int(row["player"]), float(row["payoff"])
            except ValueError:
                raise ValueError(f"{path} line {reader.line_num}: expected an integer player "
                                 f"and a number payoff, got {row['player']!r} and "
                                 f"{row['payoff']!r}") from None
            if not np.isfinite(payoff):
                raise ValueError(f"payoff of player {player} for {method!r} in {path} "
                                 f"is {row['payoff']}, not a finite number")
            entries = by_method.setdefault(method, {})
            if player in entries:
                raise ValueError(f"{path} line {reader.line_num}: a second payoff row for "
                                 f"player {player} of {method!r}")
            entries[player] = payoff
    out = {}
    for method, entries in by_method.items():
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"payoff rows for {method!r} do not cover players 1..N")
        out[method] = np.array([entries[i] for i in sorted(entries)])
    return out


def comparison_row(rep: analysis.ComparisonReport, method: str) -> list:
    stat = rep.stats[method]
    return [rep.n_players, _m_field(rep.m_per_player), rep.n_resources,
            "" if rep.mu is None else rep.mu, method, stat.solves, stat.median_ms]


def write_comparison_csv(path: Path, reports: list[analysis.ComparisonReport]) -> None:
    rows = [comparison_row(rep, method)
            for rep in reports for method in sorted(rep.stats)]
    _write_rows(path, COMPARISON_HEADER, rows)


def plotdata_rows(rep: analysis.ComparisonReport) -> list[list]:
    """Long-format rows behind the standard figures: per-player utility
    alone vs with sharing, totals, solve counts and timing."""
    base = [rep.n_players, _m_field(rep.m_per_player), rep.n_resources, rep.utility_kind,
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


def write_table_npz(path: Path, s: model.Scenario, table: engine.CharacteristicTable,
                    restarts: int, gap_tol: float) -> None:
    """Save the table with its key: what `verify --payoffs` needs to use it
    in place of solving every coalition again.  Each array is one .npy
    entry of the zip, as np.savez writes it, but "alloc" is written one
    coalition at a time, so no second copy of the allocations is held."""
    reports = [table.reports[mask] for mask in range(1, 1 << s.n_players)]
    size = sum(r.allocation.x.size for r in reports)
    arrays = {"version": TABLE_FORMAT_VERSION, "digest": s.digest(), "restarts": restarts,
              "gap_tol": gap_tol, "values": table.values,
              "kind": [r.solver_kind for r in reports],
              "iterations": [r.iterations for r in reports],
              "restarts_used": [r.restarts_used for r in reports],
              "gap": [r.gap for r in reports], "wall_time": [r.wall_time for r in reports]}
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in arrays.items():
            with zf.open(f"{name}.npy", "w") as fh:
                np.lib.format.write_array(fh, np.asarray(value), allow_pickle=False)
        with zf.open("alloc.npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False, "shape": (size,)})
            for r in reports:
                fh.write(r.allocation.x.tobytes())


def _table_from_npz(s: model.Scenario, npz) -> engine.CharacteristicTable:
    """The table whose solve fields and allocations table.npz holds, after
    checking their shapes, dtypes and finiteness against the scenario.
    "alloc" is read one coalition at a time into an array of its own, in
    its layout as the solves made it: a process that freed a table reuses
    its memory for these, and no second copy of the allocations is held."""
    blocks = [(members.size, apps.size, s.n_resources)
              for members, apps in map(s.local_axes, range(1, 1 << s.n_players))]
    size = sum(math.prod(block) for block in blocks)
    shape = ((1 << s.n_players) - 1,)
    columns = {name: npz[name] for name in TABLE_COLUMNS}
    for name, got in columns.items():
        if got.shape != shape or got.dtype.kind != TABLE_COLUMNS[name]:
            raise ValueError(f"{name!r} is {got.dtype} of shape {got.shape}, expected "
                             f"dtype kind {TABLE_COLUMNS[name]!r} and shape {shape}")
        if got.dtype.kind == "f" and not np.all(np.isfinite(got)):
            raise ValueError(f"{name!r} holds a NaN or infinite entry")
    reports = {}
    with npz.zip.open("alloc.npy") as fh:
        if (np.lib.format.read_magic(fh) != (1, 0)
                or np.lib.format.read_array_header_1_0(fh) != ((size,), False, np.dtype("<f8"))):
            raise ValueError(f"'alloc' is not {size} float64 values")
        rows = zip(*(columns[name].tolist() for name in TABLE_COLUMNS))
        for mask, (block, row) in enumerate(zip(blocks, rows), start=1):
            x = np.frombuffer(fh.read(math.prod(block) * 8), dtype="<f8").reshape(block)
            if not np.all(np.isfinite(x)):
                raise ValueError("'alloc' holds a NaN or infinite entry")
            value, kind, iterations, used, gap, wall_time = row
            reports[mask] = solver.SolveReport(
                value=value, allocation=model.Allocation(x), solver_kind=kind,
                iterations=iterations, restarts_used=used, gap=gap, wall_time=wall_time)
    return engine.CharacteristicTable(values=columns["values"], reports=reports)


def read_table_npz(path: Path, s: model.Scenario, restarts: int,
                   gap_tol: float) -> tuple[engine.CharacteristicTable | None, str]:
    """The table saved at path and "", or None and how its key differs from
    this scenario and these settings.  A file that does not hold a table of
    this layout is a ValueError that names it."""
    try:
        # np.load given a path leaks its handle when the zip is unreadable
        with path.open("rb") as fh, np.load(fh, allow_pickle=False) as npz:
            saved = {name: npz[name] for name in TABLE_KEY}
            for name, value in saved.items():
                if value.shape != ():
                    raise ValueError(f"{name!r} has shape {value.shape}, expected ()")
                saved[name] = value.item()
            want = {"version": TABLE_FORMAT_VERSION, "digest": s.digest(),
                    "restarts": restarts, "gap_tol": gap_tol}
            differ = [f"{name} {saved[name]!r}, not {want[name]!r}"
                      for name in TABLE_KEY if saved[name] != want[name]]
            if differ:
                return None, ", ".join(differ)
            return _table_from_npz(s, npz), ""
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise ValueError(f"{path} holds no readable coalition table: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def _parse_weights(text: str, parser: argparse.ArgumentParser) -> tuple[float, float]:
    try:
        w, zeta = text.split(":")
        return float(w), float(zeta)
    except ValueError:
        parser.error(f"--weights expects 'w:zeta', got {text!r}")


def _count(text: str) -> int:
    """--restarts, --repetitions, a bench --apps item: a whole number, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """--tol, --tol-gap: a finite number, at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _steepness(text: str) -> float:
    """A sigmoid mu: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _items(text: str, option: str, parse, parser: argparse.ArgumentParser) -> list:
    """The values of a comma list such as bench --apps, each parsed and
    checked by parse; a bad item is a usage error that names option and
    item."""
    try:
        return [parse(item) for item in text.split(",") if item]
    except argparse.ArgumentTypeError as exc:
        parser.error(f"argument {option}: {exc}")


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
    digest = model.text_digest(model.save_scenario(s, out))
    print(f"wrote {out} (n={s.n_players} k={s.n_resources} m={_m_field(s.m_per_player)}) "
          f"digest={digest}")
    return 0


def _load(args) -> model.Scenario:
    return model.load_scenario(Path(args.scenario))


def cmd_run(args, parser) -> int:
    s = _load(args)
    methods = ("shapley", "fast") if args.method == "both" else (args.method,)
    if "shapley" in methods:
        engine.check_table_limit(s.n_players)  # before --out is made
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rep = analysis.compare_methods(s, methods, repetitions=1, restarts=args.restarts,
                                   gap_tol=args.tol)
    for method, stat in rep.stats.items():
        print(f"{method}: total={stat.total:.6g} solves={stat.solves}")
    # payoff rows in the fixed presentation order: fast split, then Shapley
    payoffs = [(m, rep.stats[m].payoffs) for m in ("fast", "shapley") if m in rep.stats]
    value_rows = (coalition_rows(s, rep.table) if rep.table is not None
                  else singleton_rows(rep.standalone))
    write_coalition_csv(outdir / "coalition.csv", s, value_rows, payoffs)
    write_payoffs_csv(outdir / "payoffs.csv", [(m, p, rep.standalone) for m, p in payoffs])
    _write_rows(outdir / "comparison.csv", COMPARISON_HEADER,
                [comparison_row(rep, m) for m in rep.stats])
    written = [outdir / name for name in ("coalition.csv", "payoffs.csv", "comparison.csv")]
    if rep.table is not None:
        write_table_npz(outdir / TABLE_FILE, s, rep.table, args.restarts, args.tol)
        written.append(outdir / TABLE_FILE)
    print(f"wrote {', '.join(map(str, written[:-1]))} and {written[-1]}")
    return 0


def _saved_table(s: model.Scenario, path: Path,
                 args) -> tuple[engine.CharacteristicTable | None, list[list], bool]:
    """The audited table `run` saved at path, its verify rows and whether
    the audit passed; None, no rows and True when there is no such file or
    its key does not match.  Says on stdout which it was."""
    n_masks = (1 << s.n_players) - 1
    if not path.exists():
        print(f"table: no {path}; solving all {n_masks} coalitions")
        return None, [], True
    table, differ = read_table_npz(path, s, args.restarts, args.tol_gap)
    if table is None:
        print(f"table: {path} was saved for {differ}; solving all {n_masks} coalitions")
        return None, [], True
    audit = analysis.audit_table(s, table)
    if audit.ok:
        print(f"table: read {path}, solved no coalition; PASS ({audit.masks_checked} "
              f"allocations feasible, values reproduced within "
              f"{audit.worst_value_gap:.3g})")
        return table, [["table", "", f"{audit.masks_checked} coalitions", "pass",
                        audit.worst_value_gap]], True
    rows = []
    for mask, problem in audit.problems:
        label = model.Coalition(mask).label()
        print(f"table: FAIL coalition {label}: {problem}")
        rows.append(["table", "", label, "fail", problem])
    return table, rows, False


def cmd_verify(args, parser) -> int:
    s = _load(args)
    tol = args.tol
    vectors: dict[str, np.ndarray] = {}
    table, rows, ok = None, [], True
    if args.payoffs:
        vectors = read_payoffs_csv(Path(args.payoffs))
        if not vectors:
            parser.error(f"no payoff vectors in {args.payoffs}")
        for method, v in vectors.items():
            if len(v) != s.n_players:
                parser.error(f"payoffs for {method!r} in {args.payoffs} have {len(v)} "
                             f"rows, but the scenario has N = {s.n_players} players")
        engine.check_table_limit(s.n_players)  # before a table is read
        table, rows, ok = _saved_table(s, Path(args.payoffs).with_name(TABLE_FILE), args)
    if table is None:
        table = engine.build_characteristic_table(
            s, restarts=args.restarts, gap_tol=args.tol_gap)
    if not args.payoffs:
        if args.method in ("shapley", "both"):
            vectors["shapley"] = engine.shapley_from_table(table)
        if args.method in ("fast", "both"):
            vectors["fast"] = engine.fast_core(
                s, restarts=args.restarts, gap_tol=args.tol_gap).payoffs
    core_reports = {method: analysis.core_verify(v, table, tol=tol)
                    for method, v in vectors.items()}
    sa_report = analysis.superadditivity_audit(table, tol=tol)

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
    apps_list = _items(args.apps, "--apps", _count, parser)
    if not apps_list:
        parser.error("bench needs at least one --apps value")
    mu_list = (_items(args.mu, "--mu", _steepness, parser)
               if args.utility == "sigmoid" else [None])
    if args.utility == "sigmoid" and not mu_list:
        parser.error("sigmoid bench needs at least one --mu value")
    w, zeta = _parse_weights(args.weights, parser)
    # --method shapley times the fast split alongside; both leaves Shapley
    # out above the table limit
    methods = {"fast": ("fast",), "shapley": ("shapley", "fast"),
               "both": (("shapley", "fast") if args.players <= engine.TABLE_PLAYER_LIMIT
                        else ("fast",))}[args.method]
    reports = []
    for m_apps in apps_list:
        for mu in mu_list:
            s = model.generate_scenario(
                n_players=args.players, n_resources=args.resources,
                m_per_player=m_apps, utility=args.utility, mu=mu,
                seed=args.seed, w=w, zeta=zeta)
            rep = analysis.compare_methods(
                s, methods, repetitions=args.repetitions, restarts=args.restarts,
                gap_tol=args.tol)
            # the rows read no table, and one at the table limit holds
            # hundreds of MB of allocations
            reports.append(dataclasses.replace(rep, table=None))
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
    run.add_argument("--restarts", type=_count, default=solver.DEFAULT_RESTARTS)
    run.add_argument("--tol", type=_tolerance, default=solver.DEFAULT_GAP_TOL,
                     help="solver stopping gap")
    run.add_argument("--out", default=".")

    ver = sub.add_parser("verify", help="check core membership and superadditivity")
    ver.add_argument("--scenario", required=True)
    ver.add_argument("--payoffs", default=None,
                     help="payoffs.csv to verify instead of recomputing; the "
                          "table.npz that run saved beside it stands in for the "
                          "coalition solves when it matches the scenario, "
                          "--restarts and --tol-gap")
    ver.add_argument("--method", choices=("shapley", "fast", "both"), default="both")
    ver.add_argument("--restarts", type=_count, default=solver.DEFAULT_RESTARTS)
    ver.add_argument("--tol", type=_tolerance, default=analysis.DEFAULT_CORE_TOL,
                     help="verification tolerance")
    ver.add_argument("--tol-gap", type=_tolerance, default=solver.DEFAULT_GAP_TOL,
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
    bench.add_argument("--restarts", type=_count, default=solver.DEFAULT_RESTARTS)
    bench.add_argument("--tol", type=_tolerance, default=solver.DEFAULT_GAP_TOL)
    bench.add_argument("--repetitions", type=_count, default=5)
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
