"""Correctness checks on the files one gen → run → verify pipeline wrote.

Everything is recomputed by hand from the scenario JSON and the CSVs; the
checks import nothing from the package or from its tests, so a bug that
the package shares with its own test oracles still shows here.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

TOL = 1e-9
CORE_TOL = 1e-6  # `verify`'s default tolerance, used to predict its verdict


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def read_coalition_csv(path: Path) -> tuple[dict[int, float], dict[str, list[float]]]:
    """coalition.csv as (mask -> v(S) from the value rows, method -> payoff
    vector from the grand-coalition payoff rows, whose members field ends
    with the method name)."""
    values, rows = {}, {}
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            method = row["members"].partition(" ")[2]
            if method:
                rows[method] = [float(v) for k, v in row.items() if k.startswith("u_p")]
            else:
                values[int(row["mask"])] = float(row["value"])
    return values, rows


def read_payoffs(path: Path) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["method"], {})[int(row["player"])] = float(row["payoff"])
    return out


def linear_values(scen: dict) -> dict[int, float]:
    """v(S) = sum_k min(sum_{u in S} cap_uk, sum_{u in S} D_uk) for unit
    linear coefficients with w = zeta = 1: pooled capacity serves pooled
    demand unit for unit."""
    players = scen["players"]
    caps = [p["capacity"] for p in players]
    dem = [[sum(req[k] for req in p["requests"]) for k in range(scen["k"])] for p in players]
    cap_sum, dem_sum, values = {0: [0.0] * scen["k"]}, {0: [0.0] * scen["k"]}, {}
    for mask in range(1, 1 << scen["n"]):
        low = mask & -mask
        u, rest = low.bit_length() - 1, mask ^ low
        cap_sum[mask] = [a + b for a, b in zip(cap_sum[rest], caps[u])]
        dem_sum[mask] = [a + b for a, b in zip(dem_sum[rest], dem[u])]
        values[mask] = sum(min(c, d) for c, d in zip(cap_sum[mask], dem_sum[mask]))
    return values


def linear_fast_split(scen: dict) -> list[float]:
    """Two-phase split traced by hand for unit linear coefficients.

    Phase 1: each provider fills its own applications in index order.
    Phase 2: providers in ascending index sell leftover capacity to other
    owners' residual requests, again in application index order.
    Payoff = w * phase1 + zeta * phase2.
    """
    players, k_res = scen["players"], scen["k"]
    apps = [(owner, list(req)) for owner, p in enumerate(players) for req in p["requests"]]
    residual = [list(req) for _, req in apps]
    phase = {1: [0.0] * len(players), 2: [0.0] * len(players)}
    left = [list(p["capacity"]) for p in players]
    for step in (1, 2):
        for u in range(len(players)):
            for k in range(k_res):
                for i, (owner, _) in enumerate(apps):
                    if (owner == u) == (step == 1):
                        take = min(left[u][k], residual[i][k])
                        residual[i][k] -= take
                        left[u][k] -= take
                        phase[step][u] += take
    return [p["w"] * a + p["zeta"] * b for p, a, b in zip(players, phase[1], phase[2])]


def predicted_verdict(n: int, values: dict[int, float],
                      payoffs: dict[str, dict[int, float]]) -> int:
    """Exit code `verify --payoffs` must give: 0 when every payoff vector is
    in the core and the table is superadditive, 1 otherwise."""
    grand = (1 << n) - 1
    ok = True
    for vec in payoffs.values():
        p = [vec[i + 1] for i in range(n)]
        member = [0.0] * (grand + 1)
        for mask in range(1, grand + 1):
            low = mask & -mask
            member[mask] = member[mask ^ low] + p[low.bit_length() - 1]
        ok &= abs(sum(p) - values[grand]) <= CORE_TOL
        ok &= all(values[m] - member[m] <= CORE_TOL for m in range(1, grand + 1))
    for m1 in range(1, grand + 1):
        if not ok:
            break
        comp = grand ^ m1
        m2 = comp
        while m2:
            if m2 < m1 and values[m1] + values[m2] - values[m1 | m2] > CORE_TOL:
                ok = False
                break
            m2 = (m2 - 1) & comp
    return 0 if ok else 1


def check_pipeline(scenario: Path, outdir: Path, method: str,
                   verify_code: int | None, floor: list[float] | None) -> list[str]:
    """Problems found in one pipeline's outputs; empty when all hold.

    floor, when given, lists the coalition values recorded for this
    scenario at the benchmark's base commit, in ascending mask order; a
    value may rise above it (a better solver) but not fall below it.
    """
    scen = json.loads(scenario.read_text(encoding="utf-8"))
    n = scen["n"]
    values, payoff_rows = read_coalition_csv(outdir / "coalition.csv")
    payoffs = read_payoffs(outdir / "payoffs.csv")
    problems = []
    methods = ("fast", "shapley") if method == "both" else (method,)
    for m in methods:
        if sorted(payoffs.get(m, {})) != list(range(1, n + 1)):
            problems.append(f"payoffs.csv rows for {m} do not cover players 1..{n}")
        elif payoff_rows.get(m) != [payoffs[m][i + 1] for i in range(n)]:
            problems.append(f"coalition.csv payoff row for {m} differs from payoffs.csv")
    if problems:
        return problems
    if method == "both":
        if sorted(values) != list(range(1, 1 << n)):
            return [f"coalition.csv holds {len(values)} of {(1 << n) - 1} coalitions"]
        total = sum(payoffs["shapley"].values())
        if not _close(total, values[(1 << n) - 1]):
            problems.append(f"Shapley payoffs sum to {total!r}, v(N) = {values[(1 << n) - 1]!r}")
    if all(p["utility"] == {"kind": "linear"} for p in scen["players"]):
        if method == "both":
            want = linear_values(scen)
            bad = [m for m in values if not _close(values[m], want[m])]
            if bad:
                problems.append(f"{len(bad)} coalition values differ from the pooled "
                                f"closed form, first mask {bad[0]}")
        split = linear_fast_split(scen)
        bad = [i for i in range(n) if not _close(payoffs["fast"][i + 1], split[i])]
        if bad:
            problems.append(f"fast payoffs differ from the hand-traced split for players "
                            f"{[i + 1 for i in bad]}")
    if floor is not None:
        got = [values[m] for m in sorted(values)]
        if len(got) != len(floor):
            problems.append(f"coalition.csv has {len(got)} values, {len(floor)} recorded")
        else:
            low = [i for i, (g, f) in enumerate(zip(got, floor)) if g < f - TOL * max(1.0, abs(f))]
            if low:
                problems.append(f"{len(low)} coalition values fell below the recorded floor")
    if verify_code is not None:
        want = predicted_verdict(n, values, payoffs)
        if verify_code != want:
            problems.append(f"verify exited {verify_code}, its inputs call for {want}")
    return problems
