"""Scaling report; not gated and not a workload.

    python3 perfbench/scaling.py

Answers two questions with the benchmark's own pipeline and wrappers:
how far the exact 2^N table goes (table-linear pipeline seconds and peak
RSS for N = 4..13, each N in a fresh process), and how one coalition
solve grows with the applications per player (solver.coalition.ms_p50 for
the grand coalition of a shapley-sigmoid scenario at m = 3, 20, 100).
Every scenario is drawn with seed 0.
The report is printed and written to .perfbench/scaling.json.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from dataclasses import replace

import layers
import run

PLAYERS = range(4, 14)
APPS = (3, 20, 100)
GRAND_REPEATS = 3
SEED = 0


def table_point(players: int) -> dict:
    """One table-linear pipeline at `players`, in this (fresh) process."""
    run.pin_environment()
    _, cli = run.import_package()
    wl = replace(run.WORKLOADS["table-linear"], players=players)
    workdir = run.STATE / "work" / f"scaling-{players}"
    rec, problems = run.attempt(cli.main, wl, SEED, workdir, {})
    return {"players": players, "pipeline_s": rec.get("pipeline_s"), "problems": problems,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def grand_solve_ms() -> list[dict]:
    run.pin_environment()
    package, _ = run.import_package()
    wl = run.WORKLOADS["shapley-sigmoid"]
    out = []
    for apps in APPS:
        s = package.model.generate_scenario(
            n_players=wl.players, n_resources=3, m_per_player=apps, utility="sigmoid",
            mu=run.MUS[SEED % len(run.MUS)], seed=SEED)
        tracer = layers.Tracer()
        tracer.install(package)
        try:
            for _ in range(GRAND_REPEATS):
                package.engine.solve_coalition(s, package.model.Coalition.grand(wl.players))
        finally:
            tracer.uninstall()
        metrics = layers.layer_metrics(tracer)
        out.append({"apps": apps, "solver.coalition.ms_p50": metrics["solver.coalition.ms_p50"],
                    "iterations": metrics["solver.coalition.iterations"],
                    "repeats": GRAND_REPEATS})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--point", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    workers_was_set = run.pin_environment()
    if args.point is not None:
        print(json.dumps(table_point(args.point)))
        return 0
    table = []
    for players in PLAYERS:
        proc = subprocess.run([sys.executable, __file__, "--point", str(players)],
                              capture_output=True, text=True, timeout=600, check=True)
        point = json.loads(proc.stdout.splitlines()[-1])
        table.append(point)
        print(f"table-linear N={players}: pipeline {point['pipeline_s']:.3f} s, "
              f"peak RSS {point['peak_rss_mb']:.1f} MB"
              + (f", PROBLEMS {point['problems']}" if point["problems"] else ""))
    solves = grand_solve_ms()
    for row in solves:
        print(f"grand coalition, m={row['apps']}: solver.coalition.ms_p50 = "
              f"{row['solver.coalition.ms_p50']:.1f} ms over {row['repeats']} solves")
    report = {"env": run.stamp(SEED, len(table), workers_was_set), "table_linear": table,
              "grand_coalition": solves}
    out = run.STATE / "scaling.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    ok = all(not p["problems"] for p in table)
    print(f"wrote {out}" + ("" if ok else " (with failed points)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
