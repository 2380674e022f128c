"""Record the sigmoid coalition values that the output check uses as a floor.

    python3 perfbench/record_reference.py

For each sigmoid workload and scenario seeds 0..127, runs gen → run and
stores the value column of coalition.csv (ascending mask order) in
reference_values.json.  Run it only at the commit whose values are the
floor: a later solver may raise a coalition value but must not lower it.
Scenarios whose seed is not recorded are checked without a floor.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import check
import run

SIGMOID = [name for name, wl in run.WORKLOADS.items() if wl.utility == "sigmoid"]
SEEDS = 128


def record(name: str, seed: int) -> tuple[str, int, list[float]]:
    run.pin_environment()
    _, cli = run.import_package()
    wl = run.WORKLOADS[name]
    workdir = run.STATE / "work" / f"reference-{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    scenario, out = workdir / "s.json", workdir / "out"
    try:
        with open(workdir / "log", "w") as log, contextlib.redirect_stdout(log):
            codes = [cli.main(run.gen_argv(wl, seed, scenario)),
                     cli.main(["run", "--scenario", str(scenario), "--method", wl.method,
                               "--out", str(out)])]
        if codes != [0, 0]:
            raise RuntimeError(f"{name} seed {seed}: exit codes {codes}")
        values = check.read_coalition_csv(out / "coalition.csv")[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return name, seed, [values[m] for m in sorted(values)]


def main() -> int:
    run.pin_environment()
    tasks = [(name, seed) for name in SIGMOID for seed in range(SEEDS)]
    floors: dict = {name: {} for name in SIGMOID}
    jobs = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as pool:
        for name, seed, values in pool.map(record, *zip(*tasks)):
            floors[name][str(seed)] = values
    run.REFERENCE.write_text(json.dumps(floors, separators=(",", ":")) + "\n")
    print(f"wrote {run.REFERENCE}: {len(tasks)} scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
