"""Smoke mode: one tiny scenario per workload, untraced and traced.

    python3 perfbench/smoke.py

Exercises the pipeline, the output checks, the traced run, the determinism
guard and the BENCHMARK.json writer in a few seconds.  Exits 0 when every
scenario passes, every metric is reported, and the committed
BENCHMARK.json matches what the writer produces.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

TINY = {  # players, apps per player
    "shapley-sigmoid": (3, 2),
    "table-linear": (4, 2),
    "fast-wide": (5, 2),
    "weighted-sigmoid": (2, 2),
}


def main() -> int:
    problems = []
    spec = run.benchmark_json()
    written = run.STATE / "smoke" / "BENCHMARK.json"
    written.parent.mkdir(parents=True, exist_ok=True)
    run.main(["--write-benchmark-json", str(written)])
    committed = run.ROOT / "BENCHMARK.json"
    if json.loads(written.read_text()) != json.loads(committed.read_text()):
        problems.append("BENCHMARK.json differs from the writer's output")
    for name, (players, apps) in TINY.items():
        wl = replace(run.WORKLOADS[name], players=players, apps=apps)
        for traced, want in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            correct, record = run.bench(f"smoke-{name}", 0, 0, traced, wl=wl, floors={},
                                        setup_samples=1)
            if not correct:
                problems.append(f"{name} trace={int(traced)}: not correct")
            missing = {m["name"] for m in want} - set(record["metrics"])
            if missing:
                problems.append(f"{name} trace={int(traced)}: missing {sorted(missing)}")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
