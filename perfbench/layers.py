"""Layer spans recorded from outside the package.

The tracer replaces module attributes with timing wrappers for the length
of a traced run.  Each wrapper patches the name its caller actually looks
up: `engine` imported the solve functions by name, so they are patched on
`engine`; `solver` calls `lmo_transport` through its own globals; and
`cli.coalition_rows` imports `utility.breakdown` at call time.  Spans are
kept in memory and written out when the run ends.
"""
from __future__ import annotations

import functools
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter


def _solve_attrs(args, report):
    return {"iterations": report.iterations, "restarts": report.restarts_used,
            "gap": report.gap}


def _coalition_attrs(args, report):
    return {**_solve_attrs(args, report), "mask": args[1].mask}


def _table_attrs(args, table):
    return {"masks": len(table.values),
            "alloc_bytes": sum(r.allocation.x.nbytes for r in table.reports.values())}


def _file_bytes(args, result):
    return {"bytes": os.stat(args[0]).st_size}


# (module, attribute, span name, attrs(args, result) -> dict | None)
TARGETS = [
    ("model", "save_scenario", "model.io", None),
    ("model", "load_scenario", "model.io", None),
    ("utility", "breakdown", "utility.breakdown", None),
    ("solver", "lmo_transport", "solver.lp", None),
    ("engine", "solve_native", "solver.native", _solve_attrs),
    ("engine", "solve_residual", "solver.residual", _solve_attrs),
    ("engine", "solve_coalition", "solver.coalition", _coalition_attrs),
    ("engine", "build_characteristic_table", "engine.table", _table_attrs),
    ("engine", "shapley_from_table", "engine.shapley", None),
    ("engine", "fast_core", "engine.fast_core", None),
    ("analysis", "core_verify", "analysis.core",
     lambda args, rep: {"checks": (1 << args[1].n_players) - 1}),
    ("analysis", "superadditivity_audit", "analysis.superadditivity",
     lambda args, rep: {"pairs": rep.pairs_checked}),
    ("cli", "write_coalition_csv", "cli.csv_write", _file_bytes),
    ("cli", "write_payoffs_csv", "cli.csv_write", _file_bytes),
    ("cli", "read_payoffs_csv", "cli.csv_read", _file_bytes),
]

SOLVER_KINDS = ("native", "residual", "coalition")
COMMANDS = ("gen", "run", "verify")

# Every per-layer metric a traced run reports, in report order.
LAYER_METRICS = [
    "model.io.self_s",
    "utility.breakdown.calls", "utility.breakdown.self_s",
    *(f"solver.{kind}.{stat}" for kind in SOLVER_KINDS
      for stat in ("calls", "self_s", "ms_p50", "iterations", "restarts")),
    "solver.coalition.gap_max",
    "solver.lp.calls", "solver.lp.self_s",
    "engine.table.self_s", "engine.table.masks", "engine.table.alloc_bytes",
    "engine.coalition.unique_ratio",
    "engine.shapley.self_s",
    "engine.fast_core.self_s",
    "analysis.core.self_s", "analysis.core.checks",
    "analysis.superadditivity.self_s", "analysis.superadditivity.pairs",
    "cli.csv_write.self_s", "cli.csv_read.self_s", "cli.csv.bytes",
    *(f"cli.{cmd}.self_s" for cmd in COMMANDS),
    "trace.attributed_frac", "trace.overhead_ratio", "trace.scenarios",
]

HIGHER_IS_BETTER = {"engine.coalition.unique_ratio", "trace.attributed_frac"}

_UNITS = {"self_s": "s", "ms_p50": "ms", "alloc_bytes": "bytes", "bytes": "bytes",
          "gap_max": "1", "unique_ratio": "ratio", "attributed_frac": "ratio",
          "overhead_ratio": "ratio", "scenarios": "count"}


def layer_unit(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[1], "count")


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index, scenario, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.scenario = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None,
               self.scenario, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if attrs is not None:
            rec[5] = attrs(args, out)
        return out

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return traced

    def install(self, package) -> None:
        for mod_name, attr, name, attrs in TARGETS:
            mod = getattr(package, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, attrs))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover
        (single thread, so children nest and never overlap)."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics over every span the tracer holds."""
    spans = tracer.spans
    own = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        self_s[span[0]] += t
    calls = Counter(s[0] for s in spans)

    def attrs(name, key):  # a span whose call raised has no attrs
        return [s[5][key] for s in spans if s[0] == name and s[5]]

    m: dict[str, float] = {f"{name}.self_s": self_s[name] for name in (
        "model.io", "utility.breakdown", "solver.lp", "engine.table", "engine.shapley",
        "engine.fast_core", "analysis.core", "analysis.superadditivity",
        "cli.csv_write", "cli.csv_read", *(f"cli.{cmd}" for cmd in COMMANDS))}
    for name in ("utility.breakdown", "solver.lp"):
        m[f"{name}.calls"] = calls[name]
    for kind in SOLVER_KINDS:
        name = f"solver.{kind}"
        ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.ms_p50"] = statistics.median(ms) if ms else 0.0
        m[f"{name}.iterations"] = sum(attrs(name, "iterations"))
        m[f"{name}.restarts"] = sum(attrs(name, "restarts"))
    m["solver.coalition.gap_max"] = max(attrs("solver.coalition", "gap"), default=0.0)
    m["engine.table.masks"] = sum(attrs("engine.table", "masks"))
    m["engine.table.alloc_bytes"] = max(attrs("engine.table", "alloc_bytes"), default=0)
    solves = [(s[4], s[5]["mask"]) for s in spans if s[0] == "solver.coalition" and s[5]]
    m["engine.coalition.unique_ratio"] = len(set(solves)) / len(solves) if solves else 0.0
    m["analysis.core.checks"] = sum(attrs("analysis.core", "checks"))
    m["analysis.superadditivity.pairs"] = sum(attrs("analysis.superadditivity", "pairs"))
    m["cli.csv.bytes"] = sum(attrs("cli.csv_write", "bytes") + attrs("cli.csv_read", "bytes"))
    # share of pipeline time inside a named layer rather than in argparse
    # and command glue
    glue = {"pipeline", *(f"cli.{cmd}" for cmd in COMMANDS)}
    pipeline = sum(s[2] - s[1] for s in spans if s[0] == "pipeline")
    layered = sum(t for s, t in zip(spans, own) if s[0] not in glue)
    m["trace.attributed_frac"] = layered / pipeline if pipeline else 0.0
    return {name: m[name] for name in LAYER_METRICS if name in m}


def scenario_counts(tracer: Tracer) -> dict:
    """Exact work counts per scenario, for the determinism guard."""
    out: dict = {}
    for name, _, _, _, scenario, attrs in tracer.spans:
        c = out.setdefault(str(scenario), {})
        c[f"{name}.calls"] = c.get(f"{name}.calls", 0) + 1
        for key, value in (attrs or {}).items():
            if key in ("iterations", "restarts", "masks", "pairs", "bytes"):
                c[f"{name}.{key}"] = c.get(f"{name}.{key}", 0) + value
    return out
