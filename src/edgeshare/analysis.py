"""Verification and comparison of payoff pipelines.

Everything here checks claims by explicit inequality sweeps against a
characteristic table: core membership (no coalition can do better alone,
one array comparison over every mask) and superadditivity of the value
function (every disjoint pair).  audit_table checks a table read back
from disk, which no solve in this process produced: every coalition's
allocation must be feasible for it and must earn its value.
compare_methods is the one driver that runs and times the Shapley and
fast pipelines: `run` calls it once with one repetition, `bench` once
per grid point.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import CharacteristicTable
from .model import Coalition, Scenario, audit_allocation
from .solver import DEFAULT_GAP_TOL, DEFAULT_RESTARTS
from .utility import coalition_objective

DEFAULT_CORE_TOL = 1e-6
# A stored value is the solver's, computed from the receipts; the objective
# at the allocation shipping them differs by rounding alone (up to 3.7e-13
# on uniform-weight rows), relative to max(1, |v(S)|).
TABLE_VALUE_RTOL = 1e-9


@dataclass(frozen=True)
class CoreReport:
    """Result of checking one payoff vector against a characteristic table.

    deficits maps each violated coalition mask to v(S) minus the members'
    total payoff (always positive when present).  A payoff vector is in the
    core when it is group rational and no coalition is in deficit.
    """

    tolerance: float
    payoffs: tuple[float, ...]
    total: float
    grand_value: float
    deficits: dict[int, float] = field(default_factory=dict)

    @property
    def is_group_rational(self) -> bool:
        return abs(self.total - self.grand_value) <= self.tolerance

    @property
    def is_individually_rational(self) -> bool:
        return not any(mask.bit_count() == 1 for mask in self.deficits)

    @property
    def in_core(self) -> bool:
        return self.is_group_rational and not self.deficits

    def violated_coalitions(self) -> list[tuple[Coalition, float]]:
        return [(Coalition(m), d) for m, d in sorted(self.deficits.items())]


def core_verify(
    payoffs: np.ndarray,
    table: CharacteristicTable,
    tol: float = DEFAULT_CORE_TOL,
) -> CoreReport:
    """Check every coalition inequality sum_{n in S} payoff_n >= v(S) and
    group rationality |sum payoff - v(grand)| <= tol.  Violations are
    reported with their deficit, never absorbed."""
    payoffs = np.asarray(payoffs, dtype=float)
    n = table.n_players
    if payoffs.shape != (n,):
        raise ValueError(f"payoffs must have shape ({n},)")
    # member_sum[mask] = member_sum[mask without its lowest bit p] + payoffs[p]:
    # the masks whose lowest bit is p start at 1 << p, every 2 << p
    member_sum = np.zeros(1 << n)
    for p in reversed(range(n)):
        member_sum[1 << p::2 << p] = member_sum[::2 << p] + payoffs[p]
    short = table.values - member_sum[1:]
    deficits = {int(i) + 1: float(short[i]) for i in np.flatnonzero(short > tol)}
    return CoreReport(
        tolerance=tol,
        payoffs=tuple(float(p) for p in payoffs),
        total=float(payoffs.sum()),
        grand_value=float(table.values[-1]),
        deficits=deficits,
    )


@dataclass(frozen=True)
class SuperadditivityReport:
    """Disjoint-pair sweep of v(S1 u S2) >= v(S1) + v(S2) - tol."""

    tolerance: float
    pairs_checked: int
    violations: tuple[tuple[int, int, float], ...]  # (mask1, mask2, gap)

    @property
    def ok(self) -> bool:
        return not self.violations


def superadditivity_audit(
    table: CharacteristicTable,
    tol: float = DEFAULT_CORE_TOL,
) -> SuperadditivityReport:
    """Exhaustively check merging gains over every unordered pair of
    disjoint nonempty coalitions in the table."""
    v = [0.0, *table.values.tolist()]  # v[mask]; list indexing beats array indexing here
    grand = len(v) - 1
    checked = 0
    violations = []
    for m1 in range(1, grand + 1):
        comp = grand ^ m1
        m2 = comp
        while m2:
            if m2 < m1:
                checked += 1
                gap = v[m1] + v[m2] - v[m1 | m2]
                if gap > tol:
                    violations.append((m2, m1, float(gap)))
            m2 = (m2 - 1) & comp
    return SuperadditivityReport(
        tolerance=tol,
        pairs_checked=checked,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class TableAudit:
    """Every coalition of a table re-checked against its own allocation.

    problems lists (mask, what is wrong) in ascending mask order: a
    constraint the allocation breaks, or an objective at the allocation
    that does not reproduce v(S).  worst_value_gap is the largest
    |objective - v(S)| / max(1, |v(S)|) over the masks.
    """

    masks_checked: int
    worst_value_gap: float
    problems: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def audit_table(s: Scenario, table: CharacteristicTable) -> TableAudit:
    """Check each coalition's stored allocation, in its own coordinates,
    with model.audit_allocation (shaped for the coalition, and feasible)
    and its value with utility.coalition_objective to TABLE_VALUE_RTOL,
    one mask at a time."""
    problems, worst = [], 0.0
    for mask, report in sorted(table.reports.items()):
        coalition = Coalition(mask)
        problems += [(mask, p) for p in audit_allocation(s, report.allocation, coalition)]
        value = table.value(mask)
        objective = coalition_objective(s, report.allocation, coalition)
        gap = abs(objective - value) / max(1.0, abs(value))
        worst = max(worst, gap)  # a NaN gap leaves worst as it is
        if not gap <= TABLE_VALUE_RTOL:  # a NaN gap fails
            problems.append((mask, f"objective {objective!r} at its allocation "
                                   f"is not its value {value!r}"))
    return TableAudit(masks_checked=len(table.reports), worst_value_gap=worst,
                      problems=tuple(problems))


# ---------------------------------------------------------------------------
# method comparison


@dataclass(frozen=True)
class MethodStats:
    """One pipeline's outcome plus its timing sample."""

    method: str
    payoffs: tuple[float, ...]
    total: float
    solves: int
    times_ms: tuple[float, ...]

    @property
    def median_ms(self) -> float:
        return float(statistics.median(self.times_ms))


@dataclass(frozen=True)
class ComparisonReport:
    n_players: int
    m_per_player: tuple[int, ...]
    n_resources: int
    utility_kind: str
    mu: float | None
    standalone: tuple[float, ...]  # v({n}) per player
    stats: dict[str, MethodStats]  # in the order the pipelines ran
    table: CharacteristicTable | None  # the first Shapley run's, if Shapley ran

    @property
    def speedup_pct(self) -> float | None:
        """Relative wall-time saving of the fast route over Shapley."""
        if "shapley" not in self.stats or "fast" not in self.stats:
            return None
        ts = self.stats["shapley"].median_ms
        tf = self.stats["fast"].median_ms
        return 100.0 * (ts - tf) / ts if ts > 0 else None


def compare_methods(
    s: Scenario,
    methods: tuple[str, ...] = ("shapley", "fast"),
    repetitions: int = 5,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> ComparisonReport:
    """Run and time the named pipelines on one scenario with the monotonic
    wall clock.

    Each repetition runs each pipeline once, in the order of methods, so a
    drift in host speed falls on all alike; payoffs, solve counts and the
    table come from the first repetition, the median from all of them.
    standalone is v({n}) off the table when Shapley ran, else w_n times n's
    native optimum, which is the same problem.  Shapley above
    TABLE_PLAYER_LIMIT players raises the table's ValueError before its
    first solve.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if sorted(methods) not in (["fast"], ["shapley"], ["fast", "shapley"]):
        raise ValueError(f"methods must name 'shapley', 'fast' or both once, got {methods}")

    # engine's functions are looked up at each call, where tracers patch them
    def shapley():
        phi, table = engine.shapley_payoffs(s, restarts=restarts, gap_tol=gap_tol)
        return phi, len(table.reports), table

    def fast():
        result = engine.fast_core(s, restarts=restarts, gap_tol=gap_tol)
        return result.payoffs, result.solves, result.phase1

    pipelines = {"shapley": shapley, "fast": fast}
    first, times = {}, {name: [] for name in methods}
    for _ in range(repetitions):
        for name in methods:
            t0 = time.perf_counter()
            out = pipelines[name]()
            times[name].append((time.perf_counter() - t0) * 1e3)
            first.setdefault(name, out)

    stats = {name: MethodStats(method=name, payoffs=tuple(map(float, payoffs)),
                               total=float(payoffs.sum()), solves=solves,
                               times_ms=tuple(times[name]))
             for name, (payoffs, solves, _) in first.items()}
    table = first["shapley"][2] if "shapley" in first else None
    standalone = (table.singleton_values() if table is not None
                  else s.w * first["fast"][2])

    kinds = {u.kind for u in s.utilities}
    mus = {u.mu for u in s.utilities if u.kind == "sigmoid"}
    return ComparisonReport(
        n_players=s.n_players,
        m_per_player=s.m_per_player,
        n_resources=s.n_resources,
        utility_kind=kinds.pop() if len(kinds) == 1 else "mixed",
        mu=mus.pop() if len(mus) == 1 else None,
        standalone=tuple(map(float, standalone)),
        stats=stats,
        table=table,
    )
