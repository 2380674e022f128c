"""Verification and comparison of payoff pipelines.

Everything here checks claims by explicit inequality sweeps against a
characteristic table: core membership (no coalition can do better alone),
superadditivity of the value function, and the wall-time/solve-count
comparison between the Shapley and fast pipelines.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    CharacteristicTable,
    FastCoreResult,
    build_characteristic_table,
    fast_core,
    shapley_from_table,
)
from .model import Coalition, Scenario
from .solver import DEFAULT_GAP_TOL, DEFAULT_RESTARTS, SolveCounter

DEFAULT_CORE_TOL = 1e-6
SHAPLEY_PLAYER_LIMIT = 12  # beyond this the 2^N table is not built by default


@dataclass(frozen=True)
class CoreReport:
    """Result of checking one payoff vector against a complete table.

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

    @property
    def worst_deficit(self) -> float:
        return max(self.deficits.values(), default=0.0)

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
    if not table.is_complete:
        raise ValueError("core verification needs a complete table")
    member_sum = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        member_sum[mask] = member_sum[mask ^ low] + payoffs[low.bit_length() - 1]
    deficits = {}
    for mask in range(1, 1 << n):
        short = table.value(mask) - member_sum[mask]
        if short > tol:
            deficits[mask] = float(short)
    return CoreReport(
        tolerance=tol,
        payoffs=tuple(float(p) for p in payoffs),
        total=float(payoffs.sum()),
        grand_value=table.value(table.grand_mask),
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

    @property
    def worst_gap(self) -> float:
        return max((g for *_, g in self.violations), default=0.0)


def superadditivity_audit(
    table: CharacteristicTable,
    tol: float = DEFAULT_CORE_TOL,
) -> SuperadditivityReport:
    """Exhaustively check merging gains over every unordered pair of
    disjoint nonempty coalitions in the table."""
    if not table.is_complete:
        raise ValueError("superadditivity audit needs a complete table")
    grand = table.grand_mask
    checked = 0
    violations = []
    for m1 in range(1, grand + 1):
        comp = grand ^ m1
        m2 = comp
        while m2:
            if m2 < m1:
                checked += 1
                gap = table.value(m1) + table.value(m2) - table.value(m1 | m2)
                if gap > tol:
                    violations.append((m2, m1, float(gap)))
            m2 = (m2 - 1) & comp
    return SuperadditivityReport(
        tolerance=tol,
        pairs_checked=checked,
        violations=tuple(violations),
    )


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
    stats: dict[str, MethodStats]
    grand_value: float | None  # exact only when the table was built

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
    repetitions: int = 5,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
    include_shapley: bool | None = None,
) -> ComparisonReport:
    """Time both pipelines on one scenario with the monotonic wall clock.

    Each repetition runs the full pipeline; the reported numbers come from
    the first repetition, the median from all of them.  Shapley is skipped
    automatically above SHAPLEY_PLAYER_LIMIT players unless forced.
    """
    if include_shapley is None:
        include_shapley = s.n_players <= SHAPLEY_PLAYER_LIMIT
    stats: dict[str, MethodStats] = {}
    grand_value = None
    standalone = None

    def timed(fn):
        times, first = [], None
        for _ in range(max(1, repetitions)):
            t0 = time.perf_counter()
            out = fn()
            times.append((time.perf_counter() - t0) * 1e3)
            if first is None:
                first = out
        return first, tuple(times)

    if include_shapley:
        def run_shapley():
            counter = SolveCounter()
            table = build_characteristic_table(
                s, restarts=restarts, gap_tol=gap_tol, counter=counter)
            return shapley_from_table(table), table, counter.count

        (phi, table, solves), times = timed(run_shapley)
        stats["shapley"] = MethodStats(
            method="shapley", payoffs=tuple(map(float, phi)),
            total=float(phi.sum()), solves=solves, times_ms=times)
        grand_value = table.value(table.grand_mask)
        standalone = tuple(map(float, table.singleton_values()))

    def run_fast():
        counter = SolveCounter()
        result = fast_core(s, restarts=restarts, gap_tol=gap_tol, counter=counter)
        return result, counter.count

    (fast_result, fast_solves), fast_times = timed(run_fast)
    stats["fast"] = MethodStats(
        method="fast", payoffs=tuple(map(float, fast_result.payoffs)),
        total=float(fast_result.payoffs.sum()), solves=fast_solves,
        times_ms=fast_times)
    if standalone is None:
        standalone = tuple(float(v) for v in s.w * fast_result.phase1)

    kinds = {u.kind for u in s.utilities}
    mus = {u.mu for u in s.utilities if u.kind == "sigmoid"}
    return ComparisonReport(
        n_players=s.n_players,
        m_per_player=s.m_per_player,
        n_resources=s.n_resources,
        utility_kind=kinds.pop() if len(kinds) == 1 else "mixed",
        mu=mus.pop() if len(mus) == 1 else None,
        standalone=standalone,
        stats=stats,
        grand_value=grand_value,
    )


def verify_scenario(
    s: Scenario,
    table: CharacteristicTable,
    payoff_vectors: dict[str, np.ndarray],
    tol: float = DEFAULT_CORE_TOL,
) -> tuple[dict[str, CoreReport], SuperadditivityReport]:
    """Bundle the standard verification sweep: one core check per payoff
    vector plus a superadditivity audit of the table itself."""
    core_reports = {
        name: core_verify(vec, table, tol=tol) for name, vec in payoff_vectors.items()
    }
    return core_reports, superadditivity_audit(table, tol=tol)
