"""Game engine: characteristic values, Shapley payoffs, fast core split.

Two payoff pipelines share the same subproblem solvers.  The Shapley route
solves one pooled allocation problem per nonempty coalition (2^N - 1
solves) and averages marginal contributions; the fast route performs one
native solve and one residual-sharing solve per player (2N solves), paying
each provider what its own capacity earns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Allocation, Coalition, Scenario, all_coalitions
from .solver import (
    DEFAULT_GAP_TOL,
    DEFAULT_RESTARTS,
    SolveReport,
    solve_coalition,
    solve_native,
    solve_residual,
)


@dataclass(frozen=True)
class CharacteristicTable:
    """Coalition values (and the solves that produced them) keyed by mask."""

    n_players: int
    values: dict[int, float]
    reports: dict[int, SolveReport]

    def value(self, coalition: Coalition | int) -> float:
        mask = coalition.mask if isinstance(coalition, Coalition) else coalition
        if mask == 0:
            return 0.0  # empty coalition earns nothing by definition
        return self.values[mask]

    @property
    def grand_mask(self) -> int:
        return (1 << self.n_players) - 1

    @property
    def is_complete(self) -> bool:
        return all(m in self.values for m in range(1, 1 << self.n_players))

    def singleton_values(self) -> np.ndarray:
        return np.array([self.value(1 << n) for n in range(self.n_players)])


def build_characteristic_table(
    s: Scenario,
    masks=None,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> CharacteristicTable:
    """Solve the pooled problem for each requested coalition (default: all
    2^N - 1), serially in ascending mask order."""
    mask_list = sorted(
        c.mask if isinstance(c, Coalition) else int(c)
        for c in (masks if masks is not None else all_coalitions(s.n_players))
    )
    reports = {m: solve_coalition(s, Coalition(m), restarts=restarts, gap_tol=gap_tol)
               for m in mask_list}
    return CharacteristicTable(
        n_players=s.n_players,
        values={m: r.value for m, r in reports.items()},
        reports=reports,
    )


# ---------------------------------------------------------------------------
# Shapley route


def shapley_from_table(table: CharacteristicTable) -> np.ndarray:
    """Shapley payoff of each player from a complete characteristic table:
    the factorial-weighted average of marginal contributions over all
    coalitions not containing the player."""
    n = table.n_players
    if not table.is_complete:
        raise ValueError("Shapley payoffs need a complete characteristic table")
    fact = [math.factorial(i) for i in range(n + 1)]
    denom = fact[n]
    weights = [fact[size] * fact[n - size - 1] / denom for size in range(n)]
    phi = np.zeros(n)
    for player in range(n):
        bit = 1 << player
        for mask in range(1 << n):
            if mask & bit:
                continue
            gain = table.value(mask | bit) - table.value(mask)
            phi[player] += weights[mask.bit_count()] * gain
    return phi


def shapley_payoffs(
    s: Scenario,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> tuple[np.ndarray, CharacteristicTable]:
    """Full Shapley pipeline: build the complete table (2^N - 1 coalition
    solves), then average marginal contributions."""
    table = build_characteristic_table(s, restarts=restarts, gap_tol=gap_tol)
    return shapley_from_table(table), table


# ---------------------------------------------------------------------------
# fast route: native solves, then sequential residual sharing


@dataclass(frozen=True)
class FastCoreResult:
    """Outcome of the two-phase linear-time split.

    payoffs[n] = w_n * phase1[n] + zeta_n * phase2[n]: what n's own
    applications earned it natively plus its income from serving others'
    residual requests.  allocation is the combined final allocation.
    solves is the number of subproblems the split solved: one native and
    one residual solve per player, 2N.
    """

    payoffs: np.ndarray
    allocation: Allocation
    phase1: np.ndarray  # native optima, unweighted
    phase2: np.ndarray  # residual sharing income, unweighted
    order: tuple[int, ...]

    @property
    def solves(self) -> int:
        return len(self.phase1) + len(self.phase2)


def fast_core(
    s: Scenario,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
    order: tuple[int, ...] | None = None,
) -> FastCoreResult:
    """Two-phase allocation in 2N solves.

    Phase 1: every player serves its own applications from its own
    capacity.  Phase 2: players take turns (ascending index unless an
    explicit order is given) selling leftover capacity against the
    shrinking pool of foreign residual requests; each sale is income for
    the seller and tops up the buyer's applications.
    """
    n, m, k = s.n_players, s.m_total, s.n_resources
    if order is None:
        order = tuple(range(n))
    elif sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all players")

    native_reports = [solve_native(s, p, restarts=restarts, gap_tol=gap_tol)
                      for p in range(n)]
    phase1 = np.array([r.value for r in native_reports])
    x_total = np.zeros((n, m, k))
    for r in native_reports:
        x_total += r.allocation.x
    residual_reqs = np.clip(s.requests - x_total.sum(axis=0), 0.0, None)
    residual_caps = np.clip(s.capacities - x_total.sum(axis=1), 0.0, None)

    phase2 = np.zeros(n)
    for p in order:
        report = solve_residual(s, p, residual_caps[p], residual_reqs,
                                restarts=restarts, gap_tol=gap_tol)
        phase2[p] = report.value
        sold = report.allocation.x[p]
        x_total[p] += sold
        residual_reqs = np.clip(residual_reqs - sold, 0.0, None)
        residual_caps[p] = np.clip(residual_caps[p] - sold.sum(axis=0), 0.0, None)

    payoffs = s.w * phase1 + s.zeta * phase2
    return FastCoreResult(
        payoffs=payoffs,
        allocation=Allocation(x_total),
        phase1=phase1,
        phase2=phase2,
        order=tuple(order),
    )
