"""Game engine: characteristic values, Shapley payoffs, fast core split.

Two payoff pipelines share the same subproblem solvers.  The Shapley route
solves one pooled allocation problem per nonempty coalition (2^N - 1
solves, up to TABLE_PLAYER_LIMIT players), keeps the values as one array
indexed by mask, and averages marginal contributions with one array sweep
per player; the fast route performs one native solve and one
residual-sharing solve per player (2N solves), paying each provider what
its own capacity earns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Allocation, Scenario, all_coalitions
from .solver import (
    DEFAULT_GAP_TOL,
    DEFAULT_RESTARTS,
    SolveReport,
    solve_coalition,
    solve_native,
    solve_residual,
)


# The table stores 2^N - 1 values and keeps every coalition's allocation,
# (|S|, M_S, K) in its own coordinates, in its reports, so time and memory
# double per player.  With 3 linear apps per player on 2 cores, run
# --method both takes about 4.5 s and 136 MB of peak RSS at N = 14, 0.1 s of
# it saving table.npz.  The limit dates from (N, M, K) allocations, when
# N = 14 took 297 MB and N = 15 14 s and 628 MB.
TABLE_PLAYER_LIMIT = 14


@dataclass(frozen=True)
class CharacteristicTable:
    """The value of every nonempty coalition and the solves behind them.

    values[mask - 1] is v(S) for masks 1 ... 2^N - 1, a read-only float
    array; N is read off its length.  reports maps each mask to its solve.
    """

    values: np.ndarray
    reports: dict[int, SolveReport]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1 or (values.size + 1) & values.size:
            raise ValueError("a characteristic table holds 2^N - 1 values, one per "
                             f"nonempty coalition; got shape {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_players(self) -> int:
        return self.values.size.bit_length()

    def value(self, mask: int) -> float:
        """v(S) of the coalition with this mask; the empty one earns 0."""
        return float(self.values[mask - 1]) if mask else 0.0

    def singleton_values(self) -> np.ndarray:
        return self.values[(1 << np.arange(self.n_players)) - 1]


def check_table_limit(n_players: int) -> None:
    """The ValueError of a table above TABLE_PLAYER_LIMIT players, raised
    before anything is solved or written."""
    if n_players > TABLE_PLAYER_LIMIT:
        raise ValueError(
            f"the exact characteristic table is limited to {TABLE_PLAYER_LIMIT} players "
            f"(2^N - 1 coalition solves), and this scenario has N = {n_players}; "
            "run --method fast splits it without a table")


def build_characteristic_table(
    s: Scenario,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> CharacteristicTable:
    """Solve the pooled problem of all 2^N - 1 coalitions, serially in
    ascending mask order.  Above TABLE_PLAYER_LIMIT players nothing is
    solved: that is a ValueError."""
    check_table_limit(s.n_players)
    reports = {c.mask: solve_coalition(s, c, restarts=restarts, gap_tol=gap_tol)
               for c in all_coalitions(s.n_players)}
    return CharacteristicTable(values=[r.value for r in reports.values()], reports=reports)


# ---------------------------------------------------------------------------
# Shapley route


def shapley_from_table(table: CharacteristicTable) -> np.ndarray:
    """Shapley payoff of each player: the factorial-weighted average of its
    marginal contributions over all coalitions not containing it.  Each
    player's sum runs in ascending mask order, one term after another."""
    n = table.n_players
    fact = [math.factorial(i) for i in range(n + 1)]
    weights = np.array([fact[size] * fact[n - size - 1] / fact[n] for size in range(n)])
    size = np.array([mask.bit_count() for mask in range(1 << n)])
    v = np.concatenate(([0.0], table.values))
    phi = np.zeros(n)
    for player in range(n):
        # rows hold the masks without player's bit ([:, 0]) and with it
        # ([:, 1]); raveled, both run in ascending mask order
        pairs = v.reshape(-1, 2, 1 << player)
        terms = (weights[size.reshape(pairs.shape)[:, 0]] * (pairs[:, 1] - pairs[:, 0])).ravel()
        # cumsum adds in sequence, as np.sum does not; the 0.0 + keeps the
        # sign of an all-zero sum what a running total from 0.0 gives
        phi[player] = 0.0 + np.cumsum(terms)[-1]
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

    @property
    def solves(self) -> int:
        return len(self.phase1) + len(self.phase2)


def fast_core(
    s: Scenario,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> FastCoreResult:
    """Two-phase allocation in 2N solves.

    Phase 1: every player serves its own applications from its own
    capacity.  Phase 2: players take turns in ascending index, selling
    leftover capacity against the shrinking pool of foreign residual
    requests; each sale is income for the seller and tops up the buyer's
    applications.
    """
    n, m, k = s.n_players, s.m_total, s.n_resources

    native_reports = [solve_native(s, p, restarts=restarts, gap_tol=gap_tol)
                      for p in range(n)]
    phase1 = np.array([r.value for r in native_reports])
    x_total = np.zeros((n, m, k))
    for r in native_reports:
        x_total += r.allocation.x
    residual_reqs = np.clip(s.requests - x_total.sum(axis=0), 0.0, None)
    residual_caps = np.clip(s.capacities - x_total.sum(axis=1), 0.0, None)

    phase2 = np.zeros(n)
    for p in range(n):
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
    )
