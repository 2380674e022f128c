"""Utility evaluation and income attribution.

Each application i contributes a per-resource satisfaction term g_ik(t)
evaluated at its cumulative receipt t: logistic 1/(1 + exp(mu*(r_ik - t)))
for sigmoid owners, c_ik*t for linear owners.  Under sharing, credit for an
application's satisfaction is attributed sequentially: the native owner
is credited first (the full term at its own supply, baseline included),
then each foreign supplier in ascending player index earns the lift its
contribution adds on top of everything already allocated.  Zero supply
therefore earns exactly zero sharing income, and with uniform weights the
coalition objective collapses to total satisfaction at total receipt.

The logistic is evaluated in numpy, in place, so evaluating terms loads
no scipy module: a uniform-weight sigmoid `run` or `verify` loads none,
and scipy loads only with the first transport LP (`solver._highs`).
Importing scipy.special for its expit cost about 19 MB resident and 0.2-0.3 s
per process (2 cores), against about 20 ms for the 23 solves of a 4x20
`run --method both`.  numpy's exp rounds differently from libm's on some
arguments (the logistic moved by 1-4 ulp on 1.9 % of 4 M uniform ones,
AVX-512 kernel), so values may move by rounding alone.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Allocation, Coalition, Scenario


@dataclass(frozen=True)
class AppTerms:
    """Per-application term parameters stacked over an app subset."""

    is_sigmoid: np.ndarray  # (M,) bool
    mu: np.ndarray  # (M,) float, 0 where linear
    coeffs: np.ndarray  # (M, K) float, ignored where sigmoid
    requests: np.ndarray  # (M, K)

    @classmethod
    def from_scenario(cls, s: Scenario, apps: np.ndarray | None = None) -> "AppTerms":
        own = s.owner if apps is None else s.owner[apps]
        req = s.requests if apps is None else s.requests[apps]
        # per player, then per app; float mu so an integer mu from JSON
        # forms the same products
        is_sig = np.array([u.kind == "sigmoid" for u in s.utilities])
        mu = np.array([u.mu or 0.0 for u in s.utilities], dtype=float)
        coeffs = s.coeff_matrix() if apps is None else s.coeff_matrix()[apps]
        return cls(is_sig[own], mu[own], coeffs, req)

    def with_requests(self, requests: np.ndarray) -> "AppTerms":
        return AppTerms(self.is_sigmoid, self.mu, self.coeffs, requests)

    @cached_property
    def all_sigmoid(self) -> bool:
        """Every term is sigmoid: value and slope skip the linear branch."""
        return bool(self.is_sigmoid.all())

    @cached_property
    def all_linear(self) -> bool:
        """No term is sigmoid: value and slope skip the logistic pass."""
        return not self.is_sigmoid.any()

    def _logistic(self, received: np.ndarray) -> np.ndarray:
        """1/(1 + exp(mu*(r - t))) in one fresh array; an exp that
        overflows gives exactly 0, as scipy's expit does."""
        e = self.mu[:, None] * (self.requests - received)
        with np.errstate(over="ignore"):
            np.exp(e, out=e)
        e += 1
        return np.reciprocal(e, out=e)

    def _value(self, received: np.ndarray, p: np.ndarray) -> np.ndarray:
        if self.all_sigmoid:
            return p
        return np.where(self.is_sigmoid[:, None], p, self.coeffs * received)

    def value(self, received: np.ndarray) -> np.ndarray:
        """g_ik at the given receipts; broadcasts over leading axes of a
        (..., M, K) receipt array."""
        if self.all_linear:
            return self.coeffs * received
        return self._value(received, self._logistic(received))

    def value_and_slope(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """value and the slopes dg_ik/dt at the given receipts, from one
        logistic pass, same broadcasting as value."""
        if self.all_linear:
            g = self.coeffs * received
            return g, np.broadcast_to(self.coeffs, g.shape)
        p = self._logistic(received)
        slope = self.mu[:, None] * p * (1 - p)
        if not self.all_sigmoid:
            slope = np.where(self.is_sigmoid[:, None], slope, self.coeffs)
        return self._value(received, p), slope


@dataclass(frozen=True)
class CoalitionProblem:
    """Precomputed machinery for one coalition's allocation problem.

    Local coordinates, the layout of Scenario.local_axes: row t of a local
    allocation (S, MS, K) belongs to members[t], column i to apps[i].  The
    coalition's solve returns its allocation, and the characteristic
    table stores it, in this layout.  ord_pos holds, per app, the member
    positions in attribution order (owner first, then ascending index);
    zseq the matching credit weights (w for the owner slot, zeta after).
    Objective, credits and gradient broadcast over leading axes of a
    (..., S, MS, K) allocation, one batch index per Frank-Wolfe restart.
    """

    members: tuple[int, ...]
    apps: np.ndarray  # (MS,) global app indices
    caps: np.ndarray  # (S, K)
    reqs: np.ndarray  # (MS, K)
    terms: AppTerms
    ord_pos: np.ndarray  # (MS, S)
    zseq: np.ndarray  # (MS, S)
    uniform_weight: float | None  # the one value of zseq, if all are equal

    @classmethod
    def build(cls, s: Scenario, coalition: Coalition) -> "CoalitionProblem":
        mem, apps = s.local_axes(coalition.mask)
        if not mem.size:
            raise ValueError("coalition has no members inside the scenario")
        size = mem.size
        own = s.owner[apps]
        owner_pos = np.searchsorted(mem, own)  # member position of each app's owner
        ord_pos = np.empty((len(apps), size), dtype=int)
        ord_pos[:, 0] = owner_pos
        # the other positions ascending: j below the owner's, j + 1 from it on
        rest = np.arange(size - 1)
        ord_pos[:, 1:] = rest + (rest >= owner_pos[:, None])
        zseq = s.zeta[mem[ord_pos]]
        zseq[:, 0] = s.w[own]
        # w alone for one member; every w and zeta for more, since each
        # member owns an application
        uniform = float(zseq[0, 0]) if np.all(zseq == zseq[0, 0]) else None
        return cls(
            members=tuple(mem.tolist()),
            apps=apps,
            caps=s.capacities[mem],
            reqs=s.requests[apps],
            terms=AppTerms.from_scenario(s, apps),
            ord_pos=ord_pos,
            zseq=zseq,
            uniform_weight=uniform,
        )

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def convex(self) -> bool:
        """The objective is convex on the feasible set.  By Abel summation it
        is sum_t (zseq_t - zseq_t+1) * g(c_t) + zseq_last * g(c_last) over
        the cumulative receipts c_t of each app, and every term g is convex
        at receipts up to its request; so non-increasing zseq rows with a
        nonnegative last entry suffice (uniform weights, or any w >= zeta
        shared by all members)."""
        return bool(np.all(np.diff(self.zseq, axis=1) <= 0) and np.all(self.zseq[:, -1] >= 0))

    # -- objective in local coordinates ------------------------------------

    @cached_property
    def _by_slot(self) -> tuple[np.ndarray, np.ndarray]:
        """Fancy index of a (..., S, MS, K) allocation in attribution order:
        x[..., rows, cols, :][..., t, i, :] is what app i's t-th slot supplies."""
        return self.ord_pos.T, np.arange(len(self.apps))

    def _sorted_cumulative(self, x_local: np.ndarray) -> np.ndarray:
        """Cumulative receipts in attribution order, (..., S, MS, K)."""
        rows, cols = self._by_slot
        return np.cumsum(x_local[..., rows, cols, :], axis=-3)

    @staticmethod
    def _slot_credits(g: np.ndarray) -> np.ndarray:
        """Each slot's term less the term before it, from the terms g at
        the slots' cumulative receipts."""
        return np.concatenate([g[..., :1, :, :], np.diff(g, axis=-3)], axis=-3)

    def credits(self, x_local: np.ndarray) -> np.ndarray:
        """Unweighted credit of each attribution slot, (..., S, MS, K): the
        term at the slot's cumulative receipt less the term before it."""
        return self._slot_credits(self.terms.value(self._sorted_cumulative(x_local)))

    def _weighted_sum(self, credits: np.ndarray) -> np.ndarray:
        weighted = self.zseq.T[:, :, None] * credits
        # summed app-major, (MS, S, K): a slot-major sum rounds differently
        lead = credits.shape[:-3]
        return np.swapaxes(weighted, -3, -2).reshape(lead + (-1,)).sum(axis=-1)

    def _gradient_of(self, gp: np.ndarray) -> np.ndarray:
        """The gradient from the term slopes gp at the slots' cumulative
        receipts: slot t of an app collects the weight steps of every slot
        from t on."""
        grad_sorted = np.empty_like(gp)
        grad_sorted[..., -1, :, :] = self.zseq[:, -1, None] * gp[..., -1, :, :]
        for t in range(self.size - 2, -1, -1):
            step = (self.zseq[:, t] - self.zseq[:, t + 1])[:, None]
            grad_sorted[..., t, :, :] = grad_sorted[..., t + 1, :, :] + step * gp[..., t, :, :]
        rows, cols = self._by_slot
        out = np.empty_like(grad_sorted)
        out[..., rows, cols, :] = grad_sorted
        return out

    def objective(self, x_local: np.ndarray) -> np.ndarray:
        """Weighted coalition objective, one value per leading index (a
        numpy scalar for one allocation): w_j-weighted owner terms plus
        zeta-weighted sequential sharing credits."""
        return self._weighted_sum(self.credits(x_local))

    def evaluate(self, x_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """objective, bit for bit, and its gradient (..., S, MS, K), from
        one cumulative sum and one logistic pass."""
        g, gp = self.terms.value_and_slope(self._sorted_cumulative(x_local))
        return self._weighted_sum(self._slot_credits(g)), self._gradient_of(gp)


# ---------------------------------------------------------------------------
# reporting-level evaluation on concrete allocations


@dataclass(frozen=True)
class UtilityBreakdown:
    """Per-player income split for one allocation.

    own is what the player retains on its native applications after foreign
    suppliers' credits are carved out (with nobody topping them up, their
    utility at the player's own supply); shared maps each other player j to
    the income earned by serving j's applications: the satisfaction lift of
    the player's contribution on top of what was already allocated (native
    supply first, lower player indices next), all zero when it supplies
    nothing.
    """

    player: int
    own: float
    shared: dict[int, float]
    weighted_total: float


def breakdown(s: Scenario, alloc: Allocation | Sequence[Allocation]):
    """Split an allocation's value player by player.

    The weighted totals sum to the coalition objective at this allocation:
    sum_n w_n*own_n + zeta_n*sum_j shared_n[j].  Given a sequence of
    allocations instead of one, split them all in one pass over their
    stack and return one such tuple per allocation.
    """
    if isinstance(alloc, Allocation):
        return breakdown(s, [alloc])[0]
    if not alloc:
        return []
    n_players = s.n_players
    # with every player a member, local coordinates are global ones
    prob = CoalitionProblem.build(s, Coalition.grand(n_players))
    credits = prob.credits(np.stack([a.x for a in alloc]))  # (B, N, M, K) by slot
    lead = len(credits)
    owned = [s.owner == n for n in range(n_players)]
    # per player n and app i: the credit of n's slot in i's order, (B, N, M)
    slot = np.argmax(prob.ord_pos == np.arange(n_players)[:, None, None], axis=2)
    per_app = credits[:, slot, np.arange(s.m_total), :].sum(axis=-1)
    # every owner sum runs over a contiguous copy, in the order (and so
    # with the rounding) of the sum over one allocation's owner block
    own = np.stack([np.ascontiguousarray(credits[:, 0, mine]).reshape(lead, -1).sum(axis=1)
                    for mine in owned], axis=1)  # (B, N)
    shared = np.stack([np.ascontiguousarray(per_app[..., mine]).sum(axis=-1)
                       for mine in owned], axis=-1)  # (B, N, N)
    total = np.stack([s.w[n] * own[:, n]
                      + s.zeta[n] * sum(shared[:, n, j] for j in range(n_players) if j != n)
                      for n in range(n_players)], axis=1)
    own, shared, total = own.tolist(), shared.tolist(), total.tolist()
    return [tuple(UtilityBreakdown(player=n, own=own[b][n],
                                   shared={j: v for j, v in enumerate(shared[b][n]) if j != n},
                                   weighted_total=total[b][n])
                  for n in range(n_players))
            for b in range(lead)]


def coalition_objective(s: Scenario, alloc: Allocation, coalition: Coalition) -> float:
    """The characteristic-function objective evaluated at a concrete
    allocation (no optimization), in the coalition's own coordinates
    (Scenario.local_axes); for the grand coalition those are (N, M, K)."""
    prob = CoalitionProblem.build(s, coalition)
    want = (prob.size, len(prob.apps), s.n_resources)
    if alloc.x.shape != want:
        raise ValueError(f"allocation shape {alloc.x.shape} is not {want}")
    return float(prob.objective(alloc.x))
