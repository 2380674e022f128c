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
and the first transport LP loads top-level scipy and its HiGHS extension
alone (`solver._highs`).
Importing scipy.special for its expit cost about 19 MB resident and 0.2-0.3 s
per process (2 cores), against about 20 ms for the 23 solves of a 4x20
`run --method both`.  numpy's exp rounds differently from libm's on some
arguments (the logistic moved by 1-4 ulp on 1.9 % of 4 M uniform ones,
AVX-512 kernel), so values may move by rounding alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Coalition, Scenario


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

    def resources(self, k: list[int]) -> "AppTerms":
        """The terms of the resources k (indices along the last axis)."""
        return AppTerms(self.is_sigmoid, self.mu, self.coeffs[:, k], self.requests[:, k])

    @cached_property
    def all_sigmoid(self) -> bool:
        """Every term is sigmoid: value and slope skip the linear branch."""
        return bool(self.is_sigmoid.all())

    @cached_property
    def all_linear(self) -> bool:
        """No term is sigmoid: value and slope skip the logistic pass."""
        return not self.is_sigmoid.any()

    @cached_property
    def exact(self) -> bool:
        """Every term that can receive (nonzero request) is linear."""
        return not (self.is_sigmoid & self.requests.any(axis=1)).any()

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
    terms: AppTerms  # its requests (MS, K) are the coalition's
    ord_pos: np.ndarray  # (MS, S)
    zseq: np.ndarray  # (MS, S)
    uniform_weight: float | None  # the one value of zseq, if all are equal

    @classmethod
    def build(cls, s: Scenario, coalition: Coalition) -> "CoalitionProblem":
        if coalition.mask >> s.n_players:
            raise ValueError(f"coalition {coalition.label()} has players outside the scenario")
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

    @cached_property
    def own_foreign(self) -> bool:
        """Two or more members, one zeta shared by all of them, and every
        owner's w at least that zeta.  Then the gradient (_gradient_of)
        holds, per app and resource, one value b = zeta * g'(c_last) on
        every foreign cell, bit for bit, and b + d with d = (w - zeta) *
        g'(c_owner) >= 0 on the owner's cell, and the objective is
        (w - zeta) * g(o) + zeta * g(t) per app and resource, at the owner's
        own supply o and the total receipts t (own_total), the coordinates
        of the solver's LP-free oracle (solver._lmo_own_total)."""
        shared = self.zseq[:, 1:]
        return bool(self.size > 1 and np.all(shared == shared[0, 0])
                    and np.all(self.zseq[:, 0] >= shared[0, 0]))

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

    # -- own/total coordinates (own_foreign coalitions) ----------------------

    def own_total(self, x_local: np.ndarray) -> np.ndarray:
        """(..., 2, MS, K): each app's own supply o, from its owner's cell,
        then its total receipts t, of a (..., S, MS, K) allocation."""
        rows, cols = self._by_slot
        return np.stack([x_local[..., rows[0], cols, :], x_local.sum(axis=-3)], axis=-3)

    @cached_property
    def _own_total_weights(self) -> np.ndarray:
        """(2, MS, 1): w - zeta on the own supply, zeta on the total."""
        zeta = self.zseq[:, 1]
        return np.stack([self.zseq[:, 0] - zeta, zeta])[:, :, None]

    def own_total_evaluate(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The objective of an own_foreign coalition at own/total points y
        (..., 2, MS, K), sum (w - zeta) * g(o) + zeta * g(t), one value per
        leading index, and its gradient (..., 2, MS, K), (d, b) =
        ((w - zeta) * g'(o), zeta * g'(t)), from one logistic pass.  The
        value equals objective at any allocation y is own_total of, up to
        rounding; an allocation's gradient (evaluate) is b on every foreign
        cell and d + b on the owner's."""
        g, gp = self.terms.value_and_slope(y)
        weighted = self._own_total_weights * g
        return weighted.reshape(g.shape[:-3] + (-1,)).sum(axis=-1), self._own_total_weights * gp


# ---------------------------------------------------------------------------
# reporting-level evaluation on concrete allocations


@dataclass(frozen=True)
class UtilityBreakdown:
    """Per-player income split of a stack of allocations (..., N, M, K).

    own (..., N) is what each player retains on its native applications
    after foreign suppliers' credits are carved out (with nobody topping
    them up, their utility at the player's own supply); shared (..., N, N)
    holds in [..., n, j] the income n earns by serving j's applications:
    the satisfaction lift of n's contribution on top of what was already
    allocated (native supply first, lower player indices next), zero when
    n supplies nothing and on the diagonal.  weighted_total (..., N) is
    w_n*own_n + zeta_n*sum_j shared_n[j].
    """

    own: np.ndarray
    shared: np.ndarray
    weighted_total: np.ndarray


def breakdown(s: Scenario, x: np.ndarray) -> UtilityBreakdown:
    """Split each allocation of a stack (..., N, M, K) player by player.

    The weighted totals of one allocation sum to the grand coalition's
    objective at it.  An array whose last three axes are not (N, M, K) is
    a ValueError.
    """
    n_players = s.n_players
    want = (n_players, s.m_total, s.n_resources)
    if x.shape[-3:] != want:
        raise ValueError(f"allocation shape {x.shape} does not end in {want}")
    # with every player a member, local coordinates are global ones
    prob = CoalitionProblem.build(s, Coalition.grand(n_players))
    credits = prob.credits(x)  # (..., N, M, K) by slot
    lead = credits.shape[:-3]
    owned = [s.owner == n for n in range(n_players)]
    # per player n and app i: the credit of n's slot in i's order, (..., N, M)
    slot = np.argmax(prob.ord_pos == np.arange(n_players)[:, None, None], axis=2)
    per_app = credits[..., slot, np.arange(s.m_total), :].sum(axis=-1)
    # every owner sum runs over a contiguous copy, in the order (and so
    # with the rounding) of the sum over one allocation's owner block
    own = np.stack([np.ascontiguousarray(credits[..., 0, mine, :]).reshape(lead + (-1,))
                    .sum(axis=-1) for mine in owned], axis=-1)
    shared = np.stack([np.ascontiguousarray(per_app[..., mine]).sum(axis=-1)
                       for mine in owned], axis=-1)
    diagonal = np.arange(n_players)
    shared[..., diagonal, diagonal] = 0.0
    # summed over j in sequence, as np.sum does not
    total = s.w * own + s.zeta * np.cumsum(shared, axis=-1)[..., -1]
    return UtilityBreakdown(own=own, shared=shared, weighted_total=total)
