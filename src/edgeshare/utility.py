"""Utility evaluation and income attribution.

Each application i contributes a per-resource satisfaction term g_ik(t)
evaluated at its cumulative receipt t: logistic expit(mu*(t - r_ik)) for
sigmoid owners, c_ik*t for linear owners.  Under sharing, credit for an
application's satisfaction is attributed sequentially: the native owner
is credited first (the full term at its own supply, baseline included),
then each foreign supplier in ascending player index earns the lift its
contribution adds on top of everything already allocated.  Zero supply
therefore earns exactly zero sharing income, and with uniform weights the
coalition objective collapses to total satisfaction at total receipt.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
        is_sig = np.array([s.utilities[o].kind == "sigmoid" for o in own])
        mu = np.array([s.utilities[o].mu or 0.0 for o in own])
        coeffs = s.coeff_matrix() if apps is None else s.coeff_matrix()[apps]
        return cls(is_sig, mu, coeffs, req)

    def with_requests(self, requests: np.ndarray) -> "AppTerms":
        return AppTerms(self.is_sigmoid, self.mu, self.coeffs, requests)

    def value(self, received: np.ndarray) -> np.ndarray:
        """g_ik at the given receipts; broadcasts over leading axes of a
        (..., M, K) receipt array."""
        sig = expit(self.mu[:, None] * (received - self.requests))
        return np.where(self.is_sigmoid[:, None], sig, self.coeffs * received)

    def slope(self, received: np.ndarray) -> np.ndarray:
        """dg_ik/dt at the given receipts, same broadcasting as value."""
        p = expit(self.mu[:, None] * (received - self.requests))
        return np.where(self.is_sigmoid[:, None], self.mu[:, None] * p * (1 - p), self.coeffs)


@dataclass(frozen=True)
class CoalitionProblem:
    """Precomputed machinery for one coalition's allocation problem.

    Local coordinates: row t of a local allocation (S, MS, K) belongs to
    members[t]; column i to apps[i].  ord_pos holds, per app, the member
    positions in attribution order (owner first, then ascending index);
    zseq the matching credit weights (w for the owner slot, zeta after).
    """

    members: tuple[int, ...]
    apps: np.ndarray  # (MS,) global app indices
    caps: np.ndarray  # (S, K)
    reqs: np.ndarray  # (MS, K)
    terms: AppTerms
    ord_pos: np.ndarray  # (MS, S)
    zseq: np.ndarray  # (MS, S)
    uniform_weight: float | None  # common w == zeta across members, if any

    @classmethod
    def build(cls, s: Scenario, coalition: Coalition) -> "CoalitionProblem":
        members = tuple(p for p in coalition.members() if p < s.n_players)
        if not members:
            raise ValueError("coalition has no members inside the scenario")
        mem = np.array(members)
        apps = np.flatnonzero(np.isin(s.owner, mem))
        own = s.owner[apps]
        ms, size = len(apps), len(members)
        pos_of = {p: t for t, p in enumerate(members)}
        owner_pos = np.array([pos_of[o] for o in own])
        ord_pos = np.empty((ms, size), dtype=int)
        ord_pos[:, 0] = owner_pos
        others = np.tile(np.arange(size), (ms, 1))
        keep = others != owner_pos[:, None]
        ord_pos[:, 1:] = others[keep].reshape(ms, size - 1)
        zseq = s.zeta[mem[ord_pos]]
        zseq[:, 0] = s.w[own]
        weights = np.concatenate([s.w[mem], s.zeta[mem]])
        uniform = float(weights[0]) if np.all(weights == weights[0]) else None
        return cls(
            members=members,
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

    # -- objective in local coordinates ------------------------------------

    def _sorted_cumulative(self, x_local: np.ndarray) -> np.ndarray:
        xt = x_local.transpose(1, 0, 2)  # (MS, S, K)
        ordered = np.take_along_axis(xt, self.ord_pos[:, :, None], axis=1)
        return np.cumsum(ordered, axis=1)

    def credits(self, x_local: np.ndarray) -> np.ndarray:
        """Unweighted credit of each attribution slot, (MS, S, K): the term
        at the slot's cumulative receipt less the term before it."""
        cum = self._sorted_cumulative(x_local)
        g = self.terms.value(cum.transpose(1, 0, 2)).transpose(1, 0, 2)
        return np.concatenate([g[:, :1, :], np.diff(g, axis=1)], axis=1)

    def objective(self, x_local: np.ndarray) -> float:
        """Weighted coalition objective: w_j-weighted owner terms plus
        zeta-weighted sequential sharing credits."""
        if self.uniform_weight is not None:
            total = x_local.sum(axis=0)
            return float(self.uniform_weight * self.terms.value(total).sum())
        return float((self.zseq[:, :, None] * self.credits(x_local)).sum())

    def gradient(self, x_local: np.ndarray) -> np.ndarray:
        if self.uniform_weight is not None:
            total = x_local.sum(axis=0)
            g = self.uniform_weight * self.terms.slope(total)
            return np.broadcast_to(g, x_local.shape).copy()
        cum = self._sorted_cumulative(x_local)
        gp = self.terms.slope(cum.transpose(1, 0, 2)).transpose(1, 0, 2)  # (MS, S, K)
        grad_sorted = np.empty_like(gp)
        grad_sorted[:, -1, :] = self.zseq[:, -1, None] * gp[:, -1, :]
        for t in range(self.size - 2, -1, -1):
            step = (self.zseq[:, t] - self.zseq[:, t + 1])[:, None]
            grad_sorted[:, t, :] = grad_sorted[:, t + 1, :] + step * gp[:, t, :]
        out = np.empty_like(grad_sorted)
        np.put_along_axis(out, self.ord_pos[:, :, None], grad_sorted, axis=1)
        return out.transpose(1, 0, 2)

    # -- embedding ----------------------------------------------------------

    def to_global(self, s: Scenario, x_local: np.ndarray) -> Allocation:
        x = np.zeros((s.n_players, s.m_total, s.n_resources))
        x[np.ix_(list(self.members), self.apps, range(s.n_resources))] = x_local
        return Allocation(x)

    def from_global(self, alloc: Allocation) -> np.ndarray:
        return alloc.x[np.ix_(list(self.members), self.apps)]


# ---------------------------------------------------------------------------
# reporting-level evaluation on concrete allocations


def eval_own(s: Scenario, alloc: Allocation, n: int) -> float:
    """Utility player n's own applications enjoy at their total receipt,
    foreign top-ups included."""
    apps = s.apps_of(n)
    total = alloc.total_received()[apps]
    return float(AppTerms.from_scenario(s, apps).value(total).sum())


def eval_shared(s: Scenario, alloc: Allocation, n: int) -> dict[int, float]:
    """Sharing income of supplier n, split by the application owner it
    serves: the satisfaction lift of n's contribution on top of what was
    already allocated (native supply first, lower player indices next).
    All-zero foreign supply maps to all-zero income."""
    return breakdown(s, alloc)[n].shared


@dataclass(frozen=True)
class UtilityBreakdown:
    """Per-player income split for one allocation.

    own is what the player retains on its native applications after foreign
    suppliers' credits are carved out (it equals eval_own when nobody tops
    the player's applications up); shared maps each other player j to the
    income earned by serving j's applications.
    """

    player: int
    own: float
    shared: dict[int, float]
    weighted_total: float


def breakdown(s: Scenario, alloc: Allocation) -> tuple[UtilityBreakdown, ...]:
    """Split an allocation's value player by player.

    The weighted totals sum to the coalition objective at this allocation:
    sum_n w_n*own_n + zeta_n*sum_j shared_n[j].
    """
    # with every player a member, local member positions are player indices
    prob = CoalitionProblem.build(s, Coalition.grand(s.n_players))
    credits = prob.credits(prob.from_global(alloc))  # (M, N, K)
    owners = s.owner[prob.apps]
    results = []
    for n in range(s.n_players):
        own = float(credits[owners == n, 0, :].sum())
        slot_of_n = np.argmax(prob.ord_pos == n, axis=1)
        per_app = np.take_along_axis(credits, slot_of_n[:, None, None], axis=1)[:, 0, :].sum(axis=1)
        shared = {
            j: float(per_app[owners == j].sum())
            for j in range(s.n_players)
            if j != n
        }
        total = float(s.w[n] * own + s.zeta[n] * sum(shared.values()))
        results.append(UtilityBreakdown(player=n, own=own, shared=shared, weighted_total=total))
    return tuple(results)


def coalition_objective(s: Scenario, alloc: Allocation, coalition: Coalition) -> float:
    """The characteristic-function objective evaluated at a concrete
    allocation (no optimization)."""
    prob = CoalitionProblem.build(s, coalition)
    return prob.objective(prob.from_global(alloc))
