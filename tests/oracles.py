"""Independent oracles the suite checks the library against.

Nothing here imports the package: every value is recomputed from first
principles (closed forms, exhaustive lattice search, permutation sums,
a hand-traced two-phase split) so a library bug cannot certify itself.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def sigmoid_term(x, mu, r):
    """Per-entry satisfaction 1/(1+e^{-mu(x-r)}) without scipy."""
    return 1.0 / (1.0 + np.exp(-mu * (np.asarray(x, dtype=float) - r)))


def eval_own(s, x, n) -> float:
    """Utility player n's own applications enjoy at their total receipt
    from every supplier of the (N, M, K) allocation x, foreign top-ups
    included: 1/(1+e^{-mu(t-r)}) per entry for a sigmoid owner, c*t for a
    linear one (c = 1 unless its spec lists coefficients).  s is read for
    its owner, requests and utilities fields only."""
    apps = np.flatnonzero(np.asarray(s.owner) == n)
    total = np.asarray(x, dtype=float).sum(axis=0)[apps]
    spec = s.utilities[n]
    if spec.kind == "sigmoid":
        return float(sigmoid_term(total, spec.mu, np.asarray(s.requests)[apps]).sum())
    coeffs = 1.0 if spec.coeffs is None else np.asarray(spec.coeffs, dtype=float)
    return float((coeffs * total).sum())


def minform_value(caps, own_demand, members) -> float:
    """Unit-coefficient linear coalition value in closed form.

    With every coefficient 1 the coalition LP decouples per resource and
    its optimum is min(total member capacity, total member demand):
    any transportation pattern can realize that flow and no pattern can
    beat either bound.

    caps: (N, K); own_demand: (N, K) per-player native request totals.
    """
    members = list(members)
    if not members:
        return 0.0
    c = np.asarray(caps, dtype=float)[members].sum(axis=0)
    d = np.asarray(own_demand, dtype=float)[members].sum(axis=0)
    return float(np.minimum(c, d).sum())


def shapley_by_permutations(n: int, value_of) -> np.ndarray:
    """Average marginal contribution over all n! join orders.

    value_of takes a frozenset of player indices. Deliberately the slow
    textbook definition so it shares nothing with the subset-sum formula.
    """
    phi = np.zeros(n)
    perms = list(itertools.permutations(range(n)))
    for order in perms:
        seen: set[int] = set()
        prev = 0.0
        for p in order:
            seen.add(p)
            cur = value_of(frozenset(seen))
            phi[p] += cur - prev
            prev = cur
    return phi / len(perms)


def shapley_by_loop(n: int, value_of) -> np.ndarray:
    """The subset-sum Shapley formula as a plain loop over masks: for each
    player, a running total from 0.0 of weight(|S|) * (v(S + p) - v(S))
    over the masks S without p, ascending.  value_of takes a mask."""
    fact = [math.factorial(i) for i in range(n + 1)]
    weights = [fact[size] * fact[n - size - 1] / fact[n] for size in range(n)]
    phi = np.zeros(n)
    for player in range(n):
        bit = 1 << player
        for mask in range(1 << n):
            if not mask & bit:
                phi[player] += weights[mask.bit_count()] * (value_of(mask | bit) - value_of(mask))
    return phi


def member_sums_by_loop(payoffs) -> np.ndarray:
    """Total payoff of each coalition's members, indexed by mask: each
    mask's sum is that of the mask without its lowest member, plus that
    member's payoff."""
    sums = np.zeros(1 << len(payoffs))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + payoffs[low.bit_length() - 1]
    return sums


def two_phase_split(caps, own_demand, w, zeta):
    """Hand-traced unit-linear two-phase payoff split.

    Phase one: every provider serves its own demand, min(C, D) per
    resource.  Phase two: providers in ascending index sell leftover
    capacity to the pool of still-unmet foreign demand, buyers taken in
    ascending player index.  Returns (payoffs, phase1, phase2).
    """
    caps = np.asarray(caps, dtype=float)
    own = np.asarray(own_demand, dtype=float)
    n, k = caps.shape
    phase1 = np.minimum(caps, own).sum(axis=1)
    leftover = np.maximum(caps - own, 0.0)
    unmet = np.maximum(own - caps, 0.0)
    phase2 = np.zeros(n)
    for seller in range(n):
        for res in range(k):
            avail = leftover[seller, res]
            for buyer in range(n):
                if buyer == seller or avail <= 0:
                    continue
                lot = min(avail, unmet[buyer, res])
                unmet[buyer, res] -= lot
                avail -= lot
                phase2[seller] += lot
    payoffs = np.asarray(w, dtype=float) * phase1 + np.asarray(zeta, dtype=float) * phase2
    return payoffs, phase1, phase2


def grid_best(caps, reqs, term_batch, step=0.01):
    """Exhaustive lattice search over allocations x of shape (U, I, K).

    caps (U, K) bounds each supplier's row sums, reqs (I, K) bounds each
    application's column sums.  term_batch maps a batch of total-receipt
    matrices (B, I, K) to objective values (B,).  Enumeration is chunked
    over the first variable so memory stays flat; intended for instances
    with at most four nonzero variables.
    """
    caps = np.asarray(caps, dtype=float)
    reqs = np.asarray(reqs, dtype=float)
    n_u, n_k = caps.shape
    n_i = reqs.shape[0]
    triples = [(u, i, k) for u in range(n_u) for i in range(n_i) for k in range(n_k)]
    axes = [np.arange(0.0, min(caps[u, k], reqs[i, k]) + step / 2, step)
            for (u, i, k) in triples]
    rest = axes[1:]
    if rest:
        mesh = np.meshgrid(*rest, indexing="ij")
        flat_rest = np.stack([g.ravel() for g in mesh], axis=1)
    else:
        flat_rest = np.zeros((1, 0))
    batch = flat_rest.shape[0]
    best_v, best_x = -np.inf, None
    for v0 in axes[0]:
        x = np.zeros((batch, n_u, n_i, n_k))
        x[:, triples[0][0], triples[0][1], triples[0][2]] = v0
        for col, (u, i, k) in enumerate(triples[1:]):
            x[:, u, i, k] = flat_rest[:, col]
        ok = np.ones(batch, dtype=bool)
        for u in range(n_u):
            for k in range(n_k):
                ok &= x[:, u, :, k].sum(axis=1) <= caps[u, k] + 1e-12
        for i in range(n_i):
            for k in range(n_k):
                ok &= x[:, :, i, k].sum(axis=1) <= reqs[i, k] + 1e-12
        if not ok.any():
            continue
        vals = term_batch(x[ok].sum(axis=1))
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v = float(vals[j])
            best_x = x[ok][j]
    return best_v, best_x


def brute_force_transport(profit, supplies, demands) -> float:
    """Integer-data exhaustive optimum of max sum profit_ui * x_ui over
    x >= 0 with row sums <= supplies and column sums <= demands (the
    constraint matrix is totally unimodular, so an integral optimum
    exists): every integral x with x_ui <= min(supplies_u, demands_i),
    enumerated as one array, so keep the product of those ranges small."""
    profit = np.asarray(profit, dtype=float)
    supplies = np.asarray(supplies, dtype=float)
    demands = np.asarray(demands, dtype=float)
    u_n, i_n = profit.shape
    top = np.minimum.outer(supplies, demands).astype(int).ravel()
    x = np.indices(tuple(top + 1)).reshape(top.size, -1).T.astype(float).reshape(-1, u_n, i_n)
    ok = ((x.sum(axis=2) <= supplies + 1e-9).all(axis=1)
          & (x.sum(axis=1) <= demands + 1e-9).all(axis=1))
    return max(0.0, float((x[ok] * profit).sum(axis=(1, 2)).max()))


def restart_draws(seed, tag, ident, restarts, width) -> np.ndarray:
    """The doubles the start points of one solve draw, one row of width
    per restart r = 1 .. restarts - 1, each from its own generator:
    default_rng(SeedSequence([seed, tag, ident, r])), a None seed read as
    0.  This is the per-restart construction the solver's block seeding
    must reproduce bit for bit."""
    draws = np.empty((restarts - 1, width))
    for r, row in enumerate(draws, start=1):
        rng = np.random.default_rng(np.random.SeedSequence([seed or 0, tag, ident, r]))
        row[:] = rng.random(width)
    return draws


def feasibility_violations(x, caps, reqs, tol=1e-9):
    """Raw-numpy feasibility audit of an (U, I, K) allocation."""
    x = np.asarray(x, dtype=float)
    caps = np.asarray(caps, dtype=float)
    reqs = np.asarray(reqs, dtype=float)
    out = []
    if x.min(initial=0.0) < -tol:
        out.append(f"negative entry {x.min()}")
    row = x.sum(axis=1) - caps
    if row.max(initial=0.0) > tol:
        out.append(f"capacity exceeded by {row.max()}")
    col = x.sum(axis=0) - reqs
    if col.max(initial=0.0) > tol:
        out.append(f"request exceeded by {col.max()}")
    return out


def embed(s, mask, x_local):
    """A coalition's (|S|, M_S, K) allocation placed in an (N, M, K) array
    of zeros: row t is the t-th member in ascending index, column i the
    i-th of the members' applications in ascending index.  s is read for
    its n_players, n_resources and owner fields only."""
    members = [p for p in range(s.n_players) if mask >> p & 1]
    apps = [i for i, p in enumerate(s.owner) if mask >> int(p) & 1]
    x = np.zeros((s.n_players, len(s.owner), s.n_resources))
    x[np.ix_(members, apps)] = x_local
    return x


def factored_staircase(alpha, gamma, supplies, demands):
    """Northwest-corner maximizer for profits alpha_u * gamma_i, built the
    long way: sort rows by decreasing alpha and columns by decreasing gamma
    (stable, zero factors ship nothing), fill the (..., S, M) staircase in
    sorted order, then move every row and column back to its index."""
    order_u = np.argsort(-alpha, axis=-1, kind="stable")
    order_i = np.argsort(-gamma, axis=-1, kind="stable")
    su = np.where(np.take_along_axis(alpha, order_u, -1) > 0,
                  np.take_along_axis(supplies, order_u, -1), 0.0)
    di = np.where(np.take_along_axis(gamma, order_i, -1) > 0,
                  np.take_along_axis(demands, order_i, -1), 0.0)
    cu, ci = np.cumsum(su, axis=-1), np.cumsum(di, axis=-1)
    lo = np.maximum((cu - su)[..., :, None], (ci - di)[..., None, :])
    hi = np.minimum(cu[..., :, None], ci[..., None, :])
    sorted_x = np.clip(hi - lo, 0.0, None)
    rank_u = np.argsort(order_u, axis=-1)[..., :, None]
    rank_i = np.argsort(order_i, axis=-1)[..., None, :]
    return np.take_along_axis(np.take_along_axis(sorted_x, rank_u, -2), rank_i, -1)


def greedy_fill(profits, budget, ubs):
    """Fractional-knapsack fill of profits (R, M, K), one row at a time:
    per batch index and resource, the items in Python's stable sorted
    order of decreasing profit (ties to the lowest index), each taking
    its cap ubs (M, K) clipped to what the budget (K,) has left after the
    caps before it, a running sum; an item whose profit is not positive
    takes nothing and uses nothing."""
    profits = np.asarray(profits, dtype=float)
    rows, m, k = profits.shape
    x = np.zeros((rows, m, k))
    for r in range(rows):
        for j in range(k):
            used = 0.0
            for i in sorted(range(m), key=lambda i: -profits[r, i, j]):
                if profits[r, i, j] > 0:
                    room, cap = float(budget[j]) - used, float(ubs[i, j])
                    # the clip to [0, cap]: 0 for a room of -0.0 too, and
                    # the cap where room equals it
                    x[r, i, j] = cap if room >= cap else (room if room > 0.0 else 0.0)
                    used += cap
    return x


def own_fill(profit, later, amounts, budget, owner):
    """Each owner's fractional-knapsack fill of its own applications,
    batched rows (B, M): item i takes up to amounts_i from its owner's
    budget (B, S), in decreasing profit, then `later` False before True,
    then lowest index."""
    rows, m = profit.shape
    at = (np.lexsort((later, -profit), axis=-1) + np.arange(0, rows * m, m)[:, None]).ravel()
    amt, whose = amounts.ravel()[at], owner[at % m]
    run = np.zeros((rows * m, budget.shape[1]))
    item = np.arange(rows * m)
    run[item, whose] = amt
    before = np.zeros_like(run)
    np.cumsum(run.reshape(rows, m, -1)[:, :-1], axis=1,
              out=before.reshape(rows, m, -1)[:, 1:])
    fill = np.empty(rows * m)
    fill[at] = np.clip(budget[item // m, whose] - before[item, whose], 0.0, amt)
    return fill.reshape(rows, m)


def own_foreign_receipts(a, b, reqs, caps, owner):
    """Receipts (B, M) of the own/foreign oracle's pooled row by the first
    price search: a bisection over every breakpoint, 0, b_i, a_i and
    a_j - d_i for every two applications of one owner, duplicates and
    all, from the full range.  Each row: foreign credit b, owner's credit
    a = b + d, requests, member capacities caps (B, S), owner_i the member
    owning application i.  At price p own supply earns min(d, a - p)+ and
    every request whose b beats p is filled; the least p whose receipts
    just above it fit in the pooled capacity is mixed with the receipts
    just below it to fill that capacity exactly."""
    rows, m = a.shape
    pooled = caps.sum(axis=1)

    def receipts(price, above):
        p, up = price[..., None], np.asarray(above)[..., None]
        foreign = np.where(up, b[:, None] > p, b[:, None] >= p)
        allowed = foreign | np.where(up, a[:, None] > p, a[:, None] >= p)
        own = own_fill(np.where(foreign, (a - b)[:, None], a[:, None] - p).reshape(-1, m),
                       (foreign ^ up).reshape(-1, m),
                       np.where(allowed, reqs[:, None], 0.0).reshape(-1, m),
                       np.repeat(caps, price.shape[1], axis=0), owner)
        return np.where(foreign, reqs[:, None], own.reshape(foreign.shape))

    mates_i, mates_j = np.nonzero((owner[:, None] == owner) & ~np.eye(m, dtype=bool))
    prices = np.sort(np.maximum(np.concatenate(
        [np.zeros((rows, 1)), b, a, a[:, mates_j] - (a - b)[:, mates_i]], axis=1), 0.0), axis=1)
    at = np.arange(rows)
    lo, hi = np.full(rows, -1), np.full(rows, prices.shape[1] - 1)
    while (live := hi - lo > 1).any():
        mid = (lo + hi) // 2
        fits = receipts(prices[at, mid, None], True)[:, 0].sum(axis=-1) <= pooled
        hi, lo = np.where(live & fits, mid, hi), np.where(live & ~fits, mid, lo)
    price = prices[at, hi]
    t_up, t_down = np.moveaxis(receipts(np.stack([price, price], axis=1), [True, False]), 1, 0)
    u_up, u_down = t_up.sum(axis=1), t_down.sum(axis=1)
    spread = np.where((price > 0) & (u_down > u_up), u_down - u_up, np.inf)
    return t_up + np.clip((pooled - u_up) / spread, 0.0, 1.0)[:, None] * (t_down - t_up)
