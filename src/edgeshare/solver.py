"""Allocation subproblem solvers.

Every optimization here lives on a product of per-resource transportation
polytopes: ship x_uik >= 0 from providers to applications subject to
per-provider budgets and per-application request caps.  Linear objectives
are solved exactly (greedy for single-provider and factorizable profit
matrices, an LP otherwise); sigmoid objectives run a multi-start
Frank-Wolfe conditional gradient whose linear oracle is the same
transportation machinery.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import Allocation, Coalition, Scenario
from .utility import AppTerms, CoalitionProblem

DEFAULT_RESTARTS = 16
MAX_ITER = 500  # Frank-Wolfe rounds per restart
DEFAULT_GAP_TOL = 1e-6

_NATIVE_TAG, _RESIDUAL_TAG, _COALITION_TAG = 0xA1, 0xB2, 0xC3


class SolveCounter:
    """Monotone counter of optimization subproblems."""

    def __init__(self) -> None:
        self.count = 0

    def increment(self) -> None:
        self.count += 1

    def reset(self) -> None:
        self.count = 0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one subproblem solve."""

    value: float
    allocation: Allocation
    solver_kind: str  # "exact_linear" | "multistart_fw"
    iterations: int
    restarts_used: int
    gap: float
    wall_time: float


# ---------------------------------------------------------------------------
# linear maximization oracles


def _greedy_budget(profits: np.ndarray, budget: float, ubs: np.ndarray) -> np.ndarray:
    """Exact fractional-knapsack fill: one budget, per-item caps.

    Items are taken in decreasing profit order (ties to the lowest index),
    zero/negative-profit items are never shipped.
    """
    order = np.argsort(-profits, kind="stable")
    ub_o = np.where(profits[order] > 0, ubs[order], 0.0)
    prev = np.concatenate([[0.0], np.cumsum(ub_o)[:-1]])
    take = np.clip(budget - prev, 0.0, ub_o)
    x = np.empty_like(take)
    x[order] = take
    return x

def _lmo_factored(alpha: np.ndarray, gamma: np.ndarray,
                  supplies: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Exact maximizer for factorizable profits p_ui = alpha_u * gamma_i.

    Sorting rows by alpha and columns by gamma makes the profit matrix
    inverse-Monge, so the northwest-corner staircase is optimal; it is
    computed as interval overlaps of the sorted cumulative supplies and
    demands.  Ties break toward the lowest provider/application index.
    """
    if np.any(alpha < 0) or np.any(gamma < 0):
        raise ValueError("factored oracle needs nonnegative factors")
    order_u = np.argsort(-alpha, kind="stable")
    order_i = np.argsort(-gamma, kind="stable")
    su = np.where(alpha[order_u] > 0, supplies[order_u], 0.0)
    di = np.where(gamma[order_i] > 0, demands[order_i], 0.0)
    cu, ci = np.cumsum(su), np.cumsum(di)
    lo = np.maximum((cu - su)[:, None], (ci - di)[None, :])
    hi = np.minimum(cu[:, None], ci[None, :])
    staircase = np.clip(hi - lo, 0.0, None)
    x = np.zeros_like(staircase)
    x[np.ix_(order_u, order_i)] = staircase
    return x


def _lmo_linprog(profit: np.ndarray, supplies: np.ndarray, demands: np.ndarray) -> np.ndarray:
    u_count, i_count = profit.shape
    nvars = u_count * i_count
    v = np.arange(nvars)
    rows = np.concatenate([v // i_count, u_count + v % i_count])
    cols = np.concatenate([v, v])
    a_ub = sparse.csr_matrix((np.ones(2 * nvars), (rows, cols)), shape=(u_count + i_count, nvars))
    res = linprog(
        -profit.ravel(),
        A_ub=a_ub,
        b_ub=np.concatenate([supplies, demands]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    x = np.maximum(res.x.reshape(u_count, i_count), 0.0)
    x[profit <= 0] = 0.0
    # strict feasibility despite LP tolerance dust: shrink rows then columns
    row = x.sum(axis=1)
    np.multiply(x, np.where(row > supplies, supplies / np.maximum(row, 1e-300), 1.0)[:, None], out=x)
    col = x.sum(axis=0)
    np.multiply(x, np.where(col > demands, demands / np.maximum(col, 1e-300), 1.0)[None, :], out=x)
    return x


def lmo_transport(profit: np.ndarray, supplies: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Vertex of {x >= 0 : row sums <= supplies, column sums <= demands}
    maximizing sum profit_ui * x_ui.

    Single-row/column instances use the exact greedy fill; the general case
    is delegated to an LP solve.
    """
    profit = np.asarray(profit, dtype=float)
    supplies = np.asarray(supplies, dtype=float)
    demands = np.asarray(demands, dtype=float)
    if profit.shape != (supplies.size, demands.size):
        raise ValueError("profit shape must be (len(supplies), len(demands))")
    if not np.all(np.isfinite(profit)):
        raise ValueError("profits must be finite")
    if np.any(supplies < 0) or np.any(demands < 0):
        raise ValueError("supplies and demands must be >= 0")
    if supplies.size == 1:
        return _greedy_budget(profit[0], float(supplies[0]), demands)[None, :]
    if demands.size == 1:
        return _greedy_budget(profit[:, 0], float(demands[0]), supplies)[:, None]
    return _lmo_linprog(profit, supplies, demands)


# ---------------------------------------------------------------------------
# Frank-Wolfe with golden-section steps


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _best_step(segment_value, coarse: int = 17, refine: int = 24) -> tuple[float, float]:
    """Maximize h(gamma) on [0, 1]: coarse scan, then golden-section around
    the best coarse point.  segment_value maps a gamma vector to h values."""
    grid = np.linspace(0.0, 1.0, coarse)
    vals = segment_value(grid)
    j = int(np.argmax(vals))
    best_g, best_v = float(grid[j]), float(vals[j])
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, coarse - 1)]
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(segment_value(np.array([c]))[0])
    fd = float(segment_value(np.array([d]))[0])
    for _ in range(refine):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(segment_value(np.array([c]))[0])
            cand_g, cand_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(segment_value(np.array([d]))[0])
            cand_g, cand_v = d, fd
        if cand_v > best_v:
            best_g, best_v = cand_g, cand_v
    return best_g, best_v


def _frank_wolfe(objective, gradient, lmo, segment_factory, x0: np.ndarray,
                 gap_tol: float) -> tuple[np.ndarray, float, int, float]:
    """Conditional gradient ascent over a compact polytope.

    Stops when the Frank-Wolfe gap <grad, s - x> drops below
    gap_tol * max(1, |f|) or after MAX_ITER rounds.  Iterates stay feasible
    as convex combinations of vertices.
    """
    x = x0.copy()
    f = objective(x)
    gap = np.inf
    it = 0
    for it in range(1, MAX_ITER + 1):
        g = gradient(x)
        s = lmo(g)
        d = s - x
        gap = float((g * d).sum())
        if gap <= gap_tol * max(1.0, abs(f)):
            break
        step, f_new = _best_step(segment_factory(x, d))
        if f_new <= f or step == 0.0:
            break  # line search cannot improve along this direction
        x = x + step * d
        f = f_new
    return x, f, it, gap


def _restart_rng(s: Scenario, tag: int, ident: int, restart: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([s.seed or 0, tag, ident, restart])
    )


def _multistart_fw(s, tag, ident, objective, gradient, lmo, segment_factory,
                   sample_vertex, shape, restarts, gap_tol):
    """Best of `restarts` Frank-Wolfe runs: restart 0 starts from the zero
    allocation (the first step lands on the linearized warm start), the
    rest from randomly scaled random vertices."""
    best = None
    for r in range(restarts):
        if r == 0:
            x0 = np.zeros(shape)
        else:
            rng = _restart_rng(s, tag, ident, r)
            x0 = rng.uniform() * sample_vertex(rng)
        x, f, iters, gap = _frank_wolfe(objective, gradient, lmo, segment_factory,
                                        x0, gap_tol)
        if best is None or f > best[1]:
            best = (x, f, iters, gap)
    return best


# ---------------------------------------------------------------------------
# single-provider problems: one budget against per-application caps


def _solve_provider(s: Scenario, n: int, tag: int, apps, terms: AppTerms,
                    caps: np.ndarray, exact: bool, baseline: float,
                    restarts: int, gap_tol: float, t0: float) -> SolveReport:
    """Provider n ships from its budget `caps` to the applications `apps`,
    whose terms (requests included) are `terms`; the value is their total
    satisfaction less `baseline`.  When `exact` (every term with a nonzero
    request is linear) the greedy fill is optimal; otherwise multistart
    Frank-Wolfe runs."""
    reqs = terms.requests

    def objective(x):
        return float(terms.value(x).sum())

    def lmo(g):
        cols = [_greedy_budget(g[:, k], caps[k], reqs[:, k]) for k in range(s.n_resources)]
        return np.stack(cols, axis=1)

    def segment_factory(x, d):
        def h(gammas):
            pts = x[None] + gammas[:, None, None] * d[None]
            return terms.value(pts).sum(axis=(1, 2))
        return h

    if exact:
        x = lmo(terms.coeffs)
        value, kind, iters, used, gap = objective(x), "exact_linear", 0, 0, 0.0
    else:
        x, value, iters, gap = _multistart_fw(
            s, tag, n, objective, terms.slope, lmo, segment_factory,
            lambda rng: lmo(rng.uniform(size=reqs.shape)), reqs.shape, restarts, gap_tol)
        kind, used = "multistart_fw", restarts
    full = np.zeros((s.n_players, s.m_total, s.n_resources))
    full[n, apps, :] = x
    return SolveReport(value=float(value - baseline), allocation=Allocation(full),
                       solver_kind=kind, iterations=iters, restarts_used=used,
                       gap=float(gap), wall_time=time.perf_counter() - t0)


def solve_native(
    s: Scenario,
    n: int,
    caps: np.ndarray | None = None,
    reqs: np.ndarray | None = None,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
    counter: SolveCounter | None = None,
) -> SolveReport:
    """Maximize player n's own utility over its native applications given a
    capacity budget (defaults: the scenario's full capacities/requests).
    Returns the unweighted optimum."""
    if counter is not None:
        counter.increment()
    t0 = time.perf_counter()
    apps = s.apps_of(n)
    caps = s.capacities[n] if caps is None else np.asarray(caps, dtype=float)
    reqs = s.requests[apps] if reqs is None else np.asarray(reqs, dtype=float)
    terms = AppTerms.from_scenario(s, apps).with_requests(reqs)
    return _solve_provider(s, n, _NATIVE_TAG, apps, terms, caps,
                           s.utilities[n].kind == "linear", 0.0, restarts, gap_tol, t0)


def solve_residual(
    s: Scenario,
    n: int,
    residual_caps: np.ndarray,
    residual_reqs: np.ndarray,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
    counter: SolveCounter | None = None,
) -> SolveReport:
    """Maximize provider n's sharing income over foreign residual requests.

    residual_reqs is (M, K) over all applications with n's own rows (and any
    exhausted rows) at zero; income for each served application is measured
    by its owner's utility as the lift over the residual's zero-allocation
    baseline, so shipping nothing earns exactly 0.
    """
    if counter is not None:
        counter.increment()
    t0 = time.perf_counter()
    reqs = np.asarray(residual_reqs, dtype=float).copy()
    reqs[s.apps_of(n), :] = 0.0  # own applications are not foreign income
    terms = AppTerms.from_scenario(s).with_requests(reqs)
    baseline = float(terms.value(np.zeros_like(reqs)).sum())
    foreign_linear = all(
        s.utilities[j].kind == "linear" for j in range(s.n_players) if j != n)
    return _solve_provider(s, n, _RESIDUAL_TAG, slice(None), terms,
                           np.asarray(residual_caps, dtype=float), foreign_linear,
                           baseline, restarts, gap_tol, t0)


# ---------------------------------------------------------------------------
# coalition problem: pooled capacities over pooled applications


def _pooled_lmo(prob: CoalitionProblem, profit: np.ndarray, factors) -> np.ndarray:
    """Per-resource transport vertex in the coalition's local coordinates
    maximizing sum profit * x.  One member: the greedy fill.  factors =
    (alpha, gamma) with profit[u, i, k] == alpha[u] * gamma[i, k]: the
    staircase.  Otherwise the transportation LP."""
    out = np.empty(profit.shape)
    for k in range(profit.shape[2]):
        caps, reqs = prob.caps[:, k], prob.reqs[:, k]
        if prob.size == 1:
            out[:, :, k] = _greedy_budget(profit[0, :, k], caps[0], reqs)[None, :]
        elif factors is not None:
            alpha, gamma = factors
            out[:, :, k] = _lmo_factored(alpha, gamma[:, k], caps, reqs)
        else:
            out[:, :, k] = lmo_transport(profit[:, :, k], caps, reqs)
    return out


def _linear_profit(s: Scenario, prob: CoalitionProblem) -> np.ndarray:
    """Per-unit credit of provider u supplying application i: w_u on native
    pairs, zeta_u on foreign ones, times the linear coefficient."""
    coeffs = s.coeff_matrix()[prob.apps]
    mem = np.array(prob.members)
    native = s.owner[prob.apps][None, :] == mem[:, None]
    weight = np.where(native, s.w[mem][:, None], s.zeta[mem][:, None])
    return weight[:, :, None] * coeffs[None, :, :]


def solve_coalition(
    s: Scenario,
    coalition: Coalition,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
    counter: SolveCounter | None = None,
) -> SolveReport:
    """Maximize the coalition's weighted objective: members pool capacity
    over the union of their applications (per-provider budgets and
    per-application caps still bind)."""
    if counter is not None:
        counter.increment()
    t0 = time.perf_counter()
    prob = CoalitionProblem.build(s, coalition)
    mem = np.array(prob.members)
    if all(s.utilities[m].kind == "linear" for m in prob.members):
        # with w == zeta for every member the profit factors as w_u * c_ik
        factored = np.all(s.w[mem] == s.zeta[mem])
        factors = (s.w[mem], s.coeff_matrix()[prob.apps]) if factored else None
        x = _pooled_lmo(prob, _linear_profit(s, prob), factors)
        value, kind, iters, used, gap = prob.objective(x), "exact_linear", 0, 0, 0.0
    else:
        if prob.uniform_weight is not None:
            # the gradient is the same row for every member
            def lmo(g):
                return _pooled_lmo(prob, g, (np.ones(prob.size), g[0]))

            def segment_factory(xc, d):
                tot, dtot = xc.sum(axis=0), d.sum(axis=0)

                def h(gammas):
                    pts = tot[None] + gammas[:, None, None] * dtot[None]
                    return prob.uniform_weight * prob.terms.value(pts).sum(axis=(1, 2))
                return h
        else:
            def lmo(g):
                return _pooled_lmo(prob, g, None)

            def segment_factory(xc, d):
                def h(gammas):
                    return np.array([prob.objective(xc + g * d) for g in gammas])
                return h

        def sample_vertex(rng):
            out = np.empty((prob.size, len(prob.apps), s.n_resources))
            for k in range(s.n_resources):
                out[:, :, k] = _lmo_factored(
                    rng.uniform(size=prob.size), rng.uniform(size=len(prob.apps)),
                    prob.caps[:, k], prob.reqs[:, k])
            return out

        x, value, iters, gap = _multistart_fw(
            s, _COALITION_TAG, coalition.mask, prob.objective, prob.gradient,
            lmo, segment_factory, sample_vertex,
            (prob.size, len(prob.apps), s.n_resources), restarts, gap_tol)
        kind, used = "multistart_fw", restarts
    return SolveReport(value=float(value), allocation=prob.to_global(s, x),
                       solver_kind=kind, iterations=iters, restarts_used=used,
                       gap=float(gap), wall_time=time.perf_counter() - t0)
