"""Allocation subproblem solvers.

Every optimization here lives on a product of per-resource transportation
polytopes: ship x_uik >= 0 from providers to applications subject to
per-provider budgets and per-application request caps.  Linear objectives
are solved exactly, by one call of the linear oracle on their constant
gradient; sigmoid objectives run a multi-start Frank-Wolfe conditional
gradient.  All restarts of one solve advance together in one batched
driver, and each leaves the batch when its own stopping test fires.  The
driver evaluates each point once: one sigmoid pass gives its value and
its gradient, and a run carries the gradient of the point it moved to
into its next round.  Line-search probes compute the value alone.

Every sigmoid term is convex at receipts up to its request, and no
feasible point exceeds a request, so receipt objectives are convex, and so
are member-coordinate objectives whose credit weights do not increase
along the attribution order (CoalitionProblem.convex).  There each round
takes the unit step to the oracle's vertex; only the other weightings
(some zeta above an owner's w, say) search the step by golden section.

One solve (_solve_receipts) serves every problem whose objective is one
weight times the total satisfaction at per-application receipts t_ik: a
native or residual provider, and a coalition whose credit weights are all
equal (every singleton, and w == zeta shared by all members).  The
receipts the budgets can deliver are exactly 0 <= t <= r with sum_i t_ik
at most the pooled budget, so the linear oracle is one greedy fill of that
budget.  A coalition's members then ship the receipts by the
northwest-corner staircase against their capacities.  Other coalitions
run in member coordinates with the transportation LP as oracle, one per
resource and distinct gradient slice.

Where such an objective is convex, each run's Frank-Wolfe gap is also
bounded without an LP, by LP duality (_transport_gap_bound): u-v prices
of the transportation problem at the run's point.  From round 2 on, a run
whose bound, plus a rounding allowance, is below its gap tolerance stops
before its LPs are solved.  The bound is at least the gap of any vertex
the LP could return, so the gap test would stop that run in that round
too: points, values and round counts are those of the LP path, and the
reported gap is the certified bound.

Start points (_starts): restart 0 starts at zero; restart r > 0 draws a
scale and uniform factors from the PCG64 stream that SeedSequence([scenario
seed, solve tag, player or mask, r]) seeds, and starts at the scaled vertex
the factors pick.  Native and residual solves take the greedy fill of the
factors as profits.  Every coalition draws member and application factors
per resource; in member coordinates it starts at their staircase, on
receipts at the greedy fill of the application factors alone.  The streams
depend only on the scenario and the solve, so every solve is reproducible
on its own.  They are the streams default_rng(SeedSequence([...])) gives,
but no SeedSequence or PCG64 is built per restart: one vectorized pass of
SeedSequence's hash seeds a block of 64 players or masks at once
(_seed_block, which keeps the last four blocks, 64 * (R - 1) * 32 bytes
each: 30 KiB at R = 16 restarts), and one reused PCG64 is set to each
stream by PCG64's own seeding rule (_generator).
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .model import Allocation, Coalition, Scenario
from .utility import AppTerms, CoalitionProblem

DEFAULT_RESTARTS = 16
MAX_ITER = 500  # Frank-Wolfe rounds per restart
DEFAULT_GAP_TOL = 1e-6

_NATIVE_TAG, _RESIDUAL_TAG, _COALITION_TAG = 0xA1, 0xB2, 0xC3


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one subproblem solve.  A coalition solve's allocation is
    local, (|S|, M_S, K) by Scenario.local_axes; native and residual
    solves keep (N, M, K), since fast_core assembles the global split."""

    value: float
    allocation: Allocation
    solver_kind: str  # "exact_linear" | "multistart_fw"
    iterations: int
    restarts_used: int
    # the best run's Frank-Wolfe gap when it stopped: <grad, s - x> at the
    # oracle's vertex s, or, for a run stopped on its LP duality bound
    # (convex member-coordinate solves), that bound; 0 for exact solves
    gap: float
    wall_time: float


# ---------------------------------------------------------------------------
# linear maximization oracles


def _sort_index(key: np.ndarray) -> np.ndarray:
    """Flat indices into key (..., n) that list each row along the last
    axis in decreasing order (stable: ties to the lowest index).  Moving
    values by flat fancy indexing is cheaper than take_along_axis and
    put_along_axis at these sizes."""
    order = np.argsort(-key, axis=-1, kind="stable")
    n = key.shape[-1]
    return (order.reshape(-1, n) + np.arange(0, order.size, n)[:, None]).ravel()


def _greedy_fill(profits: np.ndarray, budget: np.ndarray, ubs: np.ndarray) -> np.ndarray:
    """Exact fractional-knapsack fill along the item axis -2 of profits
    (..., M, K): one budget per resource (last axis), per-item caps ubs
    (M, K), every leading index filled independently.

    Items are taken in decreasing profit order (ties to the lowest index),
    zero/negative-profit items are never shipped.
    """
    p = np.swapaxes(profits, -1, -2)  # (..., K, M): items last
    at = _sort_index(p)
    ub_o = np.where(p > 0, ubs.T, 0.0).ravel()[at].reshape(p.shape)
    prev = np.zeros_like(ub_o)
    np.cumsum(ub_o[..., :-1], axis=-1, out=prev[..., 1:])
    x = np.empty(p.size)
    x[at] = np.clip(np.expand_dims(budget, -1) - prev, 0.0, ub_o).ravel()
    return np.swapaxes(x.reshape(p.shape), -1, -2)


def _overlaps(start_u: np.ndarray, end_u: np.ndarray,
              start_i: np.ndarray, end_i: np.ndarray) -> np.ndarray:
    """Lengths (..., S, M) of the overlaps of intervals [start_u, end_u)
    (..., S) with intervals [start_i, end_i) (..., M)."""
    lo = np.maximum(start_u[..., :, None], start_i[..., None, :])
    hi = np.minimum(end_u[..., :, None], end_i[..., None, :])
    return np.clip(hi - lo, 0.0, None)


def _staircase(supplies: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Northwest-corner shipment (..., S, M) from supplies (..., S) to
    demands (..., M), both in index order: the interval overlaps of the
    cumulative supplies and demands."""
    cu, ci = np.cumsum(supplies, axis=-1), np.cumsum(demands, axis=-1)
    return _overlaps(cu - supplies, cu, ci - demands, ci)


def _sorted_intervals(factor: np.ndarray, amounts: np.ndarray) -> np.ndarray:
    """Each entry's [start, end) along the cumulative amounts taken in
    decreasing factor order (ties to the lowest index; entries with a zero
    factor count as empty), in index order: (2, ...) starts, then ends."""
    at = _sort_index(factor)
    amt = np.where(factor.ravel()[at] > 0,
                   np.broadcast_to(amounts, factor.shape).ravel()[at], 0.0).reshape(factor.shape)
    end = np.cumsum(amt, axis=-1)
    bounds = np.empty((2, factor.size))
    bounds[0, at] = (end - amt).ravel()
    bounds[1, at] = end.ravel()
    return bounds.reshape(2, *factor.shape)


def _lmo_factored(alpha: np.ndarray, gamma: np.ndarray,
                  supplies: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Exact maximizer for factorizable profits p_ui = alpha_u * gamma_i,
    batched over leading axes: alpha and supplies (..., S), gamma and
    demands (..., M) with equal leading shapes; returns (..., S, M).

    Sorting rows by alpha and columns by gamma makes the profit matrix
    inverse-Monge, so the northwest-corner staircase is optimal.  Ties
    break toward the lowest provider/application index.  The staircase is
    built in index order, from each row's and column's interval along the
    sorted cumulative supplies and demands.
    """
    if np.any(alpha < 0) or np.any(gamma < 0):
        raise ValueError("factored oracle needs nonnegative factors")
    return _overlaps(*_sorted_intervals(alpha, supplies), *_sorted_intervals(gamma, demands))


@functools.cache
def _highs():
    """scipy's bundled HiGHS binding and the one solver instance every
    transport LP runs on, with the options linprog(method="highs") passes:
    presolve on, dual simplex, no output, no debug checks."""
    from scipy.optimize._highspy import _core

    h = _core._Highs()
    opts = _core.HighsOptions()
    opts.presolve = "on"
    opts.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    opts.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    if h.passOptions(opts) == _core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the transportation LP options")
    return _core, h


@functools.cache
def _transport_model(u_count: int, i_count: int):
    """HiGHS model of max profit.x over the (u_count, i_count) transportation
    polytope: x_ui >= 0 in row-major order, supply rows then demand rows,
    the constraint matrix in CSC form, built once per shape.  Costs and
    right-hand sides are overwritten per solve, so, like the one HiGHS
    instance, a cached model serves one LP at a time."""
    core, _ = _highs()
    nvars, nrows = u_count * i_count, u_count + i_count
    v = np.arange(nvars)
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = nvars
    lp.num_row_ = lp.a_matrix_.num_row_ = nrows
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.arange(0, 2 * nvars + 1, 2)
    lp.a_matrix_.index_ = np.stack([v // i_count, u_count + v % i_count], axis=1).ravel()
    lp.a_matrix_.value_ = np.ones(2 * nvars)
    lp.col_lower_ = np.zeros(nvars)
    lp.col_upper_ = np.full(nvars, np.inf)
    lp.row_lower_ = np.full(nrows, -np.inf)
    return lp


def _lmo_highs(profit: np.ndarray, supplies: np.ndarray, demands: np.ndarray) -> np.ndarray:
    u_count, i_count = profit.shape
    core, h = _highs()
    lp = _transport_model(u_count, i_count)
    lp.col_cost_ = -profit.ravel()
    lp.row_upper_ = np.concatenate([supplies, demands])
    if (h.passModel(lp) == core.HighsStatus.kError or h.run() == core.HighsStatus.kError
            or h.getModelStatus() != core.HighsModelStatus.kOptimal):
        raise RuntimeError("transportation LP failed: "
                           + h.modelStatusToString(h.getModelStatus()))
    x = np.maximum(np.array(h.getSolution().col_value).reshape(u_count, i_count), 0.0)
    x[profit <= 0] = 0.0
    # strict feasibility despite LP tolerance dust: shrink rows then columns
    # (only when some sum exceeds its bound; the other factors are exactly 1)
    row = x.sum(axis=1)
    if (row > supplies).any():
        np.multiply(x, np.where(row > supplies, supplies / np.maximum(row, 1e-300), 1.0)[:, None],
                    out=x)
    col = x.sum(axis=0)
    if (col > demands).any():
        np.multiply(x, np.where(col > demands, demands / np.maximum(col, 1e-300), 1.0)[None, :],
                    out=x)
    return x


def lmo_transport(profit: np.ndarray, supplies: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Vertex of {x >= 0 : row sums <= supplies, column sums <= demands}
    maximizing sum profit_ui * x_ui.

    Single-row/column instances use the exact greedy fill; the general case
    is an LP solved by scipy's bundled HiGHS (dual simplex) on one reused
    instance.  Mismatched shapes, a profit that is not finite and a supply
    or demand that is negative, NaN or infinite are ValueErrors.
    """
    profit = np.asarray(profit, dtype=float)
    supplies = np.asarray(supplies, dtype=float)
    demands = np.asarray(demands, dtype=float)
    if profit.shape != (supplies.size, demands.size):
        raise ValueError("profit shape must be (len(supplies), len(demands))")
    if not np.isfinite(profit).all():
        raise ValueError("profits must be finite")
    bounds = np.concatenate([supplies, demands])
    if not (0 <= bounds.min() and bounds.max() < np.inf):  # a NaN fails too
        raise ValueError("supplies and demands must be >= 0 and finite")
    if supplies.size == 1:
        return _greedy_fill(profit.T, supplies, demands[:, None]).T
    if demands.size == 1:
        return _greedy_fill(profit, demands, supplies[:, None])
    return _lmo_highs(profit, supplies, demands)


def _transport_gap_bound(profit: np.ndarray, point: np.ndarray, supplies: np.ndarray,
                        demands: np.ndarray):
    """Upper bounds on max{<profit, s>} - <profit, point> over the
    transportation polytopes of lmo_transport, with no LP solved: one per
    leading index of profit and point (..., S, M, K), summed over the
    resources K, against supplies (S, K) and demands (M, K).  Returns the
    bounds and, per bound, a rounding allowance: a bound plus its
    allowance is at least the gap, in floating point, that the difference
    of any vertex lmo_transport returns and the point has.

    By LP duality any prices alpha >= 0 on the supply rows, with
    beta_i = max(0, max_u(profit_ui - alpha_u)) on the demand rows, give
    max <profit, s> <= supplies . alpha + demands . beta.  The prices are
    the u-v prices of the transportation problem at the point: a row or
    column with slack is priced 0, and over every positive cell of the
    point alpha_u + beta_i = profit_ui, solved by alternate sweeps from
    those anchors (rows never reached stay at 0; rows of zero supply are
    priced at their largest profit, so they bind no column).  At a point
    that is an optimal, non-degenerate vertex for profit these are the
    optimal duals and the bound is 0 up to rounding.

    The allowance is a generous multiple of unit roundoff times every
    magnitude either side sums: the bound's terms, |profit| . point, the
    vertex side (at most max|profit| times the total supply) and the
    rounding of beta (at most max alpha times the total supply).  So a
    bound plus its allowance is never negative, and a zero tolerance
    certifies nothing."""
    p, y = np.moveaxis(profit, -1, -3), np.moveaxis(point, -1, -3)  # (..., K, S, M)
    a, b = supplies.T, demands.T  # (K, S), (K, M)
    pos = y > 0
    rows, cols = y.sum(axis=-1), y.sum(axis=-2)
    known_a, known_b = rows < a * (1 - 1e-9), cols < b * (1 - 1e-9)
    alpha, beta = np.zeros(rows.shape), np.zeros(cols.shape)
    for _ in range(a.shape[-1] + 1):  # each pair of sweeps reaches one more row
        cand = np.where(pos & known_a[..., :, None], p - alpha[..., :, None], -np.inf).max(axis=-2)
        new = ~known_b & (cand > -np.inf)
        beta, known_b = np.where(new, cand, beta), known_b | new
        cand = np.where(pos & known_b[..., None, :], p - beta[..., None, :], -np.inf).max(axis=-1)
        new = ~known_a & (cand > -np.inf)
        if not new.any():
            break
        alpha, known_a = np.where(new, cand, alpha), known_a | new
    alpha = np.where(a > 0, np.maximum(alpha, 0.0), np.maximum(p.max(axis=-1), 0.0))
    beta = np.maximum((p - alpha[..., :, None]).max(axis=-2), 0.0)
    priced = (a * alpha).sum(axis=-1) + (b * beta).sum(axis=-1)
    at_point = (p * y).sum(axis=(-2, -1))
    reach = (np.abs(p).max(axis=(-2, -1)) + alpha.max(axis=-1)) * a.sum(axis=-1)
    scale = priced + (np.abs(p) * y).sum(axis=(-2, -1)) + reach
    terms = int(np.prod(p.shape[-3:])) + a.size + b.size
    allowance = 4.0 * (terms + 8) * np.finfo(float).eps * scale.sum(axis=-1)
    return (priced - at_point).sum(axis=-1), allowance


# ---------------------------------------------------------------------------
# batched multistart Frank-Wolfe: unit steps on convex objectives,
# golden-section steps otherwise


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _best_steps(value_at, n: int, coarse: int = 17, refine: int = 24):
    """Maximize h_r(gamma) on [0, 1] for n segments at once: a coarse scan,
    then golden-section search around each segment's best coarse point.
    value_at maps one step per segment, shape (n,), to the n values h_r;
    it is called with one grid point, or one probe, per segment at a time.
    Returns each segment's best step and value."""
    grid = np.linspace(0.0, 1.0, coarse)
    vals = np.stack([value_at(np.full(n, g)) for g in grid], axis=1)
    j = np.argmax(vals, axis=1)
    best_g, best_v = grid[j], vals[np.arange(n), j]
    a = grid[np.maximum(j - 1, 0)]
    b = grid[np.minimum(j + 1, coarse - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = value_at(c)
    fd = value_at(d)
    for _ in range(refine):
        # fc >= fd keeps [a, d] and probes a new c; otherwise [c, b] and a new d
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fp = value_at(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        better = fp > best_v
        best_g, best_v = np.where(better, probe, best_g), np.where(better, fp, best_v)
    return best_g, best_v


def _batched_frank_wolfe(evaluate, objective, lmo, bound, x0: np.ndarray, gap_tol: float,
                         convex: bool):
    """Conditional gradient ascent from each start x0[r], all runs advancing
    in lockstep along the leading axis.  evaluate maps a batch of points to
    their values, one each, and gradients, a batch; objective maps a batch
    to values alone, bit for bit evaluate's; lmo maps a batch to a batch.
    bound is None or maps a batch of gradients and points to certified
    upper bounds on their Frank-Wolfe gaps and rounding allowances, one
    each (_transport_gap_bound).

    Each run carries the gradient from the evaluation that moved it, so
    every point is evaluated once.  When the objective is convex on the
    feasible set its maximum along the segment [x, s] sits at an end, so
    each round evaluates only the vertex s and moves there if it is better
    (the successive linearization algorithm); otherwise a coarse scan and
    golden-section search of objective pick the step and its value, and
    the point it moves to is evaluated again for its gradient.  Run r
    stops when its Frank-Wolfe gap <grad, s - x> drops below
    gap_tol * max(1, |f|), when its step cannot improve, or after MAX_ITER
    rounds; a stopped run leaves the batch, so every run follows the path
    it would follow alone.  Iterates stay feasible as convex combinations
    of vertices.  Returns per-run (x, f, iterations, gap).

    With a bound, from round 2 on a run whose bound plus allowance is
    strictly below its tolerance stops before the oracle is called, and
    its gap is the bound: the bound is at least the gap any vertex of the
    oracle gives, so the gap test would stop it in that round anyway, at
    the same point, value and round count.  Other runs go on as without
    a bound.  A zero gap_tol certifies no run.
    """
    x = x0.copy()
    f, g = evaluate(x)
    iters = np.zeros(len(x), dtype=int)
    gap = np.full(len(x), np.inf)
    bcast = (-1,) + (1,) * (x.ndim - 1)  # one step per run against its point
    live = np.arange(len(x))
    for it in range(1, MAX_ITER + 1):
        xl, gl = x[live], g[live]
        if bound is not None and it > 1:
            certified, allowance = bound(gl, xl)
            done = certified + allowance < gap_tol * np.maximum(1.0, np.abs(f[live]))
            iters[live[done]], gap[live[done]] = it, certified[done]
            live, xl, gl = live[~done], xl[~done], gl[~done]
            if not live.size:
                break
        d = lmo(gl) - xl
        fw_gap = (gl * d).reshape(len(live), -1).sum(axis=1)
        iters[live], gap[live] = it, fw_gap
        keep = fw_gap > gap_tol * np.maximum(1.0, np.abs(f[live]))
        live, xl, d = live[keep], xl[keep], d[keep]
        if not live.size:
            break
        if convex:
            x_new = xl + d  # as the line search's step 1 forms it; xl + (s - xl) may round off s
            f_new, g_new = evaluate(x_new)
            move = f_new > f[live]
        else:
            step, f_new = _best_steps(lambda gam: objective(xl + gam.reshape(bcast) * d),
                                      len(live))
            move = (f_new > f[live]) & (step != 0.0)  # else line search cannot improve
        live = live[move]
        if not live.size:
            break
        if convex:
            x_new, g_new = x_new[move], g_new[move]
        else:
            x_new = xl[move] + step[move].reshape(bcast) * d[move]
            g_new = evaluate(x_new)[1]
        x[live], f[live], g[live] = x_new, f_new[move], g_new
    return x, f, iters, gap


def _multistart(evaluate, objective, lmo, bound, x0: np.ndarray, gap_tol: float,
                convex: bool):
    """Best run of the batch (the first of equal values): (x, f, iterations, gap)."""
    x, f, iters, gap = _batched_frank_wolfe(evaluate, objective, lmo, bound, x0, gap_tol,
                                            convex)
    best = int(np.argmax(f))
    return x[best], float(f[best]), int(iters[best]), float(gap[best])


def _check_settings(restarts: int, gap_tol: float) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not (np.isfinite(gap_tol) and gap_tol >= 0):
        raise ValueError(f"gap_tol must be finite and >= 0, got {gap_tol}")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# seeding step (pcg64.h), for deriving the restart streams a block at a time
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BLOCK = 64  # players or masks seeded by one hash pass


def _hash_rounds(init: int, mult: int, n: int):
    """The xor and multiply constants, as (n, 1) uint32 columns, of n
    successive rounds of SeedSequence's hash: each round multiplies the
    running constant by mult between its xor and its multiply."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hash(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ (v >> 16)


@functools.lru_cache(maxsize=4)
def _seed_block(seed: int, tag: int, block: int, restarts: int) -> np.ndarray:
    """SeedSequence([seed, tag, ident, r]).generate_state(4, np.uint64) for
    every ident of the block (64 * block up to 64 * block + 63) and every r
    in 1 .. restarts - 1: a read-only (64, restarts - 1, 4) uint64 array,
    computed in one vectorized pass over the lanes (ident, r).

    The entropy words are numpy's: the seed's little-endian 32-bit words
    (one word for 0), then tag, ident and r, one word each.  The first four
    fill the pool, every pool word is mixed into every other, and any
    further word is mixed into all four.  For a given source word the three
    or four destination updates are independent, so each runs as one
    operation on a stack of rows.  The state's 32-bit words pair up little
    end first, as generate_state's '<u4' to '<u8' view does."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    words.append(tag)
    entropy = np.empty((len(words) + 2, _SEED_BLOCK * (restarts - 1)), dtype=np.uint32)
    entropy[:-2] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-2] = np.repeat(np.arange(block * _SEED_BLOCK, (block + 1) * _SEED_BLOCK,
                                      dtype=np.uint32), restarts - 1)
    entropy[-1] = np.tile(np.arange(1, restarts, dtype=np.uint32), _SEED_BLOCK)
    xor, mul = _hash_rounds(_INIT_A, _MULT_A, 4 + 4 * 3 + 4 * (len(entropy) - 4))
    pool = _hash(entropy[:4], xor[:4], mul[:4])
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + 3], mul[k:k + 3]))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hash(word, xor[k:k + 4], mul[k:k + 4]))
        k += 4
    state = _hash(np.concatenate([pool, pool]), *_hash_rounds(_INIT_B, _MULT_B, 8))
    state = state.astype(np.uint64)
    out = (state[0::2] | state[1::2] << 32).T.reshape(_SEED_BLOCK, restarts - 1, 4)
    out.flags.writeable = False
    return out


@functools.cache
def _generator():
    """The one PCG64 and its Generator that every restart stream is drawn
    from, built at the first draw (importing numpy.random costs about
    8 ms).  _starts sets its state per restart, so, like the HiGHS
    instance, it serves one solve at a time."""
    bits = np.random.PCG64(0)
    return bits, np.random.Generator(bits)


def _starts(s: Scenario, tag: int, ident: int, restarts: int, draw_shape,
            vertices) -> np.ndarray:
    """Start points, one per restart: restart 0 starts from zero (its first
    step lands on the linearized warm start); restart r > 0 draws, from the
    stream of default_rng(SeedSequence([seed, tag, ident, r])), a scale and
    then uniform factors of draw_shape, and starts at the scaled vertex
    that vertices (batched over restarts) builds from those factors.

    The streams are unchanged, but no SeedSequence or PCG64 is built per
    restart: the seed words come from ident's block of _seed_block, which
    keeps the last four blocks (64 * (restarts - 1) * 32 bytes each, 30 KiB
    at 16 restarts), and the one PCG64 of _generator is set to each stream
    by PCG64's seeding rule, inc = 2 * initseq + 1 and
    state = (initstate + inc) * MULT + inc mod 2^128, with no buffered
    32-bit half (has_uint32, uinteger), as a new PCG64 starts.  A single
    restart draws nothing.

    Each stream fills one row in one call: its first double is the scale.
    Generator.uniform() returns 0 + 1 * d for the stream's next double d,
    so these are the doubles of default_rng(...).uniform() followed by
    .uniform(size=draw_shape)."""
    draws = np.empty((restarts - 1, 1 + int(np.prod(draw_shape))))
    if restarts > 1:
        assert 0 <= ident < 1 << 32, "ident must be one SeedSequence word"
        block, lane = divmod(ident, _SEED_BLOCK)
        bits, gen = _generator()
        seeds = _seed_block(s.seed or 0, tag, block, restarts)[lane].tolist()
        for row, (state_hi, state_lo, seq_hi, seq_lo) in zip(draws, seeds):
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = (((state_hi << 64 | state_lo) + inc) * _PCG_MULT + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            gen.random(out=row)
    v = vertices(draws[:, 1:].reshape(len(draws), *draw_shape))
    x0 = np.zeros((restarts, *v.shape[1:]))
    x0[1:] = draws[:, :1].reshape((-1,) + (1,) * (v.ndim - 1)) * v
    return x0


def _receipt_oracles(terms: AppTerms, budget: np.ndarray, weight: float):
    """Evaluation (value and gradient), objective, linear oracle and gap
    bound (none) on batched receipts t (R, M, K): the value is
    weight * sum_ik g_ik(t_ik), and the reachable receipts are
    0 <= t <= requests with sum_i t_ik <= budget_k."""
    def evaluate(t):
        g, gp = terms.value_and_slope(t)
        return weight * g.reshape(len(t), -1).sum(axis=1), weight * gp

    def objective(t):
        return weight * terms.value(t).reshape(len(t), -1).sum(axis=1)

    def lmo(g):
        return _greedy_fill(g, budget, terms.requests)

    return evaluate, objective, lmo, None


def _solve_receipts(terms: AppTerms, budget: np.ndarray, weight: float, exact: bool,
                    starts, gap_tol: float):
    """Best receipts t (M, K) for weight * sum_ik g_ik(t_ik) over
    0 <= t <= requests with sum_i t_ik <= budget_k: the problem of one
    provider, and of a coalition whose credit weights all equal `weight`.
    When `exact` (every term with a nonzero request is linear, so the
    gradient is constant) one greedy fill of the gradient is optimal;
    otherwise multistart Frank-Wolfe runs from starts(lmo), the start points
    built with the receipt oracle.  Every term is convex at receipts up to
    its request, which the oracle never exceeds, so rounds take unit steps.
    Returns (t, value, (solver_kind, iterations, restarts_used, gap))."""
    oracles = _receipt_oracles(terms, budget, weight)
    evaluate, objective, lmo, _ = oracles
    if exact:
        t = lmo(evaluate(np.zeros((1, *terms.requests.shape)))[1])[0]
        return t, objective(t[None])[0], ("exact_linear", 0, 0, 0.0)
    x0 = starts(lmo)
    t, value, iters, gap = _multistart(*oracles, x0, gap_tol, True)
    return t, value, ("multistart_fw", iters, len(x0), gap)


def _report(value, allocation: Allocation, how, t0: float) -> SolveReport:
    kind, iters, used, gap = how
    return SolveReport(value=float(value), allocation=allocation, solver_kind=kind,
                       iterations=iters, restarts_used=used, gap=float(gap),
                       wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# single-provider problems: one budget against per-application caps


def solve_native(
    s: Scenario,
    n: int,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> SolveReport:
    """Maximize player n's own utility over its native applications from its
    own capacity.  Returns the unweighted optimum."""
    _check_settings(restarts, gap_tol)
    t0 = time.perf_counter()
    apps = s.apps_of(n)
    terms = AppTerms.from_scenario(s, apps)
    starts = functools.partial(_starts, s, _NATIVE_TAG, n, restarts, terms.requests.shape)
    t, value, how = _solve_receipts(terms, s.capacities[n], 1.0,
                                    s.utilities[n].kind == "linear", starts, gap_tol)
    full = np.zeros((s.n_players, s.m_total, s.n_resources))
    full[n, apps, :] = t
    return _report(value, Allocation(full), how, t0)


def solve_residual(
    s: Scenario,
    n: int,
    residual_caps: np.ndarray,
    residual_reqs: np.ndarray,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> SolveReport:
    """Maximize provider n's sharing income over foreign residual requests.

    residual_reqs is (M, K) over all applications with n's own rows (and any
    exhausted rows) at zero; income for each served application is measured
    by its owner's utility as the lift over the residual's zero-allocation
    baseline, so shipping nothing earns exactly 0.
    """
    _check_settings(restarts, gap_tol)
    t0 = time.perf_counter()
    reqs = np.asarray(residual_reqs, dtype=float).copy()
    reqs[s.apps_of(n), :] = 0.0  # own applications are not foreign income
    terms = AppTerms.from_scenario(s).with_requests(reqs)
    baseline = float(terms.value(np.zeros_like(reqs)).sum())
    foreign_linear = all(
        s.utilities[j].kind == "linear" for j in range(s.n_players) if j != n)
    starts = functools.partial(_starts, s, _RESIDUAL_TAG, n, restarts, reqs.shape)
    t, value, how = _solve_receipts(terms, np.asarray(residual_caps, dtype=float), 1.0,
                                    foreign_linear, starts, gap_tol)
    full = np.zeros((s.n_players, s.m_total, s.n_resources))
    full[n] = t
    return _report(value - baseline, Allocation(full), how, t0)


# ---------------------------------------------------------------------------
# coalition problem: pooled capacities over pooled applications


def _random_staircases(prob: CoalitionProblem, draws: np.ndarray) -> np.ndarray:
    """Member allocations (B, S, MS, K) at the staircase vertices of random
    positive factors: draws (B, K, S + MS) holds, per resource, the member
    factors and then the application factors."""
    size = prob.size
    lead = draws.shape[:2]
    x = _lmo_factored(draws[..., :size], draws[..., size:],
                      np.broadcast_to(prob.caps.T, lead + (size,)),
                      np.broadcast_to(prob.reqs.T, lead + (len(prob.apps),)))
    return x.transpose(0, 2, 3, 1)


def _member_oracles(prob: CoalitionProblem):
    """Evaluation (value and gradient), objective, LP-backed oracle and gap
    bound in member coordinates (R, S, MS, K).  The first two take the
    whole batch; the oracle solves one transport LP per resource and
    distinct gradient slice, and restarts whose slices are equal share its
    vertex.  The bound (_transport_gap_bound) is given for convex
    objectives only: there each run sits at the oracle's last vertex, whose
    u-v prices are near-optimal duals, while a line-search step ends inside
    the polytope, where the bound seldom certifies.  It is None otherwise."""
    def lmo(gs):
        out = np.empty_like(gs)
        for k in range(gs.shape[-1]):
            vertex_of = {}
            for r, g in enumerate(gs[..., k]):
                key = g.tobytes()
                if key not in vertex_of:
                    vertex_of[key] = lmo_transport(g, prob.caps[:, k], prob.reqs[:, k])
                out[r, ..., k] = vertex_of[key]
        return out

    bound = functools.partial(_transport_gap_bound, supplies=prob.caps, demands=prob.reqs)
    return prob.evaluate, prob.objective, lmo, bound if prob.convex else None


def solve_coalition(
    s: Scenario,
    coalition: Coalition,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> SolveReport:
    """Maximize the coalition's weighted objective: members pool capacity
    over the union of their applications (per-provider budgets and
    per-application caps still bind).  The allocation is local
    (Scenario.local_axes), a copy that pins no restart batch."""
    _check_settings(restarts, gap_tol)
    t0 = time.perf_counter()
    prob = CoalitionProblem.build(s, coalition)
    size = prob.size
    linear = all(s.utilities[m].kind == "linear" for m in prob.members)
    # every coalition draws member and application factors per resource,
    # whichever path uses them, so its streams keep one layout
    starts = functools.partial(_starts, s, _COALITION_TAG, coalition.mask, restarts,
                               (s.n_resources, size + len(prob.apps)))
    if prob.uniform_weight is not None:
        # pooled starts: the greedy fill of the application factors
        t, value, how = _solve_receipts(
            prob.terms, prob.caps.sum(axis=0), prob.uniform_weight, linear,
            lambda lmo: starts(lambda d: lmo(np.swapaxes(d[..., size:], -1, -2))), gap_tol)
        # members ship the receipts in northwest-corner order; a lone
        # member ships them as they are, unrounded
        x = t[None] if size == 1 else _staircase(prob.caps.T, t.T).transpose(1, 2, 0)
    elif linear:
        # a linear objective's gradient is the constant per-unit credit
        evaluate, objective, lmo, _ = _member_oracles(prob)
        x = lmo(evaluate(np.zeros((1, size, *prob.reqs.shape)))[1])[0]
        value, how = objective(x), ("exact_linear", 0, 0, 0.0)
    else:
        x0 = starts(functools.partial(_random_staircases, prob))
        x, value, iters, gap = _multistart(*_member_oracles(prob), x0, gap_tol, prob.convex)
        how = ("multistart_fw", iters, restarts, gap)
    return _report(value, Allocation(x.copy()), how, t0)
