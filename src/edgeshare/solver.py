"""Allocation subproblem solvers.

Every optimization here lives on a product of per-resource transportation
polytopes: ship x_uik >= 0 from providers to applications subject to
per-provider budgets and per-application request caps.  Linear objectives
are solved exactly, by one call of the linear oracle on their constant
gradient; sigmoid objectives run a multi-start Frank-Wolfe conditional
gradient.  All restarts of one solve advance together in one batched
driver, and each leaves the batch when its own stopping test fires.  The
batch is gathered, compacted and written back only in a round where some
run leaves it; a round in which every run moved adopts the new points,
values and gradients as the batch, uncopied.  The driver evaluates each
point once: one sigmoid pass gives its value and its gradient, and a run
carries the gradient of the point it moved to into its next round.

Every sigmoid term is convex at receipts up to its request, and no
feasible point exceeds a request, so receipt objectives are convex, and so
are member-coordinate objectives whose credit weights do not increase
along the attribution order (CoalitionProblem.convex), and own/total ones
(nonnegative weights w - zeta and zeta).  There each round takes the unit
step to the oracle's point; only the other weightings (some zeta above an
owner's w, say) search the step by golden section, the one use of the
value-only objective their solves alone pass to the driver.

Every problem runs one solve (_solve) from its starts, in one of three
coordinates.
Receipts t_ik per application serve every problem whose objective is one
weight times the total satisfaction at them: a native or residual
provider, and a coalition whose credit weights are all equal (w == zeta
shared by all members).  A singleton coalition is its member's native
problem, w times: its report is solve_native's, with w times the value,
one allocation (1, M_n, K) for both.  The receipts the budgets can deliver are exactly 0 <= t <= r with
sum_i t_ik at most the pooled budget, so the linear oracle is one greedy
fill of that budget, and a coalition's members ship the receipts by the
northwest-corner staircase.  Objective and budgets separate by resource,
so a sigmoid receipt solve (_solve_receipts) fixes a slack resource, whose
requests' exact sum fits its budget, at t = requests, and an empty one,
budget 0, at t = 0, and runs Frank-Wolfe on the binding resources alone:
the sort of the greedy fill and the sigmoid passes skip the fixed columns.
A solve with no binding resource is exact.  Round 1 decides as the joint
problem would: the fixed resources add their value at each start, and
their gap toward the fixed point, to the run's start value and first gap,
and once a run has moved they add their closed-form value at the fixed
point.  Solves in the other two coordinates below keep every resource in
Frank-Wolfe (their slack condition, every member self-sufficient, is not
taken).
Where the members share one zeta and every owner's w is at least it
(CoalitionProblem.own_foreign: every generated scenario with w >= zeta),
the objective is (w - zeta) * g(o) + zeta * g(t) at each application's
own supply o and total receipts t.  Such a coalition runs in those
own/total coordinates, the image of its member allocations, on which
Frank-Wolfe takes the steps it would take on the allocations, and a
linear one takes its one oracle call there.  That oracle (_lmo_own_total)
is exact, with no LP, for every restart and resource at once, and the
member allocation is built once per solve (_member_split).  Only the
other coalitions run in member coordinates, with one transportation LP
per resource and distinct gradient slice as the oracle (w below zeta, or
one zeta per player, which only a hand-written scenario holds).

Start points (_starts): restart 0 starts at zero; restart r > 0 draws a
scale and uniform factors from the PCG64 stream that
SeedSequence([scenario seed, solve tag, player or mask, r]) seeds, and
starts at the scaled vertex the factors pick.  Residual solves take the
greedy fill of the factors as profits.  Every coalition, a native solve as
its singleton one, draws member and application factors per resource; in
member coordinates it starts at their staircase, in own/total coordinates
at that staircase's own supply and total receipts, on receipts at the
greedy fill of the application factors alone on each binding resource and
at the requests on a slack one; a receipt solve with no binding resource
draws nothing.  The streams depend only on the scenario and the solve, so
every solve is reproducible on its own.  They are the streams
default_rng(SeedSequence([...])) gives, but no SeedSequence or PCG64 is
built per restart: one vectorized pass of SeedSequence's hash seeds a
block of 64 players or masks at once (_seed_block, which keeps the last
four blocks, 64 * (R - 1) * 32 bytes each: 30 KiB at R = 16 restarts), and
one reused PCG64 is set to each stream by PCG64's own seeding rule
(_generator).
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import Allocation, Coalition, Scenario
from .utility import AppTerms, CoalitionProblem

DEFAULT_RESTARTS = 16
MAX_ITER = 500  # Frank-Wolfe rounds per restart
DEFAULT_GAP_TOL = 1e-6

_RESIDUAL_TAG, _COALITION_TAG = 0xB2, 0xC3


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one subproblem solve.  Its allocation is in one
    coalition's own coordinates (Scenario.local_axes): a native solve's in
    its singleton's, a residual sale's in the grand coalition's."""

    value: float
    allocation: Allocation
    # "exact" for a solve that takes no restarts (every term linear, or no
    # binding resource), else "multistart_fw"
    solver_kind: str
    iterations: int
    restarts_used: int
    # the best run's Frank-Wolfe gap when it stopped: <grad, s - x> at the
    # oracle's point s; 0 for exact solves
    gap: float
    wall_time: float


# ---------------------------------------------------------------------------
# linear maximization oracles


@functools.cache
def _row_offsets(size: int, n: int) -> np.ndarray:
    """Column (size // n, 1) of the flat index at which each row of n
    starts in an array of size, built once per shape (read-only)."""
    offsets = np.arange(0, size, n)[:, None]
    offsets.flags.writeable = False
    return offsets


def _sort_index(key: np.ndarray) -> np.ndarray:
    """Flat indices into key (..., n) that list each row along the last
    axis in decreasing order (stable: ties to the lowest index).  Moving
    values by flat fancy indexing is cheaper than take_along_axis and
    put_along_axis at these sizes."""
    order = np.argsort(-key, axis=-1, kind="stable")
    n = key.shape[-1]
    order = order.reshape(-1, n)
    order += _row_offsets(order.size, n)
    return order.ravel()


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
    # the budget left before each item, clipped to [0, its cap] in place
    # (maximum, then minimum, returns what np.clip does, signed zeros too)
    room = np.empty(p.shape)
    room[..., :1] = 0.0
    np.cumsum(ub_o[..., :-1], axis=-1, out=room[..., 1:])
    np.subtract(budget[..., None], room, out=room)
    np.maximum(room, 0.0, out=room)
    np.minimum(room, ub_o, out=room)
    x = np.empty(p.size)
    x[at] = room.ravel()
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


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core():
    """scipy's bundled HiGHS binding, loaded straight from its extension
    file in scipy's package directory.  Importing it by name would first
    run the scipy.optimize package __init__: about 550 more modules
    (sparse, linalg, special, ...), 0.5 s and 40 MB resident on a 2-core
    host, for one extension that needs only numpy and top-level scipy
    (24 modules, 13 ms, 4 MB).  A binding already in sys.modules
    (scipy.optimize imported first) is reused, not loaded a second time,
    and a later scipy.optimize import finds this one there under its full
    name: either way one module and one set of pybind11 types serve both."""
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    import scipy

    dirs = [os.path.join(p, "optimize", "_highspy") for p in scipy.__path__]
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    for d in dirs:
        spec = importlib.machinery.FileFinder(d, loader).find_spec(_HIGHS_CORE)
        if spec is not None:
            break
    else:
        raise ImportError(f"scipy {scipy.__version__} has no HiGHS binding {_HIGHS_CORE} "
                          f"in {os.pathsep.join(dirs)}", name=_HIGHS_CORE)
    core = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        sys.modules.pop(_HIGHS_CORE, None)
        raise
    return core


@functools.cache
def _highs():
    """scipy's bundled HiGHS binding (_load_highs_core) and the one solver
    instance every transport LP runs on, with the options
    linprog(method="highs") passes: presolve on, dual simplex, no output,
    no debug checks.  The first call loads the binding, so a process's
    first LP solve times that load too."""
    _core = _load_highs_core()
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


def _own_fill(profit: np.ndarray, later: np.ndarray, amounts: np.ndarray,
              budget: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Each owner's fractional-knapsack fill of its own applications:
    batched rows of items (B, M), item i taking up to amounts_i from the
    budget (B, S) of its owner, owner_i.  Within an owner items are taken
    in decreasing profit, then with `later` False before True, then by
    lowest index; the fill ignores the sign of a profit."""
    rows, m = profit.shape
    at = (np.lexsort((later, -profit), axis=-1) + np.arange(0, rows * m, m)[:, None]).ravel()
    amt, whose = amounts.ravel()[at], owner[at % m]
    # the amounts each item's owner took before it: a running sum per
    # owner, which adds exact zeros for the other owners' items
    run = np.zeros((rows * m, budget.shape[1]))
    item = np.arange(rows * m)
    run[item, whose] = amt
    before = np.zeros_like(run)
    np.cumsum(run.reshape(rows, m, -1)[:, :-1], axis=1,
              out=before.reshape(rows, m, -1)[:, 1:])
    room = budget[item // m, whose] - before[item, whose]
    fill = np.empty(rows * m)
    fill[at] = np.clip(room, 0.0, amt)
    return fill.reshape(rows, m)


def _trim(x: np.ndarray, bound: np.ndarray, axis: int) -> None:
    """Lower, in place, the largest entry along axis of every sum that
    exceeds its bound by the excess, until no sum does: the rounding dust
    of a construction whose exact sums fit."""
    while True:
        over = x.sum(axis=axis, keepdims=True) - bound
        if not (over > 0).any():
            return
        at = np.argmax(x, axis=axis, keepdims=True)
        top = np.take_along_axis(x, at, axis)
        lower = np.clip(np.minimum(top - over, np.nextafter(top, 0.0)), 0.0, None)
        np.put_along_axis(x, at, np.where(over > 0, lower, top), axis)


def _pooled_receipts(a: np.ndarray, b: np.ndarray, reqs: np.ndarray, caps: np.ndarray,
                     owner: np.ndarray) -> np.ndarray:
    """Optimal receipts t (B, MS) of the pooled row of _own_total_vertex,
    per batched row: foreign credit b and owner's credit a = b + d (B, MS),
    requests (B, MS), member capacities (B, S), owner_i the member that
    owns application i.

    At price p each owner fills its own supply by the profits
    min(d, a - p)+, and every request whose b beats p is filled.  Receipts
    only fall as p rises, and change only at p = 0, b_i, a_i, or a_j - d_i
    for two applications of one owner while i is foreign and j is not
    (b_j <= p < b_i).  A bisection over those distinct sorted prices finds
    the least p whose receipts just above it fit in the pooled capacity C.
    It starts from a bracket of two bounds on the receipts at every price:
    the foreign requests alone, and those plus each owner's own-only
    requests (b <= p < a) capped at its capacity.  A price whose lower
    bound overfills C, or whose upper bound fits, by more than 1e-9 *
    max(1, C), is on that side of p.  Where p > 0 the receipts just below
    it overfill C, and the mix of the two that fills C exactly is
    optimal."""
    rows, m = a.shape
    pooled = caps.sum(axis=1)

    def receipts(price, above):
        """Receipts (B, J, MS) at J prices per row (B, J), each just above
        it (above) or just below.  Where b beats the price the request is
        filled and own supply earns d on top; elsewhere own supply earns
        a - price, if positive.  Ties between the two kinds go the way the
        price moves them, and a d = 0 application still takes own supply."""
        p, up = price[..., None], np.asarray(above)[..., None]
        foreign = np.where(up, b[:, None] > p, b[:, None] >= p)
        allowed = foreign | np.where(up, a[:, None] > p, a[:, None] >= p)
        own = _own_fill(np.where(foreign, (a - b)[:, None], a[:, None] - p).reshape(-1, m),
                        (foreign ^ up).reshape(-1, m),
                        np.where(allowed, reqs[:, None], 0.0).reshape(-1, m),
                        np.repeat(caps, price.shape[1], axis=0), owner)
        return np.where(foreign, reqs[:, None], own.reshape(foreign.shape))

    mates_i, mates_j = np.nonzero((owner[:, None] == owner) & ~np.eye(m, dtype=bool))
    swap = a[:, mates_j] - (a - b)[:, mates_i]
    swap[(b[:, mates_j] > swap) | (swap >= b[:, mates_i])] = np.inf
    prices = np.sort(np.maximum(np.concatenate([np.zeros((rows, 1)), b, a, swap], axis=1), 0.0),
                     axis=1)
    prices[:, 1:][prices[:, 1:] == prices[:, :-1]] = np.inf  # +inf pads each row
    prices = np.sort(prices, axis=1)
    count = np.isfinite(prices).sum(axis=1)
    prices = prices[:, :count.max()]
    p = prices[..., None]
    foreign = b[:, None] > p
    lower = np.where(foreign, reqs[:, None], 0.0).sum(axis=-1)
    own_only = np.where(foreign | (a[:, None] <= p), 0.0, reqs[:, None])
    own_only = own_only @ (owner == np.arange(caps.shape[1])[:, None]).T
    upper = lower + np.minimum(own_only, caps[:, None]).sum(axis=-1)
    slack = 1e-9 * np.maximum(1.0, pooled)[:, None]
    step = np.arange(prices.shape[1])
    # bisection between lo (overfills) and hi (fits); the last price fits
    at = np.arange(rows)
    lo = np.where(lower > pooled[:, None] + slack, step, -1).max(axis=1)
    hi = np.where(upper < pooled[:, None] - slack, step, count[:, None] - 1).min(axis=1)
    while (live := hi - lo > 1).any():
        mid = (lo + hi) // 2
        fits = receipts(prices[at, mid, None], True)[:, 0].sum(axis=-1) <= pooled
        hi, lo = np.where(live & fits, mid, hi), np.where(live & ~fits, mid, lo)
    price = prices[at, hi]
    t_up, t_down = np.moveaxis(receipts(np.stack([price, price], axis=1), [True, False]), 1, 0)
    u_up, u_down = t_up.sum(axis=1), t_down.sum(axis=1)
    spread = np.where((price > 0) & (u_down > u_up), u_down - u_up, np.inf)
    return t_up + np.clip((pooled - u_up) / spread, 0.0, 1.0)[:, None] * (t_down - t_up)


def _rows(v: np.ndarray) -> np.ndarray:
    """(R, MS, K) to rows (R * K, MS): restart-major, then resource."""
    return v.transpose(0, 2, 1).reshape(-1, v.shape[1])


def _pooled_bounds(prob: CoalitionProblem, rows: int):
    """Requests (rows, MS) and member capacities (rows, S) of the rows
    (R * K) of _rows."""
    m, k = prob.terms.requests.shape
    reqs = np.broadcast_to(prob.terms.requests.T, (rows // k, k, m)).reshape(rows, m)
    return reqs, np.broadcast_to(prob.caps.T, (rows // k, k, prob.size)).reshape(rows, -1)


def _own_total_vertex(prob: CoalitionProblem, a: np.ndarray, b: np.ndarray):
    """Own supply o and total receipts t, rows (R * K, MS) each,
    maximizing b.t + (a - b).o per row over 0 <= o <= t <= requests, each
    member's own supply within its capacity and sum t within the pooled
    capacity C, from the owner's credit a and the foreign credit b >= 0,
    a >= b.  The pooled row is priced for its receipts t
    (_pooled_receipts); of them each owner supplies its own applications
    first, by decreasing a - b and then lowest index (_own_fill), and an
    application whose b is 0 keeps its own supply alone."""
    reqs, caps = _pooled_bounds(prob, len(a))
    owner = prob.ord_pos[:, 0]
    t = _pooled_receipts(a, b, reqs, caps, owner)
    own = _own_fill(a - b, np.zeros(a.shape, dtype=bool), t, caps, owner)
    return own, np.where(b > 0, t, own)


def _lmo_own_total(prob: CoalitionProblem, gs: np.ndarray) -> np.ndarray:
    """Exact linear oracle in own/total coordinates, with no LP, for a
    gradient batch (R, 2, MS, K) of a coalition with prob.own_foreign:
    (d, b), the slopes in the own supply o and the total receipts t.  The
    feasible (o, t) are the image of the member polytope under
    CoalitionProblem.own_total, and at any allocation with image (o, t)
    the member gradient's linear value is d.o + b.t, so this oracle's
    vertex (_own_total_vertex), split by _member_split, is an optimal
    member allocation.  Returns the vertices (R, 2, MS, K), every restart
    and resource solved at once."""
    r_count, _, m, k = gs.shape
    b = _rows(gs[:, 1])
    own, t = _own_total_vertex(prob, _rows(gs[:, 0]) + b, b)
    return np.stack([own, t], axis=1).reshape(r_count, k, 2, m).transpose(0, 2, 3, 1)


def _member_split(prob: CoalitionProblem, own: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A member allocation (R, S, MS, K) of own/total vertices, rows
    (R * K, MS) of _own_total_vertex.  Each owner's cell takes the own
    supply; the rest of the receipts is foreign, shipped from the
    members' leftover capacity by the northwest-corner staircase, lowest
    index first.  At such a vertex a member whose applications take
    foreign receipts has spent its capacity on them, so it ships none:
    every member that ships has capacity left over its own supply
    (Hall's condition without the own cells).  Sums that rounding pushes
    past a bound are trimmed (_trim)."""
    size, owner, m = prob.size, prob.ord_pos[:, 0], t.shape[1]
    _, caps = _pooled_bounds(prob, len(t))
    foreign = t - own
    mine = owner == np.arange(size)[:, None]  # (S, MS)
    spare = np.where(np.where(mine, foreign[:, None], 0.0).sum(axis=-1) > 0, 0.0,
                     np.maximum(caps - np.where(mine, own[:, None], 0.0).sum(axis=-1), 0.0))
    x = _staircase(spare, foreign)  # (rows, S, MS)
    x[:, owner, np.arange(m)] += own
    k = prob.caps.shape[1]
    x = np.ascontiguousarray(x.reshape(-1, k, size, m).transpose(0, 2, 3, 1))
    _trim(x, prob.caps[:, None, :], -2)
    _trim(x, prob.terms.requests, -3)
    return x


# ---------------------------------------------------------------------------
# batched multistart Frank-Wolfe: unit steps on convex objectives,
# golden-section steps otherwise


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_COARSE, _REFINE = 17, 24  # grid points of the scan, golden-section probes


def _best_steps(value_at, n: int):
    """Maximize h_r(gamma) on [0, 1] for n segments at once: a coarse scan,
    then golden-section search around each segment's best coarse point.
    value_at maps one step per segment, shape (n,), to the n values h_r;
    it is called with one grid point, or one probe, per segment at a time.
    Returns each segment's best step and value."""
    grid = np.linspace(0.0, 1.0, _COARSE)
    vals = np.stack([value_at(np.full(n, g)) for g in grid], axis=1)
    j = np.argmax(vals, axis=1)
    best_g, best_v = grid[j], vals[np.arange(n), j]
    a = grid[np.maximum(j - 1, 0)]
    b = grid[np.minimum(j + 1, _COARSE - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = value_at(c)
    fd = value_at(d)
    for _ in range(_REFINE):
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


def _batched_frank_wolfe(evaluate, lmo, x0: np.ndarray, gap_tol: float, objective=None,
                         first=None):
    """Conditional gradient ascent from each start x0[r], all runs advancing
    in lockstep along the leading axis.  evaluate maps a batch of points to
    their values, one each, and gradients, a batch; lmo maps a batch to a
    batch; objective, if given, maps a batch to evaluate's values alone.

    Each run carries the gradient from the evaluation that moved it, so
    every point is evaluated once.  With no objective each round evaluates
    only the vertex s and moves there if it is better (the successive
    linearization algorithm: a convex objective peaks at an end of [x, s]);
    given one, a coarse scan and golden-section search of it pick the
    step and its value, and the point it moves to is evaluated again for
    its gradient.  Run r stops when its Frank-Wolfe gap <grad, s - x>
    drops below gap_tol * max(1, |f|), when its step cannot improve, or
    after MAX_ITER rounds; a stopped run leaves the batch, so every run
    follows the path it would follow alone.  The live runs' batch starts
    as x and f themselves; only a round where some run leaves writes the
    leavers back and compacts the rest, and a round in which every live
    run moved adopts the new points, values and gradients as the batch
    instead of copying them in.  Iterates stay feasible as convex
    combinations of vertices.  Returns per-run (x, f, iterations, gap)
    and vertex: vertex(r) is the oracle's point s of run r's last move,
    None if it never moved; with unit steps x[r] is x + (s - x) of it, s
    up to rounding.  The oracle's batches are kept by reference, not
    copied, for the rounds some run last moved at.

    first, if given, is (f, g, gap): the start values and gradients,
    which the caller evaluated, and a term to add to each run's round-1
    gap.  A caller that holds some terms of the objective fixed outside x
    gives their value at each start in f and their gap toward the fixed
    point in gap; evaluate counts them at that point.
    """
    x = x0.copy()
    f, g = evaluate(x) if first is None else first[:2]
    iters = np.zeros(len(x), dtype=int)
    gap = np.full(len(x), np.inf)
    moved_at = np.zeros(len(x), dtype=int)  # round of each run's last move, 0 for none
    points = {}  # round: (live runs, the oracle's points for them)
    bcast = (-1,) + (1,) * (x.ndim - 1)  # one step per run against its point
    # the live runs' batch, x and f themselves until a round changes it: a
    # run that leaves is written back to x and f and the rest compacted
    live, xl, fl, gl = np.arange(len(x)), x, f, g
    for it in range(1, MAX_ITER + 1):
        s = lmo(gl)
        points[it] = live, s
        d = s - xl
        fw_gap = (gl * d).reshape(len(live), -1).sum(axis=1)
        if it == 1 and first is not None:
            fw_gap += first[2]
        iters[live], gap[live] = it, fw_gap
        keep = fw_gap > gap_tol * np.maximum(1.0, np.abs(fl))
        if not keep.all():
            gone = ~keep
            x[live[gone]], f[live[gone]] = xl[gone], fl[gone]
            live, xl, fl, d = live[keep], xl[keep], fl[keep], d[keep]
            if not live.size:
                break
        if objective is None:
            x_new = xl + d  # as the line search's step 1 forms it; xl + (s - xl) may round off s
            f_new, g_new = evaluate(x_new)
            move = f_new > fl
        else:
            step, f_new = _best_steps(lambda gam: objective(xl + gam.reshape(bcast) * d),
                                      len(live))
            move = (f_new > fl) & (step != 0.0)  # else line search cannot improve
        if not move.all():
            gone = ~move
            x[live[gone]], f[live[gone]] = xl[gone], fl[gone]
            live, f_new = live[move], f_new[move]
            if not live.size:
                break
            if objective is None:
                x_new, g_new = x_new[move], g_new[move]
            else:
                xl, d, step = xl[move], d[move], step[move]
        if objective is not None:
            x_new = xl + step.reshape(bcast) * d
            g_new = evaluate(x_new)[1]
        # every live run moved: the new points are the batch
        xl, fl, gl, moved_at[live] = x_new, f_new, g_new, it
        if len(points) > 2 * len(x):  # drop the rounds no run last moved at
            points = {r: points[r] for r in set(moved_at.tolist()) - {0}}
    if live.size:  # MAX_ITER ended the runs still live
        x[live], f[live] = xl, fl

    def vertex(r: int):
        if not moved_at[r]:
            return None
        runs, s = points[moved_at[r]]
        return s[np.searchsorted(runs, r)]

    return x, f, iters, gap, vertex


def _check_settings(restarts: int, gap_tol: float, s: Scenario | None = None,
                    n: int = 0) -> None:
    if s is not None and not 0 <= n < s.n_players:
        raise ValueError(f"player n = {n} is outside [0, N) for this scenario's "
                         f"N = {s.n_players} players")
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

    These are those streams, but no SeedSequence or PCG64 is built per
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


def _receipt_oracles(terms: AppTerms, budget: np.ndarray, weight: float, held: float = 0.0):
    """Evaluation (value and gradient) and linear oracle on batched
    receipts t (R, M, K): the value is weight * sum_ik g_ik(t_ik) + held,
    held the value of the terms that a caller holds fixed outside t, and
    the reachable receipts are 0 <= t <= requests with
    sum_i t_ik <= budget_k."""
    def evaluate(t):
        g, gp = terms.value_and_slope(t)
        return weight * g.reshape(len(t), -1).sum(axis=1) + held, weight * gp

    def lmo(g):
        return _greedy_fill(g, budget, terms.requests)

    return evaluate, lmo


def _solve(oracles, exact: bool, x0: np.ndarray, gap_tol: float, objective=None, first=None):
    """One solve of the problem oracles (evaluate, lmo) pose, from the
    start batch x0: when `exact` (every term with a nonzero request is
    linear, so the gradient is constant; x0 is one zero point) the
    oracle's point at x0's gradient, else the best run (the first of equal
    values) of the batched driver from x0, given objective and first.
    Returns the best run's index (0 if exact), point and value,
    (solver_kind, iterations, restarts_used, gap), and the oracle's point
    it last moved to (None if it never moved)."""
    evaluate, lmo = oracles
    if exact:
        x = lmo(evaluate(x0)[1])
        return 0, x[0], evaluate(x)[0][0], ("exact", 0, 0, 0.0), x[0]
    x, f, iters, gap, vertex = _batched_frank_wolfe(evaluate, lmo, x0, gap_tol, objective, first)
    best = int(np.argmax(f))
    how = ("multistart_fw", int(iters[best]), len(x0), float(gap[best]))
    return best, x[best], float(f[best]), how, vertex(best)


def _solve_receipts(terms: AppTerms, budget: np.ndarray, weight: float, exact: bool, starts,
                    gap_tol: float):
    """Best receipts t (M, K) on budget (K,), their value
    weight * sum g(t) and how: the oracle's point where `exact`, else by
    unit steps, since every term is convex up to its request, which the
    oracle never exceeds.  starts(fill) draws the start points, the scaled
    vertices that fill builds from profits (B, M, K).

    The objective is a sum over resources, each with its own budget, so a
    slack resource, whose requests' exact sum (math.fsum) fits its
    budget, is fixed at t = requests, and an empty one, budget 0, at
    t = 0.  Frank-Wolfe runs on the other, binding, resources alone (on
    all of them where none is fixed); a solve with none is exact and draws
    nothing.  The binding columns of every start are the greedy fill of
    their profits, as in the joint problem; the slack ones start at the
    requests, scaled.  Round 1 decides as the joint problem does: one
    sigmoid pass over every resource gives each run's start value and
    gradient, and the fixed resources' gap toward their fixed point joins
    its first gap.  Once a run has moved they add their value at the fixed
    point: 1/2 per slack sigmoid term (g(r)), c * r per slack linear one,
    and g(0), from that pass, on an empty resource.  A best run that never
    moved keeps its start on them too."""
    evaluate, _ = oracles = _receipt_oracles(terms, budget, weight)
    reqs = terms.requests
    if exact:
        _, t, value, how, _ = _solve(oracles, True, np.zeros((1, *reqs.shape)), gap_tol)
        return t, value, how
    caps = budget.tolist()
    slack = [math.fsum(col) <= b for col, b in zip(reqs.T.tolist(), caps)]
    cols = [k for k, b in enumerate(caps) if b > 0 and not slack[k]]
    fixed = np.where(slack, reqs, 0.0)
    if not cols:
        return fixed, evaluate(fixed[None])[0][0], ("exact", 0, 0, 0.0)
    rest = [k for k in range(len(caps)) if k not in cols]

    def fill(p):
        v = np.empty(p.shape)
        v[..., cols] = _greedy_fill(p[..., cols], budget[cols], reqs[:, cols])
        v[..., rest] = fixed[:, rest]
        return v

    x0 = starts(fill)
    g, gp = terms.value_and_slope(x0)  # the joint problem's start
    gp = weight * gp
    at, target = x0[..., rest], fixed[:, rest]
    end = np.where([slack[k] for k in rest],
                   np.where(terms.is_sigmoid[:, None], 0.5, terms.coeffs[:, rest] * target),
                   g[0][:, rest])
    first = (weight * g.reshape(len(x0), -1).sum(axis=1), gp[..., cols],
             (gp[..., rest] * (target - at)).reshape(len(x0), -1).sum(axis=1))
    best, tb, value, how, vertex = _solve(
        _receipt_oracles(terms.resources(cols), budget[cols], weight, weight * end.sum()), False,
        x0[..., cols], gap_tol, first=first)
    t = np.empty(reqs.shape)
    t[:, cols] = tb
    t[:, rest] = at[best] if vertex is None else target
    return t, value, how


def _coalition_starts(s: Scenario, mask: int, m: int, restarts: int):
    """_starts of the coalition of mask, as a function of the vertices: every
    coalition draws member and application factors per resource, (K, S + m),
    whichever coordinates use them, so its streams keep one layout."""
    return functools.partial(_starts, s, _COALITION_TAG, mask, restarts,
                             (s.n_resources, mask.bit_count() + m))


def _solve_pooled(s: Scenario, mask: int, terms: AppTerms, budget: np.ndarray,
                  weight: float, restarts: int, gap_tol: float):
    """Best receipts t (MS, K), their value and how, for the coalition of
    mask whose credit weights all equal `weight`, on budget, by
    _solve_receipts: exact where every term is linear or no resource
    binds, else Frank-Wolfe on the binding resources from the greedy fill
    of the drawn application factors there, its slack and empty resources
    fixed."""
    size = mask.bit_count()
    starts = _coalition_starts(s, mask, len(terms.requests), restarts)
    return _solve_receipts(terms, budget, weight, terms.all_linear,
                           lambda fill: starts(lambda d: fill(np.swapaxes(d[..., size:], -1, -2))),
                           gap_tol)


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
    own capacity, by its singleton coalition's solve at weight 1.  Returns
    the unweighted optimum and the singleton's allocation (1, M_n, K)."""
    _check_settings(restarts, gap_tol, s, n)
    t0 = time.perf_counter()
    t, value, how = _solve_pooled(s, 1 << n, AppTerms.from_scenario(s, s.apps_of(n)),
                                  s.capacities[n], 1.0, restarts, gap_tol)
    return _report(value, Allocation(t[None]), how, t0)


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
    baseline, so shipping nothing earns exactly 0.  The solve is
    _solve_receipts': a resource whose residual capacity covers every
    foreign residual request ships them all, one with no residual capacity
    ships nothing, and Frank-Wolfe runs on the rest, if any; it is exact
    where every foreign owner is linear.  The sale is row n of an
    (N, M, K) allocation, the grand coalition's coordinates.
    """
    _check_settings(restarts, gap_tol, s, n)
    t0 = time.perf_counter()
    reqs = np.asarray(residual_reqs, dtype=float).copy()
    reqs[s.apps_of(n), :] = 0.0  # own applications are not foreign income
    terms = replace(AppTerms.from_scenario(s), requests=reqs)
    baseline = float(terms.value(np.zeros_like(reqs)).sum())
    foreign_linear = all(
        s.utilities[j].kind == "linear" for j in range(s.n_players) if j != n)
    t, value, how = _solve_receipts(
        terms, np.asarray(residual_caps, dtype=float), 1.0, foreign_linear,
        functools.partial(_starts, s, _RESIDUAL_TAG, n, restarts, reqs.shape), gap_tol)
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
                      np.broadcast_to(prob.terms.requests.T, lead + (len(prob.apps),)))
    return x.transpose(0, 2, 3, 1)


def _member_oracles(prob: CoalitionProblem):
    """Evaluation (value and gradient) and linear oracle in member
    coordinates (R, S, MS, K), each on the whole batch, of a coalition
    with unequal credit weights and no prob.own_foreign.  The oracle
    solves one transport LP per resource and distinct gradient slice, and
    restarts whose slices are equal share its vertex."""
    def lmo(gs):
        out = np.empty_like(gs)
        for k in range(gs.shape[-1]):
            vertex_of = {}
            for r, g in enumerate(gs[..., k]):
                key = g.tobytes()
                if key not in vertex_of:
                    vertex_of[key] = lmo_transport(g, prob.caps[:, k], prob.terms.requests[:, k])
                out[r, ..., k] = vertex_of[key]
        return out

    return prob.evaluate, lmo


def solve_coalition(
    s: Scenario,
    coalition: Coalition,
    restarts: int = DEFAULT_RESTARTS,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> SolveReport:
    """Maximize the coalition's weighted objective: members pool capacity
    over the union of their applications (per-provider budgets and
    per-application caps still bind).  The allocation is local
    (Scenario.local_axes), a copy that pins no restart batch.

    A lone member's report is solve_native's, w times the value.  Any
    other coalition runs one solve (_solve): on pooled receipts where every
    credit weight is equal, shipped by the northwest-corner staircase; in
    own/total coordinates where prob.own_foreign, from its member starts,
    shipped as the member split (_member_split) of the oracle's point where
    the best run last moved, which unit steps reach up to rounding, or as
    its member start if it never moved, worth the run's own/total value up
    to rounding; otherwise in member coordinates, shipped as it is."""
    _check_settings(restarts, gap_tol)
    t0 = time.perf_counter()
    prob = CoalitionProblem.build(s, coalition)
    if prob.size == 1:
        n = prob.members[0]
        native = solve_native(s, n, restarts, gap_tol)
        return replace(native, value=float(s.w[n] * native.value),
                       wall_time=time.perf_counter() - t0)
    if prob.uniform_weight is not None:
        t, value, how = _solve_pooled(s, coalition.mask, prob.terms, prob.caps.sum(axis=0),
                                      prob.uniform_weight, restarts, gap_tol)
        x = _staircase(prob.caps.T, t.T).transpose(1, 2, 0)
        return _report(value, Allocation(x), how, t0)
    exact = prob.terms.all_linear
    # member starts: the staircases of the drawn factors, or one zero point
    starts = _coalition_starts(s, coalition.mask, len(prob.apps), restarts)
    x0 = (np.zeros((1, prob.size, *prob.terms.requests.shape)) if exact
          else starts(functools.partial(_random_staircases, prob)))
    if prob.own_foreign:
        oracles = prob.own_total_evaluate, functools.partial(_lmo_own_total, prob)
        best, _, value, how, y = _solve(oracles, exact, prob.own_total(x0), gap_tol)
        x = x0[best] if y is None else _member_split(prob, y[0].T, y[1].T)[0]
    else:
        _, x, value, how, _ = _solve(_member_oracles(prob), exact, x0, gap_tol,
                                     None if prob.convex else prob.objective)
    return _report(value, Allocation(x), how, t0)
