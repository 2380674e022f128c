"""Optimization layer: transport oracle, native/residual/coalition solves.

Exactness is checked three independent ways: hand-enumerable instances
with frozen optima, an exhaustive lattice oracle (oracles.grid_best), and
integer brute force for the transport LMO.
"""
import dataclasses
import functools
import hashlib
import importlib.machinery
import itertools
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from edgeshare import solver
from edgeshare.analysis import TABLE_VALUE_RTOL
from edgeshare.cli import main
from edgeshare.engine import build_characteristic_table, fast_core
from edgeshare.model import (
    Allocation,
    Coalition,
    Scenario,
    UtilitySpec,
    all_coalitions,
    audit_allocation,
    generate_scenario,
    scenario_from_json,
    scenario_to_json,
)
from edgeshare.solver import (
    lmo_transport,
    solve_coalition,
    solve_native,
    solve_residual,
)
from edgeshare.utility import AppTerms, CoalitionProblem

from oracles import (
    brute_force_transport,
    embed,
    factored_staircase,
    feasibility_violations,
    greedy_fill,
    grid_best,
    own_foreign_receipts,
    restart_draws,
    sigmoid_term,
)


def linear_scenario(caps, reqs, owner, coeffs=None, w=None, zeta=None):
    caps = np.asarray(caps, dtype=float)
    reqs = np.asarray(reqs, dtype=float)
    n = caps.shape[0]
    specs = []
    for p in range(n):
        c = None if coeffs is None else np.asarray(coeffs, dtype=float)[np.asarray(owner) == p]
        specs.append(UtilitySpec("linear", coeffs=c))
    return Scenario(
        n_players=n, n_resources=caps.shape[1],
        capacities=caps, requests=reqs, owner=np.asarray(owner),
        utilities=tuple(specs),
        w=np.ones(n) if w is None else np.asarray(w, dtype=float),
        zeta=np.ones(n) if zeta is None else np.asarray(zeta, dtype=float),
    )


def member_starts(s, c, restarts):
    """The member staircases (restarts, S, MS, K) a weighted coalition
    solve starts from."""
    prob = CoalitionProblem.build(s, c)
    return solver._starts(s, solver._COALITION_TAG, c.mask, restarts,
                          (s.n_resources, prob.size + len(prob.apps)),
                          functools.partial(solver._random_staircases, prob))


def native_fw(s, n, restarts):
    """The receipt oracles and start points of player n's native solve, on
    its singleton coalition's streams: the greedy fill of the drawn
    application factors (K, 1 + M_n)."""
    terms = AppTerms.from_scenario(s, s.apps_of(n))
    oracles = solver._receipt_oracles(terms, s.capacities[n], 1.0)
    x0 = solver._starts(s, solver._COALITION_TAG, 1 << n, restarts,
                        (s.n_resources, 1 + len(terms.requests)),
                        lambda d: oracles[1](np.swapaxes(d[..., 1:], -1, -2)))
    return oracles, x0


def coalition_fw(s, c, restarts):
    """The oracles and start points a sigmoid coalition solve runs
    Frank-Wolfe from: pooled receipts when every credit weight is equal,
    with the greedy fill of the drawn application factors as start
    vertices; own/total coordinates where the members share one zeta
    and every w is at least it, from the own supply and total receipts
    of random staircases; member coordinates otherwise, from the
    staircases."""
    prob = CoalitionProblem.build(s, c)
    if prob.uniform_weight is None:
        if prob.own_foreign:
            oracles = prob.own_total_evaluate, functools.partial(solver._lmo_own_total, prob)
            return oracles, prob.own_total(member_starts(s, c, restarts))
        return solver._member_oracles(prob), member_starts(s, c, restarts)
    starts = functools.partial(solver._starts, s, solver._COALITION_TAG, c.mask, restarts,
                               (s.n_resources, prob.size + len(prob.apps)))
    oracles = solver._receipt_oracles(prob.terms, prob.caps.sum(axis=0), prob.uniform_weight)
    return oracles, starts(lambda d: oracles[1](np.swapaxes(d[..., prob.size:], -1, -2)))


# ---------------------------------------------------------------------------
# lmo_transport


def test_lmo_prefers_matching_profits():
    x = lmo_transport(np.array([[2.0, 1.0], [1.0, 2.0]]),
                      np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert np.allclose(x, np.eye(2))
    assert np.sum(x * [[2, 1], [1, 2]]) == pytest.approx(4.0)


def test_lmo_zero_profit_ships_nothing():
    x = lmo_transport(np.zeros((2, 3)), np.ones(2), np.ones(3))
    assert np.all(x == 0)


def test_lmo_zero_supply_ships_nothing():
    x = lmo_transport(np.array([[5.0, 3.0]]), np.zeros(1), np.ones(2))
    assert np.all(x == 0)


def test_lmo_single_supplier_tie_breaks_low_index():
    # equal profits: budget goes to the lowest application index first
    x = lmo_transport(np.array([[1.0, 1.0, 1.0]]), np.array([1.5]), np.ones(3))
    assert np.allclose(x, [[1.0, 0.5, 0.0]])


def test_lmo_matches_integer_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(25):
        u_n, i_n = rng.integers(1, 4), rng.integers(1, 4)
        profit = rng.uniform(-1, 3, size=(u_n, i_n)).round(2)
        supplies = rng.integers(0, 4, size=u_n).astype(float)
        demands = rng.integers(0, 4, size=i_n).astype(float)
        x = lmo_transport(profit, supplies, demands)
        assert not feasibility_violations(x[:, :, None], supplies[:, None], demands[:, None])
        got = float((profit * x).sum())
        assert got == pytest.approx(brute_force_transport(profit, supplies, demands), abs=1e-7)


def linprog_transport(profit, supplies, demands):
    """The transport vertex as scipy's public linprog(method="highs")
    returns it, after lmo_transport's post-processing: clip at zero, zero
    the nonpositive-profit entries, shrink rows then columns."""
    u_n, i_n = profit.shape
    v = np.arange(u_n * i_n)
    a_ub = sparse.csr_matrix((np.ones(2 * v.size), (np.concatenate([v // i_n, u_n + v % i_n]),
                                                    np.concatenate([v, v]))),
                             shape=(u_n + i_n, v.size))
    res = linprog(-profit.ravel(), A_ub=a_ub, b_ub=np.concatenate([supplies, demands]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    x = np.maximum(res.x.reshape(u_n, i_n), 0.0)
    x[profit <= 0] = 0.0
    row = x.sum(axis=1)
    x *= np.where(row > supplies, supplies / np.maximum(row, 1e-300), 1.0)[:, None]
    col = x.sum(axis=0)
    x *= np.where(col > demands, demands / np.maximum(col, 1e-300), 1.0)[None, :]
    return x


def test_lmo_returns_the_linprog_vertex():
    """lmo_transport calls scipy's bundled HiGHS directly; it must pick
    exactly the vertex linprog picks, degenerate ties included, so a scipy
    release that changes the private binding fails here."""
    rng = np.random.default_rng(5)
    cases = 0
    for u_n in (2, 3, 4):
        for i_n in (2, 3, 5, 8, 13, 20):
            for case in ("random", "tied rows", "nonpositive", "zero supply/demand"):
                profit = rng.uniform(0.1, 2.0, size=(u_n, i_n))
                supplies = rng.uniform(0.0, 12.0, size=u_n)
                demands = rng.uniform(0.0, 6.0, size=i_n)
                if case == "tied rows":
                    # as a common-zeta coalition gradient: every row but the
                    # first is the same
                    profit[1:] = profit[1]
                elif case == "nonpositive":
                    profit[rng.uniform(size=profit.shape) < 0.4] *= -1.0
                    profit[rng.uniform(size=profit.shape) < 0.2] = 0.0
                elif case == "zero supply/demand":
                    supplies[rng.integers(u_n)] = 0.0
                    demands[rng.uniform(size=i_n) < 0.3] = 0.0
                want = linprog_transport(profit, supplies, demands)
                got = lmo_transport(profit, supplies, demands)
                assert np.array_equal(got, want), (u_n, i_n, case)
                cases += 1
    assert cases == 72


def run_fresh(probe, *args):
    """Run probe in a fresh interpreter that imports the package from this
    checkout and this directory's modules; returns its JSON output."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(solver.__file__).resolve().parents[1]), str(here)])
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


IMPORT_ORDER_PROBE = """
import importlib.machinery, json, sys
import numpy as np
from edgeshare import solver

if sys.argv[1] == "scipy.optimize first":
    from scipy.optimize import linprog
rng = np.random.default_rng(5)
profit = rng.uniform(0.1, 2.0, size=(3, 5))
profit[1:] = profit[1]
supplies, demands = rng.uniform(0.0, 12.0, size=3), rng.uniform(0.0, 6.0, size=5)
created, create = [], importlib.machinery.ExtensionFileLoader.create_module
def spy(loader, spec):
    if spec.name.startswith("scipy.optimize"):
        created.append(spec.name)
    return create(loader, spec)
importlib.machinery.ExtensionFileLoader.create_module = spy
got = solver.lmo_transport(profit, supplies, demands)
importlib.machinery.ExtensionFileLoader.create_module = create
loaded = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
from scipy.optimize import linprog
from test_solver import linprog_transport
print(json.dumps({
    "scipy.optimize extensions the LP loaded": created,
    "scipy.optimize modules after the LP": loaded,
    "linprog vertex": bool(np.array_equal(got, linprog_transport(profit, supplies, demands))),
    # the module scipy's own HiGHS wrapper imported, too
    "one binding": (sys.modules["scipy.optimize._highspy._core"] is solver._highs()[0]
                    is sys.modules["scipy.optimize._highspy._highs_wrapper"]._h),
}))
"""


@pytest.mark.parametrize("order", ["solver first", "scipy.optimize first"])
def test_binding_is_shared_with_scipy_optimize_in_either_import_order(order):
    """The suite imports scipy.optimize at collection, so only a fresh
    interpreter loads the binding straight from its file.  The first LP
    loads that one extension and no scipy.optimize package, or, after
    scipy.optimize, reuses its binding and loads nothing.  Either way one
    module serves the solver and scipy's own wrapper, and linprog,
    imported after the direct load, still returns lmo_transport's vertex
    on a tied-rows LP."""
    core = "scipy.optimize._highspy._core"
    out = run_fresh(IMPORT_ORDER_PROBE, order)
    assert out["linprog vertex"] and out["one binding"]
    if order == "solver first":
        assert out["scipy.optimize extensions the LP loaded"] == [core]
        after = out["scipy.optimize modules after the LP"]
        assert core in after and all(m == core or m.startswith(core + ".") for m in after)
    else:
        assert out["scipy.optimize extensions the LP loaded"] == []


MISSING_BINDING_PROBE = """
import importlib.machinery, json, sys
import scipy
from edgeshare import solver

if sys.argv[2] == "init fails":
    def fail(loader, module):
        raise ImportError("init failed")
    importlib.machinery.ExtensionFileLoader.exec_module = fail
else:
    scipy.__path__ = [sys.argv[1]]
try:
    solver._highs()
except ImportError as e:
    print(json.dumps({"error": str(e), "version": scipy.__version__,
                      "left": sorted(m for m in sys.modules if m.startswith("scipy.optimize"))}))
"""


@pytest.mark.parametrize("binding", ["absent", "unloadable", "init fails"])
def test_missing_binding_is_an_import_error_naming_where_it_looked(tmp_path, binding):
    """A binding that is not where the loader looks, that is no extension,
    or whose module initialization fails: an ImportError naming scipy's
    version and the directory (absent), the file (unloadable) or the
    failure, and no sys.modules entry left behind."""
    where = tmp_path / "optimize" / "_highspy"
    where.mkdir(parents=True)
    if binding == "unloadable":
        (where / f"_core{importlib.machinery.EXTENSION_SUFFIXES[0]}").write_bytes(b"")
    out = run_fresh(MISSING_BINDING_PROBE, str(tmp_path), binding)
    if binding == "init fails":
        assert out["error"] == "init failed"
    else:
        assert str(where) in out["error"]
    if binding == "absent":
        assert f"scipy {out['version']} " in out["error"]
    assert out["left"] == []


@pytest.mark.parametrize("budget_scale", [0.0, 0.4, 1.5])  # zero, binding, above the total
def test_greedy_fill_matches_the_loop_fill(budget_scale):
    """The batched fill is the per-row loop fill (oracles.greedy_fill) bit
    for bit on random (R, M, K) batches: ties, zero and negative profits
    on a half-integer grid, zero caps, and a budget of zero, one that
    binds, and one above the total request."""
    rng = np.random.default_rng(25)
    for case in range(60):
        r, m, k = (int(v) for v in rng.integers(1, (9, 13, 4)))
        profits = rng.normal(size=(r, m, k))
        if case % 2:
            profits = rng.integers(-2, 3, size=(r, m, k)) * 0.5
        ubs = rng.random((m, k)) * (rng.random((m, k)) < 0.75)
        budget = budget_scale * ubs.sum(axis=0)
        got = solver._greedy_fill(profits, budget, ubs)
        assert got.tobytes() == greedy_fill(profits, budget, ubs).tobytes(), f"case {case}"
        if budget_scale > 1:  # every item with a positive profit is filled
            assert np.array_equal(got, np.where(profits > 0, ubs, 0.0)), f"case {case}"


def test_lmo_rejects_bad_shapes():
    with pytest.raises(ValueError):
        lmo_transport(np.ones((2, 2)), np.ones(3), np.ones(2))


@pytest.mark.parametrize("where", ["supplies", "demands"])
@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_lmo_rejects_nan_or_negative_bounds(where, bad):
    # a NaN passes a `< 0` test; it must be refused as a negative bound is,
    # before the LP solver sees it
    bounds = {"supplies": np.ones(2), "demands": np.ones(3)}
    bounds[where][1] = bad
    with pytest.raises(ValueError, match="supplies and demands must be >= 0"):
        lmo_transport(np.ones((2, 3)), bounds["supplies"], bounds["demands"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lmo_rejects_non_finite_profits(bad):
    profit = np.ones((2, 3))
    profit[1, 2] = bad
    with pytest.raises(ValueError, match="profits must be finite"):
        lmo_transport(profit, np.ones(2), np.ones(3))


@pytest.mark.parametrize("negative", ["alpha", "gamma"])
def test_factored_oracle_rejects_negative_factors(negative):
    factors = {"alpha": np.ones(2), "gamma": np.ones(3)}
    factors[negative][0] = -0.5
    with pytest.raises(ValueError, match="nonnegative factors"):
        solver._lmo_factored(factors["alpha"], factors["gamma"], np.ones(2), np.ones(3))


def test_lmo_rejects_infinite_bounds():
    # an infinite supply meeting an infinite demand on a positive profit
    # made the LP unbounded, and HiGHS's failure surfaced as a RuntimeError
    inf = float("inf")
    with pytest.raises(ValueError, match="supplies and demands must be >= 0 and finite"):
        lmo_transport(np.ones((2, 3)), [inf, inf], [inf, 1, 1])
    with pytest.raises(ValueError, match="finite"):
        lmo_transport(np.ones((1, 3)), [1.0], [inf, 1, 1])  # the greedy path too


# ---------------------------------------------------------------------------
# the LP-free oracle of coalitions whose members share one zeta


def own_foreign_problem(rng, case, restarts=3, n_resources=2):
    """A grand coalition of 2-4 linear players with 1-5 applications each,
    one zeta and every w at least it, and a batch
    (restarts, S, MS, K) of gradients of the oracle's form: one value b on
    an application's foreign cells, b + d with d >= 0 on its owner's.
    Cases: random data; tied rows (every b and every d equal); zero
    profits (some b, some d, some both); zero capacities and requests;
    w == zeta on some owners, whose d is then 0; and a plateau: pooled
    capacity equal to the total request per resource, up to rounding, so
    the pooled row binds with receipts at capacity over a range of
    prices."""
    size = int(rng.integers(2, 5))
    owner = np.repeat(np.arange(size), rng.integers(1, 6, size=size))
    m = owner.size
    caps = rng.uniform(0.0, 12.0, size=(size, n_resources))
    reqs = rng.uniform(0.0, 6.0, size=(m, n_resources))
    w = rng.uniform(0.5, 2.0, size=size)
    b = rng.uniform(0.0, 3.0, size=(restarts, m, n_resources))
    d = rng.uniform(0.0, 3.0, size=b.shape)
    if case == "tied rows":
        b[:], d[:] = b[:, :1, :1], d[:, :1, :1]
    elif case == "zero profits":
        b[rng.uniform(size=b.shape) < 0.4] = 0.0
        d[rng.uniform(size=d.shape) < 0.4] = 0.0
    elif case == "zero capacities":
        caps[rng.integers(size)] = 0.0
        caps[rng.uniform(size=caps.shape) < 0.2] = 0.0
        reqs[rng.uniform(size=reqs.shape) < 0.3] = 0.0
    elif case == "w == zeta":
        w[rng.uniform(size=size) < 0.5] = 0.5
        d[:, w[owner] == 0.5] = 0.0
    elif case == "plateau":
        caps *= reqs.sum(axis=0) / caps.sum(axis=0)
    s = linear_scenario(caps, reqs, owner, w=np.maximum(w, 0.5), zeta=np.full(size, 0.5))
    prob = CoalitionProblem.build(s, Coalition.grand(size))
    assert prob.own_foreign
    gs = np.repeat(b[:, None], size, axis=1)
    gs[:, owner, np.arange(m)] += d
    return s, prob, gs


OWN_FOREIGN_CASES = ["random", "tied rows", "zero profits", "zero capacities", "w == zeta",
                     "plateau"]


def own_foreign_vertex(prob, gs):
    """The LP-free oracle's member allocation for a gradient batch
    (R, S, MS, K) of the own/foreign form: the own/total vertex
    (_own_total_vertex) at the owner's credit a and the foreign credit b,
    split over the members (_member_split), as a linear own/foreign
    coalition solve ships it."""
    cols = np.arange(gs.shape[2])
    a, b = (solver._rows(gs[:, prob.ord_pos[:, slot], cols, :]) for slot in (0, 1))
    return solver._member_split(prob, *solver._own_total_vertex(prob, a, b))


def full_search_vertex(prob, gs):
    """own_foreign_vertex from the receipts of the first price search, a
    bisection over every breakpoint (oracles)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_pooled_receipts", own_foreign_receipts)
        return own_foreign_vertex(prob, gs)


def assert_matches_full_search(prob, gs, x, where):
    """Every restart and resource of x equals the full search's vertex,
    bit for bit, except where the pooled row binds: receipts equal to the
    pooled capacity over a range of prices make the fit test flip with
    an ulp of rounding, so the two searches may settle on different
    prices of that plateau, each optimal.  There both fill the capacity
    and their linear values agree to 1e-12 relative."""
    want = full_search_vertex(prob, gs)
    for r, k in np.ndindex(len(gs), gs.shape[-1]):
        if np.array_equal(x[r, ..., k], want[r, ..., k]):
            continue
        pooled = prob.caps[:, k].sum()
        assert x[r, ..., k].sum() == pytest.approx(pooled, rel=1e-12), (where, r, k)
        assert want[r, ..., k].sum() == pytest.approx(pooled, rel=1e-12), (where, r, k)
        g = gs[r, ..., k]
        assert (g * x[r, ..., k]).sum() == pytest.approx((g * want[r, ..., k]).sum(),
                                                          rel=1e-12), (where, r, k)


@pytest.mark.parametrize("case", OWN_FOREIGN_CASES)
def test_own_foreign_oracle_matches_the_transport_lp(case):
    """On every restart and resource of 40 random instances per case, the
    oracle's linear value equals lmo_transport's to 1e-12 relative, its
    allocation meets every capacity and request exactly, with no
    tolerance (the sums the audit takes are at most their bounds), and
    it is the full price search's vertex, plateaus aside."""
    rng = np.random.default_rng(OWN_FOREIGN_CASES.index(case))
    for trial in range(40):
        s, prob, gs = own_foreign_problem(rng, case)
        x = own_foreign_vertex(prob, gs)
        assert x.shape == gs.shape and x.min() >= 0.0
        assert_matches_full_search(prob, gs, x, (case, trial))
        assert (x.sum(axis=-2) <= prob.caps).all()
        assert (x.sum(axis=-3) <= prob.terms.requests).all()
        for r in range(len(gs)):
            assert audit_allocation(s, Allocation(x[r]), Coalition.grand(s.n_players), tol=0.0) == []
            for k in range(s.n_resources):
                g = gs[r, ..., k]
                vertex = lmo_transport(g, prob.caps[:, k], prob.terms.requests[:, k])
                want = float((g * vertex).sum())
                got = float((g * x[r, ..., k]).sum())
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (case, trial, r, k)


def test_own_foreign_oracle_on_a_plateau_of_prices():
    """A pooled row, found among random instances, whose receipts equal its
    capacity over a range of prices.  The full search and the bracketed
    one may stop at different prices of it; either way the vertex fills
    the capacity within an ulp, meets every bound exactly, and scores as
    the full search's and the transport LP's do."""
    a = [2.904346020761008, 3.9761677456565314, 2.8855933572919183, 1.777351519945682,
         2.504552001947109, 2.7266387738436006, 1.0913207703459178, 3.0001742459668552,
         3.0642633561981647, 2.4376034516582035]
    b = [0.4690796006618583, 1.945536019036707, 0.03460239864382941, 0.2076349684515192,
         1.79728591647677, 0.11405907946181648, 0.723595466332274, 1.544022712581173,
         2.3902980005837184, 0.18603371560042603]
    reqs = [1.6646233700832744, 4.520572368683496, 3.260483443184837, 4.1418399380562265,
            3.697742757155935, 1.2418360672515878, 4.530214072003322, 3.108708959438444,
            0.8039302775616046, 5.065651633579996]
    caps = [[6.431703052799788], [8.554689848045378]]
    owner = np.repeat([0, 1], 5)
    s = linear_scenario(caps, np.array(reqs)[:, None], owner, w=[1.0, 1.0], zeta=[0.5, 0.5])
    prob = CoalitionProblem.build(s, Coalition.grand(2))
    g = np.repeat(np.array(b)[None], 2, axis=0)
    g[owner, np.arange(10)] = a
    gs = g[None, ..., None]
    x = own_foreign_vertex(prob, gs)
    assert_matches_full_search(prob, gs, x, "plateau")
    assert x.sum() == pytest.approx(prob.caps.sum(), rel=1e-15)
    assert audit_allocation(s, Allocation(x[0]), Coalition.grand(2), tol=0.0) == []
    want = float((g * lmo_transport(g, prob.caps[:, 0], prob.terms.requests[:, 0])).sum())
    assert float((g * x[0, ..., 0]).sum()) == pytest.approx(want, rel=1e-12)


def test_own_foreign_oracle_work_on_the_golden_weighted_table(monkeypatch):
    """Building the golden 3x5 sigmoid 1:0.5 table (8 oracle calls) runs
    16 owner fills.  The bisection over every breakpoint from the full
    range ran 58: only prices that can move the receipts are searched,
    from a bracket of two bounds on them."""
    fill, passes = solver._own_fill, []

    def counted(*args):
        passes.append(len(args[0]))
        return fill(*args)

    monkeypatch.setattr(solver, "_own_fill", counted)
    build_characteristic_table(
        generate_scenario(3, 3, 5, utility="sigmoid", mu=3.0, seed=2, w=1.0, zeta=0.5))
    assert len(passes) == 16


def test_own_foreign_oracle_matches_integer_brute_force():
    """On small integer capacities and requests the oracle's value is the
    exhaustive optimum."""
    rng = np.random.default_rng(31)
    cases = 0
    while cases < 60:
        size = int(rng.integers(2, 4))
        owner = np.repeat(np.arange(size), rng.integers(1, 3, size=size))
        caps = rng.integers(0, 3, size=(size, 1)).astype(float)
        reqs = rng.integers(0, 3, size=(owner.size, 1)).astype(float)
        if np.prod(np.minimum.outer(caps[:, 0], reqs[:, 0]) + 1) > 20_000:
            continue  # keep the exhaustive search small
        s = linear_scenario(caps, reqs, owner, w=np.ones(size), zeta=np.full(size, 0.5))
        prob = CoalitionProblem.build(s, Coalition.grand(size))
        b = rng.uniform(0.0, 3.0, size=owner.size).round(2)
        g = np.repeat(b[None], size, axis=0)
        g[owner, np.arange(owner.size)] += rng.uniform(0.0, 3.0, size=owner.size).round(2)
        x = own_foreign_vertex(prob, g[None, ..., None])[0, ..., 0]
        want = brute_force_transport(g, caps[:, 0], reqs[:, 0])
        assert float((g * x).sum()) == pytest.approx(want, abs=1e-9), cases
        cases += 1


def test_own_foreign_oracle_is_not_greedy_by_profit():
    """Member p (capacity 1) owns application i (own credit 10, foreign
    9.9) and j (9.95 and 0.1); member q has capacity 1 and no demand.
    Filling i's own cell first, as a greedy fill by profit does, scores
    10.1.  The optimum puts p on j and q on i, for 19.85."""
    s = linear_scenario([[1.0], [1.0]], [[1.0], [1.0], [0.0]], [0, 0, 1],
                        w=[1.0, 1.0], zeta=[0.5, 0.5])
    prob = CoalitionProblem.build(s, Coalition.grand(2))
    g = np.array([[10.0, 9.95, 0.0], [9.9, 0.1, 0.0]])
    x = own_foreign_vertex(prob, g[None, ..., None])[0, ..., 0]
    assert float((g * x).sum()) == pytest.approx(19.85, rel=1e-15)
    assert x.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]


def test_member_gradients_take_the_own_foreign_form():
    """The gradient prob.evaluate gives at a 1:0.5 sigmoid coalition's
    restart points holds one value on each application's foreign cells,
    bit for bit, and no less on its owner's.  There the oracle is never
    below the transport LP, and above it by less than HiGHS's default
    dual feasibility tolerance (1e-7) per unit shipped: at that tolerance
    HiGHS leaves cells whose profit, or profit difference, is below it
    as it finds them, and sigmoid slopes far from the request are 1e-9
    and less.  Exact agreement is checked on data of unit scale
    (test_own_foreign_oracle_matches_the_transport_lp)."""
    s = generate_scenario(4, 2, 3, utility="sigmoid", mu=3.0, seed=5, w=1.0, zeta=0.5)
    for c in (Coalition(0b0011), Coalition(0b1101), Coalition.grand(4)):
        prob = CoalitionProblem.build(s, c)
        assert prob.own_foreign and prob.uniform_weight is None
        gs = prob.evaluate(member_starts(s, c, 6))[1]
        cols = np.arange(len(prob.apps))
        foreign = np.stack([gs[:, prob.ord_pos[:, t], cols] for t in range(1, prob.size)])
        assert (foreign == foreign[0]).all()
        assert (gs[:, prob.ord_pos[:, 0], cols] >= foreign[0]).all()
        x = own_foreign_vertex(prob, gs)
        for r in range(len(gs)):
            for k in range(s.n_resources):
                g = gs[r, ..., k]
                vertex = lmo_transport(g, prob.caps[:, k], prob.terms.requests[:, k])
                want = float((g * vertex).sum())
                got = float((g * x[r, ..., k]).sum())
                assert want * (1 - 1e-12) <= got <= want + 1e-7 * prob.caps[:, k].sum()


def random_own_foreign_coalitions(seed, count):
    """(scenario, coalition, problem) of `count` random sigmoid coalitions
    of 2-4 members with prob.own_foreign and unequal credit weights: 1-4
    applications per player, 2 resources, mu 1, 3 or 10, one shared zeta
    and each w at least it, equal to it on some players."""
    rng = np.random.default_rng(seed)
    trial = 0
    while count:
        trial += 1
        n = int(rng.integers(2, 5))
        s = generate_scenario(n, 2, int(rng.integers(1, 5)), utility="sigmoid",
                              mu=float(rng.choice([1.0, 3.0, 10.0])), seed=seed * 100 + trial)
        zeta = rng.uniform(0.1, 1.0)
        above = rng.uniform(0.0, 1.0, size=n) * (rng.uniform(size=n) < 0.7)
        s = dataclasses.replace(s, w=zeta + above, zeta=np.full(n, zeta))
        mask = int(rng.integers(1, 2**n))
        prob = CoalitionProblem.build(s, Coalition(mask))
        if prob.size < 2 or prob.uniform_weight is not None:
            continue
        assert prob.own_foreign
        count -= 1
        yield s, Coalition(mask), prob


def test_own_total_value_and_gradient_match_member_coordinates():
    """At member points (staircase starts, rescaled at random) mapped to
    own/total coordinates, the own/total value equals evaluate's to 1e-14
    relative, and its gradient (d, b) gives evaluate's gradient: b on
    every foreign cell and d + b on every owner's cell.  The totals sum
    the members in index order, the member objective in attribution
    order, so both agree up to rounding."""
    for s, c, prob in random_own_foreign_coalitions(3, 30):
        rng = np.random.default_rng(c.mask)
        x0 = member_starts(s, c, 6)
        xs = np.concatenate([x0, x0 * rng.uniform(0.0, 1.0, size=x0.shape)])
        f, grad = prob.evaluate(xs)
        y = prob.own_total(xs)
        assert y.shape == (len(xs), 2, *prob.terms.requests.shape)
        f_ot, slopes = prob.own_total_evaluate(y)
        d, b = slopes[:, 0], slopes[:, 1]
        zeta = prob.zseq[:, 1]
        weights = np.stack([prob.zseq[:, 0] - zeta, zeta])[:, :, None]
        weighted = weights * prob.terms.value(y)
        assert f_ot.tobytes() == weighted.reshape(len(y), -1).sum(axis=1).tobytes()
        np.testing.assert_allclose(f_ot, f, rtol=1e-14, atol=0)
        cols = np.arange(len(prob.apps))
        for slot in range(1, prob.size):
            np.testing.assert_allclose(grad[:, prob.ord_pos[:, slot], cols], b, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad[:, prob.ord_pos[:, 0], cols], d + b, rtol=1e-12, atol=0)


def test_own_total_solves_ship_a_feasible_allocation_worth_their_value(monkeypatch):
    """A sigmoid own/foreign solve runs in own/total coordinates and
    builds its member allocation once, from its best run: the member
    start where that run never moved, and otherwise the member split of
    the oracle's point it last moved to.  Either way the allocation meets
    every bound exactly (audit_allocation, tol=0), and the objective at
    it is the reported value to TABLE_VALUE_RTOL.  A gap tolerance every
    gap is below stops every run at its start; at the default one, best
    runs move (and now and then one does not)."""
    splits = []
    split = solver._member_split

    def recording(prob, own, t):
        splits.append(len(own))
        return split(prob, own, t)

    monkeypatch.setattr(solver, "_member_split", recording)
    seen = {1e9: set(), solver.DEFAULT_GAP_TOL: set()}
    for s, c, prob in random_own_foreign_coalitions(4, 40):
        starts = member_starts(s, c, 6)
        for gap_tol, branches in seen.items():
            splits.clear()
            rep = solve_coalition(s, c, restarts=6, gap_tol=gap_tol)
            x = rep.allocation.x
            assert audit_allocation(s, rep.allocation, c, tol=0.0) == [], c.label()
            assert abs(prob.objective(x) - rep.value) <= \
                TABLE_VALUE_RTOL * max(1.0, abs(rep.value)), c.label()
            moved = bool(splits)
            branches.add(moved)
            if moved:  # one split of one run's point, one row per resource
                assert splits == [s.n_resources] and rep.iterations > 1, c.label()
                assert not any(np.array_equal(x, x0) for x0 in starts), c.label()
            else:
                assert any(np.array_equal(x, x0) for x0 in starts), c.label()
    assert seen[1e9] == {False} and True in seen[solver.DEFAULT_GAP_TOL]


def test_linear_own_foreign_solves_ship_the_member_oracle_vertex():
    """A linear own/foreign coalition takes its one oracle call in
    own/total coordinates, at the zero point's gradient (d, b), and ships
    its member split.  That is, bit for bit, the LP-free oracle's member
    allocation at the member gradient (b on every foreign cell, b + d on
    the owner's), and the objective there is the reported value to
    1e-15 relative."""
    for n, m, w, zeta in ((3, 5, 1.0, 0.5), (4, 3, 1.0, 0.8), (3, 4, 2.0, 1.0)):
        for seed in range(4):
            s = generate_scenario(n, 3, m, utility="linear", seed=seed, w=w, zeta=zeta)
            for c in all_coalitions(n):
                prob = CoalitionProblem.build(s, c)
                if not prob.own_foreign:
                    continue
                rep = solve_coalition(s, c)
                gs = prob.evaluate(np.zeros((1, prob.size, *prob.terms.requests.shape)))[1]
                want = own_foreign_vertex(prob, gs)[0]
                assert rep.solver_kind == "exact", c.label()
                assert rep.allocation.x.tobytes() == want.tobytes(), (seed, c.label())
                assert rep.value == pytest.approx(prob.objective(want), rel=1e-15), c.label()


@pytest.mark.parametrize("w, zeta, own_foreign", [
    ([1.0] * 3, [0.5] * 3, True),  # w above zeta
    ([0.5, 1.0, 1.0], [0.5] * 3, True),  # w == zeta on one owner
    ([0.5] * 3, [1.0] * 3, False),  # w below zeta
    ([2.0, 1.5, 2.5], [1.0, 0.75, 0.5], False),  # one zeta per player
])
def test_own_foreign_predicate(w, zeta, own_foreign):
    s = dataclasses.replace(generate_scenario(3, 2, 2, utility="sigmoid", mu=3.0, seed=5),
                            w=np.array(w), zeta=np.array(zeta))
    assert CoalitionProblem.build(s, Coalition.grand(3)).own_foreign is own_foreign
    for n in range(3):  # a lone member has no foreign cell
        assert not CoalitionProblem.build(s, Coalition.singleton(n)).own_foreign


# ---------------------------------------------------------------------------
# solve_native


def test_native_fractional_knapsack_case():
    # K=1, two apps r=(1,2) with linear worths (3,1) and budget 2:
    # fill the worth-3 app first, then one unit of the other.
    s = linear_scenario(caps=[[2.0]], reqs=[[1.0], [2.0]], owner=[0, 0],
                        coeffs=[[3.0], [1.0]])
    rep = solve_native(s, 0)
    assert rep.value == pytest.approx(4.0)
    assert np.allclose(rep.allocation.x[0, :, 0], [1.0, 1.0])


def test_native_zero_capacity():
    s = linear_scenario(caps=[[0.0]], reqs=[[1.0]], owner=[0])
    rep = solve_native(s, 0)
    assert rep.value == 0.0
    assert np.all(rep.allocation.x == 0)


def test_native_zero_requests():
    s = linear_scenario(caps=[[2.0]], reqs=[[0.0]], owner=[0])
    rep = solve_native(s, 0)
    assert rep.value == 0.0
    assert np.all(rep.allocation.x == 0)


def test_native_linear_matches_grid_oracle():
    s = linear_scenario(caps=[[0.4, 0.6]], reqs=[[0.2, 0.4], [0.3, 0.1]],
                        owner=[0, 0], coeffs=[[2.0, 1.0], [1.0, 3.0]])
    rep = solve_native(s, 0)
    coeffs = np.array([[2.0, 1.0], [1.0, 3.0]])
    want, _ = grid_best(s.capacities, s.requests,
                        lambda xb: (xb * coeffs).sum(axis=(1, 2)))
    assert rep.value == pytest.approx(want, abs=1e-6)


def test_native_sigmoid_matches_grid_oracle():
    mu = 1.5
    s = Scenario(
        n_players=1, n_resources=2,
        capacities=np.array([[0.4, 0.3]]),
        requests=np.array([[0.2, 0.4], [0.3, 0.1]]),
        owner=np.array([0, 0]),
        utilities=(UtilitySpec("sigmoid", mu=mu),),
        w=np.ones(1), zeta=np.ones(1),
    )
    rep = solve_native(s, 0)
    want, _ = grid_best(s.capacities, s.requests,
                        lambda xb: sigmoid_term(xb, mu, s.requests).sum(axis=(1, 2)))
    assert rep.value == pytest.approx(want, rel=1e-2, abs=1e-2)


# ---------------------------------------------------------------------------
# solve_residual


def test_residual_zero_capacity_zero_income():
    s = linear_scenario(caps=[[1.0], [1.0]], reqs=[[1.0], [1.0]], owner=[0, 1])
    rep = solve_residual(s, 0, residual_caps=np.zeros(1),
                         residual_reqs=np.array([[0.0], [1.0]]))
    assert rep.value == 0.0 and np.all(rep.allocation.x == 0)


def test_residual_no_foreign_demand_zero_income():
    s = linear_scenario(caps=[[1.0], [1.0]], reqs=[[1.0], [1.0]], owner=[0, 1])
    rep = solve_residual(s, 0, residual_caps=np.ones(1),
                         residual_reqs=np.zeros((2, 1)))
    assert rep.value == 0.0


def test_residual_caps_at_capacity():
    s = linear_scenario(caps=[[1.0], [0.0]], reqs=[[0.0], [2.0]], owner=[0, 1])
    rep = solve_residual(s, 0, residual_caps=np.ones(1),
                         residual_reqs=np.array([[0.0], [2.0]]))
    assert rep.value == pytest.approx(1.0)
    assert rep.allocation.x[0, 1, 0] == pytest.approx(1.0)


def test_residual_exact_when_only_the_seller_is_sigmoid():
    # the seller's own sigmoid rows are zeroed out; its buyer is linear
    s = Scenario(
        n_players=2, n_resources=1,
        capacities=np.array([[2.0], [0.0]]),
        requests=np.array([[1.0], [1.5]]),
        owner=np.array([0, 1]),
        utilities=(UtilitySpec("sigmoid", mu=5.0), UtilitySpec("linear")),
        w=np.ones(2), zeta=np.ones(2),
    )
    rep = solve_residual(s, 0, residual_caps=np.array([1.0]),
                         residual_reqs=np.array([[1.0], [1.5]]))
    assert rep.solver_kind == "exact"
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.allocation.x[0, 0, 0] == 0.0
    assert rep.allocation.x[0, 1, 0] == pytest.approx(1.0, abs=1e-12)


def test_residual_sigmoid_zero_supply_is_exactly_zero():
    s = Scenario(
        n_players=2, n_resources=1,
        capacities=np.array([[1.0], [1.0]]),
        requests=np.array([[1.0], [2.0]]),
        owner=np.array([0, 1]),
        utilities=tuple(UtilitySpec("sigmoid", mu=5.0) for _ in range(2)),
        w=np.ones(2), zeta=np.ones(2),
    )
    rep = solve_residual(s, 0, residual_caps=np.zeros(1),
                         residual_reqs=np.array([[0.0], [2.0]]))
    assert rep.value == 0.0  # baseline subtracted, nothing shipped


# ---------------------------------------------------------------------------
# solve_coalition


def test_singleton_equals_native():
    """A singleton coalition is its member's native problem, solved once:
    its value is w times the native optimum, bit for bit, by the same
    solve, and the two reports ship one allocation, the receipts in the
    singleton's coordinates; sigmoid at 1:1, 1:0.5 and 2:1."""
    for (w, zeta), seed in itertools.product(((1.0, 1.0), (1.0, 0.5), (2.0, 1.0)), range(3)):
        s = generate_scenario(3, 2, 4, utility="sigmoid", mu=(1.0, 3.0, 10.0)[seed],
                              seed=seed, w=w, zeta=zeta)
        for n in range(3):
            a = solve_coalition(s, Coalition.singleton(n))
            b = solve_native(s, n)
            case = (w, zeta, seed, n)
            assert a.value == s.w[n] * b.value, case
            assert (a.solver_kind, a.iterations, a.restarts_used, a.gap) == \
                (b.solver_kind, b.iterations, b.restarts_used, b.gap), case
            assert a.allocation.x.shape == b.allocation.x.shape == (1, 4, 2), case
            assert a.allocation.x.tobytes() == b.allocation.x.tobytes(), case


def test_masks_beyond_the_scenario_are_rejected():
    """A mask with a bit at or above n_players names a player the scenario
    does not have: building its problem, or solving it, is a ValueError,
    not a solve of its members inside on the mask's own streams.  Mask 0
    names no player, and building its problem is a ValueError too."""
    s = generate_scenario(3, 3, 5, utility="sigmoid", mu=10.0, seed=6)
    with pytest.raises(ValueError, match="no members"):
        CoalitionProblem.build(s, Coalition(0))
    for mask in (0b1011, 0b1000, 1 << 23):
        with pytest.raises(ValueError, match="outside"):
            CoalitionProblem.build(s, Coalition(mask))
        with pytest.raises(ValueError, match="outside"):
            solve_coalition(s, Coalition(mask))
    assert CoalitionProblem.build(s, Coalition(0b111)).members == (0, 1, 2)


def test_singleton_scales_with_own_weight():
    s0 = linear_scenario(caps=[[2.0]], reqs=[[3.0]], owner=[0])
    s2 = linear_scenario(caps=[[2.0]], reqs=[[3.0]], owner=[0], w=[2.0])
    assert solve_coalition(s0, Coalition(0b1)).value == pytest.approx(2.0)
    assert solve_coalition(s2, Coalition(0b1)).value == pytest.approx(4.0)


def test_two_player_spillover_value():
    # surplus provider serves the stranded app: joint value 2, not 1
    s = linear_scenario(caps=[[2.0], [0.0]], reqs=[[1.0], [1.0]], owner=[0, 1])
    rep = solve_coalition(s, Coalition.grand(2))
    assert rep.value == pytest.approx(2.0)
    assert audit_allocation(s, rep.allocation, Coalition.grand(2)) == []


def test_surplus_free_scenario_gains_nothing():
    # capacities exactly exhaust native demand: no leftovers to share
    s = linear_scenario(caps=[[3.0], [5.0]], reqs=[[3.0], [5.0]], owner=[0, 1])
    grand = solve_coalition(s, Coalition.grand(2)).value
    singles = sum(solve_coalition(s, Coalition.singleton(n)).value for n in range(2))
    assert grand == pytest.approx(singles, abs=1e-9)


def test_coalition_linear_matches_grid_oracle():
    s = linear_scenario(caps=[[0.4], [0.2]], reqs=[[0.3], [0.5]], owner=[0, 1])
    rep = solve_coalition(s, Coalition.grand(2))
    want, _ = grid_best(s.capacities, s.requests,
                        lambda xb: xb.sum(axis=(1, 2)))
    assert rep.value == pytest.approx(want, abs=1e-6)


def test_coalition_sigmoid_matches_grid_oracle():
    mu = 1.5
    s = Scenario(
        n_players=2, n_resources=1,
        capacities=np.array([[0.4], [0.2]]),
        requests=np.array([[0.3], [0.5]]),
        owner=np.array([0, 1]),
        utilities=tuple(UtilitySpec("sigmoid", mu=mu) for _ in range(2)),
        w=np.ones(2), zeta=np.ones(2),
    )
    rep = solve_coalition(s, Coalition.grand(2))
    want, _ = grid_best(s.capacities, s.requests,
                        lambda xb: sigmoid_term(xb, mu, s.requests).sum(axis=(1, 2)))
    assert rep.value == pytest.approx(want, rel=1e-2, abs=1e-2)


def test_linear_coalition_with_member_weights_matches_brute_force():
    # w == zeta per member but unequal across members: the profit w_u * c_i
    # factors with a non-unit provider factor
    rng = np.random.default_rng(29)
    for n_players, apps in ((2, 2), (3, 1), (3, 1), (2, 2), (3, 1), (2, 2)):
        caps = rng.integers(1, 4, size=(n_players, 1)).astype(float)
        reqs = rng.integers(0, 3, size=(n_players * apps, 1)).astype(float)
        coeffs = rng.integers(1, 4, size=(n_players * apps, 1)).astype(float)
        w = rng.permutation(np.arange(1.0, n_players + 1.0))
        owner = np.repeat(np.arange(n_players), apps)
        s = linear_scenario(caps, reqs, owner, coeffs=coeffs, w=w, zeta=w)
        rep = solve_coalition(s, Coalition.grand(n_players))
        assert rep.solver_kind == "exact"
        assert audit_allocation(s, rep.allocation, Coalition.grand(n_players)) == []
        want = brute_force_transport(w[:, None] * coeffs[None, :, 0], caps[:, 0], reqs[:, 0])
        assert rep.value == pytest.approx(want, abs=1e-9)


def test_general_weights_use_lp_and_agree_with_uniform_at_one(monkeypatch):
    calls = 0

    def counted(profit, supplies, demands):
        nonlocal calls
        calls += 1
        return lmo_transport(profit, supplies, demands)

    monkeypatch.setattr(solver, "lmo_transport", counted)
    s1 = generate_scenario(2, 2, 2, utility="linear", seed=9)
    v1 = solve_coalition(s1, Coalition.grand(2)).value
    assert calls == 0  # uniform weights: one greedy fill on pooled receipts
    # same scenario but w != zeta forces the general LP path; with
    # zeta == w == 1 both paths must coincide, so nudge and compare orders
    s2 = Scenario(
        n_players=2, n_resources=2,
        capacities=s1.capacities, requests=s1.requests, owner=s1.owner,
        utilities=s1.utilities, w=np.array([1.0, 1.0]), zeta=np.array([1.0 + 1e-12, 1.0]),
        seed=s1.seed,
    )
    v2 = solve_coalition(s2, Coalition.grand(2)).value
    assert calls >= 1
    assert v2 == pytest.approx(v1, abs=1e-6)


def test_per_resource_decomposability():
    """Linear objectives and constraints separate over resources: solving
    K slices independently adds up to the joint optimum."""
    s = generate_scenario(2, 3, 2, utility="linear", seed=17)
    joint = solve_coalition(s, Coalition.grand(2)).value
    total = 0.0
    for k in range(3):
        slice_k = Scenario(
            n_players=2, n_resources=1,
            capacities=s.capacities[:, [k]], requests=s.requests[:, [k]],
            owner=s.owner, utilities=(UtilitySpec("linear"), UtilitySpec("linear")),
            w=s.w, zeta=s.zeta,
        )
        total += solve_coalition(slice_k, Coalition.grand(2)).value
    assert joint == pytest.approx(total, abs=1e-9)


def test_value_monotone_in_capacity():
    base = generate_scenario(2, 2, 2, utility="linear", seed=23)
    v0 = solve_coalition(base, Coalition.grand(2)).value
    bigger = Scenario(
        n_players=2, n_resources=2,
        capacities=base.capacities + [[1.0, 0.0], [0.0, 0.0]],
        requests=base.requests, owner=base.owner, utilities=base.utilities,
        w=base.w, zeta=base.zeta,
    )
    assert solve_coalition(bigger, Coalition.grand(2)).value >= v0 - 1e-9

    sig = generate_scenario(2, 2, 2, utility="sigmoid", mu=5.0, seed=23)
    v_sig = solve_coalition(sig, Coalition.grand(2)).value
    sig_big = Scenario(
        n_players=2, n_resources=2,
        capacities=sig.capacities + 0.5, requests=sig.requests,
        owner=sig.owner, utilities=sig.utilities, w=sig.w, zeta=sig.zeta,
    )
    assert solve_coalition(sig_big, Coalition.grand(2)).value >= v_sig - 1e-3


def test_multistart_dominates_single_start():
    s = generate_scenario(3, 2, 3, utility="sigmoid", mu=10.0, seed=31)
    lone = solve_coalition(s, Coalition.grand(3), restarts=1).value
    many = solve_coalition(s, Coalition.grand(3), restarts=16).value
    assert many >= lone - 1e-12


def test_solver_reports_are_consistent():
    # seed 37's grand coalition has no binding resource (both budgets
    # cover their requests), so its solve is exact; seed 40's has one
    # binding resource and one slack one
    c = Coalition.grand(3)
    for seed, kind in ((37, "exact"), (40, "multistart_fw")):
        s = generate_scenario(3, 2, 2, utility="sigmoid", mu=1.0, seed=seed)
        rep = solve_coalition(s, c, restarts=4)
        assert audit_allocation(s, rep.allocation, c) == []
        # reported value equals the objective recomputed at the allocation
        assert rep.value == pytest.approx(
            CoalitionProblem.build(s, c).objective(rep.allocation.x), abs=1e-9)
        assert rep.solver_kind == kind
        if kind == "exact":
            assert (rep.iterations, rep.restarts_used, rep.gap) == (0, 0, 0.0)
            continue
        assert rep.restarts_used == 4
        assert rep.gap >= 0.0 or rep.iterations > 0
    # uniform-weight coalitions solve on pooled receipts; the member
    # allocation built from them must be feasible and worth the value
    for n_players in (2, 3, 4):
        for mu in (1.0, 3.0, 10.0):
            s = generate_scenario(n_players, 3, 3, utility="sigmoid", mu=mu,
                                  seed=10 * n_players + int(mu))
            for c in all_coalitions(n_players):
                rep = solve_coalition(s, c, restarts=4)
                assert audit_allocation(s, rep.allocation, c) == []
                assert rep.value == pytest.approx(
                    CoalitionProblem.build(s, c).objective(rep.allocation.x),
                    rel=1e-12, abs=1e-12)


def test_solutions_feasible_across_random_instances():
    for seed in range(12):
        kind = "linear" if seed % 2 == 0 else "sigmoid"
        mu = None if kind == "linear" else (0.01 if seed % 4 == 1 else 10.0)
        s = generate_scenario(3, 2, 2, utility=kind, mu=mu, seed=seed)
        for c in (Coalition(0b011), Coalition(0b101), Coalition.grand(3)):
            rep = solve_coalition(s, c, restarts=4)
            assert audit_allocation(s, rep.allocation, c) == []
            x = embed(s, c.mask, rep.allocation.x)
            assert not feasibility_violations(x, s.capacities, s.requests)


def test_deterministic_given_seed():
    s = generate_scenario(3, 2, 2, utility="sigmoid", mu=10.0, seed=41)
    a = solve_coalition(s, Coalition.grand(3))
    b = solve_coalition(s, Coalition.grand(3))
    assert a.value == b.value
    assert np.array_equal(a.allocation.x, b.allocation.x)


@pytest.mark.parametrize("w, zeta", [
    ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]),  # one w != zeta for every player
    ([1.0, 2.0, 0.5], [0.75, 1.5, 0.25]),  # unequal weights per player
])
def test_member_objective_and_gradient_batch_bit_for_bit(w, zeta):
    """The member-coordinate objective and gradient of a (R, S, MS, K)
    restart stack equal, bit for bit, the values of each restart alone."""
    s = dataclasses.replace(generate_scenario(3, 3, 3, utility="sigmoid", mu=3.0, seed=2),
                            w=np.array(w), zeta=np.array(zeta))
    for c in (Coalition(0b011), Coalition(0b101), Coalition.grand(3)):
        prob = CoalitionProblem.build(s, c)
        assert prob.uniform_weight is None
        x0 = member_starts(s, c, 8)
        rng = np.random.default_rng(c.mask)
        xs = np.concatenate([x0, x0 * rng.uniform(0.0, 1.5, size=x0.shape)])
        f, g = prob.evaluate(xs)
        assert f.shape == (len(xs),) and g.shape == xs.shape
        for r, x in enumerate(xs):
            assert f[r] == prob.objective(x), f"restart {r}"
            assert np.array_equal(g[r], prob.evaluate(x)[1]), f"restart {r}"


@pytest.mark.parametrize("w, zeta", [(1.0, 0.5), (0.5, 1.0), (2.0, 1.0)])
def test_member_evaluate_is_objective_bit_for_bit(w, zeta):
    """CoalitionProblem.evaluate, one logistic pass per point, returns
    exactly objective's values, on a restart stack and on one allocation,
    for every coalition of more than one member; the allocation alone gets
    its row of the stack's gradient."""
    s = generate_scenario(3, 3, 3, utility="sigmoid", mu=3.0, seed=2, w=w, zeta=zeta)
    for c in (Coalition(0b011), Coalition(0b101), Coalition(0b110), Coalition.grand(3)):
        prob = CoalitionProblem.build(s, c)
        x0 = member_starts(s, c, 8)
        rng = np.random.default_rng(c.mask)
        xs = np.concatenate([x0, x0 * rng.uniform(0.0, 1.5, size=x0.shape)])
        f, g = prob.evaluate(xs)
        assert f.tobytes() == prob.objective(xs).tobytes(), c.label()
        f1, g1 = prob.evaluate(xs[3])
        assert f1 == prob.objective(xs[3]) and np.ndim(f1) == 0
        assert g1.tobytes() == g[3].tobytes()


def test_receipt_evaluate_is_objective_and_gradient_bit_for_bit():
    """The receipt oracles' evaluate returns exactly objective's values and
    weight times the term slopes, with all-sigmoid terms and with linear
    terms mixed in; the terms' own value_and_slope gives their value."""
    s = generate_scenario(3, 2, 4, utility="sigmoid", mu=3.0, seed=12)
    mixed = dataclasses.replace(
        s, utilities=(s.utilities[0], UtilitySpec("linear"), s.utilities[2]))
    rng = np.random.default_rng(12)
    for scen, apps in ((s, s.apps_of(1)), (s, None), (mixed, None)):
        terms = AppTerms.from_scenario(scen, apps)
        assert terms.all_sigmoid is (scen is s)
        for weight in (1.0, 0.5):
            evaluate, lmo = solver._receipt_oracles(terms, scen.capacities.sum(axis=0), weight)
            t = rng.uniform(0.0, 1.2, (7, *terms.requests.shape)) * terms.requests
            t[0] = 0.0
            t[1] = lmo(rng.random(t[1:2].shape))[0]
            f, g = evaluate(t)
            want = weight * terms.value(t).reshape(len(t), -1).sum(axis=1)
            assert f.tobytes() == want.tobytes()
            value, slope = terms.value_and_slope(t)
            assert g.tobytes() == (weight * slope).tobytes()
            assert value.tobytes() == terms.value(t).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("w, zeta", [(1.0, 0.5), (0.5, 1.0), (2.0, 1.0)])
def test_member_gradient_matches_central_differences(n, w, zeta):
    """CoalitionProblem.evaluate's gradient is that of objective: central
    differences (h = 1e-6) agree within 1e-6 at a random point, for every
    coalition."""
    h = 1e-6
    s = generate_scenario(n, 2, 2, utility="sigmoid", mu=3.0, seed=n, w=w, zeta=zeta)
    rng = np.random.default_rng(n)
    for c in all_coalitions(n):
        prob = CoalitionProblem.build(s, c)
        assert (prob.uniform_weight is None) == (prob.size > 1)
        x = rng.uniform(0.0, 1.0, (prob.size, *prob.terms.requests.shape)) * prob.terms.requests
        steps = h * np.eye(x.size).reshape(-1, *x.shape)
        numeric = (prob.objective(x + steps) - prob.objective(x - steps)) / (2 * h)
        err = np.abs(prob.evaluate(x)[1].ravel() - numeric).max()
        assert err < 1e-6, f"coalition {c.label()}: {err}"


def test_restarts_below_one_are_rejected():
    s = generate_scenario(2, 2, 2, utility="sigmoid", mu=3.0, seed=3)
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts"):
            solve_coalition(s, Coalition.grand(2), restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            solve_native(s, 0, restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            solve_residual(s, 0, residual_caps=np.ones(2),
                           residual_reqs=s.requests, restarts=restarts)


@pytest.mark.parametrize("gap_tol", [float("nan"), float("inf"), -1e-6])
def test_invalid_gap_tol_is_rejected(gap_tol):
    # a NaN or infinite tolerance stopped every restart at its start point
    s = generate_scenario(2, 2, 2, utility="sigmoid", mu=3.0, seed=3)
    with pytest.raises(ValueError, match="gap_tol"):
        solve_coalition(s, Coalition.grand(2), gap_tol=gap_tol)
    with pytest.raises(ValueError, match="gap_tol"):
        solve_native(s, 0, gap_tol=gap_tol)
    with pytest.raises(ValueError, match="gap_tol"):
        solve_residual(s, 0, residual_caps=np.ones(2),
                       residual_reqs=s.requests, gap_tol=gap_tol)


@pytest.mark.parametrize("solve", ["native", "residual"])
@pytest.mark.parametrize("n", [3, -1])
def test_players_outside_the_scenario_are_rejected(monkeypatch, solve, n):
    """A native or residual solve of a player n outside [0, N) is a
    ValueError naming n and N, raised before anything is solved (and not
    an assert, which python -O strips)."""
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran for a player outside the scenario")

    monkeypatch.setattr(solver, "_solve_receipts", no_solve)
    s = generate_scenario(3, 2, 2, utility="sigmoid", mu=3.0, seed=3)
    with pytest.raises(ValueError, match=rf"player n = {n} .* N = 3 "):
        if solve == "native":
            solve_native(s, n)
        else:
            solve_residual(s, n, residual_caps=np.ones(2), residual_reqs=s.requests)


# ---------------------------------------------------------------------------
# slack and empty resources of receipt-space solves


def slack_empty_scenario():
    """3 players, 4 sigmoid applications each (requests in [1, 10]), three
    resources: the first slack in every solve (capacity 100 each), the
    second empty for player 1 alone, the third binding (capacity 2)."""
    s = generate_scenario(3, 3, 4, utility="sigmoid", mu=3.0, seed=5)
    caps = s.capacities.copy()
    caps[:, 0], caps[1, 1], caps[:, 2] = 100.0, 0.0, 2.0
    return dataclasses.replace(s, capacities=caps)


def test_slack_and_empty_resources_are_fixed_exactly():
    """A slack resource's receipts are its requests bit for bit and an empty
    one's are 0, in native, residual and pooled coalition solves, while
    the binding resource runs Frank-Wolfe."""
    s = slack_empty_scenario()
    for n in range(3):
        rep = solve_native(s, n)
        t = rep.allocation.x[0]
        assert rep.solver_kind == "multistart_fw"
        assert t[:, 0].tobytes() == s.requests[s.apps_of(n), 0].tobytes(), n
        if n == 1:
            assert (t[:, 1] == 0).all()
        reqs = s.requests.copy()
        rep = solve_residual(s, n, np.array([100.0, 0.0, 1.0]), reqs)
        reqs[s.apps_of(n)] = 0.0
        t = rep.allocation.x[n]
        assert rep.solver_kind == "multistart_fw"
        assert t[:, 0].tobytes() == reqs[:, 0].tobytes(), n
        assert (t[:, 1] == 0).all(), n
    for c in all_coalitions(3):
        prob = CoalitionProblem.build(s, c)
        t, _, how = solver._solve_pooled(s, c.mask, prob.terms, prob.caps.sum(axis=0),
                                         prob.uniform_weight, 16, solver.DEFAULT_GAP_TOL)
        assert how[0] == "multistart_fw", c.label()
        assert t[:, 0].tobytes() == prob.terms.requests[:, 0].tobytes(), c.label()


def test_all_slack_scenarios_draw_no_starts(monkeypatch):
    """When every budget covers the requests it serves, every native,
    residual and coalition solve is exact: no restart stream is drawn."""
    def no_draws(*args):
        raise AssertionError("a solve with no binding resource drew start points")

    monkeypatch.setattr(solver, "_starts", no_draws)
    s = generate_scenario(3, 2, 4, utility="sigmoid", mu=3.0, seed=2)
    s = dataclasses.replace(s, capacities=np.full((3, 2), 50.0))
    table = build_characteristic_table(s)
    fast = fast_core(s)
    for rep in table.reports.values():
        assert (rep.solver_kind, rep.iterations, rep.restarts_used, rep.gap) == \
            ("exact", 0, 0, 0.0)
    assert (fast.phase2 == 0).all()
    assert table.values[-1] == 0.5 * 3 * 4 * 2  # every request filled: 1/2 per term


def test_split_solves_never_fall_below_the_joint_solve():
    """On 200 random receipt problems (2-4 resources, 3-8 applications,
    mu 1, 3 or 10, every fourth with linear terms too, each budget drawn
    slack, empty or binding), the split solve's value is never below the
    joint solve's (_solve over every resource, from the same streams) by
    more than 1e-12 relative, and it is the objective at its receipts.
    Where every budget binds, nothing is fixed and the two are one solve:
    equal receipts and value, bit for bit."""
    rng = np.random.default_rng(11)
    all_binding = 0
    for case in range(200):
        k, m = rng.integers(2, 5), rng.integers(3, 9)
        reqs = rng.uniform(1.0, 10.0, size=(m, k))
        sig = np.ones(m, dtype=bool) if case % 4 else rng.random(m) < 0.5
        terms = AppTerms(sig, np.where(sig, (1.0, 3.0, 10.0)[case % 3], 0.0),
                         rng.uniform(0.5, 2.0, size=(m, k)), reqs)
        kind = rng.integers(0, 3, size=k)  # 0 slack, 1 empty, 2 binding
        budget = np.select([kind == 0, kind == 1], [reqs.sum(axis=0) + rng.uniform(0, 5, k), 0.0],
                           rng.uniform(0.1, 0.9, k) * reqs.sum(axis=0))
        # the residual streams of a scenario of seed `case`, seller `case`
        starts = functools.partial(solver._starts, types.SimpleNamespace(seed=case),
                                   solver._RESIDUAL_TAG, case, 16, reqs.shape)
        t, value, _ = solver._solve_receipts(terms, budget, 1.0, False, starts,
                                             solver.DEFAULT_GAP_TOL)
        oracles = solver._receipt_oracles(terms, budget, 1.0)
        _, joint_t, joint, _, _ = solver._solve(oracles, False, starts(oracles[1]),
                                                solver.DEFAULT_GAP_TOL)
        assert value >= joint - 1e-12 * abs(joint), case
        if (kind == 2).all():
            all_binding += 1
            assert value == joint and t.tobytes() == joint_t.tobytes(), case
        assert value == pytest.approx(terms.value(t).sum(), rel=1e-12), case
        # unit steps reach the oracle's point up to rounding
        assert (t >= 0).all() and (t <= reqs * (1 + 1e-12)).all(), case
        assert (t.sum(axis=0) <= budget * (1 + 1e-12)).all(), case
    assert all_binding >= 5


# ---------------------------------------------------------------------------
# start points and the factored oracle


def test_factored_oracle_matches_the_sorted_staircase_bytes():
    """The index-order staircase equals, byte for byte, the staircase
    filled in sorted order and moved back, on batched random factors with
    ties and zeros."""
    rng = np.random.default_rng(8)
    for trial in range(200):
        lead = tuple(rng.integers(1, 4, size=trial % 3))
        s_count, m_count = rng.integers(1, 6), rng.integers(1, 9)
        alpha = rng.choice([0.0, 0.5, 1.0], size=lead + (s_count,))
        gamma = rng.choice([0.0, 0.25, 0.25, 1.0], size=lead + (m_count,))
        if trial % 2:  # distinct factors on every other trial
            alpha = alpha + rng.random(alpha.shape)
            gamma = np.where(gamma > 0, rng.random(gamma.shape), 0.0)
        supplies = rng.choice([0.0, 0.3, 1.0, 2.7], size=lead + (s_count,))
        demands = rng.random(lead + (m_count,))
        got = solver._lmo_factored(alpha, gamma, supplies, demands)
        want = factored_staircase(alpha, gamma, supplies, demands)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"trial {trial}"


def start_cases():
    """(tag, ident, draw_shape) as the native (its singleton coalition's),
    residual and coalition solves of a 3-player scenario draw them."""
    s = generate_scenario(3, 2, 4, utility="sigmoid", mu=3.0, seed=12)
    prob = CoalitionProblem.build(s, Coalition(0b101))
    yield s, solver._COALITION_TAG, 1 << 1, (s.n_resources, 1 + len(s.apps_of(1)))
    yield s, solver._RESIDUAL_TAG, 2, s.requests.shape
    yield s, solver._COALITION_TAG, 0b101, (s.n_resources, prob.size + len(prob.apps))


def test_start_points_follow_the_per_restart_streams():
    """Restart r > 0 starts at u * v(d), where u and then d (draw_shape
    doubles) come from restart r's row of oracles.restart_draws; restart 0
    at zero."""
    for s, tag, ident, shape in start_cases():
        x0 = solver._starts(s, tag, ident, 6, shape, lambda d: 2.0 * d)
        assert x0.shape == (6, *shape)
        assert not x0[0].any()
        draws = restart_draws(s.seed, tag, ident, 6, 1 + int(np.prod(shape)))
        for r, row in enumerate(draws, start=1):
            want = row[0] * (2.0 * row[1:].reshape(shape))
            assert x0[r].tobytes() == want.tobytes(), f"tag {tag:#x} restart {r}"
        assert solver._starts(s, tag, ident, 1, shape, lambda d: 2.0 * d).shape == (1, *shape)


def test_start_streams_match_the_reference_bit_for_bit():
    """Seeds of one, two and three 32-bit words and None, idents at the
    edges of the 64-ident seeding blocks, and restart counts that draw
    nothing, one row, or more rows than a block of 16: every scale and
    factor is restart_draws' double.  A single restart seeds nothing."""
    base = generate_scenario(2, 2, 2, utility="sigmoid", mu=3.0, seed=0)
    shape = (2, 3)
    tags = itertools.cycle((solver._RESIDUAL_TAG, solver._COALITION_TAG))
    for seed, ident, restarts in itertools.product(
            (0, 7, 2**32 - 1, 2**32, 2**64 + 5, None), (0, 63, 64, 65, 2**24 - 1),
            (1, 2, 16, 33)):
        s, tag = dataclasses.replace(base, seed=seed), next(tags)
        seen = []
        before = solver._seed_block.cache_info()
        x0 = solver._starts(s, tag, ident, restarts, shape,
                            lambda d: seen.append(d.copy()) or np.ones_like(d))
        case = f"seed {seed} tag {tag:#x} ident {ident} restarts {restarts}"
        if restarts == 1:
            assert x0.tobytes() == np.zeros((1, *shape)).tobytes(), case
            assert solver._seed_block.cache_info() == before, case
            continue
        want = restart_draws(seed, tag, ident, restarts, 1 + int(np.prod(shape)))
        assert x0[1:, 0, 0].tobytes() == want[:, 0].tobytes(), case
        assert seen[0].reshape(restarts - 1, -1).tobytes() == want[:, 1:].tobytes(), case


def test_solves_repeat_bit_for_bit_around_other_solves_and_draws():
    """The restart streams share one generator and a memo of seed blocks:
    every native, residual and coalition solve (pooled and in member
    coordinates) gives the same value and allocation from a cold memo, and
    again after solves of other seeds and restart counts, after draws from
    the caller's own generator, and after a 32-bit draw from the shared
    one, which leaves half a word buffered."""
    def solves(seed, restarts):
        s = generate_scenario(3, 2, 3, utility="sigmoid", mu=3.0, seed=seed)
        sw = dataclasses.replace(s, zeta=np.full(3, 0.5))
        reqs = s.requests.copy()
        return {
            "native": lambda: solve_native(s, 1, restarts=restarts),
            "residual": lambda: solve_residual(s, 2, 0.5 * s.capacities[2], reqs,
                                               restarts=restarts),
            "pooled": lambda: solve_coalition(s, Coalition(0b101), restarts=restarts),
            "members": lambda: solve_coalition(sw, Coalition(0b011), restarts=restarts),
        }

    cases = {"A": solves(3, 16), "B": solves(2**32 + 3, 16), "C": solves(3, 5)}

    def run(name):
        return {kind: (rep.value, rep.allocation.x.tobytes())
                for kind, rep in ((kind, solve()) for kind, solve in cases[name].items())}

    cold = {}
    for name in cases:
        solver._seed_block.cache_clear()
        cold[name] = run(name)
    assert cold["A"] != cold["B"]
    rng = np.random.default_rng(1)
    for name in ("A", "B", "C", "A", "C", "B", "A"):
        rng.random(3)
        solver._generator()[1].integers(2**32, dtype=np.uint32)
        assert run(name) == cold[name], name


def test_coalition_solves_draw_the_coalition_streams(monkeypatch):
    """Every coalition solve, on pooled receipts and in member coordinates,
    draws its starts from tag 0xC3 and its mask in the (K, S + MS) layout
    of member then application factors.  On a binding resource of the
    pooled budget (its requests' exact sum above a positive budget) a
    pooled start is the scaled greedy fill of the drawn application
    factors; a pooled solve with no binding resource draws nothing."""
    calls = []
    starts = solver._starts

    def recording(s, tag, ident, restarts, draw_shape, vertices):
        x0 = starts(s, tag, ident, restarts, draw_shape, vertices)
        calls.append((tag, ident, tuple(draw_shape), x0))
        return x0

    monkeypatch.setattr(solver, "_starts", recording)
    paths = set()
    for seed, zeta in itertools.product((1, 9), (1.0, 0.5)):
        s = generate_scenario(3, 2, 3, utility="sigmoid", mu=3.0, seed=seed, zeta=zeta)
        for c in all_coalitions(3):
            calls.clear()
            solve_coalition(s, c, restarts=5)
            prob = CoalitionProblem.build(s, c)
            budget = prob.caps.sum(axis=0)
            binding = [k for k in range(s.n_resources)
                       if budget[k] > 0 and math.fsum(prob.terms.requests[:, k]) > budget[k]]
            pooled = prob.uniform_weight is not None
            paths.add("members" if not pooled else len(binding))
            if pooled and not binding:
                assert calls == [], c.label()
                continue
            [(tag, ident, shape, x0)] = calls
            assert (tag, ident, shape) == \
                (solver._COALITION_TAG, c.mask, (s.n_resources, prob.size + len(prob.apps)))
            if not pooled:
                assert x0.shape == (5, prob.size, *prob.terms.requests.shape)
                continue
            draws = restart_draws(s.seed, tag, c.mask, 5, 1 + int(np.prod(shape)))
            for r, row in enumerate(draws, start=1):
                gamma = row[1:].reshape(shape)[:, prob.size:]
                want = row[0] * solver._greedy_fill(gamma.T, budget, prob.terms.requests)
                assert x0[r][:, binding].tobytes() == want[:, binding].tobytes(), \
                    f"{c.label()} restart {r}"
    assert paths == {"members", 0, 1, 2}  # no, some and every resource binding


def count_lps(monkeypatch):
    """Route solver.lmo_transport through a counter; returns the count."""
    calls = [0]

    def counted(profit, supplies, demands):
        calls[0] += 1
        return lmo_transport(profit, supplies, demands)

    monkeypatch.setattr(solver, "lmo_transport", counted)
    return calls


def lp_path_scenarios():
    """The member-coordinate scenarios that keep the transport LP: 3 x 3
    at w:zeta = 0.5:1, linear and sigmoid, seeds 0-5; and a hand-written
    scenario (JSON) whose players each credit shared supply at their own
    zeta, with every w above every zeta."""
    below = [generate_scenario(3, 2, 3, utility=kind, mu=None if kind == "linear" else
                               (1.0, 3.0, 10.0)[seed % 3], seed=seed, w=0.5, zeta=1.0)
             for kind in ("linear", "sigmoid") for seed in range(6)]
    doc = json.loads(scenario_to_json(generate_scenario(3, 2, 3, utility="sigmoid", mu=3.0,
                                                        seed=4)))
    for player, w, zeta in zip(doc["players"], (2.0, 1.5, 2.5), (1.0, 0.75, 0.5)):
        player["w"], player["zeta"] = w, zeta
    return below, scenario_from_json(json.dumps(doc))


def table_digest(scenarios, **settings):
    """sha256 over every coalition's value and local allocation, mask by
    mask, of the characteristic tables of the scenarios."""
    h = hashlib.sha256()
    for s in scenarios:
        table = build_characteristic_table(s, **settings)
        for mask in range(1, 2 ** s.n_players):
            rep = table.reports[mask]
            h.update(np.float64(rep.value).tobytes())
            h.update(rep.allocation.x.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("weights, utility", [("1:0.5", "sigmoid"), ("1:0.5", "linear")])
def test_shared_zeta_runs_solve_no_lp(monkeypatch, tmp_path, weights, utility):
    """Every weighted coalition of a generated scenario with w above zeta
    takes the LP-free oracle: `run --method both` solves no transport LP."""
    calls = count_lps(monkeypatch)
    scenario = tmp_path / "s.json"
    argv = ["gen", "--players", "3", "--apps", "3", "--resources", "2", "--utility", utility,
            "--weights", weights, "--seed", "3", "--out", str(scenario)]
    assert main(argv + (["--mu", "3"] if utility == "sigmoid" else [])) == 0
    assert main(["run", "--scenario", str(scenario), "--method", "both",
                 "--out", str(tmp_path / "out")]) == 0
    assert calls[0] == 0


def test_lp_paths_keep_their_values_and_allocations(monkeypatch):
    """w below zeta and one zeta per player still solve transport LPs,
    and their tables are byte for byte those of the LP oracle before the
    LP-free one existed (digests recorded then).  The sigmoid 0.5:1
    tables run 4 restarts to gap 1e-3, which keeps this test short."""
    calls = count_lps(monkeypatch)
    below, mixed = lp_path_scenarios()
    got = [table_digest(below[:6]), table_digest(below[6:], restarts=4, gap_tol=1e-3)]
    assert calls[0] > 0
    before = calls[0]
    got.append(table_digest([mixed]))
    assert calls[0] > before
    assert got == LP_PATH_DIGESTS


LP_PATH_DIGESTS = [
    "d0b4a3fd158a65cead5575564c52c6cfc32acabd381aca36946205be94b07f94",
    "bc090cbc24bd179ec4526ff748e6a72af4dbd85a3bdf3265b30d09edb8ee34a8",
    "db7b3880553687fa405d72c72cd75242a22b428113ad10e5af1e6c1d033c73c6",
]


def test_member_oracle_solves_one_lp_per_distinct_slice(monkeypatch):
    """Where the oracle is the LP (w below zeta here), restarts with equal
    gradient slices share one transport LP, and the stacked vertices equal
    the per-restart solves."""
    s = generate_scenario(3, 2, 3, utility="sigmoid", mu=3.0, seed=7, w=0.5, zeta=1.0)
    prob = CoalitionProblem.build(s, Coalition(0b011))
    assert not prob.own_foreign
    rng = np.random.default_rng(7)
    g0, g1 = rng.random((2, prob.size, *prob.terms.requests.shape))
    gs = np.stack([g0, g1, g0, g0, g1])
    gs[3, ..., 0] = g1[..., 0]  # restart 3 shares resource 0 with g1 only
    want = np.stack([
        np.stack([lmo_transport(g[..., k], prob.caps[:, k], prob.terms.requests[:, k])
                  for k in range(s.n_resources)], axis=-1)
        for g in gs])
    calls = count_lps(monkeypatch)
    got = solver._member_oracles(prob)[1](gs)
    assert got.tobytes() == want.tobytes()
    assert calls[0] == 2 * s.n_resources < len(gs) * s.n_resources


# ---------------------------------------------------------------------------
# batched multistart Frank-Wolfe


def driver(oracles, x0, unit_steps):
    """The batched driver from x0 by unit steps, or by golden section over
    the values evaluate gives."""
    evaluate, lmo = oracles
    objective = None if unit_steps else (lambda x: evaluate(x)[0])
    return solver._batched_frank_wolfe(evaluate, lmo, x0, solver.DEFAULT_GAP_TOL, objective)


def assert_batch_matches_solo_runs(oracles, x0, unit_steps):
    """Every run of a batch ends exactly where the driver run on its start
    alone ends; returns the batch's iteration counts and whether every
    run moved in round 1 (round 2's oracle batch holds every run), where
    the driver adopts the round's new points as its batch."""
    evaluate, lmo = oracles
    batches = []

    def recording(g):
        batches.append(len(g))
        return lmo(g)

    x, f, iters, gap, vertex = driver((evaluate, recording), x0, unit_steps)
    for r in range(len(x0)):
        xr, fr, itr, gapr, vr = driver(oracles, x0[r:r + 1], unit_steps)
        assert (f[r], iters[r], gap[r]) == (fr[0], itr[0], gapr[0]), f"restart {r}"
        assert np.array_equal(x[r], xr[0]), f"restart {r}"
        assert (vertex(r) is None) == (vr(0) is None), f"restart {r}"
        if vr(0) is not None:
            assert np.array_equal(vertex(r), vr(0)), f"restart {r}"
    return iters, batches[1:2] == [len(x0)]


def test_batched_restarts_match_solo_runs():
    # with unit steps and with the line search: a native solve on receipts,
    # a uniform-weight coalition on pooled receipts, and a weighted one in
    # member coordinates
    for unit_steps in (True, False):
        s = generate_scenario(3, 3, 4, utility="sigmoid", mu=10.0, seed=1)
        iters, _ = assert_batch_matches_solo_runs(*native_fw(s, 1, 16), unit_steps)
        assert len(set(iters)) > 1  # runs leave the batch at different rounds
        base = generate_scenario(3, 3, 3, utility="sigmoid", mu=10.0, seed=1)
        # pooled receipts, the LP-free member oracle, and the LP one
        for w, zeta in (([1.0] * 3, [1.0] * 3), ([1.0] * 3, [0.5] * 3),
                        ([2.0, 1.5, 2.5], [1.0, 0.75, 0.5])):
            s = dataclasses.replace(base, w=np.array(w), zeta=np.array(zeta))
            oracles, x0 = coalition_fw(s, Coalition(0b110), 16)
            assert x0.ndim == (3 if w == zeta else 4)
            iters, _ = assert_batch_matches_solo_runs(oracles, x0, unit_steps)
            assert len(set(iters)) > 1
        # a flat grand coalition on pooled receipts: every run moves in
        # round 1, and all but one stop in round 2
        s = generate_scenario(3, 3, 4, utility="sigmoid", mu=1.0, seed=0)
        iters, all_moved = assert_batch_matches_solo_runs(
            *coalition_fw(s, Coalition.grand(3), 16), unit_steps)
        assert all_moved and len(set(iters)) > 1


@pytest.mark.parametrize("unit_steps", [True, False])
def test_run_that_cannot_improve_stops_where_it_is(unit_steps):
    """A run whose step finds no better point stops at its point, and when
    every live run stops so in one round the driver returns without
    evaluating an empty batch.  The stub's gradient points at the vertex,
    all ones, and its objective, h(sum x) with h(u) = -u up to u = 3 and
    rising from there, is highest at the start along every segment toward
    the vertex from sum x <= 1, and at the vertex from sum x >= 3.  So in
    a batch of both kinds some runs stop in round 1 while the rest move,
    and the driver compacts the movers alone; each run still ends where it
    ends alone."""
    def objective(x):
        u = x.reshape(len(x), -1).sum(axis=1)
        return -u + 2.5 * np.maximum(u - 3.0, 0.0)

    def evaluate(x):
        assert len(x), "the driver evaluated an empty batch"
        return objective(x), np.ones_like(x)

    x0 = np.zeros((5, 2, 2))
    x0[1], x0[3], x0[4] = 0.25, 0.75, 0.8
    x, f, iters, gap, vertex = driver((evaluate, np.ones_like), x0, unit_steps)
    assert np.array_equal(x[:3], x0[:3])
    assert [vertex(r) for r in range(3)] == [None] * 3  # no run moved
    assert f[:3].tolist() == [0.0, -1.0, 0.0]
    assert iters[:3].tolist() == [1, 1, 1]
    assert gap[:3].tolist() == [4.0, 3.0, 4.0]
    # the others move to the vertex in round 1 and stop there in round 2
    assert (x[3:] == 1.0).all() and f[3:].tolist() == [-1.5, -1.5]
    assert iters[3:].tolist() == [2, 2] and gap[3:].tolist() == [0.0, 0.0]
    assert all((vertex(r) == 1.0).all() for r in (3, 4))
    assert_batch_matches_solo_runs((evaluate, np.ones_like), x0, unit_steps)
    # every run stops in round 1: the driver returns at once
    x, f, iters, gap, vertex = driver((evaluate, np.ones_like), x0[:3], unit_steps)
    assert np.array_equal(x, x0[:3]) and iters.tolist() == [1, 1, 1]


@pytest.mark.parametrize("unit_steps", [True, False])
def test_driver_returns_points_of_its_own(unit_steps):
    """With unit steps and with the line search, the driver leaves x0 as it
    was, and no returned point shares memory with x0 or with the oracle's
    point vertex(r): the batches it adopts and compacts are its own."""
    for name, oracles, x0 in convex_cases():
        before = x0.copy()
        x, _, _, _, vertex = driver(oracles, x0, unit_steps)
        assert x0.tobytes() == before.tobytes(), name
        for r in range(len(x0)):
            assert not np.shares_memory(x[r], x0), f"{name} restart {r}"
            v = vertex(r)
            assert v is None or not np.shares_memory(x[r], v), f"{name} restart {r}"
        assert any(vertex(r) is not None for r in range(len(x0))), name


@pytest.mark.parametrize("unit_steps", [True, False])
def test_runs_live_at_the_round_limit_return_their_last_point(unit_steps, monkeypatch):
    """Runs still live after MAX_ITER rounds end at the point they last
    moved to, worth the value returned for them.  In the flat grand
    coalition every run moves in round 1."""
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    s = generate_scenario(3, 3, 4, utility="sigmoid", mu=1.0, seed=0)
    oracles, x0 = coalition_fw(s, Coalition.grand(3), 16)
    x, f, iters, _, vertex = driver(oracles, x0, unit_steps)
    assert iters.tolist() == [1] * len(x0)
    for r in range(len(x0)):
        assert np.array_equal(x[r], x0[r] + (vertex(r) - x0[r])), f"restart {r}"
        assert f[r] == oracles[0](x[r:r + 1])[0][0], f"restart {r}"


def convex_cases():
    """(name, oracles, x0) for problems whose objective is convex: a native
    and a residual solve on receipts, and coalitions on pooled receipts
    (w == zeta) and in member coordinates (common w:zeta = 1:0.5, and
    per-player weights with every credit sequence falling)."""
    s = generate_scenario(3, 3, 4, utility="sigmoid", mu=10.0, seed=1)
    yield "native", *native_fw(s, 1, 16)
    reqs = 0.5 * s.requests
    reqs[s.apps_of(1)] = 0.0
    terms = dataclasses.replace(AppTerms.from_scenario(s), requests=reqs)
    oracles = solver._receipt_oracles(terms, 0.5 * s.capacities[1], 1.0)
    yield "residual", oracles, solver._starts(s, solver._RESIDUAL_TAG, 1, 16,
                                              reqs.shape, oracles[1])
    for label, w, zeta in (("uniform", [1.0] * 3, [1.0] * 3),
                           ("1:0.5", [1.0] * 3, [0.5] * 3),
                           ("per-player", [2.0, 1.5, 2.5], [1.0, 0.75, 0.5])):
        sw = dataclasses.replace(generate_scenario(3, 3, 3, utility="sigmoid", mu=3.0, seed=4),
                                 w=np.array(w), zeta=np.array(zeta))
        for c in (Coalition(0b011), Coalition(0b110), Coalition.grand(3)):
            prob = CoalitionProblem.build(sw, c)
            assert prob.convex, f"{label} {c.label()}"
            oracles, x0 = coalition_fw(sw, c, 8)
            yield f"{label} {c.label()}", oracles, x0


def test_unit_step_matches_line_search_on_convex_problems():
    """Where the objective is convex the line search always lands on the
    vertex, so unit steps follow the same path: every restart ends at the
    same point, value, round count and gap, bit for bit."""
    for name, oracles, x0 in convex_cases():
        unit, search = driver(oracles, x0, True), driver(oracles, x0, False)
        for r in range(len(x0)):
            assert np.array_equal(unit[0][r], search[0][r]), f"{name} restart {r}"
            assert (unit[1][r], unit[2][r], unit[3][r]) == \
                (search[1][r], search[2][r], search[3][r]), f"{name} restart {r}"
            points = unit[4](r), search[4](r)
            assert points[0] is None if points[1] is None else \
                np.array_equal(*points), f"{name} restart {r}"
        assert unit[2].max() > 1, name  # at least one restart took a step


@pytest.mark.parametrize("w, zeta, convex", [
    ([1.0] * 3, [1.0] * 3, True),  # uniform weights
    ([1.0] * 3, [0.5] * 3, True),  # w above zeta
    ([0.5] * 3, [1.0] * 3, False),  # w below zeta: foreign credit outweighs
    ([1.0] * 3, [0.25, 0.5, 0.75], False),  # w >= zeta, but zeta rises by index
])
def test_convexity_predicate(w, zeta, convex):
    s = dataclasses.replace(generate_scenario(3, 2, 2, utility="sigmoid", mu=3.0, seed=5),
                            w=np.array(w), zeta=np.array(zeta))
    assert CoalitionProblem.build(s, Coalition.grand(3)).convex is convex
    for n in range(3):  # one member earns no sequential credit
        assert CoalitionProblem.build(s, Coalition.singleton(n)).convex


def test_non_convex_solve_searches_the_step(monkeypatch):
    """The line search runs only where the objective is not convex, and
    there it still finds interior steps and a feasible allocation worth
    the reported value."""
    steps = []
    best_steps = solver._best_steps

    def recording(value_at, n):
        best = best_steps(value_at, n)
        steps.extend(best[0])
        return best

    monkeypatch.setattr(solver, "_best_steps", recording)
    convex = generate_scenario(2, 2, 3, utility="sigmoid", mu=3.0, seed=6, w=1.0, zeta=0.5)
    for c in all_coalitions(2):
        solve_coalition(convex, c, restarts=4)
    assert not steps
    s = generate_scenario(2, 2, 3, utility="sigmoid", mu=3.0, seed=6, w=0.5, zeta=1.0)
    c = Coalition.grand(2)
    rep = solve_coalition(s, c, restarts=4)
    assert audit_allocation(s, rep.allocation, c) == []
    assert rep.value == pytest.approx(CoalitionProblem.build(s, c).objective(rep.allocation.x),
                                      rel=1e-12, abs=1e-12)
    assert any(0.0 < step < 1.0 for step in steps)
