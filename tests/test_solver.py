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
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from edgeshare import solver
from edgeshare.cli import main
from edgeshare.engine import build_characteristic_table
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


def coalition_fw(s, c, restarts):
    """The oracles and start points a sigmoid coalition solve runs
    Frank-Wolfe from: pooled receipts when every credit weight is equal,
    with the greedy fill of the drawn application factors as start
    vertices; member coordinates otherwise, from random staircases."""
    prob = CoalitionProblem.build(s, c)
    starts = functools.partial(solver._starts, s, solver._COALITION_TAG, c.mask, restarts,
                               (s.n_resources, prob.size + len(prob.apps)))
    if prob.uniform_weight is None:
        return solver._member_oracles(prob), starts(
            functools.partial(solver._random_staircases, prob))
    oracles = solver._receipt_oracles(prob.terms, prob.caps.sum(axis=0), prob.uniform_weight)
    return oracles, starts(lambda d: oracles[2](np.swapaxes(d[..., prob.size:], -1, -2)))


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


def full_search_vertex(prob, gs):
    """_lmo_own_foreign's vertex from the receipts of the first price
    search, a bisection over every breakpoint (oracles)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_pooled_receipts", own_foreign_receipts)
        return solver._lmo_own_foreign(prob, gs)


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
        x = solver._lmo_own_foreign(prob, gs)
        assert x.shape == gs.shape and x.min() >= 0.0
        assert_matches_full_search(prob, gs, x, (case, trial))
        assert (x.sum(axis=-2) <= prob.caps).all() and (x.sum(axis=-3) <= prob.reqs).all()
        for r in range(len(gs)):
            assert audit_allocation(s, Allocation(x[r]), Coalition.grand(s.n_players), tol=0.0) == []
            for k in range(s.n_resources):
                g = gs[r, ..., k]
                want = float((g * lmo_transport(g, prob.caps[:, k], prob.reqs[:, k])).sum())
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
    x = solver._lmo_own_foreign(prob, gs)
    assert_matches_full_search(prob, gs, x, "plateau")
    assert x.sum() == pytest.approx(prob.caps.sum(), rel=1e-15)
    assert audit_allocation(s, Allocation(x[0]), Coalition.grand(2), tol=0.0) == []
    want = float((g * lmo_transport(g, prob.caps[:, 0], prob.reqs[:, 0])).sum())
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
        x = solver._lmo_own_foreign(prob, g[None, ..., None])[0, ..., 0]
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
    x = solver._lmo_own_foreign(prob, g[None, ..., None])[0, ..., 0]
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
        _, x0 = coalition_fw(s, c, 6)
        gs = prob.evaluate(x0)[1]
        cols = np.arange(len(prob.apps))
        foreign = np.stack([gs[:, prob.ord_pos[:, t], cols] for t in range(1, prob.size)])
        assert (foreign == foreign[0]).all()
        assert (gs[:, prob.ord_pos[:, 0], cols] >= foreign[0]).all()
        x = solver._lmo_own_foreign(prob, gs)
        for r in range(len(gs)):
            for k in range(s.n_resources):
                g = gs[r, ..., k]
                want = float((g * lmo_transport(g, prob.caps[:, k], prob.reqs[:, k])).sum())
                got = float((g * x[r, ..., k]).sum())
                assert want * (1 - 1e-12) <= got <= want + 1e-7 * prob.caps[:, k].sum()


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
    assert rep.solver_kind == "exact_linear"
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
    s = generate_scenario(3, 2, 2, utility="linear", seed=1)
    for n in range(3):
        a = solve_coalition(s, Coalition.singleton(n)).value
        b = solve_native(s, n).value
        assert a == pytest.approx(b, abs=1e-9)


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
        assert rep.solver_kind == "exact_linear"
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
    s = generate_scenario(3, 2, 2, utility="sigmoid", mu=1.0, seed=37)
    c = Coalition.grand(3)
    rep = solve_coalition(s, c, restarts=4)
    assert audit_allocation(s, rep.allocation, c) == []
    # reported value equals the objective recomputed at the allocation
    assert rep.value == pytest.approx(
        CoalitionProblem.build(s, c).objective(rep.allocation.x), abs=1e-9)
    assert rep.solver_kind == "multistart_fw"
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
        _, x0 = coalition_fw(s, c, 8)
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
        _, x0 = coalition_fw(s, c, 8)
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
            evaluate, objective, lmo = solver._receipt_oracles(
                terms, scen.capacities.sum(axis=0), weight)
            t = rng.uniform(0.0, 1.2, (7, *terms.requests.shape)) * terms.requests
            t[0] = 0.0
            t[1] = lmo(rng.random(t[1:2].shape))[0]
            f, g = evaluate(t)
            assert f.tobytes() == objective(t).tobytes()
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
        x = rng.uniform(0.0, 1.0, (prob.size, *prob.reqs.shape)) * prob.reqs
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
    """(tag, ident, draw_shape) as the native, residual and coalition
    solves of a 3-player scenario draw them."""
    s = generate_scenario(3, 2, 4, utility="sigmoid", mu=3.0, seed=12)
    prob = CoalitionProblem.build(s, Coalition(0b101))
    yield s, solver._NATIVE_TAG, 1, s.requests[s.apps_of(1)].shape
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
    tags = itertools.cycle((solver._NATIVE_TAG, solver._RESIDUAL_TAG, solver._COALITION_TAG))
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
    of member then application factors; a pooled start is the scaled
    greedy fill of the drawn application factors against the pooled
    budget."""
    calls = []
    starts = solver._starts

    def recording(s, tag, ident, restarts, draw_shape, vertices):
        x0 = starts(s, tag, ident, restarts, draw_shape, vertices)
        calls.append((tag, ident, tuple(draw_shape), x0))
        return x0

    monkeypatch.setattr(solver, "_starts", recording)
    paths = set()
    for w, zeta in ((1.0, 1.0), (1.0, 0.5)):
        s = generate_scenario(3, 2, 3, utility="sigmoid", mu=3.0, seed=9, w=w, zeta=zeta)
        for c in all_coalitions(3):
            calls.clear()
            solve_coalition(s, c, restarts=5)
            prob = CoalitionProblem.build(s, c)
            [(tag, ident, shape, x0)] = calls
            assert (tag, ident, shape) == \
                (solver._COALITION_TAG, c.mask, (s.n_resources, prob.size + len(prob.apps)))
            pooled = prob.uniform_weight is not None
            paths.add(pooled)
            if not pooled:
                assert x0.shape == (5, prob.size, *prob.reqs.shape)
                continue
            draws = restart_draws(s.seed, tag, c.mask, 5, 1 + int(np.prod(shape)))
            for r, row in enumerate(draws, start=1):
                gamma = row[1:].reshape(shape)[:, prob.size:]
                want = row[0] * solver._greedy_fill(gamma.T, prob.caps.sum(axis=0), prob.reqs)
                assert x0[r].tobytes() == want.tobytes(), f"{c.label()} restart {r}"
    assert paths == {True, False}


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
    g0, g1 = rng.random((2, prob.size, *prob.reqs.shape))
    gs = np.stack([g0, g1, g0, g0, g1])
    gs[3, ..., 0] = g1[..., 0]  # restart 3 shares resource 0 with g1 only
    want = np.stack([
        np.stack([lmo_transport(g[..., k], prob.caps[:, k], prob.reqs[:, k])
                  for k in range(s.n_resources)], axis=-1)
        for g in gs])
    calls = count_lps(monkeypatch)
    got = solver._member_oracles(prob)[2](gs)
    assert got.tobytes() == want.tobytes()
    assert calls[0] == 2 * s.n_resources < len(gs) * s.n_resources


# ---------------------------------------------------------------------------
# batched multistart Frank-Wolfe


def assert_batch_matches_solo_runs(oracles, x0, convex):
    """Every run of a batch ends exactly where the driver run on its start
    alone ends; returns the batch's iteration counts."""
    x, f, iters, gap = solver._batched_frank_wolfe(*oracles, x0, solver.DEFAULT_GAP_TOL, convex)
    for r in range(len(x0)):
        xr, fr, itr, gapr = solver._batched_frank_wolfe(
            *oracles, x0[r:r + 1], solver.DEFAULT_GAP_TOL, convex)
        assert (f[r], iters[r], gap[r]) == (fr[0], itr[0], gapr[0]), f"restart {r}"
        assert np.array_equal(x[r], xr[0]), f"restart {r}"
    return iters


def test_batched_restarts_match_solo_runs():
    # with unit steps and with the line search: a native solve on receipts,
    # a uniform-weight coalition on pooled receipts, and a weighted one in
    # member coordinates
    for convex in (True, False):
        s = generate_scenario(3, 3, 4, utility="sigmoid", mu=10.0, seed=1)
        terms = AppTerms.from_scenario(s, s.apps_of(1))
        oracles = solver._receipt_oracles(terms, s.capacities[1], 1.0)
        x0 = solver._starts(s, solver._NATIVE_TAG, 1, 16, terms.requests.shape, oracles[2])
        iters = assert_batch_matches_solo_runs(oracles, x0, convex)
        assert len(set(iters)) > 1  # runs leave the batch at different rounds
        base = generate_scenario(3, 3, 3, utility="sigmoid", mu=10.0, seed=1)
        # pooled receipts, the LP-free member oracle, and the LP one
        for w, zeta in (([1.0] * 3, [1.0] * 3), ([1.0] * 3, [0.5] * 3),
                        ([2.0, 1.5, 2.5], [1.0, 0.75, 0.5])):
            s = dataclasses.replace(base, w=np.array(w), zeta=np.array(zeta))
            oracles, x0 = coalition_fw(s, Coalition(0b110), 16)
            assert x0.ndim == (3 if w == zeta else 4)
            iters = assert_batch_matches_solo_runs(oracles, x0, convex)
            assert len(set(iters)) > 1


@pytest.mark.parametrize("convex", [True, False])
def test_run_that_cannot_improve_stops_where_it_is(convex):
    """A run whose step finds no better point stops at its point, and when
    every live run stops so in one round the driver returns without
    evaluating an empty batch.  The stub's gradient points at the vertex
    while its objective falls along every segment toward it."""
    def objective(x):
        return -x.reshape(len(x), -1).sum(axis=1)

    def evaluate(x):
        return objective(x), np.ones_like(x)

    x0 = np.zeros((3, 2, 2))
    x0[1] = 0.25
    x, f, iters, gap = solver._batched_frank_wolfe(
        evaluate, objective, np.ones_like, x0, solver.DEFAULT_GAP_TOL, convex)
    assert np.array_equal(x, x0)
    assert f.tolist() == [0.0, -1.0, 0.0]
    assert iters.tolist() == [1, 1, 1]
    assert gap.tolist() == [4.0, 3.0, 4.0]


def convex_cases():
    """(name, oracles, x0) for problems whose objective is convex: a native
    and a residual solve on receipts, and coalitions on pooled receipts
    (w == zeta) and in member coordinates (common w:zeta = 1:0.5, and
    per-player weights with every credit sequence falling)."""
    s = generate_scenario(3, 3, 4, utility="sigmoid", mu=10.0, seed=1)
    terms = AppTerms.from_scenario(s, s.apps_of(1))
    oracles = solver._receipt_oracles(terms, s.capacities[1], 1.0)
    yield "native", oracles, solver._starts(s, solver._NATIVE_TAG, 1, 16,
                                            terms.requests.shape, oracles[2])
    reqs = 0.5 * s.requests
    reqs[s.apps_of(1)] = 0.0
    terms = AppTerms.from_scenario(s).with_requests(reqs)
    oracles = solver._receipt_oracles(terms, 0.5 * s.capacities[1], 1.0)
    yield "residual", oracles, solver._starts(s, solver._RESIDUAL_TAG, 1, 16,
                                              reqs.shape, oracles[2])
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
        unit = solver._batched_frank_wolfe(*oracles, x0, solver.DEFAULT_GAP_TOL, True)
        search = solver._batched_frank_wolfe(*oracles, x0, solver.DEFAULT_GAP_TOL, False)
        for r in range(len(x0)):
            assert np.array_equal(unit[0][r], search[0][r]), f"{name} restart {r}"
            assert (unit[1][r], unit[2][r], unit[3][r]) == \
                (search[1][r], search[2][r], search[3][r]), f"{name} restart {r}"
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

    def recording(value_at, n, **kwargs):
        best = best_steps(value_at, n, **kwargs)
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
