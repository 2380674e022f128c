"""Optimization layer: transport oracle, native/residual/coalition solves.

Exactness is checked three independent ways: hand-enumerable instances
with frozen optima, an exhaustive lattice oracle (oracles.grid_best), and
integer brute force for the transport LMO.
"""
import dataclasses
import functools
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
from edgeshare.model import (
    Allocation,
    Coalition,
    Scenario,
    UtilitySpec,
    all_coalitions,
    audit_allocation,
    generate_scenario,
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
# LP duality bound on the Frank-Wolfe gap


def gap_bound(profit, point, supplies, demands):
    """_transport_gap_bound of one (S, M) slice: (bound, allowance)."""
    b, a = solver._transport_gap_bound(profit[None, ..., None], point[None, ..., None],
                                       supplies[:, None], demands[:, None])
    return float(b[0]), float(a[0])


def random_feasible_point(rng, supplies, demands):
    """A random point of the transportation polytope: nonnegative entries
    scaled down until every row and column sum fits."""
    y = rng.uniform(size=(supplies.size, demands.size)) * (rng.uniform(size=(supplies.size,
                                                                             demands.size)) < 0.6)
    y *= np.minimum(1.0, supplies / np.maximum(y.sum(axis=1), 1e-300))[:, None]
    y *= np.minimum(1.0, demands / np.maximum(y.sum(axis=0), 1e-300))[None, :]
    return y * rng.uniform()


def test_gap_bound_is_never_below_the_exact_gap():
    """Soundness on small integer-bounded instances (tied rows, zero
    supplies or demands, nonpositive profits): at random feasible points
    and at the oracle's vertices, the bound plus its allowance is at least
    the exhaustive optimum less the point's value, and the bound alone
    falls short of it by rounding at most."""
    rng = np.random.default_rng(13)
    cases = 0
    while cases < 120:
        u_n, i_n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        supplies = rng.integers(0, 4, size=u_n).astype(float)
        demands = rng.integers(0, 3, size=i_n).astype(float)
        if np.prod(np.minimum.outer(supplies, demands) + 1) > 60_000:
            continue  # keep the exhaustive search small
        profit = rng.uniform(0.1, 3.0, size=(u_n, i_n))
        case = cases % 4
        if case == 1 and u_n > 1:
            profit[1:] = profit[1]  # tied rows, as a common-zeta gradient
        elif case == 2:
            profit[rng.uniform(size=profit.shape) < 0.4] *= -1.0
            profit[rng.uniform(size=profit.shape) < 0.2] = 0.0
        elif case == 3:
            supplies[rng.integers(u_n)] = 0.0
            demands[rng.uniform(size=i_n) < 0.3] = 0.0
        best = brute_force_transport(profit, supplies, demands)
        points = [random_feasible_point(rng, supplies, demands), np.zeros_like(profit),
                  lmo_transport(profit, supplies, demands),
                  lmo_transport(rng.uniform(-1.0, 3.0, size=profit.shape), supplies, demands)]
        for y in points:
            want = best - float((profit * y).sum())
            bound, allowance = gap_bound(profit, y, supplies, demands)
            assert allowance >= 0.0
            assert bound + allowance >= want, (u_n, i_n, case)
            assert bound >= want - 1e-12, (u_n, i_n, case)
        cases += 1


def test_gap_bound_vanishes_at_a_non_degenerate_lp_vertex():
    """With generic real data the oracle's vertex for the same profits is
    a non-degenerate optimum, whose u-v prices are the optimal duals."""
    rng = np.random.default_rng(29)
    for u_n in (2, 3, 4):
        for i_n in (2, 5, 8):
            for _ in range(5):
                profit = rng.uniform(0.1, 2.0, size=(u_n, i_n))
                supplies = rng.uniform(1.0, 12.0, size=u_n)
                demands = rng.uniform(1.0, 6.0, size=i_n)
                y = lmo_transport(profit, supplies, demands)
                bound, allowance = gap_bound(profit, y, supplies, demands)
                assert abs(bound) <= 1e-12, (u_n, i_n)
                assert 0.0 < allowance < 1e-9


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
            evaluate, objective, lmo, bound = solver._receipt_oracles(
                terms, scen.capacities.sum(axis=0), weight)
            assert bound is None
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


def test_member_oracle_solves_one_lp_per_distinct_slice(monkeypatch):
    """Restarts with equal gradient slices share one transport LP, and the
    stacked vertices equal the per-restart solves."""
    s = generate_scenario(3, 2, 3, utility="sigmoid", mu=3.0, seed=7, w=1.0, zeta=0.5)
    prob = CoalitionProblem.build(s, Coalition(0b011))
    rng = np.random.default_rng(7)
    g0, g1 = rng.random((2, prob.size, *prob.reqs.shape))
    gs = np.stack([g0, g1, g0, g0, g1])
    gs[3, ..., 0] = g1[..., 0]  # restart 3 shares resource 0 with g1 only
    want = np.stack([
        np.stack([lmo_transport(g[..., k], prob.caps[:, k], prob.reqs[:, k])
                  for k in range(s.n_resources)], axis=-1)
        for g in gs])
    calls = 0

    def counted(profit, supplies, demands):
        nonlocal calls
        calls += 1
        return lmo_transport(profit, supplies, demands)

    monkeypatch.setattr(solver, "lmo_transport", counted)
    got = solver._member_oracles(prob)[2](gs)
    assert got.tobytes() == want.tobytes()
    assert calls == 2 * s.n_resources < len(gs) * s.n_resources


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
        for w, zeta in ((1.0, 1.0), (1.0, 0.5)):
            s = generate_scenario(3, 3, 3, utility="sigmoid", mu=10.0, seed=1, w=w, zeta=zeta)
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
        evaluate, objective, np.ones_like, None, x0, solver.DEFAULT_GAP_TOL, convex)
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


def member_fw_cases(seeds):
    """(label, oracles, x0) of every member-coordinate coalition of the
    3 x 5, w:zeta = 1:0.5 sigmoid scenarios of the given seeds, with the
    solver's own restarts."""
    for seed in seeds:
        s = generate_scenario(3, 3, 5, utility="sigmoid", mu=(1.0, 3.0, 10.0)[seed % 3],
                              seed=seed, w=1.0, zeta=0.5)
        for c in all_coalitions(3):
            if CoalitionProblem.build(s, c).uniform_weight is None:
                yield f"seed {seed} {c.label()}", *coalition_fw(s, c, solver.DEFAULT_RESTARTS)


def count_lps(monkeypatch):
    """Route solver.lmo_transport through a counter; returns the count."""
    calls = [0]

    def counted(profit, supplies, demands):
        calls[0] += 1
        return lmo_transport(profit, supplies, demands)

    monkeypatch.setattr(solver, "lmo_transport", counted)
    return calls


def test_certified_runs_end_where_the_gap_test_ends_them(monkeypatch):
    """On convex member-coordinate solves the LP duality bound stops runs
    in the round the gap test would, at the same point, value and round
    count, bit for bit, so the best restart is the same; it only skips
    LPs, and a certified gap is at least the vertex's gap."""
    calls = count_lps(monkeypatch)
    with_bound = without = cases = 0
    for label, oracles, x0 in member_fw_cases(range(6)):
        evaluate, objective, lmo, bound = oracles
        assert bound is not None, label
        before = calls[0]
        got = solver._batched_frank_wolfe(*oracles, x0, solver.DEFAULT_GAP_TOL, True)
        with_bound += calls[0] - before
        before = calls[0]
        want = solver._batched_frank_wolfe(evaluate, objective, lmo, None, x0,
                                           solver.DEFAULT_GAP_TOL, True)
        without += calls[0] - before
        for k in range(3):  # x, f, iterations
            assert got[k].tobytes() == want[k].tobytes(), label
        assert np.all(got[3] >= want[3] - 1e-12), label
        cases += 1
    assert cases == 24
    assert with_bound < 0.75 * without


def test_zero_gap_tolerance_certifies_nothing(monkeypatch):
    """With gap_tol = 0 no bound plus allowance is below the tolerance, so
    every run calls the oracle every round, as without the bound."""
    calls = count_lps(monkeypatch)
    for label, oracles, x0 in itertools.islice(member_fw_cases([0, 1]), 3):
        before = calls[0]
        got = solver._batched_frank_wolfe(*oracles, x0, 0.0, True)
        counted = calls[0] - before
        before = calls[0]
        want = solver._batched_frank_wolfe(*oracles[:3], None, x0, 0.0, True)
        assert counted == calls[0] - before, label
        for k in range(4):
            assert got[k].tobytes() == want[k].tobytes(), label


@pytest.mark.parametrize("gap_tol, lmo_calls", [(0.0, [2, 2]), (1e-6, [2])])
def test_a_bound_must_fall_strictly_below_the_tolerance(gap_tol, lmo_calls):
    """A zero bound with a zero allowance certifies a positive tolerance
    but not a zero one; either way the runs end as the gap test ends
    them.  The stub moves every run to the vertex in round 1, where the
    bound first applies and its gap is 0."""
    calls = []

    def lmo(g):
        calls.append(len(g))
        return np.ones_like(g)

    def objective(x):
        return x.reshape(len(x), -1).sum(axis=1)

    def evaluate(x):
        return objective(x), np.ones_like(x)

    def bound(g, x):
        return np.zeros(len(g)), np.zeros(len(g))

    x, f, iters, gap = solver._batched_frank_wolfe(
        evaluate, objective, lmo, bound, np.zeros((2, 3)), gap_tol, True)
    assert calls == lmo_calls
    assert np.array_equal(x, np.ones((2, 3)))
    assert (f.tolist(), iters.tolist(), gap.tolist()) == ([3.0, 3.0], [2, 2], [0.0, 0.0])


def test_only_convex_member_solves_get_a_bound():
    for w, zeta in ((1.0, 0.5), (0.5, 1.0)):
        s = generate_scenario(3, 3, 3, utility="sigmoid", mu=3.0, seed=2, w=w, zeta=zeta)
        prob = CoalitionProblem.build(s, Coalition.grand(3))
        assert (solver._member_oracles(prob)[3] is not None) is prob.convex is (w > zeta)
