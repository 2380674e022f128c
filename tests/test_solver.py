"""Optimization layer: transport oracle, native/residual/coalition solves.

Exactness is checked three independent ways: hand-enumerable instances
with frozen optima, an exhaustive lattice oracle (oracles.grid_best), and
integer brute force for the transport LMO.
"""
import itertools

import numpy as np
import pytest

from edgeshare.model import (
    Allocation,
    Coalition,
    Scenario,
    UtilitySpec,
    audit_allocation,
    generate_scenario,
)
from edgeshare.solver import (
    SolveCounter,
    lmo_transport,
    solve_coalition,
    solve_native,
    solve_residual,
)
from edgeshare.utility import coalition_objective

from oracles import feasibility_violations, grid_best, sigmoid_term


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


def brute_force_transport(profit, supplies, demands):
    """Integer-data exhaustive optimum (constraint matrix is totally
    unimodular, so an integral optimum exists)."""
    u_n, i_n = profit.shape
    ranges = [range(int(min(supplies[u], demands[i])) + 1)
              for u in range(u_n) for i in range(i_n)]
    best = 0.0
    for combo in itertools.product(*ranges):
        x = np.array(combo, dtype=float).reshape(u_n, i_n)
        if np.any(x.sum(axis=1) > supplies + 1e-9):
            continue
        if np.any(x.sum(axis=0) > demands + 1e-9):
            continue
        best = max(best, float((profit * x).sum()))
    return best


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


def test_lmo_rejects_bad_shapes():
    with pytest.raises(ValueError):
        lmo_transport(np.ones((2, 2)), np.ones(3), np.ones(2))


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


def test_native_respects_residual_arguments():
    s = linear_scenario(caps=[[5.0]], reqs=[[4.0]], owner=[0])
    rep = solve_native(s, 0, caps=np.array([1.5]), reqs=np.array([[2.0]]))
    assert rep.value == pytest.approx(1.5)


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


def test_general_weights_use_lp_and_agree_with_uniform_at_one():
    s1 = generate_scenario(2, 2, 2, utility="linear", seed=9)
    v1 = solve_coalition(s1, Coalition.grand(2)).value
    # same scenario but w != zeta forces the general LP path; with
    # zeta == w == 1 both paths must coincide, so nudge and compare orders
    assert v1 == pytest.approx(v1)
    s2 = Scenario(
        n_players=2, n_resources=2,
        capacities=s1.capacities, requests=s1.requests, owner=s1.owner,
        utilities=s1.utilities, w=np.array([1.0, 1.0]), zeta=np.array([1.0 + 1e-12, 1.0]),
        seed=s1.seed,
    )
    v2 = solve_coalition(s2, Coalition.grand(2)).value
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
        coalition_objective(s, rep.allocation, c), abs=1e-9)
    assert rep.solver_kind == "multistart_fw"
    assert rep.restarts_used == 4
    assert rep.gap >= 0.0 or rep.iterations > 0


def test_solutions_feasible_across_random_instances():
    for seed in range(12):
        kind = "linear" if seed % 2 == 0 else "sigmoid"
        mu = None if kind == "linear" else (0.01 if seed % 4 == 1 else 10.0)
        s = generate_scenario(3, 2, 2, utility=kind, mu=mu, seed=seed)
        for c in (Coalition(0b011), Coalition(0b101), Coalition.grand(3)):
            rep = solve_coalition(s, c, restarts=4)
            assert audit_allocation(s, rep.allocation, c) == []
            x = rep.allocation.x
            assert not feasibility_violations(x, s.capacities, s.requests)


def test_deterministic_given_seed():
    s = generate_scenario(3, 2, 2, utility="sigmoid", mu=10.0, seed=41)
    a = solve_coalition(s, Coalition.grand(3))
    b = solve_coalition(s, Coalition.grand(3))
    assert a.value == b.value
    assert np.array_equal(a.allocation.x, b.allocation.x)


def test_counter_counts_each_solve_once():
    s = generate_scenario(2, 2, 2, utility="linear", seed=43)
    counter = SolveCounter()
    solve_native(s, 0, counter=counter)
    solve_residual(s, 0, residual_caps=np.ones(2),
                   residual_reqs=np.zeros((4, 2)), counter=counter)
    solve_coalition(s, Coalition.grand(2), counter=counter)
    assert counter.count == 3
    counter.reset()
    assert counter.count == 0
