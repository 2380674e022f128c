"""Utility evaluation and the own/shared income split.

The sigmoid numbers are recomputed in-test with math.exp; sequential
credits are checked against the closed form g(cum_t) - g(cum_{t-1}).
"""
import math
import warnings

import numpy as np
import pytest

from edgeshare.model import (
    Allocation,
    Coalition,
    Scenario,
    UtilitySpec,
    all_coalitions,
    generate_scenario,
    scenario_from_json,
    scenario_to_json,
)
from edgeshare.utility import (
    AppTerms,
    CoalitionProblem,
    breakdown,
    coalition_objective,
)

from oracles import embed, eval_own, sigmoid_term


def sig(z):
    return 1.0 / (1.0 + math.exp(-z))


def one_player(mu=None, k=3, r=1.0, cap=5.0):
    kind = "linear" if mu is None else "sigmoid"
    spec = UtilitySpec(kind) if mu is None else UtilitySpec(kind, mu=mu)
    return Scenario(
        n_players=1, n_resources=k,
        capacities=np.full((1, k), cap),
        requests=np.full((1, k), r),
        owner=np.array([0]),
        utilities=(spec,),
        w=np.ones(1), zeta=np.ones(1),
    )


def three_player_chain(mu=2.0, r=0.9):
    """One app owned by player 1; players 2 and 3 top it up in turn."""
    return Scenario(
        n_players=3, n_resources=1,
        capacities=np.array([[0.5], [0.3], [0.2]]),
        requests=np.array([[r], [5.0], [5.0]]),
        owner=np.array([0, 1, 2]),
        utilities=tuple(UtilitySpec("sigmoid", mu=mu) for _ in range(3)),
        w=np.ones(3), zeta=np.ones(3),
    )


# ---------------------------------------------------------------------------
# eval_own, the reference utility in oracles.py


def test_sigmoid_at_exact_request_is_half_per_term():
    s = one_player(mu=0.7, k=3)
    x = np.zeros((1, 1, 3))
    x[0, 0, :] = 1.0  # exactly the request
    assert eval_own(s, x, 0) == 1.5  # three exact halves


def test_zero_allocation_linear_is_zero():
    s = one_player(k=2)
    assert eval_own(s, np.zeros((1, 1, 2)), 0) == 0.0


def test_sigmoid_point_value():
    s = one_player(mu=10.0, k=1)
    x = np.zeros((1, 1, 1))
    x[0, 0, 0] = 1.1  # request is 1.0, so the argument is mu * 0.1 = 1
    assert eval_own(s, x, 0) == pytest.approx(sig(1.0), abs=1e-12)


def test_eval_own_uses_total_receipt_across_suppliers():
    s = three_player_chain(mu=2.0, r=0.9)
    x = np.zeros((3, 3, 1))
    x[0, 0, 0], x[1, 0, 0], x[2, 0, 0] = 0.5, 0.3, 0.2
    assert eval_own(s, x, 0) == pytest.approx(sig(2.0 * (1.0 - 0.9)), abs=1e-12)


def test_own_income_without_top_ups_matches_the_eval_own_reference():
    """When every player supplies only its own applications, breakdown's
    own income is the reference utility at that receipt."""
    s = mixed_scenario_from_json()
    rng = np.random.default_rng(24)
    for _ in range(20):
        x = np.zeros((s.n_players, s.m_total, s.n_resources))
        x[s.owner, np.arange(s.m_total)] = rng.uniform(0.0, 1.2, (s.m_total, s.n_resources))
        for b in breakdown(s, Allocation(x)):
            assert b.own == pytest.approx(eval_own(s, x, b.player), abs=1e-12)


# ---------------------------------------------------------------------------
# shared income (breakdown's shared split)


def test_no_foreign_supply_means_zero_income():
    s = three_player_chain()
    x = np.zeros((3, 3, 1))
    x[0, 0, 0] = 0.5  # only native supply
    assert breakdown(s, Allocation(x))[1].shared == {0: 0.0, 2: 0.0}
    assert breakdown(s, Allocation(x))[2].shared == {0: 0.0, 1: 0.0}


def test_linear_income_equals_amount_supplied():
    s = Scenario(
        n_players=2, n_resources=1,
        capacities=np.array([[0.0], [4.0]]),
        requests=np.array([[3.0], [1.0]]),
        owner=np.array([0, 1]),
        utilities=(UtilitySpec("linear"), UtilitySpec("linear")),
        w=np.ones(2), zeta=np.ones(2),
    )
    x = np.zeros((2, 2, 1))
    x[1, 0, 0] = 2.0  # player 2 gives 2 units to player 1's app
    assert breakdown(s, Allocation(x))[1].shared == {0: 2.0}


def test_linear_income_sums_over_served_apps():
    s = Scenario(
        n_players=2, n_resources=1,
        capacities=np.array([[0.0], [4.0]]),
        requests=np.array([[2.0], [2.0], [1.0]]),
        owner=np.array([0, 0, 1]),
        utilities=(UtilitySpec("linear"), UtilitySpec("linear")),
        w=np.ones(2), zeta=np.ones(2),
    )
    x = np.zeros((2, 3, 1))
    x[1, 0, 0] = 1.0
    x[1, 1, 0] = 1.0
    assert breakdown(s, Allocation(x))[1].shared == {0: 2.0}


def test_sigmoid_credits_follow_supply_order():
    """Native supply first, then lower player indices: each supplier earns
    the satisfaction lift measured from the running total."""
    mu, r = 2.0, 0.9
    s = three_player_chain(mu=mu, r=r)
    x = np.zeros((3, 3, 1))
    x[0, 0, 0], x[1, 0, 0], x[2, 0, 0] = 0.5, 0.3, 0.2
    a = Allocation(x)
    lift1 = sig(mu * (0.8 - r)) - sig(mu * (0.5 - r))
    lift2 = sig(mu * (1.0 - r)) - sig(mu * (0.8 - r))
    assert breakdown(s, a)[1].shared[0] == pytest.approx(lift1, abs=1e-12)
    assert breakdown(s, a)[2].shared[0] == pytest.approx(lift2, abs=1e-12)


# ---------------------------------------------------------------------------
# breakdown


def test_breakdown_zero_allocation_linear():
    s = one_player(k=2)
    (b,) = breakdown(s, Allocation(np.zeros((1, 1, 2))))
    assert b.own == 0.0 and b.weighted_total == 0.0 and b.shared == {}


def test_breakdown_single_player_weighted():
    s = Scenario(
        n_players=1, n_resources=1,
        capacities=np.array([[2.0]]),
        requests=np.array([[3.0]]),
        owner=np.array([0]),
        utilities=(UtilitySpec("linear"),),
        w=np.array([2.5]), zeta=np.array([1.0]),
    )
    x = np.zeros((1, 1, 1))
    x[0, 0, 0] = 2.0
    (b,) = breakdown(s, Allocation(x))
    assert b.weighted_total == pytest.approx(2.5 * eval_own(s, x, 0))


def test_breakdown_matches_direct_sums():
    mu, r = 2.0, 0.9
    s = three_player_chain(mu=mu, r=r)
    x = np.zeros((3, 3, 1))
    x[0, 0, 0], x[1, 0, 0], x[2, 0, 0] = 0.5, 0.3, 0.2
    bs = breakdown(s, Allocation(x))
    # owner keeps the value of its own supply (baseline included)
    assert bs[0].own == pytest.approx(sig(mu * (0.5 - r)), abs=1e-12)
    assert bs[1].shared[0] == pytest.approx(sig(mu * (0.8 - r)) - sig(mu * (0.5 - r)), abs=1e-12)
    # retained own + both lifts reassemble the total satisfaction
    reassembled = bs[0].own + bs[1].shared[0] + bs[2].shared[0]
    assert reassembled == pytest.approx(eval_own(s, x, 0), abs=1e-12)


def test_breakdown_totals_equal_objective_at_allocation():
    rng = np.random.default_rng(3)
    s = three_player_chain()
    for _ in range(20):
        x = rng.uniform(0, 1, size=(3, 3, 1))
        x *= np.minimum(1.0, s.capacities[:, None, :] / np.maximum(x.sum(axis=1, keepdims=True), 1e-12))
        a = Allocation(x)
        total = sum(b.weighted_total for b in breakdown(s, a))
        obj = coalition_objective(s, a, Coalition.grand(3))
        assert total == pytest.approx(obj, abs=1e-9)


def test_breakdown_additive_over_disjoint_apps():
    """Allocations touching disjoint applications combine by simple
    addition once the all-zero baseline is removed (exactly zero for
    linear, the sigmoid floor otherwise)."""
    s = Scenario(
        n_players=2, n_resources=1,
        capacities=np.array([[2.0], [2.0]]),
        requests=np.array([[1.0], [1.5]]),
        owner=np.array([0, 1]),
        utilities=tuple(UtilitySpec("sigmoid", mu=3.0) for _ in range(2)),
        w=np.ones(2), zeta=np.ones(2),
    )
    xa = np.zeros((2, 2, 1)); xa[0, 0, 0] = 0.7              # app 1 only
    xb = np.zeros((2, 2, 1)); xb[0, 1, 0] = 0.9              # app 2 only
    tot = lambda x: sum(b.weighted_total for b in breakdown(s, Allocation(x)))
    base = tot(np.zeros((2, 2, 1)))
    assert tot(xa + xb) + base == pytest.approx(tot(xa) + tot(xb), abs=1e-12)


def per_player_split(s, alloc):
    """(own, shared, weighted_total) per player, summed one player and one
    owner block at a time over one allocation's slot credits."""
    prob = CoalitionProblem.build(s, Coalition.grand(s.n_players))
    credits = prob.credits(alloc.x)  # the grand coalition's coordinates are global
    owners = s.owner[prob.apps]
    apps = np.arange(len(owners))
    out = []
    for n in range(s.n_players):
        own = float(credits[0, owners == n].sum())
        slot_of_n = np.argmax(prob.ord_pos == n, axis=1)
        per_app = credits[slot_of_n, apps].sum(axis=1)
        shared = {j: float(per_app[owners == j].sum()) for j in range(s.n_players) if j != n}
        out.append((own, shared, float(s.w[n] * own + s.zeta[n] * sum(shared.values()))))
    return out


@pytest.mark.parametrize("utility, w, zeta", [
    ("sigmoid", 1.0, 1.0), ("sigmoid", 1.0, 0.5), ("sigmoid", 0.5, 1.0), ("linear", 1.0, 1.0)])
def test_breakdown_of_a_stack_is_each_breakdown_bit_for_bit(utility, w, zeta):
    """Attributing every coalition's solved allocation in one call gives,
    bit for bit, the split of each allocation alone and the per-player
    sums over its owner blocks."""
    from edgeshare.engine import build_characteristic_table

    mu = 3.0 if utility == "sigmoid" else None
    s = generate_scenario(3, 2, 12, utility=utility, mu=mu, seed=8, w=w, zeta=zeta)
    table = build_characteristic_table(s, restarts=4)
    masks = sorted(table.reports)
    allocs = [Allocation(embed(s, m, table.reports[m].allocation.x)) for m in masks]
    stacked = breakdown(s, allocs)
    assert len(stacked) == len(masks) == 7
    for mask, alloc, split in zip(masks, allocs, stacked):
        assert split == breakdown(s, alloc), f"mask {mask}"
        for b, (own, shared, total) in zip(split, per_player_split(s, alloc)):
            assert (b.own, b.shared, b.weighted_total) == (own, shared, total), \
                f"mask {mask} player {b.player}"
    assert breakdown(s, []) == []


# ---------------------------------------------------------------------------
# problem setup


def mixed_scenario_from_json():
    """Four players, sigmoid and linear alternating, per-player weights; the
    first player's mu is the JSON integer 2."""
    rng = np.random.default_rng(21)
    owner = np.repeat(np.arange(4), [2, 3, 1, 2])
    s = Scenario(
        n_players=4, n_resources=2,
        capacities=rng.uniform(0.5, 2.0, (4, 2)),
        requests=rng.uniform(0.2, 1.0, (8, 2)),
        owner=owner,
        utilities=(UtilitySpec("sigmoid", mu=2.0),
                   UtilitySpec("linear", coeffs=rng.uniform(0.5, 1.5, (3, 2))),
                   UtilitySpec("sigmoid", mu=0.75), UtilitySpec("linear")),
        w=np.array([1.0, 2.0, 0.5, 1.5]), zeta=np.array([0.5, 1.0, 1.0, 0.25]),
    )
    text = scenario_to_json(s).replace('"mu": 2.0', '"mu": 2', 1)
    loaded = scenario_from_json(text)
    assert loaded.utilities[0].mu == 2 and isinstance(loaded.utilities[0].mu, int)
    return loaded


def per_app_terms(s, apps):
    """AppTerms assembled application by application from the owners' specs."""
    own = [int(s.owner[i]) for i in apps]
    return AppTerms(np.array([s.utilities[o].kind == "sigmoid" for o in own]),
                    np.array([s.utilities[o].mu or 0.0 for o in own]),
                    s.coeff_matrix()[apps], s.requests[apps])


def test_app_terms_match_the_per_app_construction():
    s = mixed_scenario_from_json()
    rng = np.random.default_rng(22)
    for apps in (None, s.apps_of(0), np.array([0, 2, 5]), np.arange(8)):
        terms = AppTerms.from_scenario(s, apps)
        want = per_app_terms(s, np.arange(8) if apps is None else apps)
        assert terms.is_sigmoid.dtype == bool and terms.mu.dtype == float
        for name in ("is_sigmoid", "mu", "coeffs", "requests"):
            assert np.array_equal(getattr(terms, name), getattr(want, name)), name
        # an integer mu forms the same products as its float
        t = rng.uniform(0.0, 1.2, (3, *want.requests.shape))
        assert terms.value(t).tobytes() == want.value(t).tobytes()
        assert terms.value_and_slope(t)[1].tobytes() == want.value_and_slope(t)[1].tobytes()


def test_all_linear_terms_match_the_mixed_rows_without_a_logistic(monkeypatch):
    """Terms with no sigmoid skip the logistic pass, and their values and
    slopes are, bit for bit and shape for shape, the linear rows of a mixed
    evaluation."""
    s = mixed_scenario_from_json()
    t = np.random.default_rng(23).uniform(0.0, 1.2, (3, 8, 2))
    every = AppTerms.from_scenario(s)
    mixed = every.value_and_slope(t)
    linear_apps = np.flatnonzero(~every.is_sigmoid)
    terms = AppTerms.from_scenario(s, linear_apps)
    assert terms.all_linear and not every.all_linear

    def no_logistic(self, received):
        raise AssertionError("an all-linear evaluation ran the logistic")

    monkeypatch.setattr(AppTerms, "_logistic", no_logistic)
    t_lin = t[:, linear_apps]
    got = (terms.value(t_lin), *terms.value_and_slope(t_lin))
    for have, want in zip(got, (mixed[0], *mixed)):
        assert have.shape == t_lin.shape
        assert have.tobytes() == want[:, linear_apps].tobytes()


@pytest.mark.parametrize("mu", [0.5, 3.0, 10.0])
def test_logistic_matches_the_oracle_bit_for_bit(mu):
    """Values are the oracle's 1/(1+e^{-mu(t-r)}) and slopes mu*p*(1-p)
    from it, bit for bit, on random receipts up to each request."""
    s = generate_scenario(3, 2, 4, utility="sigmoid", mu=mu, seed=31)
    terms = AppTerms.from_scenario(s)
    t = np.random.default_rng(31).uniform(0.0, 1.0, (64, *s.requests.shape)) * s.requests
    with np.errstate(over="ignore"):
        p = sigmoid_term(t, mu, s.requests)
    g, slope = terms.value_and_slope(t)
    assert g.tobytes() == terms.value(t).tobytes() == p.tobytes()
    assert slope.tobytes() == (mu * p * (1 - p)).tobytes()


def test_an_overflowing_logistic_is_exactly_zero_without_a_warning():
    s = generate_scenario(3, 2, 4, utility="sigmoid", mu=1000.0, seed=31)
    assert (1000.0 * s.requests).min() > 745  # exp(mu*r) overflows at t = 0
    terms = AppTerms.from_scenario(s)
    t = np.zeros((2, *s.requests.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (terms.value(t), *terms.value_and_slope(t))
    for have in got:
        assert have.tobytes() == t.tobytes()  # +0.0 throughout


def test_coalition_problem_matches_the_per_app_construction():
    s = mixed_scenario_from_json()
    for c in all_coalitions(4):
        prob = CoalitionProblem.build(s, c)
        members = c.members()
        apps = [i for i in range(s.m_total) if s.owner[i] in members]
        pos_of = {p: t for t, p in enumerate(members)}
        ord_pos, zseq = [], []
        for i in apps:
            owner = int(s.owner[i])
            row = [pos_of[owner]] + [t for t in range(len(members)) if t != pos_of[owner]]
            ord_pos.append(row)
            zseq.append([s.w[owner]] + [s.zeta[members[t]] for t in row[1:]])
        assert prob.members == tuple(members)
        assert np.array_equal(prob.apps, apps)
        assert np.array_equal(prob.ord_pos, np.array(ord_pos).reshape(len(apps), -1))
        assert np.array_equal(prob.zseq, np.array(zseq).reshape(len(apps), -1))
        want = per_app_terms(s, np.array(apps))
        for name in ("is_sigmoid", "mu", "coeffs", "requests"):
            assert np.array_equal(getattr(prob.terms, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# invariants


def test_eval_own_monotone_in_receipt():
    rng = np.random.default_rng(11)
    s = three_player_chain(mu=1.5)
    for _ in range(300):
        b = rng.uniform(0, 0.4, size=(3, 3, 1))
        a = b * rng.uniform(0, 1, size=b.shape)  # elementwise below b
        assert eval_own(s, a, 0) <= eval_own(s, b, 0) + 1e-12


def test_shared_income_monotone_in_own_supply():
    """Growing only the supplier's portions (rest of the allocation fixed)
    never shrinks that supplier's income."""
    rng = np.random.default_rng(12)
    s = three_player_chain(mu=1.5)
    for _ in range(300):
        x = rng.uniform(0, 0.3, size=(3, 3, 1))
        shrunk = x.copy()
        shrunk[1] *= rng.uniform(0, 1)
        hi = breakdown(s, Allocation(x))[1].shared
        lo = breakdown(s, Allocation(shrunk))[1].shared
        for j in hi:
            assert lo[j] <= hi[j] + 1e-12


def test_sigmoid_bounds():
    rng = np.random.default_rng(13)
    s = one_player(mu=4.0, k=3)
    for _ in range(100):
        x = rng.uniform(0, 5.0 / 3, size=(1, 1, 3))
        v = eval_own(s, x, 0)
        assert 0.0 < v < 3.0  # one app, three resources


def test_objective_of_subcoalition_counts_members_only():
    s = Scenario(
        n_players=2, n_resources=1,
        capacities=np.array([[2.0], [2.0]]),
        requests=np.array([[1.0], [1.5]]),
        owner=np.array([0, 1]),
        utilities=(UtilitySpec("linear"), UtilitySpec("linear")),
        w=np.ones(2), zeta=np.ones(2),
    )
    x = np.zeros((1, 1, 1))
    x[0, 0, 0] = 1.0  # player 1 serves its own application
    assert coalition_objective(s, Allocation(x), Coalition(0b01)) == pytest.approx(1.0)
    # player 2 and its application are no coordinates of {1}
    with pytest.raises(ValueError, match=r"allocation shape \(2, 2, 1\) is not \(1, 1, 1\)"):
        coalition_objective(s, Allocation(embed(s, 0b01, x)), Coalition(0b01))
