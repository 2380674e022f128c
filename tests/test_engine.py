"""Characteristic table, Shapley payoffs, and the two-phase fast split.

Cross-checked against closed-form coalition values (oracles.minform_value),
permutation-enumeration Shapley, and a hand-traced two-phase split.
"""
import numpy as np
import pytest

from edgeshare.engine import (
    CharacteristicTable,
    build_characteristic_table,
    fast_core,
    shapley_from_table,
    shapley_payoffs,
)
from edgeshare.model import (
    Coalition,
    Scenario,
    UtilitySpec,
    audit_allocation,
    generate_scenario,
)
from edgeshare.solver import SolveCounter
from edgeshare.utility import coalition_objective

from oracles import minform_value, shapley_by_permutations, two_phase_split


def own_demand(s):
    return np.stack([s.requests[s.apps_of(n)].sum(axis=0) for n in range(s.n_players)])


def unit_linear(caps, reqs, owner):
    caps = np.asarray(caps, dtype=float)
    return Scenario(
        n_players=caps.shape[0], n_resources=caps.shape[1],
        capacities=caps, requests=np.asarray(reqs, dtype=float),
        owner=np.asarray(owner),
        utilities=tuple(UtilitySpec("linear") for _ in range(caps.shape[0])),
        w=np.ones(caps.shape[0]), zeta=np.ones(caps.shape[0]),
    )


# ---------------------------------------------------------------------------
# characteristic table


def test_empty_coalition_is_zero():
    table = CharacteristicTable(n_players=2, values={1: 1.0, 2: 1.0, 3: 3.0}, reports={})
    assert table.value(0) == 0.0


def test_table_completeness_flag():
    full = CharacteristicTable(n_players=2, values={1: 1.0, 2: 1.0, 3: 3.0}, reports={})
    partial = CharacteristicTable(n_players=2, values={1: 1.0}, reports={})
    assert full.is_complete and not partial.is_complete


def test_table_matches_closed_form_minimum():
    """Unit-linear coalition value is sum_k min(member capacity, member
    demand); the solver must reproduce it on every coalition."""
    for n, seed in [(2, 0), (3, 1), (4, 2)]:
        s = generate_scenario(n, 3, 3, utility="linear", seed=seed)
        table = build_characteristic_table(s)
        dem = own_demand(s)
        for mask in range(1, 1 << n):
            members = [p for p in range(n) if mask >> p & 1]
            assert table.value(mask) == pytest.approx(
                minform_value(s.capacities, dem, members), abs=1e-9)


def test_value_monotone_under_superset():
    s = generate_scenario(3, 2, 2, utility="linear", seed=3)
    table = build_characteristic_table(s)
    for mask in range(1, 8):
        for sup in range(mask, 8):
            if sup & mask == mask:
                assert table.value(sup) >= table.value(mask) - 1e-9


def test_partial_table_on_request():
    s = generate_scenario(3, 2, 2, utility="linear", seed=4)
    table = build_characteristic_table(s, masks=[1, 2, 4])
    assert set(table.values) == {1, 2, 4}
    assert not table.is_complete


# ---------------------------------------------------------------------------
# shapley


def test_single_player_keeps_own_value():
    phi, table = shapley_payoffs(generate_scenario(1, 2, 2, utility="linear", seed=6))
    assert phi[0] == pytest.approx(table.value(1))


def test_symmetric_two_player_split():
    table = CharacteristicTable(n_players=2, values={1: 1.2, 2: 1.2, 3: 5.0}, reports={})
    assert np.allclose(shapley_from_table(table), [2.5, 2.5])


def test_shapley_from_table_matches_permutation_enumeration():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        values = {mask: float(rng.uniform(0, 10)) for mask in range(1, 1 << n)}
        table = CharacteristicTable(n_players=n, values=values, reports={})
        phi = shapley_from_table(table)
        want = shapley_by_permutations(
            n, lambda ms: values[sum(1 << p for p in ms)] if ms else 0.0)
        assert np.allclose(phi, want, atol=1e-12)


def test_shapley_pipeline_matches_permutation_oracle():
    s = generate_scenario(3, 2, 2, utility="linear", seed=8)
    phi, _ = shapley_payoffs(s)
    dem = own_demand(s)
    want = shapley_by_permutations(
        3, lambda ms: minform_value(s.capacities, dem, ms))
    assert np.allclose(phi, want, atol=1e-9)


def test_shapley_hand_case():
    # caps (3,0), requests (2,4): v = {1:2, 2:0, 12:3} -> phi = (2.5, 0.5)
    s = unit_linear(caps=[[3.0], [0.0]], reqs=[[2.0], [4.0]], owner=[0, 1])
    phi, table = shapley_payoffs(s)
    assert table.value(0b01) == pytest.approx(2.0)
    assert table.value(0b10) == pytest.approx(0.0)
    assert table.value(0b11) == pytest.approx(3.0)
    assert np.allclose(phi, [2.5, 0.5])


def test_shapley_solve_count_is_exponential():
    counter = SolveCounter()
    s = generate_scenario(4, 1, 1, utility="linear", seed=9)
    shapley_payoffs(s, counter=counter)
    assert counter.count == 2**4 - 1


def test_shapley_efficiency():
    s = generate_scenario(4, 2, 2, utility="linear", seed=10)
    phi, table = shapley_payoffs(s)
    assert phi.sum() == pytest.approx(table.value(table.grand_mask), abs=1e-9)


def test_dummy_player_gets_nothing():
    s = unit_linear(
        caps=[[2.0], [0.0], [3.0]],
        reqs=[[2.0], [0.0], [4.0]],
        owner=[0, 1, 2],
    )
    phi, _ = shapley_payoffs(s)
    assert phi[1] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fast split


def test_fast_core_two_player_trace():
    # the hand example: provider 1 serves its own unit app (phase one),
    # then ships the leftover unit to the stranded app (phase two)
    s = unit_linear(caps=[[2.0], [0.0]], reqs=[[1.0], [1.0]], owner=[0, 1])
    res = fast_core(s)
    assert np.allclose(res.payoffs, [2.0, 0.0])
    assert np.allclose(res.phase1, [1.0, 0.0])
    assert np.allclose(res.phase2, [1.0, 0.0])


def test_fast_core_without_leftovers_degenerates_to_singletons():
    s = unit_linear(caps=[[3.0], [5.0]], reqs=[[3.0], [5.0]], owner=[0, 1])
    res = fast_core(s)
    assert np.allclose(res.phase2, 0.0)
    table = build_characteristic_table(s, masks=[1, 2])
    assert np.allclose(res.payoffs, [table.value(1), table.value(2)])


def test_fast_core_matches_hand_trace_across_seeds():
    for seed in range(8):
        s = generate_scenario(3, 2, 3, utility="linear", seed=seed)
        res = fast_core(s)
        want, p1, p2 = two_phase_split(s.capacities, own_demand(s), s.w, s.zeta)
        assert np.allclose(res.payoffs, want, atol=1e-9)
        assert np.allclose(res.phase1, p1, atol=1e-9)
        assert np.allclose(res.phase2, p2, atol=1e-9)


def test_fast_core_group_rational_linear():
    for seed in range(10):
        s = generate_scenario(4, 3, 3, utility="linear", seed=seed)
        res = fast_core(s)
        grand = build_characteristic_table(s, masks=[s.grand_mask]).value(s.grand_mask)
        assert res.payoffs.sum() == pytest.approx(grand, abs=1e-9)


def test_fast_core_individually_rational():
    for seed in range(6):
        s = generate_scenario(3, 2, 2, utility="linear", seed=seed)
        res = fast_core(s)
        singles = build_characteristic_table(s, masks=[1, 2, 4])
        for n in range(3):
            assert res.payoffs[n] >= singles.value(1 << n) - 1e-9


def test_fast_core_solve_count_is_linear():
    counter = SolveCounter()
    s = generate_scenario(5, 1, 1, utility="linear", seed=11)
    fast_core(s, counter=counter)
    assert counter.count == 2 * 5


def test_fast_core_allocation_feasible_and_value_consistent():
    s = generate_scenario(3, 2, 2, utility="sigmoid", mu=10.0, seed=12)
    res = fast_core(s)
    assert audit_allocation(s, res.allocation) == []
    # the combined two-phase allocation realizes exactly the paid total
    obj = coalition_objective(s, res.allocation, Coalition.grand(3))
    assert res.payoffs.sum() == pytest.approx(obj, abs=1e-9)


def test_fast_core_order_option_changes_split_not_total():
    s = generate_scenario(3, 2, 3, utility="linear", seed=13)
    asc = fast_core(s)
    desc = fast_core(s, order=(2, 1, 0))
    assert asc.payoffs.sum() == pytest.approx(desc.payoffs.sum(), abs=1e-9)
    assert asc.order == (0, 1, 2) and desc.order == (2, 1, 0)


def test_fast_core_rejects_bad_order():
    s = generate_scenario(2, 1, 1, utility="linear", seed=14)
    with pytest.raises(ValueError):
        fast_core(s, order=(0, 0))


def test_methods_share_totals_but_not_splits():
    # exact linear solves: same pie, differently cut
    s = generate_scenario(3, 2, 2, utility="linear", seed=11)
    phi, table = shapley_payoffs(s)
    res = fast_core(s)
    assert phi.sum() == pytest.approx(res.payoffs.sum(), abs=1e-9)
    assert not np.allclose(phi, res.payoffs)
