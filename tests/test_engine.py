"""Characteristic table, Shapley payoffs, and the two-phase fast split.

Cross-checked against closed-form coalition values (oracles.minform_value),
permutation-enumeration Shapley, and a hand-traced two-phase split.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from edgeshare import engine
from edgeshare.analysis import core_verify
from edgeshare.engine import (
    TABLE_PLAYER_LIMIT,
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
from edgeshare.solver import solve_coalition
from edgeshare.utility import coalition_objective

from oracles import (
    member_sums_by_loop,
    minform_value,
    shapley_by_loop,
    shapley_by_permutations,
    two_phase_split,
)


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
    table = CharacteristicTable(values=[1.0, 1.0, 3.0], reports={})
    assert table.value(0) == 0.0


def test_table_holds_one_value_per_nonempty_coalition():
    table = CharacteristicTable(values=[1.0, 2.0, 3.0], reports={})
    assert table.n_players == 2
    assert [table.value(m) for m in range(4)] == [0.0, 1.0, 2.0, 3.0]
    assert table.singleton_values().tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        table.values[0] = 5.0  # read-only
    for partial in ([], [1.0, 2.0], [1.0] * 4, [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match="2\\^N - 1 values"):
            CharacteristicTable(values=partial, reports={})


@pytest.mark.parametrize("utility, mu, zeta", [
    ("sigmoid", 3.0, 1.0), ("sigmoid", 3.0, 0.5), ("linear", None, 1.0)],
    ids=["sigmoid-1:1", "sigmoid-1:0.5", "linear"])
def test_table_holds_each_allocation_in_its_coalitions_coordinates(utility, mu, zeta):
    s = generate_scenario(3, 2, 3, utility=utility, mu=mu, seed=5, zeta=zeta)
    table = build_characteristic_table(s, restarts=4)
    for mask, report in table.reports.items():
        members, apps = s.local_axes(mask)
        x = report.allocation.x
        assert x.shape == (len(members), len(apps), s.n_resources), mask
        # an array of its own, not a view that keeps the restart batch alive
        assert x.base is None and x.flags.owndata, mask


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


def test_table_player_limit_runs_at_the_limit_and_solves_nothing_above(monkeypatch):
    """The limit itself builds its table; one player more is refused before
    the first solve.  Solves are counted, not run."""
    calls = []
    report = solve_coalition(generate_scenario(1, 1, 1, utility="linear", seed=0), Coalition(1))

    def counted(s, coalition, **kwargs):
        calls.append(coalition.mask)
        return report

    monkeypatch.setattr(engine, "solve_coalition", counted)
    at = generate_scenario(TABLE_PLAYER_LIMIT, 1, 1, utility="linear", seed=0)
    table = build_characteristic_table(at)
    assert calls == list(range(1, 1 << TABLE_PLAYER_LIMIT))
    assert table.n_players == TABLE_PLAYER_LIMIT
    calls.clear()
    above = generate_scenario(TABLE_PLAYER_LIMIT + 1, 1, 1, utility="linear", seed=0)
    with pytest.raises(ValueError, match=f"limited to {TABLE_PLAYER_LIMIT} players.*--method fast"):
        build_characteristic_table(above)
    assert calls == []


BENCHMARK_FLOORS = Path(__file__).resolve().parents[1] / "perfbench" / "reference_values.json"


@pytest.mark.parametrize("workload, players, apps, weights, seed", [
    *[("weighted-sigmoid", 3, 5, (1.0, 0.5), seed) for seed in (0, 1, 2, 3, 92)],
    *[("shapley-sigmoid", 4, 20, (1.0, 1.0), seed) for seed in range(4)],
])
def test_tables_hold_the_benchmark_floors(workload, players, apps, weights, seed):
    """The benchmark records, per scenario, coalition values that later
    solvers may exceed but not fall below.  Scenarios generated as it
    generates them (3 resources, mu cycling through 1, 3, 10 with the
    seed) keep every value within 1e-9 (relative) of its floor, so a drift
    in the start streams shows here and not only in the benchmark."""
    floors = json.loads(BENCHMARK_FLOORS.read_text())[workload][str(seed)]
    s = generate_scenario(players, 3, apps, utility="sigmoid", mu=(1, 3, 10)[seed % 3],
                          seed=seed, w=weights[0], zeta=weights[1])
    table = build_characteristic_table(s)
    got = table.values.tolist()
    assert len(got) == len(floors)
    low = [(mask, g, f) for mask, (g, f) in enumerate(zip(got, floors), start=1)
           if g < f - 1e-9 * max(1.0, abs(f))]
    assert not low, f"(mask, value, floor) below the floor: {low}"


# ---------------------------------------------------------------------------
# shapley


def test_single_player_keeps_own_value():
    phi, table = shapley_payoffs(generate_scenario(1, 2, 2, utility="linear", seed=6))
    assert phi[0] == pytest.approx(table.value(1))


def test_symmetric_two_player_split():
    table = CharacteristicTable(values=[1.2, 1.2, 5.0], reports={})
    assert np.allclose(shapley_from_table(table), [2.5, 2.5])


def test_shapley_from_table_matches_permutation_enumeration():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        values = rng.uniform(0, 10, (1 << n) - 1)
        table = CharacteristicTable(values=values, reports={})
        phi = shapley_from_table(table)
        want = shapley_by_permutations(n, lambda ms: table.value(sum(1 << p for p in ms)))
        assert np.allclose(phi, want, atol=1e-12)


def test_array_sweeps_equal_the_mask_loops_bit_for_bit():
    """Shapley payoffs and core member sums, computed with array sweeps,
    equal the plain mask loops they replace exactly: each sum adds the
    same terms in the same order.  Tables mix magnitudes, signs and exact
    zeros so that a change of summation order would show."""
    rng = np.random.default_rng(2024)
    for trial in range(400):
        n = 1 + trial % 10
        values = rng.uniform(-1, 1, (1 << n) - 1) * 10.0 ** rng.integers(-8, 9, (1 << n) - 1)
        values[rng.random(values.size) < 0.1] = 0.0
        table = CharacteristicTable(values=values, reports={})
        got = shapley_from_table(table)
        assert got.tobytes() == shapley_by_loop(n, table.value).tobytes(), (trial, n)
        payoffs = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-8, 9, n)
        sums = member_sums_by_loop(payoffs)
        report = core_verify(payoffs, table, tol=0.0)
        want = {m: values[m - 1] - sums[m] for m in range(1, 1 << n)
                if values[m - 1] - sums[m] > 0.0}
        assert report.deficits == want, (trial, n)
    zeros = CharacteristicTable(values=[-0.0, 0.0, -0.0], reports={})
    assert shapley_from_table(zeros).tobytes() == shapley_by_loop(2, zeros.value).tobytes()


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


def test_shapley_solve_count_is_exponential(solve_calls):
    s = generate_scenario(4, 1, 1, utility="linear", seed=9)
    _, table = shapley_payoffs(s)
    assert solve_calls == {"solve_coalition": 2**4 - 1}
    assert len(table.reports) == 2**4 - 1


def test_shapley_efficiency():
    s = generate_scenario(4, 2, 2, utility="linear", seed=10)
    phi, table = shapley_payoffs(s)
    assert phi.sum() == pytest.approx(table.values[-1], abs=1e-9)


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
    singles = [solve_coalition(s, Coalition(m)).value for m in (1, 2)]
    assert np.allclose(res.payoffs, singles)


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
        grand = solve_coalition(s, Coalition.grand(s.n_players)).value
        assert res.payoffs.sum() == pytest.approx(grand, abs=1e-9)


def test_fast_core_individually_rational():
    for seed in range(6):
        s = generate_scenario(3, 2, 2, utility="linear", seed=seed)
        res = fast_core(s)
        for n in range(3):
            assert res.payoffs[n] >= solve_coalition(s, Coalition(1 << n)).value - 1e-9


def test_fast_core_solve_count_is_linear(solve_calls):
    s = generate_scenario(5, 1, 1, utility="linear", seed=11)
    res = fast_core(s)
    assert solve_calls == {"solve_native": 5, "solve_residual": 5}
    assert res.solves == 2 * 5


def test_fast_core_allocation_feasible_and_value_consistent():
    s = generate_scenario(3, 2, 2, utility="sigmoid", mu=10.0, seed=12)
    res = fast_core(s)
    assert audit_allocation(s, res.allocation) == []
    # the combined two-phase allocation realizes exactly the paid total
    obj = coalition_objective(s, res.allocation, Coalition.grand(3))
    assert res.payoffs.sum() == pytest.approx(obj, abs=1e-9)


def test_methods_share_totals_but_not_splits():
    # exact linear solves: same pie, differently cut
    s = generate_scenario(3, 2, 2, utility="linear", seed=11)
    phi, table = shapley_payoffs(s)
    res = fast_core(s)
    assert phi.sum() == pytest.approx(res.payoffs.sum(), abs=1e-9)
    assert not np.allclose(phi, res.payoffs)
