"""Verification predicates and the method comparison harness."""
import numpy as np
import pytest

from edgeshare import engine
from edgeshare.analysis import (
    ATTRIBUTION_BLOCK,
    TABLE_VALUE_RTOL,
    compare_methods,
    core_verify,
    member_shares,
    superadditivity_audit,
)
from edgeshare.engine import (
    CharacteristicTable,
    build_characteristic_table,
    fast_core,
    shapley_payoffs,
)
from edgeshare.model import Coalition, generate_scenario
from edgeshare.solver import solve_coalition

# fixed three-provider reference game used as a regression instance:
# worths by mask 1 ... 7: {1},{2},{1,2},{3},{1,3},{2,3},{1,2,3}
REFERENCE_VALUES = [36.0, 4.37, 44.545, 4.31, 44.623, 17.37, 62.06]
REFERENCE_TABLE = CharacteristicTable(values=REFERENCE_VALUES, reports={})


# ---------------------------------------------------------------------------
# core_verify


def test_reference_payoffs_sit_in_core():
    report = core_verify(np.array([40.34, 10.90, 10.81]), REFERENCE_TABLE, tol=1e-2)
    assert report.in_core
    assert report.is_group_rational and report.is_individually_rational
    assert report.violated_coalitions() == []


def test_greedy_grab_violates_individual_rationality():
    report = core_verify(np.array([62.06, 0.0, 0.0]), REFERENCE_TABLE, tol=1e-6)
    assert not report.in_core
    assert not report.is_individually_rational
    masks = [c.mask for c, _ in report.violated_coalitions()]
    assert 0b010 in masks and 0b100 in masks


def test_single_player_core():
    table = CharacteristicTable(values=[7.5], reports={})
    assert core_verify(np.array([7.5]), table, tol=1e-9).in_core


def test_core_requires_complete_table():
    # a table short of any coalition cannot be built, so never checked
    with pytest.raises(ValueError, match="2\\^N - 1 values"):
        CharacteristicTable(values=[1.0, 0.0], reports={})
    with pytest.raises(ValueError, match="shape"):
        core_verify(np.array([1.0, 0.0]), CharacteristicTable(values=[1.0], reports={}))


def test_deficit_magnitude_reported():
    table = CharacteristicTable(values=[1.0, 1.0, 4.0], reports={})
    report = core_verify(np.array([3.5, 0.5]), table, tol=1e-6)
    ((coal, deficit),) = report.violated_coalitions()
    assert coal.mask == 0b10
    assert deficit == pytest.approx(0.5)


def test_overpaying_breaks_group_rationality():
    report = core_verify(np.array([100.0, 100.0, 100.0]), REFERENCE_TABLE, tol=1e-6)
    assert report.violated_coalitions() == []  # nobody wants to defect
    assert not report.is_group_rational and not report.in_core


# ---------------------------------------------------------------------------
# superadditivity_audit


def test_reference_values_are_superadditive():
    report = superadditivity_audit(REFERENCE_TABLE, tol=1e-9)
    assert report.ok and not report.violations
    assert report.pairs_checked == 6  # unordered disjoint nonempty pairs of 3


def test_injected_violation_is_flagged():
    table = CharacteristicTable(values=[3.0, 2.0, 4.0], reports={})
    report = superadditivity_audit(table, tol=1e-9)
    assert not report.ok
    ((m1, m2, gap),) = report.violations
    assert {m1, m2} == {1, 2}
    assert gap == pytest.approx(1.0)


def test_single_player_vacuously_superadditive():
    table = CharacteristicTable(values=[2.0], reports={})
    report = superadditivity_audit(table, tol=1e-9)
    assert report.ok and report.pairs_checked == 0


# ---------------------------------------------------------------------------
# member_shares


@pytest.mark.parametrize("utility, w, zeta", [
    ("sigmoid", 1.0, 1.0), ("sigmoid", 1.0, 0.5), ("sigmoid", 0.5, 1.0), ("linear", 1.0, 1.0)],
    ids=["sigmoid-1:1", "sigmoid-1:0.5", "sigmoid-0.5:1", "linear"])
def test_member_shares_split_each_value_over_its_members(utility, w, zeta):
    """Blocks of at most ATTRIBUTION_BLOCK masks cover every coalition in
    ascending order; a non-member's share is exactly 0.0 (a sigmoid
    non-member's own baseline is not), and the members' shares add up to
    the coalition's value."""
    mu = 3.0 if utility == "sigmoid" else None
    s = generate_scenario(5, 2, 1, utility=utility, mu=mu, seed=9, w=w, zeta=zeta)
    table = build_characteristic_table(s, restarts=4)
    blocks = list(member_shares(s, table))
    assert all(0 < len(masks) <= ATTRIBUTION_BLOCK for masks, _ in blocks)
    assert np.concatenate([masks for masks, _ in blocks]).tolist() == list(range(1, 32))
    for masks, shares in blocks:
        assert shares.shape == (len(masks), 5)
        for mask, split in zip(masks.tolist(), shares):
            member = (mask >> np.arange(5)) & 1 == 1
            assert split[~member].tobytes() == np.zeros((~member).sum()).tobytes(), mask
            value = table.value(mask)
            assert abs(split[member].sum() - value) <= TABLE_VALUE_RTOL * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# compare_methods


def test_solve_counts_three_players():
    s = generate_scenario(3, 2, 2, utility="linear", seed=0)
    rep = compare_methods(s, repetitions=2)
    assert rep.stats["shapley"].solves == 7
    assert rep.stats["fast"].solves == 6


def test_solve_counts_ten_players():
    s = generate_scenario(10, 1, 1, utility="linear", seed=1)
    rep = compare_methods(s, repetitions=1)
    assert rep.stats["shapley"].solves == 2**10 - 1
    assert rep.stats["fast"].solves == 20


def test_repetitions_below_one_are_rejected():
    s = generate_scenario(2, 1, 1, utility="linear", seed=0)
    with pytest.raises(ValueError, match="repetitions"):
        compare_methods(s, repetitions=0)


@pytest.mark.parametrize("methods", [("fast", "fast"), ("shapley", "fast", "shapley"), (),
                                     ("exact",)])
def test_methods_must_name_each_pipeline_once(methods):
    s = generate_scenario(2, 1, 1, utility="linear", seed=0)
    with pytest.raises(ValueError, match="methods must name 'shapley', 'fast' or both once"):
        compare_methods(s, methods, repetitions=1)


def test_totals_agree_for_exact_solves():
    s = generate_scenario(3, 3, 3, utility="linear", seed=3)
    rep = compare_methods(s, repetitions=2)
    assert rep.stats["shapley"].total == pytest.approx(rep.stats["fast"].total, abs=1e-6)
    assert rep.table.values[-1] == pytest.approx(rep.stats["shapley"].total, abs=1e-6)


def test_standalone_values_match_singletons():
    s = generate_scenario(3, 2, 2, utility="linear", seed=4)
    rep = compare_methods(s, repetitions=1)
    want = [solve_coalition(s, Coalition(1 << n)).value for n in range(3)]
    assert list(rep.standalone) == want
    # the fast route alone reports the same standalone values
    assert compare_methods(s, methods=("fast",), repetitions=1).standalone == rep.standalone


def test_timing_fields_populated():
    s = generate_scenario(2, 2, 2, utility="linear", seed=5)
    rep = compare_methods(s, repetitions=3)
    for stat in rep.stats.values():
        assert len(stat.times_ms) == 3
        assert stat.median_ms > 0
    assert rep.speedup_pct is not None


def test_pipelines_alternate_and_report_the_first_repetition(monkeypatch):
    """Shapley and fast runs interleave, so host drift falls on both, and
    the reported payoffs are those of the first repetition."""
    calls = []

    def recorded(name, fn):
        def run(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(engine, "shapley_payoffs", recorded("shapley", shapley_payoffs))
    monkeypatch.setattr(engine, "fast_core", recorded("fast", fast_core))
    s = generate_scenario(2, 2, 2, utility="linear", seed=7)
    rep = compare_methods(s, repetitions=3)
    assert calls == ["shapley", "fast"] * 3
    phi, _ = shapley_payoffs(s)
    assert rep.stats["shapley"].payoffs == tuple(map(float, phi))
    assert rep.stats["fast"].payoffs == tuple(map(float, fast_core(s).payoffs))


# ---------------------------------------------------------------------------
# both checks on one solved game


def test_two_player_payoffs_sit_in_the_core_of_a_superadditive_game():
    s = generate_scenario(2, 2, 2, utility="linear", seed=6)
    phi, table = shapley_payoffs(s)
    fast = fast_core(s)
    core_reports = {name: core_verify(vec, table, tol=1e-6)
                    for name, vec in (("shapley", phi), ("fast", fast.payoffs))}
    sa = superadditivity_audit(table, tol=1e-6)
    assert set(core_reports) == {"shapley", "fast"}
    # two players: superadditive game always has both vectors in the core
    assert core_reports["shapley"].in_core and core_reports["fast"].in_core
    assert sa.ok


# ---------------------------------------------------------------------------
# a core point, constructed


@pytest.mark.parametrize("seed", range(25))
def test_linear_game_has_a_core_point(seed):
    """The least-core LP over the table (min eps such that every coalition
    S gets at least v(S) - eps and the players share v(grand) exactly)
    reaches eps <= 0 on each of the 25 linear acceptance scenarios, so the
    core is non-empty, and its point passes core_verify."""
    from scipy.optimize import linprog

    n = (2, 3, 4)[seed % 3]
    table = build_characteristic_table(generate_scenario(n, 3, 3, utility="linear", seed=seed))
    masks = np.arange(1, (1 << n) - 1)
    member = (masks[:, None] >> np.arange(n)) & 1
    # variables (x_1 .. x_n, eps): -x(S) - eps <= -v(S), x(N) = v(N)
    lp = linprog(c=np.r_[np.zeros(n), 1.0],
                 A_ub=-np.c_[member, np.ones(len(masks))], b_ub=-table.values[masks - 1],
                 A_eq=np.r_[np.ones(n), 0.0][None], b_eq=table.values[-1:],
                 bounds=[(None, None)] * (n + 1), method="highs")
    assert lp.status == 0, lp.message
    assert lp.fun <= 1e-9
    report = core_verify(lp.x[:n], table, tol=1e-6)
    assert report.in_core, report.deficits
