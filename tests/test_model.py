"""Scenario construction, validation, coalitions, allocations, serialization."""
import dataclasses
import json
import re

import numpy as np
import pytest

from edgeshare import model
from edgeshare.model import (
    Allocation,
    Coalition,
    Scenario,
    UtilitySpec,
    all_coalitions,
    audit_allocation,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)


def tiny_scenario(**overrides):
    """2 players, 2 apps each, 2 resources, unit linear, hand-set numbers."""
    kw = dict(
        n_players=2,
        n_resources=2,
        capacities=np.array([[4.0, 2.0], [1.0, 3.0]]),
        requests=np.array([[1.0, 1.0], [2.0, 0.5], [3.0, 1.0], [1.0, 2.0]]),
        owner=np.array([0, 0, 1, 1]),
        utilities=(UtilitySpec("linear"), UtilitySpec("linear")),
        w=np.ones(2),
        zeta=np.ones(2),
    )
    kw.update(overrides)
    return Scenario(**kw)


# ---------------------------------------------------------------------------
# validation


def test_well_formed_scenario_has_no_violations():
    assert validate_scenario(tiny_scenario()) == []


def test_negative_request_rejected():
    with pytest.raises(ValueError, match="requests must be nonnegative"):
        tiny_scenario(requests=np.array([[1.0, -1.0], [2.0, 0.5],
                                         [3.0, 1.0], [1.0, 2.0]]))


def test_player_count_mismatch_rejected():
    with pytest.raises(ValueError, match="utility specs"):
        tiny_scenario(utilities=(UtilitySpec("linear"),))


def test_validation_reports_instead_of_raising():
    s = tiny_scenario()
    # sneak a bad array past the constructor to exercise the diagnostic path
    object.__setattr__(s, "requests", np.array([[-1.0, 1.0], [2.0, 0.5],
                                                [3.0, 1.0], [1.0, 2.0]]))
    problems = validate_scenario(s)
    assert any("requests" in p for p in problems)


def test_request_entries_are_bounded():
    """generate_scenario takes up to MAX_REQUEST_ENTRIES request entries
    (N * m * K) and refuses one more before drawing; a scenario built
    with more fails validation."""
    bound = model.MAX_REQUEST_ENTRIES
    assert generate_scenario(1, 1, bound).requests.size == bound
    with pytest.raises(ValueError, match=f"at most {bound} request entries"):
        generate_scenario(1, 1, bound + 1)
    with pytest.raises(ValueError, match=f"at most {bound} request entries"):
        tiny_scenario(requests=np.ones((bound // 2 + 1, 2)),
                      owner=np.repeat([0, 1], [1, bound // 2]))


def test_owner_grouping_enforced():
    with pytest.raises(ValueError, match="grouped by owner"):
        tiny_scenario(owner=np.array([0, 1, 0, 1]))


def test_sigmoid_spec_needs_positive_mu():
    with pytest.raises(ValueError):
        UtilitySpec("sigmoid", mu=0.0)
    with pytest.raises(ValueError):
        UtilitySpec("sigmoid")


def test_negative_coeffs_rejected():
    with pytest.raises(ValueError, match="coeffs"):
        tiny_scenario(utilities=(
            UtilitySpec("linear", coeffs=np.array([[1.0, 1.0], [-2.0, 1.0]])),
            UtilitySpec("linear"),
        ))


def test_weight_shape_checked():
    with pytest.raises(ValueError, match="w must have shape"):
        tiny_scenario(w=np.ones(3))


@pytest.mark.parametrize("build, message", [
    (lambda: tiny_scenario(owner=np.array([0, 0, 1, 2])), "owner indices out of range"),
    (lambda: tiny_scenario(owner=np.array([-1, 0, 1, 1])), "owner indices out of range"),
    (lambda: tiny_scenario(owner=np.array([0, 0, 1])), "owner must align with requests rows"),
    (lambda: tiny_scenario(owner=np.zeros(4, dtype=int)),
     "every player must own at least one application"),
    (lambda: tiny_scenario(requests=np.ones(4)), "requests shape (4,) incompatible with K=2"),
    (lambda: UtilitySpec("sigmoid", mu=3.0, coeffs=np.ones((2, 2))),
     "sigmoid utility takes no coefficients"),
    (lambda: UtilitySpec("linear", mu=3.0), "linear utility takes no mu"),
    (lambda: UtilitySpec("quadratic"), "unknown utility kind 'quadratic'"),
    (lambda: Allocation(np.zeros((2, 4))), "allocation must be (providers, apps, resources)"),
    (lambda: Coalition.from_members([0, model.MAX_PLAYERS]),
     f"player index {model.MAX_PLAYERS} out of range"),
    (lambda: generate_scenario(model.MAX_PLAYERS + 1, 1, 1),
     f"at most {model.MAX_PLAYERS} players supported"),
    (lambda: generate_scenario(2, 2, 2, utility="linear", mu=3.0),
     "linear generation takes no mu"),
], ids=["owner-above-n", "negative-owner", "owner-misaligned", "player-without-apps",
        "flat-requests", "coeffs-on-sigmoid", "mu-on-linear", "unknown-kind",
        "allocation-not-3d", "member-above-max-players", "generate-above-max-players",
        "generate-linear-with-mu"])
def test_constructors_reject_what_no_scenario_file_holds(build, message):
    """Scenario and UtilitySpec refuse, by name, what the scenario reader
    never builds (it derives the owners from the player blocks and refuses
    a field that does not fit the utility kind first), and so do
    Allocation, Coalition and generate_scenario on what no scenario
    holds."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic():
    a = generate_scenario(3, 3, 3, utility="sigmoid", mu=0.01, seed=7)
    b = generate_scenario(3, 3, 3, utility="sigmoid", mu=0.01, seed=7)
    assert scenario_to_json(a) == scenario_to_json(b)
    assert a.digest() == b.digest()


def test_generation_single_everything():
    s = generate_scenario(1, 1, 1, utility="linear", seed=0)
    assert s.requests.shape == (1, 1)
    assert 1.0 <= s.requests[0, 0] <= 10.0
    d = s.requests[0, 0]
    assert 0.5 * d <= s.capacities[0, 0] <= 1.5 * d


def test_generated_scenarios_validate():
    s = generate_scenario(3, 3, 20, utility="sigmoid", mu=10.0, seed=42)
    assert validate_scenario(s) == []


def test_generation_ranges_hold_across_seeds():
    """Requests stay in [1, 10], capacities within half of native demand."""
    for seed in range(1000):
        s = generate_scenario(2, 2, 2, utility="linear", seed=seed)
        assert np.all(s.requests >= 1.0) and np.all(s.requests <= 10.0)
        for n in range(2):
            demand = s.requests[s.owner == n].sum(axis=0)
            assert np.all(s.capacities[n] >= 0.5 * demand - 1e-12)
            assert np.all(s.capacities[n] <= 1.5 * demand + 1e-12)


def test_generation_rejects_bad_sizes():
    for bad in [dict(n_players=0), dict(n_resources=0), dict(m_per_player=0)]:
        kw = dict(n_players=2, n_resources=2, m_per_player=2, utility="linear", seed=0)
        kw.update(bad)
        with pytest.raises(ValueError):
            generate_scenario(**kw)
    with pytest.raises(ValueError):
        generate_scenario(2, 2, 2, utility="sigmoid", mu=None, seed=0)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_is_lossless():
    s = generate_scenario(3, 2, 4, utility="sigmoid", mu=0.01, seed=13)
    t = scenario_from_json(scenario_to_json(s))
    assert np.array_equal(s.capacities, t.capacities)  # exact, not approx
    assert np.array_equal(s.requests, t.requests)
    assert s.digest() == t.digest()


def test_save_load_round_trip(tmp_path):
    s = generate_scenario(2, 3, 2, utility="linear", seed=5)
    path = tmp_path / "scen.json"
    save_scenario(s, path)
    t = load_scenario(path)
    assert scenario_to_json(s) == scenario_to_json(t)


def test_loaded_digest_is_the_digest_of_the_text_read(tmp_path):
    """A compact file loads to the same scenario as the canonical one but
    keeps the digest of its own text."""
    s = generate_scenario(2, 3, 2, utility="linear", seed=5)
    path = tmp_path / "compact.json"
    text = json.dumps(json.loads(scenario_to_json(s)))
    path.write_text(text, encoding="utf-8")
    t = load_scenario(path)
    assert scenario_to_json(t) == scenario_to_json(s)
    assert t.digest() == model.text_digest(text) != s.digest()


def test_an_edited_copy_hashes_its_own_serialization(tmp_path):
    path = tmp_path / "scen.json"
    save_scenario(generate_scenario(2, 3, 2, utility="linear", seed=5), path)
    loaded = load_scenario(path)
    edited = dataclasses.replace(loaded, capacities=loaded.capacities * 1.5)
    assert edited.digest() == model.text_digest(scenario_to_json(edited))
    assert edited.digest() != loaded.digest()
    # the recorded digest is no field: repr shows the content alone
    assert repr(loaded) == repr(scenario_from_json(path.read_text(encoding="utf-8")))


def test_array_holding_records_compare_and_hash_by_identity():
    """Scenario, UtilitySpec and Allocation hold arrays, so == is identity
    and never raises (the default field-by-field == asked numpy for the
    truth value of an array), and each hashes, by identity.  Content is
    compared through scenario_to_json or digest()."""
    s = generate_scenario(2, 3, 2, utility="linear", seed=5)
    twin = scenario_from_json(scenario_to_json(s))
    spec = UtilitySpec("linear", coeffs=np.ones((2, 3)))
    x = np.zeros((2, 4, 3))
    for one, other in ((s, twin), (spec, UtilitySpec("linear", coeffs=np.ones((2, 3)))),
                       (Allocation(x), Allocation(x))):
        assert one == one and one != other
        assert len({one, other, one}) == 2
    assert scenario_to_json(s) == scenario_to_json(twin) and s.digest() == twin.digest()


def test_scenario_json_shape(tmp_path):
    s = tiny_scenario()
    doc = json.loads(scenario_to_json(s))
    assert doc["version"] == model.SCENARIO_FORMAT_VERSION
    assert doc["n"] == 2 and doc["k"] == 2
    assert len(doc["players"]) == 2
    assert set(doc["players"][0]) >= {"capacity", "requests", "utility", "w", "zeta"}


# ---------------------------------------------------------------------------
# coalitions


def test_coalition_basics():
    c = Coalition.from_members([0, 2])
    assert c.mask == 0b101
    assert c.members() == (0, 2)
    assert c.size == 2
    assert c.contains(2) and not c.contains(1)
    assert c.label() == "{1,3}"


def test_grand_and_union():
    g = Coalition.grand(3)
    assert g.mask == 0b111
    # union and disjointness are mask arithmetic
    a, b, c = Coalition(0b001), Coalition(0b100), Coalition(0b011)
    assert Coalition(a.mask | b.mask) == Coalition(0b101)
    assert c.mask & b.mask == 0
    assert c.mask & Coalition(0b010).mask != 0


def test_all_coalitions_enumeration():
    masks = [c.mask for c in all_coalitions(3)]
    assert masks == list(range(1, 8))


def test_player_cap_enforced():
    with pytest.raises(ValueError):
        Coalition(1 << model.MAX_PLAYERS)
    with pytest.raises(ValueError):
        Coalition.grand(model.MAX_PLAYERS + 1)


# ---------------------------------------------------------------------------
# allocations


def test_allocation_shapes_and_sums():
    s = tiny_scenario()
    a = Allocation(np.zeros((2, 4, 2)))
    assert a.x.shape == (2, 4, 2)
    assert a.x.sum(axis=0).shape == (4, 2)  # per-application receipt
    assert a.x.sum(axis=1).shape == (2, 2)  # per-provider spend


def test_constructors_keep_a_read_only_copy_of_the_callers_arrays():
    """Scenario, UtilitySpec and Allocation store arrays of their own: the
    caller's array is not the stored one and stays writeable."""
    given = {name: np.array(value) for name, value in (
        ("capacities", [[4.0, 2.0], [1.0, 3.0]]), ("requests", np.ones((4, 2))),
        ("owner", [0, 0, 1, 1]), ("w", [1.0, 1.0]), ("zeta", [1.0, 0.5]))}
    coeffs, x = np.ones((2, 2)), np.zeros((2, 4, 2))
    spec = UtilitySpec("linear", coeffs=coeffs)
    s = tiny_scenario(**given, utilities=(spec, UtilitySpec("linear")))
    stored = [(getattr(s, name), given[name]) for name in given]
    stored += [(spec.coeffs, coeffs), (Allocation(x).x, x)]
    for kept, theirs in stored:
        assert kept is not theirs and not np.shares_memory(kept, theirs)
        assert theirs.flags.writeable and not kept.flags.writeable
        assert np.array_equal(kept, theirs)


def test_allocation_rejects_negative():
    with pytest.raises(ValueError):
        Allocation(-np.ones((1, 1, 1)))


def test_audit_passes_feasible_allocation():
    s = tiny_scenario()
    x = np.zeros((2, 4, 2))
    x[0, 0, 0] = 1.0  # player 1 serves its own first app within caps
    x[1, 2, 1] = 1.0
    assert audit_allocation(s, Allocation(x)) == []


def test_audit_flags_capacity_and_request_breaches():
    s = tiny_scenario()
    x = np.zeros((2, 4, 2))
    x[0, :, 0] = 2.0  # row sum 8 > capacity 4 and oversupplies apps
    # numbered from 1, as verify labels coalitions
    assert audit_allocation(s, Allocation(x)) == [
        "provider 1 exceeds capacity of resource 1 by 4",
        "application 1 oversupplied on resource 1 by 1"]


def test_audit_of_a_coalition_reads_its_own_coordinates():
    s = tiny_scenario()
    x = np.zeros((1, 2, 2))  # coalition {2}: player 2 by its apps 3 and 4
    x[0, :, 1] = 2.0  # row sum 4 > capacity 3 and oversupplies app 3
    # numbered globally: the member is provider 2, its apps are 3 and 4
    assert audit_allocation(s, Allocation(x), Coalition(0b10)) == [
        "provider 2 exceeds capacity of resource 2 by 1",
        "application 3 oversupplied on resource 2 by 1"]
    # a global (N, M, K) array is no allocation of {2}
    assert audit_allocation(s, Allocation(np.zeros((2, 4, 2))), Coalition(0b10)) == [
        "allocation shape (2, 4, 2) is not (1, 2, 2)"]
    assert audit_allocation(s, Allocation(np.zeros((2, 4, 2))), Coalition.grand(2)) == []


def test_local_axes_are_members_and_their_apps_ascending():
    s = tiny_scenario()
    for mask, members, apps in ((0b01, [0], [0, 1]), (0b10, [1], [2, 3]),
                                (0b11, [0, 1], [0, 1, 2, 3]), (0b111, [0, 1], [0, 1, 2, 3]),
                                (0, [], [])):
        got = s.local_axes(mask)
        assert [a.tolist() for a in got] == [members, apps], mask


def test_apps_of_and_m_per_player():
    s = tiny_scenario()
    assert s.m_per_player == (2, 2)
    assert list(s.apps_of(1)) == [2, 3]
    assert s.m_total == 4
