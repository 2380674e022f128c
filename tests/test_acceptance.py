"""Acceptance battery.

One test per stated criterion.  Every test prints a single always-visible
``[criterion N]`` line with the measured numbers, then asserts the stated
gate at the stated tolerance.  Gates are asserted as written even where
the underlying stability claim does not hold for this game family, so a
red line here is a finding, not a broken harness: the failure message
carries the violating instances.
"""
import time

import numpy as np
import pytest

from edgeshare.analysis import compare_methods, core_verify, superadditivity_audit
from edgeshare.engine import (
    CharacteristicTable,
    build_characteristic_table,
    fast_core,
    shapley_from_table,
)
from edgeshare.model import Coalition, Scenario, UtilitySpec, generate_scenario
from edgeshare.solver import solve_coalition, solve_native
from edgeshare.utility import breakdown

from oracles import eval_own, grid_best, sigmoid_term

LINEAR_TOL = 1e-6
SIGMOID_TOL = 1e-3
SIGMOID_RESTARTS = 16


def announce(capsys, num: int, text: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {text}")


# ---------------------------------------------------------------------------
# shared scenario batteries
#
# Linear battery: 25 scenarios, players cycling 2, 3, 4, seed = index.
# Sigmoid battery: 10 scenarios, same player cycle, mu alternating
# 0.01 / 10, seed = index.  Three applications per player, three
# resources throughout.


@pytest.fixture(scope="module")
def linear_cases():
    t0 = time.perf_counter()
    cases = []
    for i in range(25):
        n = (2, 3, 4)[i % 3]
        s = generate_scenario(n, 3, 3, utility="linear", seed=i)
        table = build_characteristic_table(s)
        cases.append({
            "i": i, "n": n, "seed": i, "s": s, "table": table,
            "fast": fast_core(s), "phi": shapley_from_table(table),
        })
    return {"cases": cases, "build_seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def sigmoid_cases():
    cases = []
    for j in range(10):
        n = (2, 3, 4)[j % 3]
        mu = 0.01 if j % 2 == 0 else 10.0
        s = generate_scenario(n, 3, 3, utility="sigmoid", mu=mu, seed=j)
        table = build_characteristic_table(s, restarts=SIGMOID_RESTARTS)
        cases.append({
            "j": j, "n": n, "mu": mu, "seed": j, "s": s, "table": table,
            "fast": fast_core(s, restarts=SIGMOID_RESTARTS),
            "phi": shapley_from_table(table),
        })
    return cases


# ---------------------------------------------------------------------------


def test_criterion_01_shapley_regression(capsys):
    """The reference three-provider worths reproduce the reference split."""
    # worths by mask 1 ... 7: {1},{2},{1,2},{3},{1,3},{2,3},{1,2,3}
    table = CharacteristicTable(
        values=[36.0, 4.37, 44.545, 4.31, 44.623, 17.37, 62.06], reports={})
    t0 = time.perf_counter()
    phi = shapley_from_table(table)
    elapsed = time.perf_counter() - t0
    announce(capsys, 1,
             f"shapley on the reference worths -> ({phi[0]:.4f}, {phi[1]:.4f}, "
             f"{phi[2]:.4f}), sum {phi.sum():.4f}, {elapsed * 1e3:.2f} ms")
    assert elapsed < 1.0
    assert np.allclose(phi, [40.34, 10.90, 10.81], atol=0.1)
    assert phi.sum() == pytest.approx(62.06, abs=0.01)


def _core_failures(cases, key):
    failures = []
    for c in cases:
        payoffs = c["fast"].payoffs if key == "fast" else c["phi"]
        report = core_verify(payoffs, c["table"], tol=LINEAR_TOL)
        if not report.in_core:
            coal, deficit = max(report.violated_coalitions(), key=lambda t: t[1])
            failures.append((c["i"], c["n"], c["seed"], coal.label(), deficit))
    return failures


def test_criterion_02_fast_split_core_membership(capsys, linear_cases):
    """Two-phase split vs the exact characteristic table at 1e-6."""
    cases, build = linear_cases["cases"], linear_cases["build_seconds"]
    failures = _core_failures(cases, "fast")
    worst = max((f[4] for f in failures), default=0.0)
    status = "PASS" if not failures else f"FAIL {len(failures)}/25 scenarios, worst deficit {worst:.3g}"
    announce(capsys, 2, f"fast split in exact core @1e-6: {status} ({build:.1f}s for the batch)")
    assert build < 60.0
    assert not failures, (
        "the two-phase split is individually and group rational on every "
        "instance, but it is not core-stable in general: for these scenarios "
        "a sub-coalition is worth more on its own than it is paid "
        "[(scenario, players, seed, coalition, deficit)]: " + repr(failures))


def test_criterion_03_shapley_core_membership(capsys, linear_cases):
    """Shapley vector vs the exact characteristic table at 1e-6."""
    failures = _core_failures(linear_cases["cases"], "phi")
    worst = max((f[4] for f in failures), default=0.0)
    status = "PASS" if not failures else f"FAIL {len(failures)}/25 scenarios, worst deficit {worst:.3g}"
    announce(capsys, 3, f"shapley vector in exact core @1e-6: {status}")
    assert not failures, (
        "marginal-contribution averaging is efficient and individually "
        "rational here, but this game family is not convex, so the vector "
        "can price a sub-coalition below its standalone worth "
        "[(scenario, players, seed, coalition, deficit)]: " + repr(failures))


def test_criterion_04_superadditivity(capsys, linear_cases, sigmoid_cases):
    """Merging disjoint coalitions never loses value, both utility kinds."""
    pairs = 0
    violations = []
    for c in linear_cases["cases"]:
        rep = superadditivity_audit(c["table"], tol=LINEAR_TOL)
        pairs += rep.pairs_checked
        violations += [("linear", c["i"], v) for v in rep.violations]
    for c in sigmoid_cases:
        rep = superadditivity_audit(c["table"], tol=SIGMOID_TOL)
        pairs += rep.pairs_checked
        violations += [("sigmoid", c["j"], v) for v in rep.violations]
    announce(capsys, 4,
             f"superadditivity: {len(violations)} violations over {pairs} "
             f"disjoint pairs (25 linear @1e-6 + 10 sigmoid @1e-3)")
    assert not violations, violations


def test_criterion_05_efficiency_and_fast_gap(capsys, linear_cases):
    """Shapley sums to the grand worth; fast-split total gap reported."""
    eff_worst = 0.0
    gap_worst = 0.0
    for c in linear_cases["cases"]:
        grand = c["table"].value(Coalition.grand(c["n"]).mask)
        eff_worst = max(eff_worst, abs(c["phi"].sum() - grand))
        rel = abs(c["fast"].payoffs.sum() - grand) / max(1.0, abs(grand))
        gap_worst = max(gap_worst, rel)
    met = "met" if gap_worst <= 1e-6 else "missed"
    announce(capsys, 5,
             f"efficiency worst |sum(phi) - v(grand)| = {eff_worst:.3g}; "
             f"fast-split worst relative gap = {gap_worst:.3g} "
             f"(1e-6 target {met}, 1e-3 gate)")
    assert eff_worst <= LINEAR_TOL
    assert gap_worst <= 1e-3


def test_criterion_06_sharing_never_hurts(capsys, linear_cases, sigmoid_cases):
    """Grand-coalition payoff of each player >= standalone worth, both methods."""
    bad = []
    for c in linear_cases["cases"]:
        singles = c["table"].singleton_values()
        for method, pay in (("fast", c["fast"].payoffs), ("shapley", c["phi"])):
            if np.any(pay < singles - LINEAR_TOL):
                bad.append(("linear", c["i"], method))
    for c in sigmoid_cases:
        singles = c["table"].singleton_values()
        for method, pay in (("fast", c["fast"].payoffs), ("shapley", c["phi"])):
            if np.any(pay < singles - SIGMOID_TOL):
                bad.append(("sigmoid", c["j"], method))
    announce(capsys, 6,
             f"individual rationality across 35 scenarios x 2 methods: "
             f"{len(bad)} violations")
    assert not bad, bad


def test_criterion_07_solve_counts(capsys, solve_calls):
    """2^N - 1 coalition solves for the table, 2N for the fast split."""
    rows = []
    for n in range(2, 9):
        s = generate_scenario(n, 1, 1, utility="linear", seed=n)
        solve_calls.clear()
        build_characteristic_table(s)
        table_count = solve_calls.total()
        solve_calls.clear()
        fast_core(s)
        rows.append((n, table_count, solve_calls.total()))
    announce(capsys, 7, "solve counts (n, table, fast): " + repr(rows))
    for n, table_count, fast_count in rows:
        assert table_count == 2**n - 1
        assert fast_count == 2 * n


def test_criterion_08_timing_direction(capsys):
    """Fast split beats full enumeration on wall time; big case < 60 s."""
    lines = []
    for m in (3, 20, 100):
        s = generate_scenario(3, 3, m, utility="sigmoid", mu=0.01, seed=m)
        rep = compare_methods(s, repetitions=5)
        lines.append((m, rep.stats["fast"].median_ms,
                      rep.stats["shapley"].median_ms, rep.speedup_pct))
    big = generate_scenario(10, 3, 20, utility="sigmoid", mu=0.01, seed=10)
    big_rep = compare_methods(big, ("fast",), repetitions=1)
    big_ms = big_rep.stats["fast"].median_ms
    announce(capsys, 8,
             "timing n=3 (apps, fast ms, shapley ms, speedup %): "
             + ", ".join(f"({m}, {f:.1f}, {sh:.1f}, {pc:.1f})" for m, f, sh, pc in lines)
             + f"; n=10 m=20 fast-only {big_ms / 1e3:.2f} s")
    for m, fast_ms, shapley_ms, _ in lines:
        assert fast_ms < shapley_ms, f"apps={m}"
    assert "shapley" not in big_rep.stats
    assert big_ms < 60_000.0


def _lattice(rng, shape):
    """Instance data as multiples of 0.02 in [0.1, 0.6], so the exact
    linear optimum lies on the oracle's 0.01-step lattice."""
    return rng.integers(5, 31, size=shape).astype(float) * 0.02


def _oracle_instances(rng):
    """Twenty four-variable instances: solver value vs exhaustive grid."""
    out = []
    for kind in ("linear", "sigmoid"):
        spec = (UtilitySpec(kind) if kind == "linear"
                else UtilitySpec("sigmoid", mu=1.5))
        for _ in range(5):  # one supplier, two apps, two resources
            s = Scenario(
                n_players=1, n_resources=2,
                capacities=_lattice(rng, (1, 2)), requests=_lattice(rng, (2, 2)),
                owner=np.array([0, 0]), utilities=(spec,),
                w=np.ones(1), zeta=np.ones(1))
            out.append((kind, "native", s))
        for _ in range(5):  # two suppliers, one app each, one resource
            s = Scenario(
                n_players=2, n_resources=1,
                capacities=_lattice(rng, (2, 1)), requests=_lattice(rng, (2, 1)),
                owner=np.array([0, 1]), utilities=(spec, spec),
                w=np.ones(2), zeta=np.ones(2))
            out.append((kind, "coalition", s))
    return out


def test_criterion_09_grid_oracle_equivalence(capsys):
    """Solver vs exhaustive 0.01-step lattice on tiny instances."""
    rng = np.random.default_rng(909)
    worst = {"linear": 0.0, "sigmoid": 0.0}
    for kind, mode, s in _oracle_instances(rng):
        if mode == "native":
            got = solve_native(s, 0).value
        else:
            got = solve_coalition(s, Coalition.grand(2)).value
        if kind == "linear":
            term = lambda xb: xb.sum(axis=(1, 2))
        else:
            term = lambda xb: sigmoid_term(xb, 1.5, s.requests).sum(axis=(1, 2))
        want, _ = grid_best(s.capacities, s.requests, term, step=0.01)
        gap = abs(got - want) / (1.0 if kind == "linear" else max(1.0, abs(want)))
        worst[kind] = max(worst[kind], gap)
    announce(capsys, 9,
             f"grid oracle over 20 instances: worst linear gap "
             f"{worst['linear']:.3g} (abs), worst sigmoid gap "
             f"{worst['sigmoid']:.3g} (rel)")
    assert worst["linear"] <= 1e-6
    assert worst["sigmoid"] <= 1e-2


def test_criterion_10_utility_unit_checks(capsys):
    """Exact half-satisfaction at the request point; monotone in receipts."""
    for mu, r in ((0.01, 0.3), (1.0, 2.0), (10.0, 0.07), (250.0, 5.5)):
        s = Scenario(
            n_players=1, n_resources=1,
            capacities=np.array([[r]]), requests=np.array([[r]]),
            owner=np.array([0]), utilities=(UtilitySpec("sigmoid", mu=mu),),
            w=np.ones(1), zeta=np.ones(1))
        x = np.array([[[r]]])
        assert eval_own(s, x, 0) == 0.5  # exactly, per entry
        assert breakdown(s, x).own[0] == 0.5  # and in the library

    s = generate_scenario(2, 2, 2, utility="sigmoid", mu=3.0, seed=42)
    full = np.stack([s.requests * 0.5] * 2)  # receipts == requests
    assert eval_own(s, full, 0) + eval_own(s, full, 1) == 0.5 * s.requests.size

    rng = np.random.default_rng(1010)
    checked = 0
    for _ in range(1000):
        raw = rng.random((s.n_players, s.m_total, s.n_resources))
        scale = min(
            1.0,
            float((s.capacities / np.maximum(raw.sum(axis=1), 1e-12)).min()),
            float((s.requests / np.maximum(raw.sum(axis=0), 1e-12)).min()))
        hi = raw * scale
        lo = hi * rng.random(hi.shape)
        for player in range(s.n_players):
            assert eval_own(s, lo, player) <= eval_own(s, hi, player) + 1e-12
        checked += 1
    announce(capsys, 10,
             f"half-satisfaction exact at the request point; monotone on "
             f"{checked} nested feasible pairs")
    assert checked == 1000
