"""Property tests of the scenario format: the JSON round trip is exact, and
`gen` prints the digest of the very bytes it wrote."""
import contextlib
import hashlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeshare.cli import main
from edgeshare.model import (
    Scenario,
    UtilitySpec,
    load_scenario,
    scenario_from_json,
    scenario_to_json,
)

amounts = st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
weights = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
seeds = st.one_of(st.none(), st.integers(0, 2**64), st.just(2**32))


def matrix(rows: int, cols: int):
    return st.lists(st.lists(amounts, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda v: np.array(v).reshape(rows, cols))


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    ms = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    specs = []
    for m in ms:
        if draw(st.booleans()):
            specs.append(UtilitySpec("sigmoid", mu=draw(
                st.floats(1e-3, 100.0, allow_nan=False, allow_infinity=False))))
        else:
            coeffs = draw(st.one_of(st.none(), matrix(m, k)))
            specs.append(UtilitySpec("linear", coeffs=coeffs))
    return Scenario(
        n_players=n, n_resources=k,
        capacities=draw(matrix(n, k)), requests=draw(matrix(sum(ms), k)),
        owner=np.repeat(np.arange(n), ms), utilities=tuple(specs),
        w=np.array(draw(st.lists(weights, min_size=n, max_size=n))),
        zeta=np.array(draw(st.lists(weights, min_size=n, max_size=n))),
        seed=draw(seeds))


def zero_scenario(n: int, k: int, seed):
    """Nothing to give and nothing asked: every capacity and request 0."""
    return Scenario(n_players=n, n_resources=k, capacities=np.zeros((n, k)),
                    requests=np.zeros((n, k)), owner=np.arange(n),
                    utilities=tuple(UtilitySpec("sigmoid", mu=3.0) for _ in range(n)),
                    w=np.ones(n), zeta=np.ones(n), seed=seed)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(zero_scenario(1, 1, 2**32))
@example(zero_scenario(3, 2, None))
@given(scenarios())
def test_json_round_trip_is_exact(s):
    text = scenario_to_json(s)
    back = scenario_from_json(text)
    assert scenario_to_json(back) == text
    assert back.digest() == s.digest()
    for name in ("capacities", "requests", "owner", "w", "zeta"):
        assert getattr(back, name).tobytes() == getattr(s, name).tobytes(), name
    assert back.seed == s.seed
    for a, b in zip(back.utilities, s.utilities):
        assert (a.kind, a.mu) == (b.kind, b.mu)
        assert (a.coeffs is None) == (b.coeffs is None)
        if a.coeffs is not None:
            assert a.coeffs.tobytes() == b.coeffs.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@example(players=1, apps=1, resources=1, seed=2**32, utility="sigmoid")
@given(players=st.integers(1, 3), apps=st.integers(1, 3), resources=st.integers(1, 3),
       seed=st.integers(0, 2**64), utility=st.sampled_from(["linear", "sigmoid"]))
def test_gen_prints_the_digest_of_the_saved_file(players, apps, resources, seed, utility):
    argv = ["gen", "--players", str(players), "--apps", str(apps),
            "--resources", str(resources), "--utility", utility, "--seed", str(seed)]
    if utility == "sigmoid":
        argv += ["--mu", "3"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--out", str(path)]) == 0
        (digest,) = re.findall(r"digest=([0-9a-f]+)", out.getvalue())
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        s = load_scenario(path)
        assert s.digest() == digest and s.seed == seed
