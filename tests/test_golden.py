"""Golden outputs: `gen → run` and `gen → verify` write these CSVs byte for
byte.

The run --method both hashes were recorded before the solver evaluated
each Frank-Wolfe point once and before attribution was batched over masks;
the verify and fast-run hashes before the characteristic table became one
array.  Those changes keep every value, so the files must not move.  A
change that moves a value on purpose updates a hash here and says why in
CHANGES.md.  The hashes hold for the pinned numpy and scipy (numpy 2.4,
scipy 1.17).  The sigmoid values go through numpy's exp, whose kernel
numpy picks by the CPU's SIMD level (they hold with its AVX-512 kernel),
so another CPU may round a logistic differently.  No scenario here solves
a transport LP: the 1:0.5 one takes the LP-free own/foreign oracle.
Moving the logistic from scipy's expit (libm's exp) to numpy's exp left
all six hashes unchanged; that oracle moved the three 1:0.5 run and
verify hashes (CHANGES.md lists the values).  Solving own/foreign
coalitions in own/total coordinates moved the 1:0.5 run hashes alone:
v({1,2}) and three member shares by rounding, and with them two Shapley
payoffs (CHANGES.md lists each).  Solving each native problem once, as
its singleton coalition, on that coalition's restart streams moved the
1:0.5 run and fast-run hashes alone: player 2's phase 1 went from
7.000611277318003 to 7.0006112773180025, which is v({2}), and its fast
gain from 8.9e-16 to 0.0.
"""
import hashlib

import pytest

from edgeshare.cli import main

GOLDEN = [
    (["--players", "3", "--apps", "5", "--utility", "sigmoid", "--mu", "3",
      "--weights", "1:1", "--seed", "1"],
     "81603c32bd84c4d29e799804053bb6ec36788cc7f8c986a0095da547db91ea9d",
     "bbdf85a7f69a1f67bea24ec8ce7eb71c46bdda2e17bac608512b7c0585033268"),
    (["--players", "3", "--apps", "5", "--utility", "sigmoid", "--mu", "3",
      "--weights", "1:0.5", "--seed", "2"],
     "a611855c8f2691865d0a245d110c86bb2d6123827a6d47ec70be936a594314fe",
     "ae8a59d842ba8f0d2a964a4c7c67aa714ed719fd39e811e43f0b6dd428dc34f6"),
    (["--players", "4", "--apps", "3", "--utility", "linear", "--seed", "3"],
     "2a20f943c2660594c479cfd092c5ff4dd896d9927b77cba9677db916c6215491",
     "20c2a9956306e2638776486a291d3e6a9c0940ace82fadccd2e0430c331e3e2a"),
]

IDS = ["3x5-sigmoid-1:1", "3x5-sigmoid-1:0.5", "4x3-linear"]
# per scenario above: verify --out's verify.csv (every scenario has a
# violation, so deficits are pinned too) and run --method fast's
# coalition.csv (singleton rows from the native solves)
GOLDEN_VERIFY_FAST = [
    ("f95bd3631bd2a780773699e9b57b076662adfc49cf1358aac3abdb6a0c1f8760",
     "6a105b5c61f8c1843d9225ac7410690f8c6782a1cd8a09fe16282d7101f9519c"),
    ("09b4ad476c94e188caeee01bd86befeba3ec9d5ba8da00d52e68c4075a0612d2",
     "0e03b4fb003ded148e53ab338055536912e75cc96aee3c45af090b88810db1aa"),
    ("ed75d5813104131ead46ae685dcf7e5a37b65c087df799269401137e37d3819d",
     "8507f5e55ab8b4460428d3b67c1252531052d28d9f643bab9f9fdba4614ecf5f"),
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("gen_args, coalition_sha, payoffs_sha", GOLDEN, ids=IDS)
def test_run_outputs_are_byte_identical_to_the_recorded_ones(
        tmp_path, gen_args, coalition_sha, payoffs_sha):
    scenario = tmp_path / "s.json"
    assert main(["gen", *gen_args, "--out", str(scenario)]) == 0
    assert main(["run", "--scenario", str(scenario), "--method", "both",
                 "--out", str(tmp_path)]) == 0
    for name, want in (("coalition.csv", coalition_sha), ("payoffs.csv", payoffs_sha)):
        assert sha256(tmp_path / name) == want, name


@pytest.mark.parametrize("gen_args, verify_sha, fast_coalition_sha",
                         [(g[0], *h) for g, h in zip(GOLDEN, GOLDEN_VERIFY_FAST)], ids=IDS)
def test_verify_and_fast_run_outputs_are_byte_identical_to_the_recorded_ones(
        tmp_path, gen_args, verify_sha, fast_coalition_sha):
    scenario = tmp_path / "s.json"
    assert main(["gen", *gen_args, "--out", str(scenario)]) == 0
    assert main(["verify", "--scenario", str(scenario), "--out", str(tmp_path / "v")]) == 1
    assert sha256(tmp_path / "v" / "verify.csv") == verify_sha
    assert main(["run", "--scenario", str(scenario), "--method", "fast",
                 "--out", str(tmp_path / "fast")]) == 0
    assert sha256(tmp_path / "fast" / "coalition.csv") == fast_coalition_sha
