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

Fixing slack resources at their requests in closed form, and running
Frank-Wolfe on the binding resources alone, moved the five 3x5 sigmoid
hashes (all but the 1:0.5 verify one) by rounding, at most 2.5e-16
relative for a value or payoff (the payoff gains and verify deficits,
differences of those, by up to 1.4e-14).  1:1: v({2}) 7.500000000000002
-> 7.5 (every request filled, 1/2 per term), v({3}) 6.5772003557856555
-> 6.577200355785655, v({1,2}) 14.175435768332417 -> 14.175435768332418,
v({1,3}) 13.500015737951085 -> 13.500015737951083, v({1,2,3})
21.017488128732463 -> 21.01748812873246, fast payoff 2
8.921056225491617 -> 8.921056225491615, Shapley payoffs
6.278615083427551 -> 6.278615083427552, 7.768991441301376 ->
7.768991441301375, 6.969881604003535 -> 6.969881604003534, verify
deficits {1,2} 0.12782924360348957 -> 0.12782924360349135 and {1,3}
0.2515190505199989 -> 0.2515190505199971.  1:0.5: v({1}) 7.500000000000001
-> 7.5, v({3}) 7.036628316827107 -> 7.036628316827106, fast payoff 1
7.981380202927448 -> 7.981380202927447 (fast total 22.01861979707256 ->
22.018619797072557), Shapley payoff 2 7.205688491809742 ->
7.2056884918097435.  The linear hashes did not move.
"""
import hashlib

import pytest

from edgeshare.cli import main

GOLDEN = [
    (["--players", "3", "--apps", "5", "--utility", "sigmoid", "--mu", "3",
      "--weights", "1:1", "--seed", "1"],
     "7e4450a7cd139085d9bce252ca3318b44e66b41bc446cef76ddc2def3f5b3169",
     "8ef59b47d7f878bc7e0572f4af46f3c41f561ece5b1ecf9ea1d4cfd3d43b9851"),
    (["--players", "3", "--apps", "5", "--utility", "sigmoid", "--mu", "3",
      "--weights", "1:0.5", "--seed", "2"],
     "f28fc88974a894910cdb7a503aba2e16f57594a53be8be65cdced285ec711181",
     "2eb5f011039213b175508706167ed90e547eb477fbc9c964095329589685870c"),
    (["--players", "4", "--apps", "3", "--utility", "linear", "--seed", "3"],
     "2a20f943c2660594c479cfd092c5ff4dd896d9927b77cba9677db916c6215491",
     "20c2a9956306e2638776486a291d3e6a9c0940ace82fadccd2e0430c331e3e2a"),
]

IDS = ["3x5-sigmoid-1:1", "3x5-sigmoid-1:0.5", "4x3-linear"]
# per scenario above: verify --out's verify.csv (every scenario has a
# violation, so deficits are pinned too) and run --method fast's
# coalition.csv (singleton rows from the native solves)
GOLDEN_VERIFY_FAST = [
    ("809104912bcc1555f5106caf1ed4d317399c3c0ee43ee07fd4ef0944f911ee62",
     "c1b1856233b67603b5777eda466482d2df76c181a21bd7f539daaa4dc4101d3e"),
    ("09b4ad476c94e188caeee01bd86befeba3ec9d5ba8da00d52e68c4075a0612d2",
     "4ef6ccde551113a2b5ca814e22400e824bd7381370191a476698a0b080cb039e"),
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
