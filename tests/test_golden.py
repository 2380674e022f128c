"""Golden outputs: `gen → run --method both` writes these CSVs byte for byte.

The hashes were recorded before the solver evaluated each Frank-Wolfe point
once and before attribution was batched over masks; both changes keep
every value, so the files must not move.  A change that moves a value on
purpose updates a hash here and says why in CHANGES.md.  The hashes hold
for the pinned numpy and scipy (numpy 2.4, scipy 1.17); another libm or
another HiGHS may round differently.
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
     "670cdd624671355ef543efe99c31b2bb0b721efeb3f5199fa301a1398ee8809e",
     "d48808d82d2ef62ec9b5cd576fb8f814fdf4b1282ce6a0e02fc195dd0193ee7f"),
    (["--players", "4", "--apps", "3", "--utility", "linear", "--seed", "3"],
     "2a20f943c2660594c479cfd092c5ff4dd896d9927b77cba9677db916c6215491",
     "20c2a9956306e2638776486a291d3e6a9c0940ace82fadccd2e0430c331e3e2a"),
]


@pytest.mark.parametrize("gen_args, coalition_sha, payoffs_sha", GOLDEN,
                         ids=["3x5-sigmoid-1:1", "3x5-sigmoid-1:0.5", "4x3-linear"])
def test_run_outputs_are_byte_identical_to_the_recorded_ones(
        tmp_path, gen_args, coalition_sha, payoffs_sha):
    scenario = tmp_path / "s.json"
    assert main(["gen", *gen_args, "--out", str(scenario)]) == 0
    assert main(["run", "--scenario", str(scenario), "--method", "both",
                 "--out", str(tmp_path)]) == 0
    for name, want in (("coalition.csv", coalition_sha), ("payoffs.csv", payoffs_sha)):
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want, name
