"""The benchmark's layer tracer sees every layer of the CLI pipeline.

perfbench/layers.py times a layer by replacing the module attribute its
caller looks up.  A layer called through a name bound at import time
escapes the wrapper and reads as zero, so each span the tracer names must
show up on a real gen -> run -> verify --payoffs pipeline.  On that
pipeline verify reads the table run saved, so each coalition is solved
once.
"""
import importlib.util
from pathlib import Path

import edgeshare
from edgeshare import cli

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_span_it_names(tmp_path, capsys):
    layers = load_layers()
    tracer = layers.Tracer()
    scenario, out = tmp_path / "s.json", tmp_path / "out"
    tracer.install(edgeshare)
    try:
        # w below zeta, so coalitions of two or more solve transport LPs
        assert cli.main(["gen", "--players", "3", "--apps", "2", "--utility", "sigmoid",
                         "--mu", "3", "--weights", "0.5:1", "--out", str(scenario)]) == 0
        assert cli.main(["run", "--scenario", str(scenario), "--method", "both",
                         "--out", str(out)]) == 0
        before_verify = len(tracer.spans)
        # verify exits 1 when a payoff vector is outside the core
        assert cli.main(["verify", "--scenario", str(scenario),
                         "--payoffs", str(out / "payoffs.csv")]) in (0, 1)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert sorted({name for _, _, name, _ in layers.TARGETS} - recorded) == []
    # the saved table's audit attributes its allocations through the traced name
    assert "utility.breakdown" in {span[0] for span in tracer.spans[before_verify:]}
    assert [span[0] for span in tracer.spans].count("solver.coalition") == 2**3 - 1


def test_tracer_sees_one_solve_per_mask_and_no_lp_on_the_own_total_path(tmp_path):
    """At w above zeta (1:0.5, the weighted-sigmoid shape) every coalition
    of two or more members runs in own/total coordinates: the tracer
    records one solver.coalition span per mask and no solver.lp span."""
    layers = load_layers()
    tracer = layers.Tracer()
    scenario, out = tmp_path / "s.json", tmp_path / "out"
    tracer.install(edgeshare)
    try:
        assert cli.main(["gen", "--players", "3", "--apps", "5", "--utility", "sigmoid",
                         "--mu", "3", "--weights", "1:0.5", "--out", str(scenario)]) == 0
        assert cli.main(["run", "--scenario", str(scenario), "--method", "both",
                         "--out", str(out)]) == 0
        assert cli.main(["verify", "--scenario", str(scenario),
                         "--payoffs", str(out / "payoffs.csv")]) in (0, 1)
    finally:
        tracer.uninstall()
    masks = sorted(span[5]["mask"] for span in tracer.spans if span[0] == "solver.coalition")
    assert masks == list(range(1, 2**3))
    assert "solver.lp" not in {span[0] for span in tracer.spans}
