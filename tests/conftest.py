"""Shared fixtures."""
from collections import Counter

import pytest

from edgeshare import engine


@pytest.fixture
def solve_calls(monkeypatch):
    """Real subproblem solves made through the engine, counted per solver
    name.  The wrappers replace the names `engine` looks up, so every solve
    the Shapley and fast routes make is counted, and nothing else."""
    calls = Counter()
    for name in ("solve_native", "solve_residual", "solve_coalition"):
        def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    return calls
