"""The benchmark's tracer wraps package names by name; a rename must fail
here, not only when the benchmark runs."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores_every_name(monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path, str(BENCH)])
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, fn in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is fn, f"{owner.__name__}.{attr} not restored"


def test_tracer_counts_every_won_attractor_cell(monkeypatch):
    from nets import NET_A, NET_ACOPY
    from ocnsim.coloring import StrongSimEngine

    monkeypatch.setattr(sys, "path", [*sys.path, str(BENCH)])
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        tracer.begin_instance(0)
        eng = StrongSimEngine(NET_A, NET_ACOPY)
        assert eng.decide(("p", 10), ("q", 9)) is False
        att = eng._attractor
        first = att.bound, att.max_rank
        # a deeper query on the same grid resumes the table
        assert eng.spoiler_rank(("p", "q"), (30, 20), 32) == 21
        assert att.bound == first[0] and att.max_rank > first[1]
        # no win from (33, 40): the table doubles its grid and starts over
        assert eng.spoiler_rank(("p", "q"), (33, 40), 64) is None
        assert att.bound >= 97
        tracer.end_instance()
    finally:
        tracer.uninstall()
    grid = range(att.bound + 1)
    won = sum(att.rank(pair, (n, m)) is not None for pair in att.moves for n in grid for m in grid)
    assert won > 0
    assert tracer.counts["attractor.cells"] == won
