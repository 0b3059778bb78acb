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
