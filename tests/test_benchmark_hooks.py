"""The benchmark's tracer patches uplift functions by name from outside the
package (perfbench/tracing.py). Its own tests are outside this suite, so this
one keeps every name it patches resolvable."""

from __future__ import annotations

import importlib
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("backend", "agents", "model", "transcript", "pipeline", "evaluation", "cli")


def test_tracer_patches_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    uplift = SimpleNamespace(**{name: importlib.import_module(f"uplift.{name}") for name in MODULES})
    tracer = tracing.Tracer()
    # Building the targets looks up every patched name; a missing one raises.
    names = [(owner, attr) for owner, attr, _ in tracing._targets(tracer, uplift)]
    originals = [getattr(owner, attr) for owner, attr in names]
    with tracer.installed(uplift):
        assert all(getattr(o, a) is not f for (o, a), f in zip(names, originals))
    assert all(getattr(o, a) is f for (o, a), f in zip(names, originals))
