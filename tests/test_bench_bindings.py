"""The benchmark's tracer must still reach every binding it requires.

perfbench/tracer.py wraps cws552 functions by replacing module attributes;
REQUIRED_BINDINGS names the module-level names it must find.  A refactor that
drops one of them (say, experiment no longer importing decode) breaks the
benchmark's per-layer trace, so it should fail here first.
"""
import sys
from pathlib import Path

import cws552.cli  # the tracer wraps names in every loaded cws552 module

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import REQUIRED_BINDINGS, Tracer  # noqa: E402


def test_tracer_reaches_every_required_binding():
    tracer = Tracer()
    tracer.install()
    try:
        assert set(REQUIRED_BINDINGS) <= tracer.bound_at
    finally:
        tracer.restore()
    assert not hasattr(cws552.cli.build_code, "__wrapped__")
