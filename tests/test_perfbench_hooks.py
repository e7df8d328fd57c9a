"""The names perfbench's tracer wraps must exist in the package.

`perfbench/tracing.py` replaces functions at the names their callers look
them up by; a rename inside `src/` would otherwise surface only in a traced
benchmark run.  The tracer module is loaded by path, and nothing is wrapped.
"""
import importlib.util
from pathlib import Path

import dncsim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_one_function():
    targets = load_tracing()._targets(dncsim)
    places = [place for group in targets.values() for place in group]
    assert len(places) == 24
    for name, group in targets.items():
        found = [getattr(owner, attr, None) for owner, attr in group]
        assert all(callable(f) for f in found), (name, group)
        # the tracer wraps the first place and installs the wrapper at all of them
        assert all(f is found[0] for f in found), name
