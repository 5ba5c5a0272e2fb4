"""The benchmark's traced pass wraps library attributes by name.

``bench/spans.py`` lists them in ``BINDINGS`` and ``COUNTED``; renaming one of
them in the library would crash ``bench/run.py --trace 1``.  This test fails
first instead.
"""

import importlib
from pathlib import Path


def test_trace_bindings_resolve_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    for module, attr, *_ in spans.BINDINGS + spans.COUNTED:
        layer = importlib.import_module(f"toric_cohiggs.{module}")
        assert callable(getattr(layer, attr, None)), f"toric_cohiggs.{module}.{attr}"
