"""The benchmark reads library attributes by name.

``bench/spans.py`` lists the ones its traced pass wraps in ``BINDINGS`` and
``COUNTED``, and ``bench/run.py`` reads others off the imported modules
(``modules["<module>"].<attr>``).  Renaming or deleting one of them in the
library would crash ``bench/run.py``.  These tests fail first instead.
"""

import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_bindings_resolve_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for module, attr, *_ in spans.BINDINGS + spans.COUNTED:
        layer = importlib.import_module(f"toric_cohiggs.{module}")
        assert callable(getattr(layer, attr, None)), f"toric_cohiggs.{module}.{attr}"


def test_run_reads_resolve_on_the_package():
    reads = set(re.findall(r'modules\["(\w+)"\]\.(\w+)', (BENCH / "run.py").read_text()))
    assert ("cli", "main") in reads
    for module, attr in reads:
        layer = importlib.import_module(f"toric_cohiggs.{module}")
        assert hasattr(layer, attr), f"toric_cohiggs.{module}.{attr}"
