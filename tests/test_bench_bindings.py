"""The benchmark reads library attributes by name.

``bench/spans.py`` lists the ones its traced pass wraps in ``BINDINGS`` and
``COUNTED``, and ``bench/run.py`` reads others off the imported modules
(``modules["<module>"].<attr>``).  Renaming or deleting one of them in the
library would crash ``bench/run.py``.  These tests fail first instead.

A wrapped name that no operation reaches reads zero in every run and measures
nothing, so one pass of each workload's operations must reach all of them
but the four that no verb calls.  The elimination hook reads the pivots off
``_rref_rows``'s result, so a real call pins the shape it reads.
"""

import importlib
import io
import re
from collections import Counter
from contextlib import redirect_stdout
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


# The library entry points the benchmark keeps for callers outside the verbs.
UNREACHED = {
    "bundles.adapted_basis_oracle",
    "endalg.structure_constants",
    "endalg.solve_linear",
    "endalg.kernel",
}


def test_one_pass_of_each_workload_reaches_every_binding_but_four(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("toric_cohiggs.cli")
    calls = Counter()
    names = set()
    for module, attr, *_ in spans.BINDINGS + spans.COUNTED:
        layer, name = importlib.import_module(f"toric_cohiggs.{module}"), f"{module}.{attr}"

        def counted(*args, _fn=getattr(layer, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(layer, attr, counted)
        names.add(name)
    for workload in workloads.WORKLOADS:
        built, work = workloads.build(workload, 7), tmp_path / workload
        built.write(work)
        for op in built.ops:
            with redirect_stdout(io.StringIO()):
                assert cli.main([op.verb, str(work / op.file), "--format", "json"]) == 0, op.op_id
    assert sorted(names - set(calls)) == sorted(UNREACHED)


def test_rref_work_counts_rows_times_columns_times_rank(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    modules = {module: importlib.import_module(f"toric_cohiggs.{module}")
               for module, *_ in spans.BINDINGS + spans.COUNTED}
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]  # 3 x 4 of rank 2
    rec = spans.Recorder()
    restore = rec.install(modules)
    try:
        for module in ("linalg", "fans"):
            assert modules[module]._rref_rows(rows)[1] == [0, 1]
    finally:
        restore()
    assert rec.counts["linalg.rref.work"] == 2 * 3 * 4 * 2
