"""The benchmark's traced names still exist in the library.

CI's traced perfbench smoke step fails when a ``per_layer`` name in
``BENCHMARK.json`` goes unreported, but only after eight benchmark runs.  This
installs perfbench's tracer, runs nothing, and checks the same names in well
under a second.  It reads perfbench's files and changes none of them.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_declared(monkeypatch):
    tracer_module, worker = _load("tracer", monkeypatch), _load("worker", monkeypatch)
    tracer = tracer_module.Tracer()
    with tracer:
        pass
    missing = sorted(set(worker.TRACED_STATS) - set(tracer.stats))
    assert not missing, f"traced targets no longer in the library: {missing}"
    assert tracer.not_envariant_traced
    # the metric names a traced run reports, from the worker's own code
    phase = worker.Phase(items=1, cycle_rates=[1.0])
    reported = set(worker.per_layer(tracer, phase, phase))
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert reported == declared
