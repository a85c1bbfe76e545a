"""Reference corpus: one committed report per config in ``tests/golden/``.

Each scenario reruns at every config of ``CONFIGS`` and must reproduce its
reference report, ``wall_time_s`` removed: check names, pass flags,
tolerances, the config echo and every non-float result exactly, and every
float (a check's residual, a float in ``results``) within ``FLOAT_ATOL``, so
that another numpy or BLAS build does not flake.

Rewrite the corpus after a change that moves a value, and print every value
that moved (bit for bit, so an empty printout backs a byte-identity claim):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from unicollapse.cli import SCENARIOS, ScenarioConfig, run

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_ATOL = 1e-14

# small configs: every scenario, both darwinism record modes, the dense and
# the gate-by-gate bleach_map_unitary paths, and the README's commands
CONFIGS = [
    dict(scenario="grothendieck-int", range_max=1),
    dict(scenario="grothendieck-int", range_max=6),
    dict(scenario="grothendieck-int", range_max=12),
    dict(scenario="grothendieck-int", range_max=50),
    dict(scenario="envariance-restore", trials=1),
    dict(scenario="envariance-restore", trials=20, seed=5),
    dict(scenario="envariance-restore", trials=40, seed=20_206),
    dict(scenario="envariance-restore", trials=100, seed=7),
    dict(scenario="equiv-laws", triples=1),
    dict(scenario="equiv-laws", triples=5),
    dict(scenario="equiv-laws", triples=8, seed=3),
    dict(scenario="equiv-laws", triples=20, seed=3),
    dict(scenario="equiv-laws", triples=24, seed=33_003),
    dict(scenario="equiv-laws", triples=200, seed=3),
    dict(scenario="born", weights=(1,)),
    dict(scenario="born", weights=(1, 1)),
    dict(scenario="born", weights=(1, 2)),
    dict(scenario="born", weights=(2, 2)),
    dict(scenario="born", weights=(2, 3)),
    dict(scenario="born", weights=(3, 4)),
    dict(scenario="born", weights=(1, 4, 2)),
    dict(scenario="born", weights=(2, 3, 5)),
    dict(scenario="born", weights=(1, 1, 1, 1)),
    dict(scenario="born", weights=(12,)),
    dict(scenario="darwinism", env_qubits=1),
    dict(scenario="darwinism", env_qubits=5),
    dict(scenario="darwinism", env_qubits=6, seed=2, samples_per_size=20),
    dict(scenario="darwinism", env_qubits=8, seed=7),
    dict(scenario="darwinism", env_qubits=1, record_angle=0.7),
    dict(scenario="darwinism", env_qubits=6, seed=7, samples_per_size=10, record_angle=0.6),
    dict(scenario="darwinism", env_qubits=8, record_angle=0.7, delta=0.3),
    dict(scenario="darwinism", env_qubits=8, seed=7, record_angle=1e-9),
    dict(scenario="darwinism", env_qubits=8, seed=1, record_angle=1.5),
    dict(scenario="nohide", dim=2, inputs=2),
    dict(scenario="nohide", dim=2, inputs=6, seed=1),
    dict(scenario="nohide", dim=3, inputs=50, seed=1),
    dict(scenario="nohide", dim=4, inputs=5, seed=9),
    dict(scenario="nohide", dim=8, inputs=6, seed=1),
    dict(scenario="nohide", dim=17, inputs=3, seed=2),
    dict(scenario="nohide", dim=25, inputs=2),
]


def golden_path(config: dict) -> Path:
    """``scenario__field=value...``, the fields in CONFIGS order."""
    parts = [config["scenario"]] + [
        f"{key}={'-'.join(map(str, value)) if isinstance(value, tuple) else value}"
        for key, value in config.items() if key != "scenario"]
    return GOLDEN / ("__".join(parts) + ".json")


def fresh_report(config: dict) -> dict:
    """The report of ``config`` as it reads back from JSON, without wall time."""
    report, _ = run(ScenarioConfig(**config))
    report = json.loads(json.dumps(report, allow_nan=False))
    report.pop("wall_time_s")
    return report


def _leaves(node, path=()):
    """(path, value) for every scalar of a JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from _leaves(item, (*path, index))
    else:
        yield path, node


def _is_measured(path: tuple) -> bool:
    """A check's residual or a value under ``results``: compared within FLOAT_ATOL."""
    return path[0] == "results" or (path[0] == "checks" and path[-1] == "residual")


def moved(reference: dict, report: dict, atol: float = FLOAT_ATOL) -> list[str]:
    """Every leaf of ``report`` that differs from ``reference``: exactly, or
    by more than ``atol`` for a float that is measured."""
    old, new = dict(_leaves(reference)), dict(_leaves(report))
    return [f"{'/'.join(map(str, path))}: {old.get(path, '(absent)')!r} -> "
            f"{new.get(path, '(absent)')!r}"
            for path in sorted(old.keys() | new.keys(), key=str)
            if not _same(path, old.get(path, ...), new.get(path, ...), atol)]


def _same(path: tuple, a, b, atol: float) -> bool:
    if type(a) is float and type(b) is float and _is_measured(path):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=atol)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: golden_path(c).stem)
def test_report_matches_reference(config):
    reference = json.loads(golden_path(config).read_text())
    assert moved(reference, fresh_report(config)) == []


def test_corpus_covers_every_scenario_and_holds_no_stray_file():
    files = {golden_path(config) for config in CONFIGS}
    assert len(files) == len(CONFIGS)
    assert set(GOLDEN.glob("*.json")) == files
    assert {config["scenario"] for config in CONFIGS} == set(SCENARIOS)
    angles = {config.get("record_angle") is None for config in CONFIGS
              if config["scenario"] == "darwinism"}
    assert angles == {True, False}
    # a scenario emits one list of check names at every config, so covering
    # each scenario covers every check name
    names: dict = {}
    for path in files:
        report = json.loads(path.read_text())
        names.setdefault(report["scenario"], set()).add(
            tuple(check["name"] for check in report["checks"]))
    assert all(len(lists) == 1 for lists in names.values()), names


def rewrite() -> None:
    """Rewrite every reference report and print each value that moved."""
    GOLDEN.mkdir(exist_ok=True)
    count = 0
    for config in CONFIGS:
        path = golden_path(config)
        report = fresh_report(config)
        if not path.exists():
            print(f"{path.name}: new")
        else:
            for line in moved(json.loads(path.read_text()), report, atol=0.0):
                print(f"{path.name}: {line}")
                count += 1
        path.write_text(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    print(f"{len(CONFIGS)} reports written to {GOLDEN}, {count} values moved")


if __name__ == "__main__":
    rewrite()
