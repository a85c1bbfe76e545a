"""Seeded workloads for the benchmark: the configs each call hands to
``unicollapse.cli.run`` and the benchmark-side oracles its reports must meet.

The oracles are computed here from the generated inputs alone, never from the
library, so a report that passes its own checks but answers the wrong
question still counts as a failed call.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Optional

import numpy as np

from unicollapse.cli import ScenarioConfig

BORN_MAX_TOTAL = 12  # compositions of M <= 12: 2**12 - 1 = 4095 weight vectors
BORN_STRATA = 15  # 4095 = 15 * 273
BORN_STRIDE = 89  # coprime to 273, so 273 cycles visit every position once
NOHIDE_INPUTS = 12
NOHIDE_DIMS = (8, 25)  # either side of bleach's dense-map limit (d**3 <= 4096)
DARWINISM_ENV_QUBITS = 11
DARWINISM_ANGLES = (0.3, 1.5)
LAWS_TRIPLES = 100
LAWS_RANGE = 64


@dataclass(frozen=True)
class Call:
    """One closed-loop call: the ``cli.run`` configs it makes, in order.

    ``oracle`` returns ``None`` when the reports meet the benchmark-side
    expectations and a message otherwise; ``items`` counts the workload items
    the reports say were completed.
    """

    configs: tuple[ScenarioConfig, ...]
    oracle: Callable[[list[dict]], Optional[str]]
    items: Callable[[list[dict]], int]


@dataclass(frozen=True)
class Workload:
    calls: Callable[[int], Iterator[Call]]
    cycle: int  # a timed phase ends only after whole cycles of calls
    item: str


def composition(index: int) -> tuple[int, ...]:
    """The composition of M = index.bit_length() coded by ``index``.

    For M = index.bit_length(), the bits below the leading one mark where a
    part ends, so indices 1..2**12 - 1 enumerate every composition of every
    M <= 12 exactly once.
    """
    parts, size = [], 1
    for bit in range(index.bit_length() - 2, -1, -1):
        if index >> bit & 1:
            parts.append(size)
            size = 1
        else:
            size += 1
    parts.append(size)
    return tuple(parts)


def _born_call(weights: tuple[int, ...]) -> Call:
    total = sum(weights)
    expected = [f"{p.numerator}/{p.denominator}"
                for p in (Fraction(m, total) for m in weights)]

    def oracle(reports):
        results = reports[0]["results"]
        if results["probabilities"] != expected:
            return f"probabilities {results['probabilities']} != {expected}"
        if results["transpositions_checked"] != comb(total, 2):
            return (f"transpositions_checked {results['transpositions_checked']}"
                    f" != C({total}, 2)")
        return None

    return Call((ScenarioConfig(scenario="born", weights=weights),), oracle,
                lambda reports: reports[0]["results"]["transpositions_checked"])


def _born_calls(seed: int) -> Iterator[Call]:
    """Uniform draws from the 4095 weight vectors, with a seed-free cost mix.

    The cost of a call is set by M and the number of parts K and spans two
    orders of magnitude, so independent draws would give each seed its own
    mix of costs.  Instead the population is sorted by (M, K) and cut into 15
    strata of 273; cycle c visits position (c * 89) mod 273 of every stratum,
    in shuffled order, and the seed draws the vector uniformly from the (M, K)
    group at that position.  Over 273 cycles every vector is equally likely,
    and every seed sees the same sequence of (M, K).  The untimed first call
    comes from the compositions of 12 into 7 parts, the group with the
    largest density matrix (dimension 1008).
    """
    rng = np.random.default_rng(seed)
    population = sorted((composition(i) for i in range(1, 2 ** BORN_MAX_TOTAL)),
                        key=lambda w: (sum(w), len(w)))
    groups: dict[tuple[int, int], list] = {}
    for weights in population:
        groups.setdefault((sum(weights), len(weights)), []).append(weights)

    def draw(total: int, parts: int) -> Call:
        group = groups[total, parts]
        return _born_call(group[int(rng.integers(len(group)))])

    yield draw(BORN_MAX_TOTAL, 7)
    size = len(population) // BORN_STRATA
    for cycle in itertools.count():
        offset = cycle * BORN_STRIDE % size
        for stratum in rng.permutation(BORN_STRATA):
            weights = population[stratum * size + offset]
            yield draw(sum(weights), len(weights))


def _nohide_oracle(reports):
    results = reports[0]["results"]
    if results["inputs"] != NOHIDE_INPUTS:
        return f"inputs {results['inputs']} != {NOHIDE_INPUTS}"
    return None


def _nohide_calls(seed: int) -> Iterator[Call]:
    rng = np.random.default_rng(seed)
    for dim in itertools.cycle(NOHIDE_DIMS):
        cfg = ScenarioConfig(scenario="nohide", dim=dim, inputs=NOHIDE_INPUTS,
                             seed=int(rng.integers(2 ** 31)))
        yield Call((cfg,), _nohide_oracle,
                   lambda reports: reports[0]["results"]["inputs"])


def _darwinism_oracle(reports):
    n = DARWINISM_ENV_QUBITS
    curve = reports[0]["results"]["curve"]
    expected = [[f, comb(n, f)] for f in range(n + 1)]
    got = [[point[0], point[2]] for point in curve]
    if got != expected:
        return f"curve (f, samples) {got} != {expected}"
    return None


def _darwinism_calls(seed: int) -> Iterator[Call]:
    rng = np.random.default_rng(seed)
    for perfect in itertools.cycle((True, False)):
        angle = None if perfect else float(rng.uniform(*DARWINISM_ANGLES))
        cfg = ScenarioConfig(scenario="darwinism",
                             env_qubits=DARWINISM_ENV_QUBITS,
                             record_angle=angle, seed=int(rng.integers(2 ** 31)))
        yield Call((cfg,), _darwinism_oracle,
                   lambda reports: sum(p[2] for p in reports[0]["results"]["curve"]))


def _laws_oracle(reports):
    triples = reports[0]["results"]["triples"]
    tuples = reports[1]["results"]["tuples_checked"]
    if triples != LAWS_TRIPLES:
        return f"triples {triples} != {LAWS_TRIPLES}"
    if tuples != (LAWS_RANGE + 1) ** 4:
        return f"tuples_checked {tuples} != {LAWS_RANGE + 1}**4"
    return None


def _laws_calls(seed: int) -> Iterator[Call]:
    rng = np.random.default_rng(seed)
    while True:
        yield Call(
            (ScenarioConfig(scenario="equiv-laws", triples=LAWS_TRIPLES,
                            seed=int(rng.integers(2 ** 31))),
             ScenarioConfig(scenario="grothendieck-int", range_max=LAWS_RANGE)),
            _laws_oracle, lambda reports: 1)


WORKLOADS = {
    "born": Workload(_born_calls, BORN_STRATA, "branch transposition checked"),
    "nohide": Workload(_nohide_calls, len(NOHIDE_DIMS), "input bleached and recovered"),
    "darwinism": Workload(_darwinism_calls, 2, "fragment evaluated"),
    "laws": Workload(_laws_calls, 1, "round of equiv-laws and grothendieck-int"),
}


def fingerprint(reports: list[dict]) -> str:
    """Canonical text of the reports with the wall-time field left out."""
    return json.dumps([{k: v for k, v in report.items() if k != "wall_time_s"}
                       for report in reports], sort_keys=True)
