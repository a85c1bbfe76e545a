"""Scenario runner: named demos with seeded determinism and JSON reports.

Usage:
    unicollapse grothendieck-int --range 50 --out runs/groth
    unicollapse envariance-restore --trials 100 --seed 7
    unicollapse equiv-laws --triples 200 --seed 3
    unicollapse born --weights 2,3,5
    unicollapse darwinism --env-qubits 8 --seed 7 --out runs/darwin
    unicollapse nohide --dim 3 --inputs 50 --seed 1

Every run emits a ``report-v1`` JSON document (stdout, plus ``report.json``
under ``--out`` when given) listing one pass/fail entry per check with its
residual and tolerance.  Identical configs and seeds produce byte-identical
reports and artifacts up to the wall-time field.  A scenario may also read a
JSON config file (``--config``); explicit flags win over file values, and
unknown config keys are rejected.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad config
(a value of the wrong type or out of range, or an unwritable ``--out``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import jsonschema
import numpy as np

from . import envariance as env
from .collapse import (
    DENSE_MAP_LIMIT,
    RationalWeights,
    _bleach_gates,
    _marginal_entropy,
    bleach,
    bleach_map,
    born_from_envariance,
    closed_form_curve,
    darwinism_curve,
    gate_defect,
    premeasure,
    recover,
    redundancy,
)
from .grothendieck import (
    NATURALS_ADD,
    GroupElement,
    MonoidPair,
    group_add,
    group_neg,
    pair_equivalent_bulk,
)
from .linalg import (
    StateVector,
    distance,
    haar_from_normals,
    normalized,
    random_state,
    schmidt_stack,
    unitarity_defects,
)
from .tolerances import DEFAULT_TOL, DIM_BUDGET

SCENARIOS = ("grothendieck-int", "envariance-restore", "equiv-laws", "born",
             "darwinism", "nohide")

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "scenario", "config", "checks", "passed",
                 "wall_time_s", "artifacts", "results"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": "report-v1"},
        "scenario": {"enum": list(SCENARIOS)},
        "config": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "residual", "tolerance"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "residual": {"type": "number"},
                    "tolerance": {"type": "number"},
                },
            },
        },
        "passed": {"type": "boolean"},
        "wall_time_s": {"type": "number"},
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "results": {"type": "object"},
    },
}
_REPORT_VALIDATOR = jsonschema.Draft202012Validator(REPORT_SCHEMA)


class ConfigError(ValueError):
    """Invalid scenario configuration; maps to exit code 2."""


@dataclass
class ScenarioConfig:
    """One scenario's full configuration; unknown fields are rejected."""

    scenario: str
    seed: int = 0
    out: Optional[str] = None
    range_max: int = 50          # grothendieck-int
    trials: int = 100            # envariance-restore
    triples: int = 200           # equiv-laws
    weights: tuple[int, ...] = (1, 1)   # born
    env_qubits: int = 8          # darwinism
    record_angle: Optional[float] = None  # darwinism imperfect records
    samples_per_size: int = 2000  # darwinism
    delta: float = 0.1           # darwinism redundancy threshold
    dim: int = 2                 # nohide
    inputs: int = 50             # nohide

    def validate(self) -> None:
        for name, hint in _CONFIG_HINTS.items():
            value = getattr(self, name)
            if not _has_type(value, hint):
                raise ConfigError(f"{name}: expected "
                                  f"{self.__annotations__[name]}, got {value!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: unknown scenario {self.scenario!r}")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        if self.scenario == "grothendieck-int" and not 1 <= self.range_max <= 200:
            raise ConfigError("range_max: must lie in [1, 200]")
        if self.scenario == "envariance-restore" and not 1 <= self.trials <= 10_000:
            raise ConfigError("trials: must lie in [1, 10000]")
        if self.scenario == "equiv-laws" and not 1 <= self.triples <= 10_000:
            raise ConfigError("triples: must lie in [1, 10000]")
        if self.scenario == "born":
            if not self.weights or any(w < 1 for w in self.weights):
                raise ConfigError("weights: need positive integers")
            if len(self.weights) * sum(self.weights) ** 2 > DIM_BUDGET:
                raise ConfigError("weights: fine-grained space exceeds the budget")
        if self.scenario == "darwinism":
            if not 1 <= self.env_qubits <= 12:
                raise ConfigError("env_qubits: must lie in [1, 12]")
            if self.samples_per_size < 1:
                raise ConfigError("samples_per_size: must be positive")
            if not 0 < self.delta < 1:
                raise ConfigError("delta: must lie in (0, 1)")
            if self.record_angle is not None and not 0 < self.record_angle <= math.pi / 2:
                raise ConfigError("record_angle: must lie in (0, pi/2]")
        if self.scenario == "nohide":
            if self.dim < 2 or self.dim ** 3 > DIM_BUDGET:
                raise ConfigError("dim: need 2 <= dim with dim^3 within budget")
            if not 2 <= self.inputs <= 500:
                raise ConfigError("inputs: must lie in [2, 500]")


_CONFIG_HINTS = get_type_hints(ScenarioConfig)  # resolved once, not per call


def _has_type(value, hint) -> bool:
    """isinstance against a field annotation: a bool is no number, an int is a float."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_has_type(v, args[0]) for v in value)
    if args:  # Optional[X]
        return value is None or _has_type(value, args[0])
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "passed": bool(residual <= tolerance),
        "residual": float(residual),
        "tolerance": float(tolerance),
    }


# ---------------------------------------------------------------------------
# Scenario bodies: each returns (checks, results, artifact_payloads)
# where artifact_payloads maps filename -> text content.
# ---------------------------------------------------------------------------

def _integer(x: GroupElement):
    """pos - neg of an element of the naturals' completion (arrays allowed)."""
    return x.pair.pos - x.pair.neg


def _run_grothendieck_int(cfg: ScenarioConfig):
    top = cfg.range_max
    # validate caps the range at 200: every sum below lies within +-400 and fits
    # int16.  Sparse axes broadcast each a-slice to its full (R, R, R) verdict.
    values = np.arange(top + 1, dtype=np.int16)
    b, c, d = np.ix_(values, values, values)
    relation_mismatches = 0
    arithmetic_mismatches = 0
    tuples_checked = 0
    cd = GroupElement(MonoidPair(c, d), NATURALS_ADD)
    for a in values:
        got = pair_equivalent_bulk(a, b, c, d, NATURALS_ADD)
        oracle = (a - b) == (c - d)
        relation_mismatches += int(np.count_nonzero(got != oracle))
        tuples_checked += got.size
        # group_add on array-valued elements maps onto integer +
        matches = _integer(group_add(GroupElement(MonoidPair(a, b), NATURALS_ADD),
                                     cd)) == (a - b) + (c - d)
        arithmetic_mismatches += int(np.count_nonzero(~matches))
    # group_neg depends on (a, b) only: one check over that grid
    a_grid, b_grid = np.ix_(values, values)
    neg = _integer(group_neg(GroupElement(MonoidPair(a_grid, b_grid), NATURALS_ADD)))
    arithmetic_mismatches += int(np.count_nonzero(neg != -(a_grid - b_grid)))

    checks = [
        _check("relation_matches_integer_oracle", relation_mismatches, 0),
        _check("add_neg_homomorphism", arithmetic_mismatches, 0),
    ]
    return checks, {"tuples_checked": tuples_checked}, {}


def _run_envariance_restore(cfg: ScenarioConfig):
    # draw pass: each trial's numbers in a trial-by-trial run's order.  The
    # phase count is the Schmidt rank, read from the SVD the synthesis reuses
    rng = np.random.default_rng(cfg.seed)
    groups: dict = {}
    for _ in range(cfg.trials):
        d_p = _choice(rng, (2, 3, 4, 6))
        d_n = _choice(rng, (2, 3, 4, 6))
        real, imag = rng.standard_normal((2, 1, d_p, d_n))  # random_state's draws
        amps = normalized(real + 1j * imag).reshape(1, d_p, d_n)
        coeffs, left, right = schmidt_stack(amps)
        rank = int(np.count_nonzero(coeffs > DEFAULT_TOL.rank_cutoff))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(1, rank))
        groups.setdefault((d_p, d_n, rank), []).append((amps, left, right, phases))
    worst = 0.0
    for items in groups.values():
        amps, left, right, phases = map(np.concatenate, zip(*items))
        u_p, u_n = env._synthesize_stack(left, right, phases)
        worst = max(worst, float(np.max(env._residuals(u_p, amps, u_n, amps))))
    checks = [_check("restoration_residual_max", worst, DEFAULT_TOL.witness)]
    return checks, {"trials": cfg.trials}, {}


def _choice(rng: np.random.Generator, values: tuple[int, ...]) -> int:
    """``rng.choice(values)``: the same single draw, without its overhead."""
    return values[rng.integers(len(values))]


def _laws_states(normals: np.ndarray, d_p: int, d_n: int, count: int) -> list:
    """x, y = (u (x) v)x and z = (u' (x) v')y from the main generator's
    stacked normals of their triples, as :class:`env._Pairs`; the first
    ``count`` of them."""
    shapes = [(d_p, d_n)] * 2 + ([(d_p, d_p)] * 2 + [(d_n, d_n)] * 2) * 2
    parts = env._split(normals, shapes)
    states = [normalized(parts[0] + 1j * parts[1]).reshape(len(normals), d_p, d_n)]
    for g in (parts[2:6], parts[6:10])[:count - 1]:
        states.append(env._rotated(states[-1], haar_from_normals(g[0], g[1]),
                                   haar_from_normals(g[2], g[3])))
    return [env._pairs(state) for state in states]


def _run_equiv_laws(cfg: ScenarioConfig):
    # Pass 1 draws every random number in the order of a triple-by-triple
    # run: the main generator's, each envariant trial's (seed + index, trial)
    # and each chain's seed + 77_000 + index.  The symmetry rotation's draw
    # count depends on y's Schmidt blocks, and the trials' on x's, so x and
    # y are built here, from the same calls that pass 2 stacks.
    rng = np.random.default_rng(cfg.seed)
    groups: dict = {}
    for index in range(cfg.triples):
        d_p = _choice(rng, (2, 3))
        d_n = _choice(rng, (2, 3))
        # x's amplitudes, then the Haar rotations taking x to y and y to z
        normals = rng.standard_normal(2 * d_p * d_n + 4 * (d_p * d_p + d_n * d_n))[None]
        blocks = [env._support_blocks(p.coeffs[0])
                  for p in _laws_states(normals, d_p, d_n, count=2)]
        symmetry = env._draw_envariant(blocks[1], rng)
        trials = [[env._draw_envariant(b, np.random.default_rng((cfg.seed + index, t)))
                   for t in (0, 1)] for b in blocks]
        chain = env._draw_chain(d_p, d_n, cfg.seed + 77_000 + index)
        key = (d_p, d_n, *(tuple(map(tuple, b)) for b in blocks))
        groups.setdefault(key, (blocks, []))[1].append(
            (normals, symmetry, *trials, chain))

    # Pass 2: every verdict, witness, residual and unitarity defect, stacked
    # over the triples of one dimension pair and block structure
    reflexivity_failures = 0
    law_failures = 0
    symmetry_worst = 0.0
    transitivity_worst = 0.0
    unitarity_worst = 0.0
    for (d_p, d_n, *_), ((blocks_x, blocks_y), items) in groups.items():
        normals, symmetry, trials_x, trials_y, chain = zip(*items)
        x, y, z = _laws_states(np.concatenate(normals), d_p, d_n, count=3)
        k = x.coeffs.shape[1]
        x_sides = (x.left[:, :, :k], x.right[:, :, :k])
        y_sides = (y.left[:, :, :k], y.right[:, :, :k])
        rot_x, undo_x = _envariant_trials(x_sides, blocks_x, trials_x)
        rot_y, undo_y = _envariant_trials(y_sides, blocks_y, trials_y)
        xx = env._verdict_stack(x, x, rot_x[:1], undo_x[:1])
        xy = env._verdict_stack(x, y, rot_x, undo_x)
        yz = env._verdict_stack(y, z, rot_y, undo_y)
        xz = env._verdict_stack(x, z, rot_x, undo_x)
        yx = env._verdict_stack(y, x, rot_y, undo_y)
        for verdict in (xx, xy, yz, xz, yx):
            unitarity_worst = _unitarity_max(unitarity_worst, verdict.operators,
                                             verdict.spectra_equal)
        reflexivity_failures += int(np.count_nonzero(~xx.related))
        laws = xy.related & yx.related & yz.related & xz.related
        law_failures += int(np.count_nonzero(~laws))

        forward_p, forward_n = xy.operators[:2]
        rotation = env._sample_stack(y_sides[0], blocks_y, symmetry)
        v_p = env._dagger(forward_p @ rotation)
        v_n, reverse, undo = env._reverse_stack(x.amps, y.amps, y_sides, blocks_y,
                                                forward_p, forward_n, v_p)
        reverse = env._rejected(reverse, undo.leakage)
        w_p, a, b, c, d, e, f = env._chain_states(np.stack(chain), d_p, d_n)
        ancilla = np.ones((len(a), 1), dtype=complex)
        ancilla_unitary = ancilla[:, :, None]
        first = env._link_stack(a, b, c, d, ancilla)
        second = env._link_stack(c, d, e, f, ancilla)
        w_n, w_chi, _, chained, leakage = env._chain_stack(
            a, b, c, d, e, f, ancilla, ancilla, ancilla_unitary, ancilla_unitary, w_p)
        # a chain over a rejected link, or a leaking link undo, is rejected
        chained = env._rejected(chained, np.maximum.reduce([leakage, first[2], second[2]]))
        symmetry_worst = max([symmetry_worst, *reverse[laws]])
        transitivity_worst = max([transitivity_worst, *chained[laws]])
        unitarity_worst = _unitarity_max(
            unitarity_worst, [v_p, v_n, *first[:2], ancilla_unitary, *second[:2],
                              ancilla_unitary, w_p, w_n, w_chi], laws)
    checks = [
        _check("reflexivity_failures", reflexivity_failures, 0),
        _check("verdict_law_failures", law_failures, 0),
        _check("symmetry_residual_max", symmetry_worst, DEFAULT_TOL.witness),
        _check("transitivity_residual_max", transitivity_worst, DEFAULT_TOL.witness),
        _check("witness_unitarity_max", unitarity_worst, DEFAULT_TOL.unitary),
    ]
    return checks, {"triples": cfg.triples}, {}


def _envariant_trials(sides, blocks, draws) -> tuple[list, list]:
    """The two trial rotations of one state's envariant subgroup, drawn as
    ``draws`` holds them per triple, and their undos: each computed once."""
    rotations = [env._sample_stack(sides[0], blocks, [drawn[trial] for drawn in draws])
                 for trial in (0, 1)]
    return rotations, [env._undo_stack(sides, blocks, r) for r in rotations]


def _unitarity_max(worst: float, ops: list, mask: np.ndarray) -> float:
    """``worst`` raised to the unitarity defect of each stacked operator in
    ``ops``, over the problems ``mask`` selects."""
    return max([worst, *np.max([unitarity_defects(op) for op in ops], axis=0)[mask]])


def _run_born(cfg: ScenarioConfig):
    weights = RationalWeights(tuple(cfg.weights))
    outcome = born_from_envariance(weights)
    checks = [
        _check("fine_amplitudes_flat", outcome.flatness, DEFAULT_TOL.born_amplitude),
        _check("branch_transpositions_envariant",
               outcome.transposition_residual_max, DEFAULT_TOL.witness),
        _check("probabilities_equal_squared_spectrum", outcome.spectrum_gap,
               DEFAULT_TOL.born_amplitude),
        _check("fine_graining_unitary", gate_defect(outcome.fine_grain_unitary),
               DEFAULT_TOL.unitary),
        _check("global_purity", outcome.norm_drift, DEFAULT_TOL.norm),
    ]
    results = {
        "probabilities": [f"{p.numerator}/{p.denominator}"
                          for p in outcome.probabilities],
        "denominator": weights.total,
        "transpositions_checked": outcome.transpositions_checked,
    }
    return checks, results, {}


def _run_darwinism(cfg: ScenarioConfig):
    n = cfg.env_qubits
    system = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    branching = premeasure(system, n, record_angle=cfg.record_angle)
    curve = darwinism_curve(branching, samples_per_size=cfg.samples_per_size,
                            seed=cfg.seed)
    c = 0.0 if cfg.record_angle is None else math.cos(cfg.record_angle)
    records = branching.records  # (register, branch, record amplitude)
    overlaps = np.einsum("ja,ja->j", records[:, 0].conj(), records[:, 1])
    closed = closed_form_curve(n, cfg.record_angle)
    closed_gap = max(abs(p.mean_information - closed[p.fragment_size])
                     for p in curve.points)
    monotone_defect = max(
        [0.0] + [curve.mean_at(f) - curve.mean_at(f + 1) for f in range(n)]
    )
    joint = branching.joint  # the dense path checks each size's first fragment
    h_dense = _marginal_entropy(joint, [0])
    gram_gap = max(abs(p.first_information - h_dense
                       - _marginal_entropy(joint, list(p.first_fragment))
                       + _marginal_entropy(joint, [0, *p.first_fragment]))
                   for p in curve.points[1:])
    checks = [
        _check("broadcast_gate_unitary", gate_defect(branching.gate),
               DEFAULT_TOL.unitary),
        _check("global_purity", branching.norm_drift, DEFAULT_TOL.norm),
        _check("gram_matches_dense", gram_gap, DEFAULT_TOL.witness),
        _check("curve_matches_closed_form", closed_gap, DEFAULT_TOL.curve),
        _check("curve_monotone_defect", monotone_defect, DEFAULT_TOL.curve),
        _check("records_match_angle", np.max(np.abs(overlaps - c)), DEFAULT_TOL.witness),
    ]
    results = {
        "system_entropy_bits": curve.system_entropy,
        "redundancy": redundancy(curve, cfg.delta),
        "delta": cfg.delta,
        "curve": [[p.fragment_size, p.mean_information, p.samples]
                  for p in curve.points],
    }
    return checks, results, {"curve.csv": curve.to_csv()}


def _run_nohide(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim
    sigmas = []
    mixed_worst = 0.0
    recovery_worst = 0.0
    dims_ok = True
    maximally_mixed = np.eye(d) / d
    for _ in range(cfg.inputs):
        psi = random_state(d, rng)
        result = bleach(psi)
        sigmas.append(result.sigma_system)
        mixed_worst = max(mixed_worst, float(np.max(np.abs(
            result.sigma_system.entries - maximally_mixed))))
        dims_ok &= result.joint.factor_dims == (d, d, d)
        recovery_worst = max(recovery_worst, distance(recover(result.joint), psi))
    # the dense map within DENSE_MAP_LIMIT; beyond it, each gate bleach applies
    gates = [bleach_map(d)] if d ** 3 <= DENSE_MAP_LIMIT else \
        [gate for gate, _ in _bleach_gates(d)]
    # D(s_i, s_j) <= D(s_i, s_0) + D(s_0, s_j): an O(n) bound on every pair
    pairwise_worst = 2 * max(distance(sigma, sigmas[0]) for sigma in sigmas[1:])
    checks = [
        _check("bleached_marginal_input_independent", pairwise_worst,
               DEFAULT_TOL.bleach),
        _check("bleached_marginal_maximally_mixed", mixed_worst,
               DEFAULT_TOL.bleach),
        _check("recovery_distance", recovery_worst, DEFAULT_TOL.witness),
        _check("ancilla_dimension_exact", 0.0 if dims_ok else 1.0, 0),
        _check("bleach_map_unitary", max(map(gate_defect, gates)), DEFAULT_TOL.unitary),
    ]
    results = {"dim": d, "inputs": cfg.inputs}
    return checks, results, {}


_RUNNERS = {
    "grothendieck-int": _run_grothendieck_int,
    "envariance-restore": _run_envariance_restore,
    "equiv-laws": _run_equiv_laws,
    "born": _run_born,
    "darwinism": _run_darwinism,
    "nohide": _run_nohide,
}


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def run(cfg: ScenarioConfig) -> tuple[dict, int]:
    """Execute one scenario and return (report, exit_code)."""
    cfg.validate()
    started = time.perf_counter()
    checks, results, artifact_payloads = _RUNNERS[cfg.scenario](cfg)
    elapsed = time.perf_counter() - started

    out_dir = None if cfg.out is None else Path(cfg.out)
    artifacts = [] if out_dir is None else \
        [str(out_dir / name) for name in artifact_payloads]
    config_echo = asdict(cfg)
    config_echo["weights"] = list(config_echo["weights"])
    report = {
        "schema_version": "report-v1",
        "scenario": cfg.scenario,
        "config": config_echo,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "wall_time_s": elapsed,
        "artifacts": artifacts,
        "results": results,
    }
    _REPORT_VALIDATOR.validate(report)
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, payload in artifact_payloads.items():
                (out_dir / name).write_text(payload)
            (out_dir / "report.json").write_text(
                json.dumps(report, sort_keys=True, indent=2) + "\n")
        except OSError as err:
            raise ConfigError(f"out: cannot write {cfg.out}: {err}") from err
    return report, (0 if report["passed"] else 1)


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise ConfigError(f"weights: expected comma-separated integers, got {text!r}") from err
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicollapse",
        description="Seeded scenario runner with machine-readable reports.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file; explicit flags override it")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None,
                        help="directory for report.json and artifacts")
    parser.add_argument("--range", dest="range_max", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--triples", type=int, default=None)
    parser.add_argument("--weights", type=str, default=None,
                        help="comma-separated positive integers")
    parser.add_argument("--env-qubits", dest="env_qubits", type=int, default=None)
    parser.add_argument("--record-angle", dest="record_angle", type=float,
                        default=None)
    parser.add_argument("--samples-per-size", dest="samples_per_size", type=int,
                        default=None)
    parser.add_argument("--delta", type=float, default=None)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--inputs", type=int, default=None)
    return parser


def _load_config(scenario: str, args: argparse.Namespace) -> ScenarioConfig:
    known = {f.name for f in fields(ScenarioConfig)}
    merged: dict = {"scenario": scenario}
    if args.config is not None:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(f"config: cannot read {args.config}: {err}") from err
        if not isinstance(file_values, dict):
            raise ConfigError("config: top level must be a JSON object")
        unknown = set(file_values) - known
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        if isinstance(file_values.get("weights"), list):
            file_values["weights"] = tuple(file_values["weights"])
        merged.update(file_values)
        if file_values.get("scenario", scenario) != scenario:
            raise ConfigError("config: scenario in file disagrees with argument")
        merged["scenario"] = scenario
    for name in known - {"scenario", "weights"}:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    if args.weights is not None:
        merged["weights"] = _parse_weights(args.weights)
    return ScenarioConfig(**merged)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.scenario, args)
        report, code = run(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
