"""Scenario runner: named demos with seeded determinism and JSON reports.

Usage:
    unicollapse grothendieck-int --range 50 --out runs/groth
    unicollapse envariance-restore --trials 100 --seed 7
    unicollapse equiv-laws --triples 200 --seed 3
    unicollapse born --weights 2,3,5 --denominator 10
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
    _marginal_entropy,
    bleach,
    bleach_map,
    born_from_envariance,
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
    element,
    group_add,
    group_neg,
    pair_equivalent,
    pair_equivalent_bulk,
)
from .linalg import (
    StateVector,
    distance,
    fidelity,
    haar_unitary,
    random_state,
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
    tolerance: float = DEFAULT_TOL.witness
    range_max: int = 50          # grothendieck-int
    trials: int = 100            # envariance-restore
    triples: int = 200           # equiv-laws
    weights: tuple[int, ...] = (1, 1)   # born
    denominator: Optional[int] = None   # born (consistency check)
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
        if not 0 < self.tolerance < 1:
            raise ConfigError("tolerance: must lie in (0, 1)")
        if self.scenario == "grothendieck-int" and not 1 <= self.range_max <= 200:
            raise ConfigError("range_max: must lie in [1, 200]")
        if self.scenario == "envariance-restore" and not 1 <= self.trials <= 10_000:
            raise ConfigError("trials: must lie in [1, 10000]")
        if self.scenario == "equiv-laws" and not 1 <= self.triples <= 10_000:
            raise ConfigError("triples: must lie in [1, 10000]")
        if self.scenario == "born":
            if not self.weights or any(w < 1 for w in self.weights):
                raise ConfigError("weights: need positive integers")
            total = sum(self.weights)
            if self.denominator is not None and self.denominator != total:
                raise ConfigError(
                    f"denominator: {self.denominator} != sum(weights) = {total}"
                )
            if len(self.weights) * total * total > DIM_BUDGET:
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
    values = np.arange(top + 1)
    b, c, d = np.meshgrid(values, values, values, indexing="ij")
    relation_mismatches = 0
    arithmetic_mismatches = 0
    cd = GroupElement(MonoidPair(c, d), NATURALS_ADD)
    for a in range(top + 1):
        got = pair_equivalent_bulk(a, b, c, d, NATURALS_ADD)
        oracle = (a - b) == (c - d)
        relation_mismatches += int(np.count_nonzero(got != oracle))
        # group_add on array-valued elements maps onto integer +
        matches = _integer(group_add(GroupElement(MonoidPair(a, b), NATURALS_ADD),
                                     cd)) == (a - b) + (c - d)
        arithmetic_mismatches += int(np.count_nonzero(~matches))
    # group_neg depends on (a, b) only: one check over that grid
    a_grid, b_grid = np.meshgrid(values, values, indexing="ij")
    neg = _integer(group_neg(GroupElement(MonoidPair(a_grid, b_grid), NATURALS_ADD)))
    arithmetic_mismatches += int(np.count_nonzero(neg != -(a_grid - b_grid)))

    object_mismatches = 0
    object_top = min(top, 10)
    for a in range(object_top + 1):
        for b_ in range(object_top + 1):
            x = element(NATURALS_ADD, a, b_)
            if _integer(group_neg(x)) != -(a - b_):
                object_mismatches += 1
            for c_ in range(object_top + 1):
                for d_ in range(object_top + 1):
                    y = element(NATURALS_ADD, c_, d_)
                    lhs = pair_equivalent(x.pair, y.pair, NATURALS_ADD)
                    if lhs != ((a - b_) == (c_ - d_)):
                        object_mismatches += 1
                    if _integer(group_add(x, y)) != (a - b_) + (c_ - d_):
                        object_mismatches += 1

    checks = [
        _check("relation_matches_integer_oracle", relation_mismatches, 0),
        _check("add_neg_homomorphism", arithmetic_mismatches, 0),
        _check("object_layer_exhaustive", object_mismatches, 0),
    ]
    results = {
        "tuples_checked": (top + 1) ** 4,
        "object_tuples_checked": (object_top + 1) ** 4,
    }
    return checks, results, {}


def _run_envariance_restore(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    dims = np.array([2, 3, 4, 6])
    worst = 0.0
    for _ in range(cfg.trials):
        d_p = int(rng.choice(dims))
        d_n = int(rng.choice(dims))
        pair = env.JointPairState(random_state(d_p * d_n, rng, (d_p, d_n)),
                                  (d_p, d_n))
        rank = int(np.sum(pair.spectrum() > DEFAULT_TOL.rank_cutoff))
        u_p, u_n = env.synthesize_envariant(pair, env.PhaseSpec.random(rank, rng))
        restored = env._apply_two_sided(pair.joint, d_p, d_n, u_p, u_n)
        worst = max(worst, distance(restored, pair.joint))
    checks = [_check("restoration_residual_max", worst, cfg.tolerance)]
    return checks, {"trials": cfg.trials}, {}


def _run_equiv_laws(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    reflexivity_failures = 0
    law_failures = 0
    symmetry_worst = 0.0
    transitivity_worst = 0.0
    for index in range(cfg.triples):
        d_p = int(rng.choice([2, 3]))
        d_n = int(rng.choice([2, 3]))
        x = env.JointPairState(random_state(d_p * d_n, rng, (d_p, d_n)), (d_p, d_n))

        def rotate(source: env.JointPairState) -> env.JointPairState:
            moved = env._apply_two_sided(source.joint, d_p, d_n,
                                         haar_unitary(d_p, rng),
                                         haar_unitary(d_n, rng))
            return env.JointPairState(moved, (d_p, d_n))

        y = rotate(x)
        z = rotate(y)
        if not env.pair_equivalent(x, x, trials=1, seed=cfg.seed + index).related:
            reflexivity_failures += 1
        xy = env.pair_equivalent(x, y, trials=2, seed=cfg.seed + index)
        yz = env.pair_equivalent(y, z, trials=2, seed=cfg.seed + index)
        xz = env.pair_equivalent(x, z, trials=2, seed=cfg.seed + index)
        yx = env.pair_equivalent(y, x, trials=2, seed=cfg.seed + index)
        if not (xy.related and yx.related and yz.related and xz.related):
            law_failures += 1
            continue
        forward = xy.witnesses[0]
        rotation = env.sample_envariant_unitary(y, rng)
        v_p = (forward.u_p @ rotation).dagger
        reverse = env.symmetry_witness(x, y, forward, v_p)
        symmetry_worst = max(symmetry_worst, reverse.residual)
        first, second, w_p = env.sample_chain(d_p, d_n, cfg.seed + 77_000 + index)
        chained = env.transitivity_witness(first, second, w_p)
        transitivity_worst = max(transitivity_worst, chained.residual)
    checks = [
        _check("reflexivity_failures", reflexivity_failures, 0),
        _check("verdict_law_failures", law_failures, 0),
        _check("symmetry_residual_max", symmetry_worst, cfg.tolerance),
        _check("transitivity_residual_max", transitivity_worst, cfg.tolerance),
    ]
    return checks, {"triples": cfg.triples}, {}


def _run_born(cfg: ScenarioConfig):
    weights = RationalWeights(tuple(cfg.weights))
    outcome = born_from_envariance(weights)
    checks = [
        _check("fine_amplitudes_flat", outcome.flatness, DEFAULT_TOL.born_amplitude),
        _check("branch_transpositions_envariant",
               outcome.transposition_residual_max, cfg.tolerance),
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
    redundancy_value = redundancy(curve, cfg.delta)
    h = curve.system_entropy
    complementarity = max(
        abs(curve.mean_at(f) + curve.mean_at(n - f) - 2 * h)
        for f in range(0, n + 1)
    )
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
        _check("complementarity_defect", complementarity, 1e-9),
        _check("curve_monotone_defect", monotone_defect, 1e-9),
    ]
    if cfg.record_angle is None:
        plateau_defect = max(abs(curve.mean_at(f) - h) for f in range(1, n))
        checks.append(_check("plateau_defect", plateau_defect, 1e-9))
        checks.append(_check("full_environment_information",
                             abs(curve.mean_at(n) - 2 * h), 1e-9))
        checks.append(_check("redundancy_equals_environment_count",
                             abs(redundancy_value - n), 1e-9))
    else:
        in_range = 1.0 <= redundancy_value <= n
        checks.append(_check("redundancy_in_range", 0.0 if in_range else 1.0, 0))
    results = {
        "system_entropy_bits": h,
        "redundancy": redundancy_value,
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
    fidelity_worst = 1.0
    ancilla_dims_ok = True
    maximally_mixed = np.eye(d) / d
    for _ in range(cfg.inputs):
        psi = random_state(d, rng)
        result = bleach(psi)
        sigmas.append(result.sigma_system)
        mixed_worst = max(mixed_worst, float(np.max(np.abs(
            result.sigma_system.entries - maximally_mixed))))
        ancilla_dims_ok &= (math.prod(result.joint.factor_dims[1:]) == d * d)
        fidelity_worst = min(fidelity_worst,
                             fidelity(recover(result.joint), psi))
    unitary_defect = gate_defect(bleach_map(d)) if d ** 3 <= DENSE_MAP_LIMIT else 0.0
    # D(s_i, s_j) <= D(s_i, s_0) + D(s_0, s_j): an O(n) bound on every pair
    pairwise_worst = 2 * max(distance(sigma, sigmas[0]) for sigma in sigmas[1:])
    checks = [
        _check("bleached_marginal_input_independent", pairwise_worst,
               DEFAULT_TOL.bleach),
        _check("bleached_marginal_maximally_mixed", mixed_worst,
               DEFAULT_TOL.bleach),
        _check("recovery_infidelity", 1.0 - fidelity_worst, 1e-10),
        _check("ancilla_dimension_exact", 0.0 if ancilla_dims_ok else 1.0, 0),
        _check("bleach_map_unitary", unitary_defect, DEFAULT_TOL.unitary),
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
    parser.add_argument("--tolerance", type=float, default=None,
                        help="witness residual tolerance")
    parser.add_argument("--range", dest="range_max", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--triples", type=int, default=None)
    parser.add_argument("--weights", type=str, default=None,
                        help="comma-separated positive integers")
    parser.add_argument("--denominator", type=int, default=None)
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
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
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
