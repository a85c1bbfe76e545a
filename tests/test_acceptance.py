"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Criteria 1, 2, 3 and 7 are scenario configs: one table row each, run through
``cli.run``, with their bounds asserted on the report.  The rest are their own
tests.  Each test prints a single pass/fail line; run

    pytest tests/test_acceptance.py -v -s

to see them as the criteria execute.  Timed criteria assert their wall-clock
bounds as part of the test.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from unicollapse import envariance as env
from unicollapse.cli import ScenarioConfig, main as cli_main, run as cli_run
from unicollapse.collapse import (
    RationalWeights,
    _bleach_apply,
    _transposition_residuals,
    born_from_envariance,
    controlled_rotation_gate,
    controlled_shift_gate,
    darwinism_curve,
    fourier_matrix,
    gate_defect,
    premeasure,
    redundancy,
)
from unicollapse.linalg import (
    StateVector,
    basis_state,
    haar_unitary,
    partial_trace,
    random_state,
    schmidt,
    tensor,
)
from unicollapse.tolerances import DEFAULT_TOL


def announce(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")


# ---------------------------------------------------------------------------
# Criteria run as scenarios: (number, config, wall-time bound in s, the bound
# on each check's residual, expected ``results`` entries)
#   1. Grothendieck integer oracle, exhaustive on [0, 50]^4: the pair
#      relation (one body behind the bulk and scalar paths) and the add/neg
#      homomorphism, under 10 s
#   2. Envariance restoration on 100 random states, under 5 s
#   3. Reflexivity, verdict laws, and symmetry and transitivity witnesses on
#      200 sampled triples, under 60 s
#   7. No-hiding at d = 2 and d = 3: every bleached marginal maximally mixed,
#      hence input-independent, and every input recovered from the ancillas
# ---------------------------------------------------------------------------

NOHIDE_BOUNDS = {
    "bleached_marginal_input_independent": 1e-10,
    "bleached_marginal_maximally_mixed": 1e-10,
    "recovery_distance": 1e-9,
    "ancilla_dimension_exact": 0,
    "bleach_map_unitary": 1e-10,
}

SCENARIO_CRITERIA = [
    pytest.param(
        1, ScenarioConfig(scenario="grothendieck-int", range_max=50), 10.0,
        {"relation_matches_integer_oracle": 0, "add_neg_homomorphism": 0},
        {"tuples_checked": 51 ** 4},
        id="1-grothendieck-int"),
    pytest.param(
        2, ScenarioConfig(scenario="envariance-restore", trials=100, seed=20_206),
        5.0, {"restoration_residual_max": 1e-9}, {"trials": 100},
        id="2-envariance-restore"),
    pytest.param(
        3, ScenarioConfig(scenario="equiv-laws", triples=200, seed=33_003), 60.0,
        {"reflexivity_failures": 0, "verdict_law_failures": 0,
         "symmetry_residual_max": 1e-9, "transitivity_residual_max": 1e-9,
         "witness_unitarity_max": 1e-10},
        {"triples": 200}, id="3-equiv-laws"),
    *(pytest.param(
        7, ScenarioConfig(scenario="nohide", dim=d, inputs=50, seed=70_000 + d),
        math.inf, NOHIDE_BOUNDS, {"dim": d, "inputs": 50}, id=f"7-nohide-d{d}")
      for d in (2, 3)),
]


@pytest.mark.parametrize("number, config, seconds, bounds, results",
                         SCENARIO_CRITERIA)
def test_criterion_through_cli(number, config, seconds, bounds, results):
    started = time.perf_counter()
    report, code = cli_run(config)
    elapsed = time.perf_counter() - started
    residuals = {check["name"]: check["residual"] for check in report["checks"]}
    passed = (code == 0 and report["passed"] and elapsed < seconds
              and residuals.keys() == bounds.keys()
              and all(residuals[name] <= bound for name, bound in bounds.items())
              and all(report["results"][key] == value
                      for key, value in results.items()))
    announce(number, passed,
             f"{config.scenario} {report['results']}, "
             + ", ".join(f"{name} {value:.2e}" for name, value in residuals.items())
             + f", {elapsed:.2f}s")
    assert code == 0
    assert report["passed"]
    assert residuals.keys() == bounds.keys()
    for name, bound in bounds.items():
        assert residuals[name] <= bound, name
    for key, value in results.items():
        assert report["results"][key] == value, key
    assert elapsed < seconds


# ---------------------------------------------------------------------------
# 4. Spectrum soundness: distinguishable spectra are never reported related
# ---------------------------------------------------------------------------

def test_criterion_4_spectrum_soundness():
    rng = np.random.default_rng(44_004)
    false_positives = 0
    for trial in range(100):
        d_p = int(rng.choice([2, 3, 4]))
        d_n = int(rng.choice([2, 3, 4]))
        x = env.JointPairState(random_state(d_p * d_n, rng, (d_p, d_n)),
                               (d_p, d_n))
        coefficients, left, right = schmidt(StateVector(x.joint.amplitudes, (d_p, d_n)),
                                            (d_p, d_n))
        index = int(rng.integers(len(coefficients)))
        bump = 10 ** rng.uniform(-3, -1)
        while True:  # escalate until the realized entrywise gap is >= 1e-3
            coeffs = coefficients.copy()
            coeffs[index] += bump
            coeffs /= np.linalg.norm(coeffs)
            matrix = (left * coeffs) @ right.T
            y = env.JointPairState(StateVector(matrix.reshape(-1), (d_p, d_n)),
                                   (d_p, d_n))
            gap = float(np.max(np.abs(np.sort(y.spectrum())
                                      - np.sort(x.spectrum()))))
            if gap >= 1e-3:
                break
            bump *= 4.0
        if env.pair_equivalent(x, y, trials=1, seed=trial).related:
            false_positives += 1
    announce(4, false_positives == 0,
             f"100 perturbed-spectrum pairs, {false_positives} false positives")
    assert false_positives == 0


# ---------------------------------------------------------------------------
# 5. Born weights: every weight vector with denominator at most 12
# ---------------------------------------------------------------------------

def _compositions(total: int):
    for cuts in range(total):
        for marks in itertools.combinations(range(1, total), cuts):
            points = (0,) + marks + (total,)
            yield tuple(points[i + 1] - points[i] for i in range(len(points) - 1))


def test_criterion_5_born_rule_from_envariance():
    worst_transposition = 0.0
    worst_spectrum_gap = 0.0
    worst_flatness = 0.0
    worst_drift = 0.0
    vectors = 0
    for m_total in range(1, 13):
        for weights in _compositions(m_total):
            outcome = born_from_envariance(RationalWeights(weights))
            assert outcome.probabilities == tuple(
                Fraction(mk, m_total) for mk in weights
            )
            assert len(outcome.transposition_residuals) == math.comb(m_total, 2)
            spectrum = np.sort(np.linalg.svd(
                outcome.coarse.amplitudes.reshape(len(weights), m_total),
                compute_uv=False) ** 2)[::-1]
            expected = np.sort([float(p) for p in outcome.probabilities])[::-1]
            worst_spectrum_gap = max(
                worst_spectrum_gap, float(np.max(np.abs(spectrum - expected)))
            )
            worst_transposition = max(worst_transposition, np.max(
                outcome.transposition_residuals, initial=0.0))
            worst_flatness = max(worst_flatness, outcome.flatness)
            worst_drift = max(worst_drift, outcome.norm_drift)
            vectors += 1
    passed = (worst_spectrum_gap <= 1e-12 and worst_transposition <= 1e-9
              and worst_flatness <= DEFAULT_TOL.born_amplitude
              and worst_drift <= DEFAULT_TOL.norm)
    announce(5, passed,
             f"{vectors} weight vectors, spectrum gap {worst_spectrum_gap:.2e}, "
             f"transposition residual {worst_transposition:.2e}, "
             f"flatness {worst_flatness:.2e}, norm drift {worst_drift:.2e}")
    assert vectors == 4095
    assert worst_spectrum_gap <= 1e-12
    assert worst_transposition <= 1e-9
    assert worst_flatness <= DEFAULT_TOL.born_amplitude
    assert worst_drift <= DEFAULT_TOL.norm


def _rotated_residuals(fine: StateVector, rng) -> np.ndarray:
    """Transposition residuals of a fine Born state under Haar U_S (x) U_E (x) U_R.

    Local unitaries keep the environment's spectrum flat, so every residual
    stays at rounding level; in this frame it is no longer 0 by construction.
    """
    k, m, _ = fine.factor_dims
    u_s, u_e, u_r = (haar_unitary(d, rng).entries for d in (k, m, m))
    amps = np.einsum("sa,eb,rc,abc->esr", u_s, u_e, u_r,
                     fine.amplitudes.reshape(k, m, m), optimize=True)
    return _transposition_residuals(amps.reshape(m, k * m))


def test_criterion_5_rotated_frame():
    """Every composition of 2 <= M <= 9, and one per part count for M = 10..12."""
    rng = np.random.default_rng(13)
    worst, least = 0.0, math.inf
    vectors = 0
    for m_total in range(2, 13):
        parts_seen = set()
        for weights in _compositions(m_total):
            if m_total >= 10 and len(weights) in parts_seen:
                continue
            parts_seen.add(len(weights))
            outcome = born_from_envariance(RationalWeights(weights))
            residuals = _rotated_residuals(outcome.fine, rng)
            assert len(residuals) == math.comb(m_total, 2)
            worst = max(worst, float(residuals.max()))
            least = min(least, float(residuals.max()))
            vectors += 1
    announce(5, worst <= 1e-9 and least > 0.0,
             f"{vectors} rotated frames, transposition residual "
             f"{least:.2e} to {worst:.2e}")
    assert vectors == 510 + 10 + 11 + 12
    assert worst <= 1e-9
    assert least > 0.0  # computed, not 0 by construction


@pytest.mark.parametrize("weights", [(2, 3, 5), (3, 4), (1,) * 6, (1, 2, 1, 3)])
def test_criterion_5_rotated_frame_sees_uneven_branch(weights):
    fine = born_from_envariance(RationalWeights(weights)).fine
    amps = fine.amplitudes.copy()
    amps[0] *= 1.1  # the one fine branch of the first coarse amplitude
    skewed = StateVector(amps, fine.factor_dims)
    assert _rotated_residuals(skewed, np.random.default_rng(13)).max() > 1e-3


# ---------------------------------------------------------------------------
# 6. Darwinism plateau for the GHZ branching state at N = 8, under 30 s
# ---------------------------------------------------------------------------

def test_criterion_6_darwinism_plateau():
    started = time.perf_counter()
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    state = premeasure(plus, 8)
    curve = darwinism_curve(state)
    h = curve.system_entropy
    plateau_defect = max(abs(curve.mean_at(f) - 1.0) for f in range(1, 8))
    top_defect = abs(curve.mean_at(8) - 2.0)

    # complementarity, exhaustively over all 2^8 fragments
    joint = state.joint
    h_s = h
    complement_defect = 0.0
    registers = list(range(1, 9))
    for size in range(0, 9):
        for fragment in itertools.combinations(registers, size):
            rest = [r for r in registers if r not in fragment]
            info = _mutual_information(joint, h_s, list(fragment))
            info_rest = _mutual_information(joint, h_s, rest)
            complement_defect = max(complement_defect,
                                    abs(info + info_rest - 2 * h_s))
    r_value = redundancy(curve, 0.1)
    elapsed = time.perf_counter() - started
    passed = (plateau_defect <= 1e-9 and top_defect <= 1e-9
              and complement_defect <= 1e-9 and r_value == pytest.approx(8.0)
              and elapsed < 30.0)
    announce(6, passed,
             f"plateau defect {plateau_defect:.2e}, full-env defect "
             f"{top_defect:.2e}, complementarity {complement_defect:.2e}, "
             f"R_0.1 = {r_value}, {elapsed:.2f}s")
    assert plateau_defect <= 1e-9
    assert top_defect <= 1e-9
    assert complement_defect <= 1e-9
    assert r_value == pytest.approx(8.0)
    assert elapsed < 30.0


def _mutual_information(joint: StateVector, h_system: float,
                        fragment: list[int]) -> float:
    from unicollapse.linalg import entropy
    if not fragment:
        return 0.0
    h_frag = entropy(partial_trace(joint, keep=fragment))
    h_joint = entropy(partial_trace(joint, keep=[0, *fragment]))
    return h_system + h_frag - h_joint


# ---------------------------------------------------------------------------
# 8. Global unitarity and purity across every evolution map
# ---------------------------------------------------------------------------

def test_criterion_8_global_unitarity_and_purity(bleach_map):
    defects = {
        "controlled_shift_d2": gate_defect(controlled_shift_gate(2)),
        "controlled_shift_d3": gate_defect(controlled_shift_gate(3)),
        "controlled_shift_d12": gate_defect(controlled_shift_gate(12)),
        "controlled_rotation": gate_defect(controlled_rotation_gate(np.pi / 4)),
        "fourier_d2": gate_defect(fourier_matrix(2)),
        "fourier_d3": gate_defect(fourier_matrix(3)),
    }
    born = born_from_envariance(RationalWeights((2, 3, 5)))
    defects["fine_graining"] = gate_defect(born.fine_grain_unitary)
    for d in (2, 3):
        defects[f"bleach_d{d}"] = gate_defect(bleach_map(d))

    # purity as the norm of each evolution's output before renormalizing:
    # ``StateVector`` renormalizes, so an entropy of the result reads 0 even
    # after a non-unitary map
    hidden = tensor(random_state(3, 5), basis_state(3, 0), basis_state(3, 0))
    drifts = {
        "premeasure_ghz8": premeasure(StateVector([1, 1]), 8).norm_drift,
        "premeasure_imperfect": premeasure(StateVector([1, 1]), 6,
                                           record_angle=np.pi / 4).norm_drift,
        "born_fine": born.norm_drift,
        "bleach_d3": _norm_drift(_bleach_apply(hidden.amplitudes, 3)),
    }
    # negative control: a diagonal, non-unitary map on a premeasured joint
    joint = premeasure(StateVector([1, 1]), 2).joint
    control = _norm_drift(np.linspace(1.0, 0.2, 8) * joint.amplitudes)
    unitary_worst = max(defects.values())
    drift_worst = max(drifts.values())
    passed = (unitary_worst <= 1e-10 and drift_worst <= DEFAULT_TOL.norm
              and control > DEFAULT_TOL.norm)
    announce(8, passed,
             f"unitarity defect max {unitary_worst:.2e} over {len(defects)} "
             f"maps, norm drift max {drift_worst:.2e} over {len(drifts)} "
             f"evolutions, non-unitary control drift {control:.2e}")
    assert unitary_worst <= 1e-10
    assert drift_worst <= DEFAULT_TOL.norm
    assert control > DEFAULT_TOL.norm


def _norm_drift(amps: np.ndarray) -> float:
    return abs(float(np.linalg.norm(amps)) - 1.0)


# ---------------------------------------------------------------------------
# 9. CLI determinism: identical config and seed, identical bytes
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path, capsys):
    out = tmp_path / "determinism"
    argv = ["darwinism", "--env-qubits", "7", "--seed", "11",
            "--record-angle", "0.7", "--samples-per-size", "15",
            "--out", str(out)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    report_one = (out / "report.json").read_text()
    csv_one = (out / "curve.csv").read_bytes()
    assert cli_main(argv) == 0
    capsys.readouterr()
    report_two = (out / "report.json").read_text()
    csv_two = (out / "curve.csv").read_bytes()

    def strip(text: str) -> dict:
        payload = json.loads(text)
        payload.pop("wall_time_s")
        return payload

    same_reports = strip(report_one) == strip(report_two)
    same_csv = csv_one == csv_two
    announce(9, same_reports and same_csv,
             "byte-identical report (modulo wall time) and CSV across reruns")
    assert same_reports
    assert same_csv
