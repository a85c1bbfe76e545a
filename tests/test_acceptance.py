"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single pass/fail line; run

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
from unicollapse.cli import main as cli_main
from unicollapse.collapse import (
    RationalWeights,
    _transposition_residuals,
    bleach,
    bleach_map,
    born_from_envariance,
    controlled_rotation_gate,
    controlled_shift_gate,
    darwinism_curve,
    fourier_matrix,
    gate_defect,
    global_entropy,
    premeasure,
    recover,
    redundancy,
)
from unicollapse.grothendieck import (
    NATURALS_ADD,
    element,
    group_add,
    group_neg,
    pair_equivalent,
    pair_equivalent_bulk,
)
from unicollapse.linalg import (
    StateVector,
    distance,
    fidelity,
    haar_unitary,
    partial_trace,
    random_state,
    schmidt,
)
from unicollapse.tolerances import DEFAULT_TOL


def announce(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")


# ---------------------------------------------------------------------------
# 1. Grothendieck integer oracle, exhaustive on [0, 50]^4, under 10 s
# ---------------------------------------------------------------------------

def test_criterion_1_grothendieck_oracle():
    started = time.perf_counter()
    top = 50
    values = np.arange(top + 1)
    b, c, d = np.meshgrid(values, values, values, indexing="ij")
    mismatches = 0
    for a in range(top + 1):
        relation = pair_equivalent_bulk(a, b, c, d, NATURALS_ADD)
        oracle = (a - b) == (c - d)
        mismatches += int(np.count_nonzero(relation != oracle))
        add_image = (a + c) - (b + d)          # group_add, componentwise
        mismatches += int(np.count_nonzero(add_image != (a - b) + (c - d)))
        neg_image = b - a                      # group_neg, swapped pair
        mismatches += int(np.count_nonzero(neg_image != -(a - b)))

    # object layer, exhaustive on a subcube, against the same oracle
    object_top = 12
    for a in range(object_top + 1):
        for b_ in range(object_top + 1):
            x = element(NATURALS_ADD, a, b_)
            neg = group_neg(x)
            if (neg.pair.pos - neg.pair.neg) != -(a - b_):
                mismatches += 1
            for c_ in range(object_top + 1):
                for d_ in range(object_top + 1):
                    y = element(NATURALS_ADD, c_, d_)
                    if pair_equivalent(x.pair, y.pair, NATURALS_ADD) != \
                            ((a - b_) == (c_ - d_)):
                        mismatches += 1
                    total = group_add(x, y)
                    if (total.pair.pos - total.pair.neg) != (a - b_) + (c_ - d_):
                        mismatches += 1

    elapsed = time.perf_counter() - started
    passed = mismatches == 0 and elapsed < 10.0
    announce(1, passed,
             f"integer oracle, {51 ** 4} tuples + {13 ** 4} object tuples, "
             f"{mismatches} mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Envariance restoration on 100 random states, under 5 s
# ---------------------------------------------------------------------------

def test_criterion_2_restoration():
    started = time.perf_counter()
    rng = np.random.default_rng(20_206)
    dims = np.array([2, 3, 4, 6])
    worst = 0.0
    for _ in range(100):
        d_p = int(rng.choice(dims))
        d_n = int(rng.choice(dims))
        pair = env.JointPairState(random_state(d_p * d_n, rng, (d_p, d_n)),
                                  (d_p, d_n))
        rank = int(np.sum(pair.spectrum() > 1e-12))
        u_p, u_n = env.synthesize_envariant(pair, env.PhaseSpec.random(rank, rng))
        restored = env._apply_two_sided(pair.joint, d_p, d_n, u_p, u_n)
        worst = max(worst, distance(restored, pair.joint))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-9 and elapsed < 5.0
    announce(2, passed,
             f"restoration over 100 states, max residual {worst:.2e}, "
             f"{elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. Symmetry and transitivity witnesses on 200 sampled triples, under 60 s
# ---------------------------------------------------------------------------

def test_criterion_3_symmetry_and_transitivity_witnesses():
    started = time.perf_counter()
    rng = np.random.default_rng(33_003)
    symmetry_worst = 0.0
    transitivity_worst = 0.0
    for index in range(200):
        d_p = int(rng.choice([2, 3]))
        d_n = int(rng.choice([2, 3]))
        x = env.JointPairState(random_state(d_p * d_n, rng, (d_p, d_n)),
                               (d_p, d_n))
        moved = env._apply_two_sided(x.joint, d_p, d_n,
                                     haar_unitary(d_p, rng),
                                     haar_unitary(d_n, rng))
        y = env.JointPairState(moved, (d_p, d_n))
        forward = env.pair_equivalent(x, y, trials=1, seed=index).witnesses[0]
        v_p = (forward.u_p @ env.sample_envariant_unitary(y, rng)).dagger
        reverse = env.symmetry_witness(x, y, forward, v_p)
        symmetry_worst = max(symmetry_worst, reverse.residual)

        first, second, w_p = env.sample_chain(d_p, d_n, 100_000 + index)
        chained = env.transitivity_witness(first, second, w_p)
        transitivity_worst = max(transitivity_worst, chained.residual)
    elapsed = time.perf_counter() - started
    passed = (symmetry_worst <= 1e-9 and transitivity_worst <= 1e-9
              and elapsed < 60.0)
    announce(3, passed,
             f"200 triples, reverse witness max {symmetry_worst:.2e}, "
             f"chained witness max {transitivity_worst:.2e}, {elapsed:.2f}s")
    assert symmetry_worst <= 1e-9
    assert transitivity_worst <= 1e-9
    assert elapsed < 60.0


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
        decomposition = schmidt(x.joint.with_factors((d_p, d_n)), (d_p, d_n))
        index = int(rng.integers(len(decomposition.coefficients)))
        bump = 10 ** rng.uniform(-3, -1)
        while True:  # escalate until the realized entrywise gap is >= 1e-3
            coeffs = decomposition.coefficients.copy()
            coeffs[index] += bump
            coeffs /= np.linalg.norm(coeffs)
            matrix = (decomposition.left_basis * coeffs) @ decomposition.right_basis.T
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
            assert outcome.transpositions_checked == math.comb(m_total, 2)
            spectrum = np.sort(np.linalg.svd(
                outcome.coarse.amplitudes.reshape(len(weights), m_total),
                compute_uv=False) ** 2)[::-1]
            expected = np.sort([float(p) for p in outcome.probabilities])[::-1]
            worst_spectrum_gap = max(
                worst_spectrum_gap, float(np.max(np.abs(spectrum - expected)))
            )
            worst_transposition = max(worst_transposition,
                                      outcome.transposition_residual_max)
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
    pair = env.JointPairState(StateVector(amps.reshape(-1), (m, k, m)), (m, k * m))
    return _transposition_residuals(pair)


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
# 7. No-hiding at d = 2 and d = 3
# ---------------------------------------------------------------------------

def test_criterion_7_no_hiding():
    for d in (2, 3):
        rng = np.random.default_rng(70_000 + d)
        sigmas = []
        fidelity_worst = 1.0
        for _ in range(50):
            psi = random_state(d, rng)
            result = bleach(psi)
            assert result.joint.factor_dims == (d, d, d)
            assert math.prod(result.joint.factor_dims[1:]) == d * d
            sigmas.append(result.sigma_system)
            fidelity_worst = min(fidelity_worst,
                                 fidelity(recover(result.joint), psi))
        pairwise = max(
            distance(sigmas[i], sigmas[j])
            for i in range(50) for j in range(i + 1, 50)
        )
        mixed = max(float(np.max(np.abs(s.entries - np.eye(d) / d)))
                    for s in sigmas)
        passed = pairwise <= 1e-10 and mixed <= 1e-10 and \
            fidelity_worst >= 1 - 1e-10
        announce(7, passed,
                 f"d={d}: pairwise distance {pairwise:.2e}, mixedness defect "
                 f"{mixed:.2e}, worst fidelity 1-{1 - fidelity_worst:.2e}")
        assert pairwise <= 1e-10
        assert mixed <= 1e-10
        assert fidelity_worst >= 1 - 1e-10


# ---------------------------------------------------------------------------
# 8. Global unitarity and purity across every evolution map
# ---------------------------------------------------------------------------

def test_criterion_8_global_unitarity_and_purity():
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

    purities = {
        "premeasure_ghz8": global_entropy(
            premeasure(StateVector([1, 1]), 8).joint),
        "premeasure_imperfect": global_entropy(
            premeasure(StateVector([1, 1]), 6, record_angle=np.pi / 4).joint),
        "born_coarse": global_entropy(born.coarse),
        "born_fine": global_entropy(born.fine),
        "bleach_joint": global_entropy(bleach(random_state(3, 5)).joint),
    }
    unitary_worst = max(defects.values())
    purity_worst = max(abs(v) for v in purities.values())
    passed = unitary_worst <= 1e-10 and purity_worst <= 1e-9
    announce(8, passed,
             f"unitarity defect max {unitary_worst:.2e} over {len(defects)} "
             f"maps, global entropy max {purity_worst:.2e} over "
             f"{len(purities)} states")
    assert unitary_worst <= 1e-10
    assert purity_worst <= 1e-9


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
