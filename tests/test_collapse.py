"""Tests for the unitary measurement models."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unicollapse import collapse
from unicollapse.collapse import (
    BranchingState,
    BudgetError,
    CurvePoint,
    MutualInformationCurve,
    RationalWeights,
    _apply_gate,
    _controlled_phase,
    _require_unitary,
    _transposition_residuals,
    bleach,
    bleach_map,
    born_from_envariance,
    controlled_rotation_gate,
    controlled_shift_gate,
    darwinism_curve,
    fragment_information,
    gate_defect,
    global_entropy,
    premeasure,
    recover,
    redundancy,
)
from unicollapse.envariance import JointPairState, undo_on_n
from unicollapse.linalg import (
    DimensionMismatchError,
    Operator,
    StateVector,
    basis_state,
    distance,
    entropy,
    fidelity,
    partial_trace,
    random_state,
    tensor,
)
from unicollapse.tolerances import DEFAULT_TOL


def plus_state() -> StateVector:
    return StateVector(np.array([1, 1]) / np.sqrt(2))


# ---------------------------------------------------------------------------
# premeasure
# ---------------------------------------------------------------------------

def test_premeasure_builds_ghz():
    out = premeasure(plus_state(), 2)
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    np.testing.assert_allclose(out.joint.amplitudes, expected, atol=1e-12)
    assert out.joint.factor_dims == (2, 2, 2)
    assert out.branch_labels[0][0] == 0 and out.branch_labels[1][0] == 1


def test_premeasure_pointer_state_is_fixed_point():
    out = premeasure(basis_state(2, 1), 3)
    expected = np.zeros(16)
    expected[15] = 1.0  # |1111>
    np.testing.assert_allclose(out.joint.amplitudes, expected, atol=1e-12)
    rho = partial_trace(out.joint, keep=[0])
    np.testing.assert_allclose(rho.entries, np.diag([0.0, 1.0]), atol=1e-12)


def test_premeasure_decoheres_reduced_system():
    alpha, beta = 0.6, 0.8
    out = premeasure(StateVector([alpha, beta]), 1)
    rho = partial_trace(out.joint, keep=[0])
    np.testing.assert_allclose(np.diag(rho.entries).real,
                               [alpha ** 2, beta ** 2], atol=1e-12)
    assert abs(rho.entries[0, 1]) <= 1e-12


def test_premeasure_qutrit_broadcast():
    system = StateVector(np.array([1, 1, 1]) / np.sqrt(3))
    out = premeasure(system, 2)
    tensor_view = out.joint.amplitudes.reshape(3, 3, 3)
    for k in range(3):
        assert tensor_view[k, k, k] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert np.count_nonzero(np.abs(out.joint.amplitudes) > 1e-12) == 3


def test_premeasure_imperfect_records():
    out = premeasure(plus_state(), 2, record_angle=np.pi / 4)
    for register in out.records:
        assert np.vdot(register[0], register[1]) == pytest.approx(
            np.cos(np.pi / 4), abs=1e-12)
    # branch 1 writes cos|0> + sin|1> on each register
    view = out.joint.amplitudes.reshape(2, 2, 2)
    record = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
    np.testing.assert_allclose(view[1], np.outer(record, record) / np.sqrt(2),
                               atol=1e-12)


def test_premeasure_budget():
    with pytest.raises(BudgetError):
        premeasure(plus_state(), 14)
    with pytest.raises(DimensionMismatchError):
        premeasure(random_state(3, 0), 2, record_angle=0.3)


def test_broadcast_gates_are_unitary():
    for dim in (2, 3, 5, 7):
        assert gate_defect(controlled_shift_gate(dim)) <= 1e-10
    for angle in (0.0, 0.3, np.pi / 4, np.pi / 2):
        assert gate_defect(controlled_rotation_gate(angle)) <= 1e-10


# ---------------------------------------------------------------------------
# structured gates against their dense matrices
# ---------------------------------------------------------------------------

def dense_controlled_shift(d: int) -> np.ndarray:
    """|k, j> -> |k, j+k mod d> as a 0/1 matrix."""
    gate = np.zeros((d * d, d * d))
    for k in range(d):
        for j in range(d):
            gate[k * d + (j + k) % d, k * d + j] = 1.0
    return gate


def dense_relabel(d: int) -> np.ndarray:
    """|u, v> -> |v - u mod d, v> as a 0/1 matrix."""
    gate = np.zeros((d * d, d * d))
    for u in range(d):
        for v in range(d):
            gate[((v - u) % d) * d + v, u * d + v] = 1.0
    return gate


@pytest.mark.parametrize("d", [2, 3, 5])
def test_structured_gates_equal_dense_gates(d):
    u, v = np.divmod(np.arange(d * d), d)
    phase = _controlled_phase(d)
    cases = [
        (controlled_shift_gate(d), dense_controlled_shift(d)),
        ((v - u) % d * d + v, dense_relabel(d)),
        (phase, np.diag(phase)),
    ]
    rng = np.random.default_rng(d)
    dims = (d, d, d)
    single = random_state(d ** 3, rng).amplitudes
    batch = rng.normal(size=(d ** 3, 4)) + 1j * rng.normal(size=(d ** 3, 4))
    for structured, dense in cases:
        for axes in ([0, 2], [2, 0], [1, 0]):
            for amps in (single, batch):
                got = _apply_gate(amps, dims, structured, axes)
                want = _apply_gate(amps, dims, dense, axes)
                if structured is phase:
                    # one complex product each, rounded apart from BLAS's
                    bound = 4 * np.finfo(float).eps * np.max(np.abs(amps))
                    np.testing.assert_allclose(got, want, rtol=0, atol=bound)
                else:
                    np.testing.assert_array_equal(got, want)
        # a batch is the same as its columns one at a time
        got = _apply_gate(batch, dims, structured, [1, 0])
        for column in range(batch.shape[1]):
            np.testing.assert_array_equal(
                got[:, column], _apply_gate(batch[:, column], dims, structured, [1, 0]))


def test_gate_defect_flags_broken_structured_gates():
    assert gate_defect([0, 0, 2]) == 1.0
    assert gate_defect([2, 0, 1]) == 0.0
    assert gate_defect(np.array([1.0, 0.9, 1j])) == pytest.approx(0.19, abs=1e-15)
    with pytest.raises(ValueError):
        _require_unitary(np.array([0, 0, 2]), "non-bijective permutation")
    with pytest.raises(ValueError):
        _require_unitary(np.array([1.0, 0.9, 1j]), "shrinking diagonal")


def test_premeasure_preserves_global_purity():
    out = premeasure(random_state(2, 3), 6)
    assert abs(global_entropy(out.joint)) <= 1e-9


# ---------------------------------------------------------------------------
# born_from_envariance
# ---------------------------------------------------------------------------

def test_born_equal_weights():
    out = born_from_envariance(RationalWeights((1, 1)))
    assert out.probabilities == (Fraction(1, 2), Fraction(1, 2))
    assert out.flatness <= DEFAULT_TOL.born_amplitude
    assert out.norm_drift <= DEFAULT_TOL.norm


def test_born_one_two():
    out = born_from_envariance(RationalWeights((1, 2)))
    assert out.probabilities == (Fraction(1, 3), Fraction(2, 3))
    assert out.flatness <= DEFAULT_TOL.born_amplitude
    assert out.norm_drift <= DEFAULT_TOL.norm


def test_born_two_three_five():
    out = born_from_envariance(RationalWeights((2, 3, 5)))
    assert out.probabilities == (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    assert out.transpositions_checked == 45
    assert out.transposition_residual_max <= 1e-9
    assert out.flatness <= DEFAULT_TOL.born_amplitude
    assert out.norm_drift <= DEFAULT_TOL.norm


def test_born_amplitudes_are_flat():
    out = born_from_envariance(RationalWeights((3, 4)))
    populated = np.abs(out.fine.amplitudes) > 1e-12
    assert populated.sum() == 7
    np.testing.assert_allclose(np.abs(out.fine.amplitudes[populated]),
                               1 / np.sqrt(7), atol=1e-12)


def test_born_probabilities_equal_squared_schmidt():
    weights = RationalWeights((1, 4, 2))
    out = born_from_envariance(weights)
    spectrum = np.linalg.svd(
        out.coarse.amplitudes.reshape(3, weights.total), compute_uv=False
    )
    got = sorted(float(p) for p in out.probabilities)
    expected = sorted(spectrum ** 2)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_born_fine_graining_is_unitary_and_pure():
    out = born_from_envariance(RationalWeights((2, 1)))
    assert gate_defect(out.fine_grain_unitary) <= 1e-10
    assert abs(global_entropy(out.fine)) <= 1e-9
    assert abs(global_entropy(out.coarse)) <= 1e-9


@pytest.mark.parametrize("weights", [(2, 3, 5), (3, 4), (1,) * 6, (1, 2, 1, 3)])
def test_batched_transpositions_match_dense_witnesses(weights):
    out = born_from_envariance(RationalWeights(weights))
    m_total = sum(weights)
    pair = JointPairState(out.fine.reordered([1, 0, 2]),
                          (m_total, len(weights) * m_total))
    batched = _transposition_residuals(pair)
    assert len(batched) == out.transpositions_checked == math.comb(m_total, 2)
    for residual, (i, j) in zip(batched, combinations(range(m_total), 2)):
        swap = np.eye(m_total)
        swap[[i, j]] = swap[[j, i]]
        dense = undo_on_n(pair, Operator(swap)).residual
        assert abs(residual - dense) <= 1e-14


def test_born_residuals_are_returned_not_raised(monkeypatch):
    real = collapse.tensor

    def skewed(coarse, *rest):
        amps = coarse.amplitudes.copy()
        amps[0] *= 1.1
        return real(StateVector(amps, coarse.factor_dims), *rest)

    monkeypatch.setattr(collapse, "tensor", skewed)
    out = born_from_envariance(RationalWeights((2, 3)))
    assert out.flatness > 1e-3
    assert out.transposition_residual_max > 1e-3
    assert out.norm_drift <= 1e-12
    pair = JointPairState(out.fine.reordered([1, 0, 2]), (5, 10))
    assert np.max(_transposition_residuals(pair)) > 1e-3


def test_born_transpositions_are_chunked():
    tracemalloc.start()
    try:
        out = born_from_envariance(RationalWeights((64,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.transpositions_checked == 2016
    assert out.transposition_residual_max <= 1e-9
    assert peak < 64 * 2 ** 20  # one unchunked 2016 x 64 x 64 stack is 126 MiB


def test_born_budget_and_validation():
    with pytest.raises(BudgetError):
        born_from_envariance(RationalWeights((1,) * 7 + (43,)))  # 8 * 50^2
    with pytest.raises(ValueError):
        RationalWeights((1, 0))
    with pytest.raises(ValueError):
        RationalWeights(())


# ---------------------------------------------------------------------------
# darwinism curves
# ---------------------------------------------------------------------------

def test_ghz_plateau_and_redundancy():
    state = premeasure(plus_state(), 8)
    curve = darwinism_curve(state)
    assert curve.mean_at(0) == 0.0
    for f in range(1, 8):
        assert curve.mean_at(f) == pytest.approx(1.0, abs=1e-9)
    assert curve.mean_at(8) == pytest.approx(2.0, abs=1e-9)
    assert curve.system_entropy == pytest.approx(1.0, abs=1e-9)
    assert redundancy(curve, 0.1) == pytest.approx(8.0)


def test_complementarity_for_pure_global_states():
    state = premeasure(StateVector([0.8, 0.6]), 6)
    curve = darwinism_curve(state)
    h = curve.system_entropy
    for f in range(0, 7):
        total = curve.mean_at(f) + curve.mean_at(6 - f)
        assert total == pytest.approx(2 * h, abs=1e-9)


def test_imperfect_records_monotone_below_entropy():
    state = premeasure(plus_state(), 8, record_angle=np.pi / 4)
    curve = darwinism_curve(state)
    values = [p.mean_information for p in curve.points]
    assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))
    # proper fragments up to half the environment stay below H_S
    for f in range(0, 5):
        assert curve.mean_at(f) <= curve.system_entropy + 1e-9
    assert redundancy(curve, 0.1) == pytest.approx(8 / 3)


def test_sampled_curve_is_deterministic():
    state = premeasure(plus_state(), 8, record_angle=np.pi / 3)
    one = darwinism_curve(state, samples_per_size=20, seed=5)
    two = darwinism_curve(state, samples_per_size=20, seed=5)
    assert one.to_csv() == two.to_csv()
    assert any(p.samples == 20 for p in one.points)


def test_redundancy_zero_for_product_environment():
    # a pointer input records nothing new: system entropy is zero
    state = premeasure(basis_state(2, 0), 4)
    curve = darwinism_curve(state)
    assert curve.system_entropy <= 1e-12
    assert redundancy(curve, 0.1) == 0.0


def test_redundancy_scan_matches_brute_force():
    state = premeasure(plus_state(), 6, record_angle=np.pi / 5)
    curve = darwinism_curve(state)
    delta = 0.1
    threshold = (1 - delta) * curve.system_entropy
    oracle = 0.0
    for point in curve.points:
        if point.fragment_size >= 1 and point.mean_information >= threshold:
            oracle = curve.n_env / point.fragment_size
            break
    assert redundancy(curve, delta) == oracle
    with pytest.raises(ValueError):
        redundancy(curve, 1.5)


def test_curve_invariant_rejects_overlarge_information():
    with pytest.raises(ValueError):
        MutualInformationCurve(
            (CurvePoint(0, 0.0, 1), CurvePoint(1, 2.5, 1)),
            system_entropy=1.0,
            n_env=1,
        )


def test_darwinism_budget():
    big = premeasure(random_state(4, 1), 6)  # env dim 4^6 = 4096, at the edge
    darwinism_curve(big, samples_per_size=2)
    with pytest.raises(BudgetError):
        too_big = BranchingState(
            joint=random_state(2 ** 14, 0, (2,) * 14),
            branch_labels=((0, 1.0),),
            records=np.broadcast_to(np.eye(2), (13, 2, 2)),
            gate=controlled_shift_gate(2),
            n_env=13,
            norm_drift=0.0,
        )
        darwinism_curve(too_big, samples_per_size=1)


def _dense_entropy(joint: StateVector, keep: list[int]) -> float:
    """Entropy of a marginal of a pure joint state, traced on its smaller side."""
    rest = [i for i in range(len(joint.factor_dims)) if i not in keep]
    if not rest:  # the whole pure state
        return 0.0
    side = min(keep, rest, key=lambda s: math.prod(joint.factor_dims[i] for i in s))
    return entropy(partial_trace(joint, keep=side))


def _dense_information(joint: StateVector, fragment: list[int]) -> float:
    return (_dense_entropy(joint, [0]) + _dense_entropy(joint, fragment)
            - _dense_entropy(joint, [0, *fragment]))


def _assert_gram_matches_dense(state) -> None:
    n = state.n_env
    for size in range(1, n + 1):
        fragments = np.array(list(combinations(range(1, n + 1), size)))
        gram = fragment_information(state, fragments)[1]
        for fragment, value in zip(fragments, gram):
            dense = _dense_information(state.joint, list(fragment))
            assert abs(value - dense) <= 1e-12, (list(fragment), value, dense)


PARTS = st.floats(-1.0, 1.0)


@given(re=st.lists(PARTS, min_size=2, max_size=2),
       im=st.lists(PARTS, min_size=2, max_size=2),
       angle=st.floats(0.01, np.pi / 2), n=st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_gram_information_matches_dense_oracle(re, im, angle, n):
    amps = np.array(re) + 1j * np.array(im)
    assume(np.linalg.norm(amps) > 0.1)
    _assert_gram_matches_dense(premeasure(StateVector(amps), n,
                                          record_angle=angle))


@given(re=st.lists(PARTS, min_size=3, max_size=3),
       im=st.lists(PARTS, min_size=3, max_size=3), n=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_gram_information_matches_dense_oracle_qutrit(re, im, n):
    amps = np.array(re) + 1j * np.array(im)
    assume(np.linalg.norm(amps) > 0.1)
    _assert_gram_matches_dense(premeasure(StateVector(amps), n))


def _binary_entropy(x: float) -> float:
    return -sum(v * math.log2(v) for v in (x, 1.0 - x) if v > 0.0)


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.7, 1.0, 1.2, 1.5, np.pi / 2])
def test_gram_information_matches_ghz_closed_form(theta):
    # I(f) = h((1+c^N)/2) + h((1+c^f)/2) - h((1+c^(N-f))/2), c = cos(theta)
    n = 12
    c = math.cos(theta)
    state = premeasure(plus_state(), n, record_angle=theta)
    curve = darwinism_curve(state)
    for f in range(n + 1):
        expected = (_binary_entropy((1 + c ** n) / 2)
                    + _binary_entropy((1 + c ** f) / 2)
                    - _binary_entropy((1 + c ** (n - f)) / 2))
        assert abs(curve.mean_at(f) - expected) <= 1e-12
        if f:
            fragments = np.array(list(combinations(range(1, n + 1), f)))
            info = fragment_information(state, fragments)[1]
            assert np.max(np.abs(info - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# bleach / recover
# ---------------------------------------------------------------------------

def test_bleach_basis_state_qubit():
    res = bleach(basis_state(2, 0))
    np.testing.assert_allclose(res.sigma_system.entries, np.eye(2) / 2,
                               atol=1e-10)
    assert res.joint.factor_dims == (2, 2, 2)  # ancilla dimension exactly d^2
    rec = recover(res.joint)
    assert fidelity(rec, basis_state(2, 0)) >= 1 - 1e-10


def test_bleach_output_is_input_independent():
    states = [basis_state(2, 0), plus_state(),
              StateVector([1, 1j]), random_state(2, 9)]
    sigmas = [bleach(s).sigma_system for s in states]
    for i in range(len(sigmas)):
        for j in range(i + 1, len(sigmas)):
            assert distance(sigmas[i], sigmas[j]) <= 1e-10


def test_bleach_and_recover_qutrits():
    for seed in range(5):
        psi = random_state(3, seed)
        res = bleach(psi)
        assert distance(res.sigma_system,
                        partial_trace(res.joint, keep=[0])) <= 1e-12
        np.testing.assert_allclose(res.sigma_system.entries, np.eye(3) / 3,
                                   atol=1e-10)
        assert fidelity(recover(res.joint), psi) >= 1 - 1e-10


def test_bleach_map_is_unitary_and_pure():
    res = bleach(random_state(3, 4))
    assert gate_defect(bleach_map(3)) <= 1e-10
    assert abs(global_entropy(res.joint)) <= 1e-9


def test_bleach_map_matches_structured_bleach():
    for d in (2, 3):
        dense = bleach_map(d)
        for seed in range(3):
            psi = random_state(d, seed)
            start = tensor(psi, basis_state(d, 0), basis_state(d, 0))
            np.testing.assert_allclose(dense @ start.amplitudes,
                                       bleach(psi).joint.amplitudes,
                                       rtol=0, atol=1e-12)
    with pytest.raises(BudgetError):
        bleach_map(17)


def test_bleach_map_defect_is_returned_not_raised(monkeypatch):
    # gate_defect is the map's one unitarity check, so a scenario can report it
    monkeypatch.setattr(collapse, "_bleach_apply", lambda amps, d: 0.5 * amps)
    assert gate_defect(bleach_map(2)) == pytest.approx(0.75, abs=1e-15)


def test_bleach_budget():
    with pytest.raises(BudgetError):
        bleach(random_state(26, 0))


def test_recover_rejects_unbleached_input():
    with pytest.raises(DimensionMismatchError):
        recover(random_state(8, 1, (2, 2, 2, 1)))
    with pytest.raises(ValueError):
        recover(basis_state(8, 0, factor_dims=(2, 2, 2)))


# ---------------------------------------------------------------------------
# global purity bookkeeping
# ---------------------------------------------------------------------------

def test_global_entropy_large_state_path():
    state = premeasure(plus_state(), 10).joint  # dim 2048 > dense cutoff
    assert abs(global_entropy(state)) <= 1e-9
