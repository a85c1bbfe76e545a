"""Tests for the unitary measurement models."""

import itertools
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
    RationalWeights,
    _apply_gate,
    _controlled_phase,
    _transposition_residuals,
    bleach,
    bleach_map,
    born_from_envariance,
    closed_form_curve,
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
    DensityMatrix,
    DimensionMismatchError,
    Operator,
    StateVector,
    basis_state,
    distance,
    entropy,
    fidelity,
    haar_unitary,
    partial_trace,
    random_state,
    schmidt_stack,
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
    batch = rng.normal(size=(4, d ** 3)) + 1j * rng.normal(size=(4, d ** 3))
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
        # a stack is the same as its rows one at a time
        got = _apply_gate(batch, dims, structured, [1, 0])
        for row in range(len(batch)):
            np.testing.assert_array_equal(
                got[row], _apply_gate(batch[row], dims, structured, [1, 0]))


def _full_operator(dims, gate, axes) -> np.ndarray:
    """The gate on the whole space as M^T (G (x) I) M, where M is the explicit
    0/1 matrix that moves ``axes`` to the front, in their given order."""
    rest = [i for i in range(len(dims)) if i not in axes]
    moved_dims = [dims[i] for i in axes + rest]
    size = math.prod(dims)
    move = np.zeros((size, size))
    for index in itertools.product(*map(range, dims)):
        moved = [index[i] for i in axes + rest]
        move[np.ravel_multi_index(moved, moved_dims), np.ravel_multi_index(index, dims)] = 1
    if gate.ndim == 2:
        dense = gate
    elif gate.dtype.kind in "iu":  # basis state i goes to gate[i]
        dense = np.zeros((gate.size, gate.size))
        dense[gate, np.arange(gate.size)] = 1
    else:
        dense = np.diag(gate)
    return move.T @ np.kron(dense, np.eye(size // len(dense))) @ move


@pytest.mark.parametrize("dims", [(2, 3, 5), (3, 3, 3)])
@pytest.mark.parametrize("axes", [[1], [2], [0, 1], [1, 0], [0, 2], [2, 0], [1, 2]])
def test_apply_gate_matches_kron_oracle(dims, axes):
    rng = np.random.default_rng(sum(dims) * 10 + len(axes))
    size = math.prod(dims[i] for i in axes)
    gates = {
        "dense": haar_unitary(size, rng).entries,
        "permutation": rng.permutation(size),
        "diagonal": np.exp(2j * np.pi * rng.uniform(size=size)),
    }
    single = random_state(math.prod(dims), rng).amplitudes
    stack = rng.normal(size=(3, single.size)) + 1j * rng.normal(size=(3, single.size))
    for form, gate in gates.items():
        full = _full_operator(dims, gate, axes)
        for amps in (single, stack):
            got = _apply_gate(amps, dims, gate, axes)
            want = np.stack([full @ row for row in np.atleast_2d(amps)]).reshape(amps.shape)
            if form == "permutation":
                np.testing.assert_array_equal(got, want)
            else:
                bound = 4 * np.finfo(float).eps * np.max(np.abs(amps))
                np.testing.assert_allclose(got, want, rtol=0, atol=bound)


def test_gate_defect_flags_broken_structured_gates():
    assert gate_defect([0, 0, 2]) == 1.0
    assert gate_defect([2, 0, 1]) == 0.0
    assert gate_defect(np.array([1.0, 0.9, 1j])) == pytest.approx(0.19, abs=1e-15)


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
    assert len(out.transposition_residuals) == 45
    assert np.max(out.transposition_residuals) <= 1e-9
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


WITNESS_WEIGHTS = [(2, 3, 5), (3, 4), (1,) * 6, (1, 2, 1, 3)]


@pytest.mark.parametrize("weights", WITNESS_WEIGHTS)
def test_batched_transpositions_match_dense_witnesses(weights):
    out = born_from_envariance(RationalWeights(weights))
    m_total = sum(weights)
    pair = JointPairState(out.fine.reordered([1, 0, 2]),
                          (m_total, len(weights) * m_total))
    batched = _transposition_residuals(pair.joint.amplitudes.reshape(pair.dims))
    assert len(batched) == len(out.transposition_residuals) == math.comb(m_total, 2)
    for residual, (i, j) in zip(batched, combinations(range(m_total), 2)):
        swap = np.eye(m_total)
        swap[[i, j]] = swap[[j, i]]
        dense = undo_on_n(pair, Operator(swap)).residual
        assert abs(residual - dense) <= 1e-14


def _mm_transposition_residuals(psi: np.ndarray) -> np.ndarray:
    """The M x M reference kernel: for each transposition P, the restored
    P L C A^dag with A = L^dag P L against L C, after the best global phase."""
    coeffs, left, _ = schmidt_stack(psi)
    scaled = left * coeffs  # L C
    first, second = np.triu_indices(len(psi), 1)
    perms = np.tile(np.arange(len(psi)), (len(first), 1))
    perms[np.arange(len(first)), first] = second
    perms[np.arange(len(first)), second] = first
    action = left.conj().T @ left[perms]  # A, one per pair
    restored = scaled[perms] @ np.conj(np.swapaxes(action, 1, 2))
    phase = np.exp(-1j * np.angle(np.einsum("pij,ij->p", restored.conj(), scaled)))
    return np.linalg.norm(restored - phase[:, None, None] * scaled, axis=(1, 2))


def _sqrt_rho_residuals(psi: np.ndarray) -> np.ndarray:
    """||P R P - R||_F per transposition P, with R = sqrt(rho) and rho = Psi Psi^dag
    on the positive side: no Schmidt decomposition and no kernel algebra."""
    eigenvalues, vectors = np.linalg.eigh(psi @ psi.conj().T)
    root = (vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ vectors.conj().T
    out = []
    for i, j in combinations(range(len(psi)), 2):
        swap = np.eye(len(psi))
        swap[[i, j]] = swap[[j, i]]
        out.append(np.linalg.norm(swap @ root @ swap - root))
    return np.array(out)


def _compositions(total: int):
    for cuts in range(total):
        for marks in combinations(range(1, total), cuts):
            points = (0,) + marks + (total,)
            yield tuple(points[i + 1] - points[i] for i in range(len(points) - 1))


REFERENCE_WEIGHTS = [w for m in range(1, 7) for w in _compositions(m)] + WITNESS_WEIGHTS


def _perturbed_fine_psi(weights, eps: float, rotate: bool, rng) -> np.ndarray:
    """Born's fine state as an (M, K*M) amplitude matrix, environment first,
    optionally under Haar U_E (x) U_S (x) U_R, plus complex Gaussian noise of
    scale ``eps``."""
    fine = born_from_envariance(RationalWeights(weights)).fine
    k, m, _ = fine.factor_dims
    amps = fine.amplitudes.reshape(k, m, m).transpose(1, 0, 2)
    if rotate:
        u_e, u_s, u_r = (haar_unitary(d, rng).entries for d in (m, k, m))
        amps = np.einsum("ea,sb,rc,abc->esr", u_e, u_s, u_r, amps, optimize=True)
    amps = amps + eps * (rng.standard_normal(amps.shape)
                         + 1j * rng.standard_normal(amps.shape))
    return amps.reshape(m, k * m) / np.linalg.norm(amps)


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-6])
def test_transposition_residuals_match_both_references_off_zero(eps, rotate):
    # native fine states give exactly 0.0 on every path; noise makes every
    # spectrum uneven and S complex, so each term of the row formula counts
    rng = np.random.default_rng(29)
    smallest = math.inf
    for weights in REFERENCE_WEIGHTS:
        psi = _perturbed_fine_psi(weights, eps, rotate, rng)
        residuals = _transposition_residuals(psi)
        assert len(residuals) == math.comb(sum(weights), 2)
        np.testing.assert_allclose(residuals, _mm_transposition_residuals(psi),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(residuals, _sqrt_rho_residuals(psi),
                                   rtol=0, atol=1e-14)
        if len(residuals):
            smallest = min(smallest, float(residuals.min()))
    assert smallest > eps / 10


def test_transposition_residuals_need_a_unitary_left_basis():
    psi = random_state(6, 0).amplitudes.reshape(3, 2)  # L is 3 x 2
    with pytest.raises(DimensionMismatchError):
        _transposition_residuals(psi)


def test_born_residuals_are_returned_not_raised(monkeypatch):
    real = collapse.tensor

    def skewed(coarse, *rest):
        amps = coarse.amplitudes.copy()
        amps[0] *= 1.1
        return real(StateVector(amps, coarse.factor_dims), *rest)

    monkeypatch.setattr(collapse, "tensor", skewed)
    out = born_from_envariance(RationalWeights((2, 3)))
    assert out.flatness > 1e-3
    assert np.max(out.transposition_residuals) > 1e-3
    assert out.norm_drift <= 1e-12
    psi = out.fine.reordered([1, 0, 2]).amplitudes.reshape(5, 10)
    assert np.max(_transposition_residuals(psi)) > 1e-3


def test_born_transpositions_are_chunked():
    tracemalloc.start()
    try:
        out = born_from_envariance(RationalWeights((64,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.transposition_residuals) == 2016
    assert np.max(out.transposition_residuals) <= 1e-9
    # one 2016 x 64 x 64 stack, an M x M matrix per pair, would be 126 MiB;
    # the row kernel's 2016 x 64 difference array is 2 MiB
    assert peak < 64 * 2 ** 20


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


@pytest.mark.parametrize("theta", [None, 1e-9, 1e-4, 0.3, 1.2, np.pi / 2])
def test_closed_form_curve_matches_binary_entropy_formula(theta):
    # perfect records have overlap c = 0; the closed form reads no state
    c = 0.0 if theta is None else math.cos(theta)
    for n in range(1, 13):
        expected = [_binary_entropy((1 + c ** n) / 2)
                    + _binary_entropy((1 + c ** f) / 2)
                    - _binary_entropy((1 + c ** (n - f)) / 2)
                    for f in range(n + 1)]
        np.testing.assert_allclose(closed_form_curve(n, theta), expected,
                                   rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# bleach / recover
# ---------------------------------------------------------------------------

def _stack(*states: StateVector) -> np.ndarray:
    return np.stack([state.amplitudes for state in states])


def test_bleach_basis_state_qubit():
    res = bleach(_stack(basis_state(2, 0)))
    np.testing.assert_allclose(res.sigma_system[0], np.eye(2) / 2, atol=1e-10)
    assert res.joint.shape == (1, 2, 2, 2)  # ancilla dimension exactly d^2
    rec = StateVector(recover(res.joint)[0])
    assert fidelity(rec, basis_state(2, 0)) >= 1 - 1e-10


def test_bleach_output_is_input_independent():
    states = [basis_state(2, 0), plus_state(),
              StateVector([1, 1j]), random_state(2, 9)]
    sigmas = [DensityMatrix(sigma) for sigma in bleach(_stack(*states)).sigma_system]
    for i in range(len(sigmas)):
        for j in range(i + 1, len(sigmas)):
            assert distance(sigmas[i], sigmas[j]) <= 1e-10


def test_bleach_and_recover_qutrits():
    states = [random_state(3, seed) for seed in range(5)]
    res = bleach(_stack(*states))
    recovered = recover(res.joint)
    for psi, joint, sigma, rec in zip(states, res.joint, res.sigma_system, recovered):
        # the batched X X^dag against the dense partial trace of each joint
        assert distance(DensityMatrix(sigma),
                        partial_trace(StateVector(joint, (3, 3, 3)), keep=[0])) <= 1e-12
        np.testing.assert_allclose(sigma, np.eye(3) / 3, atol=1e-10)
        assert fidelity(StateVector(rec), psi) >= 1 - 1e-10


def test_bleach_and_recover_one_stack_equal_one_state_at_a_time():
    states = _stack(*(random_state(4, seed) for seed in range(6)))
    res = bleach(states)
    recovered = recover(res.joint)
    for i in range(len(states)):
        one = bleach(states[i:i + 1])
        np.testing.assert_allclose(one.joint[0], res.joint[i], rtol=0, atol=1e-15)
        np.testing.assert_allclose(one.sigma_system[0], res.sigma_system[i],
                                   rtol=0, atol=1e-15)
        assert distance(StateVector(recover(one.joint)[0]),
                        StateVector(recovered[i])) <= 1e-15


def test_bleach_map_is_unitary_and_pure():
    res = bleach(_stack(random_state(3, 4)))
    assert gate_defect(bleach_map(3)) <= 1e-10
    assert abs(global_entropy(StateVector(res.joint[0]))) <= 1e-9


def test_bleach_map_matches_structured_bleach():
    for d in (2, 3):
        dense = bleach_map(d)
        for seed in range(3):
            psi = random_state(d, seed)
            start = tensor(psi, basis_state(d, 0), basis_state(d, 0))
            np.testing.assert_allclose(dense @ start.amplitudes,
                                       bleach(_stack(psi)).joint.reshape(-1),
                                       rtol=0, atol=1e-12)
    with pytest.raises(BudgetError):
        bleach_map(17)


def test_bleach_map_defect_is_returned_not_raised(monkeypatch):
    # gate_defect is the map's one unitarity check, so a scenario can report it
    monkeypatch.setattr(collapse, "_bleach_apply", lambda amps, d: 0.5 * amps)
    assert gate_defect(bleach_map(2)) == pytest.approx(0.75, abs=1e-15)


def test_bleach_budget():
    with pytest.raises(BudgetError):
        bleach(_stack(random_state(26, 0)))


def test_recover_rejects_unbleached_input():
    with pytest.raises(DimensionMismatchError):
        recover(random_state(8, 1).amplitudes.reshape(1, 2, 2, 2, 1))
    with pytest.raises(DimensionMismatchError):
        recover(random_state(12, 1).amplitudes.reshape(1, 2, 2, 3))


# ---------------------------------------------------------------------------
# global purity bookkeeping
# ---------------------------------------------------------------------------

def test_global_entropy_large_state_path():
    state = premeasure(plus_state(), 10).joint  # dim 2048 > dense cutoff
    assert abs(global_entropy(state)) <= 1e-9
