"""Unit and property tests for the dense linear-algebra core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    identity,
    partial_trace,
    random_state,
    schmidt,
    tensor,
    transport_unitary,
)
from unicollapse.tolerances import DEFAULT_TOL

SMALL_DIMS = st.sampled_from([2, 3, 4, 6])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_state_is_normalized_on_construction():
    psi = StateVector([3.0, 4.0])
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    assert psi.amplitudes[0] == pytest.approx(0.6)


def test_state_rejects_bad_factor_dims():
    with pytest.raises(DimensionMismatchError):
        StateVector([1, 0, 0], (2, 2))


def test_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        StateVector([0.0, 0.0])


def test_state_is_immutable():
    psi = basis_state(2, 0)
    with pytest.raises(AttributeError):
        psi.factor_dims = (4,)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 5.0


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix([[0.5, 0.5], [0.0, 0.5]])


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))


def test_operator_unitary_flag():
    assert Operator(np.eye(3)).unitarity_defect() <= 1e-10
    assert Operator(np.eye(3) * 2).unitarity_defect() > 1e-10


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_basis_states():
    out = tensor(basis_state(2, 0), basis_state(2, 0))
    assert out.factor_dims == (2, 2)
    np.testing.assert_array_equal(out.amplitudes, [1, 0, 0, 0])


def test_tensor_dimension_multiplicativity():
    u = random_state(3, 11)
    v = random_state(4, 12)
    assert tensor(u, v).dim == 12
    assert tensor(u, v).factor_dims == (3, 4)


def test_tensor_hand_expanded_kronecker():
    u = StateVector(np.array([1, 1j]) / np.sqrt(2))
    v = basis_state(2, 1)
    expected = np.array([0, 1 / np.sqrt(2), 0, 1j / np.sqrt(2)])
    np.testing.assert_allclose(tensor(u, v).amplitudes, expected, atol=1e-12)


def test_tensor_associativity_exact_on_dyadic_states():
    # amplitudes with exact binary representation and exact unit norm make the
    # flattened products reproducible bit for bit
    u = StateVector([0.5, 0.5, 0.5, 0.5])
    v = StateVector([1.0, 0.0])
    w = StateVector([0.0, 0.5, 0.25 + 0.25j, 0.75 - 0.25j])
    lhs = tensor(tensor(u, v), w)
    rhs = tensor(u, tensor(v, w))
    assert lhs.factor_dims == rhs.factor_dims
    np.testing.assert_array_equal(lhs.amplitudes, rhs.amplitudes)


@given(seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_tensor_associativity_random(seed):
    u = random_state(2, seed)
    v = random_state(3, seed + 1)
    w = random_state(2, seed + 2)
    lhs = tensor(tensor(u, v), w)
    rhs = tensor(u, tensor(v, w))
    np.testing.assert_allclose(lhs.amplitudes, rhs.amplitudes, atol=1e-14)


# ---------------------------------------------------------------------------
# schmidt
# ---------------------------------------------------------------------------

def schmidt_rank(coeffs: np.ndarray) -> int:
    return int(np.sum(coeffs > DEFAULT_TOL.rank_cutoff))


def test_schmidt_bell_state(bell):
    coeffs, _, _ = schmidt(bell, (2, 2))
    np.testing.assert_allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert schmidt_rank(coeffs) == 2


def test_schmidt_product_state_has_rank_one():
    psi = tensor(basis_state(2, 0), basis_state(2, 1))
    coeffs, _, _ = schmidt(psi, (2, 2))
    np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-12)
    assert schmidt_rank(coeffs) == 1


def test_schmidt_matches_singular_values_of_reshaped_matrix():
    psi = random_state(12, 99)
    coeffs, _, _ = schmidt(psi, (3, 4))
    oracle = np.linalg.svd(psi.amplitudes.reshape(3, 4), compute_uv=False)
    np.testing.assert_allclose(coeffs, oracle, atol=1e-12)
    assert len(coeffs) == 3


def test_schmidt_rejects_bad_cut():
    with pytest.raises(DimensionMismatchError):
        schmidt(random_state(12, 1), (3, 5))


@given(seed=SEEDS, dl=SMALL_DIMS, dr=SMALL_DIMS)
@settings(max_examples=60, deadline=None)
def test_schmidt_invariants(seed, dl, dr):
    psi = random_state(dl * dr, seed)
    coeffs, left, right = schmidt(psi, (dl, dr))
    # spectrum normalized and sorted descending
    assert abs(np.sum(coeffs**2) - 1.0) < 1e-10
    assert np.all(np.diff(coeffs) <= 1e-15)
    # orthonormal bases
    m = len(coeffs)
    for basis in (left, right):
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(m))) < 1e-10
    # reconstruction, exact phases included
    rebuilt = (left * coeffs) @ right.T
    residual = np.linalg.norm(rebuilt.reshape(-1) - psi.amplitudes)
    assert residual < 1e-10


def test_schmidt_complete_bases_are_square():
    psi = random_state(12, 5)
    coeffs, left, right = schmidt(psi, (3, 4), full=True)
    assert left.shape == (3, 3) and right.shape == (4, 4)
    assert len(coeffs) == 3
    rebuilt = (left[:, :3] * coeffs) @ right[:, :3].T
    np.testing.assert_allclose(rebuilt.reshape(-1), psi.amplitudes, atol=1e-10)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_bell_is_maximally_mixed(bell):
    rho = partial_trace(bell, keep=[0])
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_product_keeps_pure_factor():
    u = random_state(3, 21)
    v = random_state(4, 22)
    rho = partial_trace(tensor(u, v), keep=[0])
    np.testing.assert_allclose(
        rho.entries, np.outer(u.amplitudes, u.amplitudes.conj()), atol=1e-12
    )


def test_partial_trace_ghz_two_qubits(ghz3):
    rho = partial_trace(ghz3, keep=[0, 1])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(rho.entries, expected, atol=1e-12)


def test_partial_trace_index_out_of_range(bell):
    with pytest.raises(DimensionMismatchError):
        partial_trace(bell, keep=[2])
    with pytest.raises(DimensionMismatchError):
        partial_trace(bell, keep=[])


@given(seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_entropy_symmetry_of_pure_bipartite_states(seed):
    psi = random_state(12, seed, factor_dims=(3, 4))
    s_left = entropy(partial_trace(psi, keep=[0]))
    s_right = entropy(partial_trace(psi, keep=[1]))
    assert abs(s_left - s_right) < 1e-9


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_maximally_mixed_qubit():
    assert entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_pure_state_is_zero():
    psi = random_state(5, 3)
    assert entropy(psi.to_density()) == pytest.approx(0.0, abs=1e-9)


def test_entropy_three_quarters_one_quarter():
    # oracle: evaluate -sum p log2 p directly
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    assert entropy(rho) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.8112781244591328, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_haar_unitary_dim_one_is_a_phase():
    u = haar_unitary(1, 7)
    assert abs(abs(u.entries[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_deterministic_for_fixed_seed():
    a = haar_unitary(5, 123)
    b = haar_unitary(5, 123)
    np.testing.assert_array_equal(a.entries, b.entries)
    c = random_state(5, 123)
    d = random_state(5, 123)
    np.testing.assert_array_equal(c.amplitudes, d.amplitudes)


def test_haar_unitary_is_unitary_across_dims():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        u = haar_unitary(dim, rng)
        assert u.unitarity_defect() <= 1e-10


def test_haar_first_entry_second_moment():
    # Haar moment: E|U_ij|^2 = 1/d.  Monte Carlo at d=8 with 10^4 samples;
    # 3 sigma of the sample mean is ~0.0033.
    rng = np.random.default_rng(777)
    samples = np.array([abs(haar_unitary(8, rng).entries[0, 0]) ** 2
                        for _ in range(10_000)])
    assert abs(samples.mean() - 1 / 8) < 0.0033


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_reflexive():
    psi = random_state(6, 8)
    assert distance(psi, psi) == pytest.approx(0.0, abs=1e-12)


def test_distance_quotients_global_phase():
    psi = basis_state(2, 0)
    rotated = StateVector(np.exp(1j * np.pi / 3) * psi.amplitudes)
    assert distance(psi, rotated) == pytest.approx(0.0, abs=1e-12)


def test_distance_orthogonal_states():
    assert distance(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(
        math.sqrt(2), abs=1e-12
    )


def test_distance_trace_distance_of_density_matrices():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.diag([0.5, 0.5]))
    assert distance(rho, sigma) == pytest.approx(0.5, abs=1e-12)


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        distance(basis_state(2, 0), basis_state(3, 0))
    with pytest.raises(TypeError):
        distance(basis_state(2, 0), identity(2))


def test_fidelity_of_identical_states():
    psi = random_state(4, 17)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# completion helpers
# ---------------------------------------------------------------------------

@given(seed=SEEDS, dim=SMALL_DIMS)
@settings(max_examples=40, deadline=None)
def test_transport_unitary_moves_source_to_target(seed, dim):
    rng = np.random.default_rng(seed)
    src = random_state(dim, rng).amplitudes
    dst = random_state(dim, rng).amplitudes
    t = transport_unitary(src, dst)
    assert np.max(np.abs(t.conj().T @ t - np.eye(dim))) < 1e-12
    np.testing.assert_allclose(t @ src, dst, atol=1e-12)

