"""Tests for envariant synthesis, undoing, and the pair-equivalence witnesses."""

import numpy as np
import pytest

from unicollapse import envariance
from unicollapse.envariance import (
    JointPairState,
    NotEnvariantError,
    PairLink,
    RankMismatchError,
    WitnessSet,
    composability_monoid,
    link_product_pairs,
    pair_equivalent,
    representative_switch,
    sample_chain,
    sample_envariant_unitary,
    symmetry_witness,
    synthesize_envariant,
    transitivity_witness,
    trivial_state,
    undo_on_n,
)
from unicollapse.grothendieck import (
    MonoidPair,
    element,
    group_add,
    group_neg,
    group_zero,
    pair_equivalent as monoid_pair_equivalent,
)
from unicollapse.linalg import (
    DimensionMismatchError,
    Operator,
    StateVector,
    basis_state,
    distance,
    haar_unitary,
    identity,
    normalized,
    random_state,
    schmidt,
    tensor,
)

SWAP2 = Operator(np.array([[0, 1], [1, 0]], dtype=complex))


def apply_two_sided(state: StateVector, d_p: int, d_n: int,
                    u_p: Operator, u_n: Operator) -> StateVector:
    """(u_p (x) u_n)|state> without materializing the Kronecker product."""
    moved = u_p.entries @ state.amplitudes.reshape(d_p, d_n) @ u_n.entries.T
    return StateVector(moved.reshape(-1), state.factor_dims)


def bell_pair() -> JointPairState:
    return JointPairState(
        StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)), (2, 2)
    )


def skew_pair() -> JointPairState:
    amps = np.zeros(4)
    amps[0], amps[3] = np.sqrt(0.9), np.sqrt(0.1)
    return JointPairState(StateVector(amps, (2, 2)), (2, 2))


def random_pair(d_p: int, d_n: int, seed: int) -> JointPairState:
    return JointPairState(random_state(d_p * d_n, seed, (d_p, d_n)), (d_p, d_n))


def rotated_copy(x: JointPairState, seed: int) -> JointPairState:
    u = haar_unitary(x.pos_dim, seed)
    v = haar_unitary(x.neg_dim, seed + 1)
    moved = apply_two_sided(x.joint, x.pos_dim, x.neg_dim, u, v)
    return JointPairState(moved, x.dims)


# ---------------------------------------------------------------------------
# JointPairState
# ---------------------------------------------------------------------------

def test_joint_pair_state_validates_dims():
    with pytest.raises(DimensionMismatchError):
        JointPairState(random_state(6, 0), (2, 2))
    with pytest.raises(DimensionMismatchError):  # no spectator slot
        JointPairState(random_state(12, 0), (2, 2, 3))


# ---------------------------------------------------------------------------
# synthesize_envariant
# ---------------------------------------------------------------------------

def test_synthesize_bell_phase_pair():
    x = bell_pair()
    theta = 0.9
    u_p, u_n = synthesize_envariant(x, (0.0, theta))
    _, left, _ = schmidt(x.joint, (2, 2))
    a0, a1 = left.T
    np.testing.assert_allclose(u_p.entries @ a0, a0, atol=1e-12)
    np.testing.assert_allclose(u_p.entries @ a1, np.exp(1j * theta) * a1, atol=1e-12)
    restored = apply_two_sided(x.joint, 2, 2, u_p, u_n)
    assert distance(restored, x.joint) < 1e-12


def test_synthesize_zero_phases_is_identity():
    x = random_pair(3, 4, 9)
    u_p, u_n = synthesize_envariant(x, (0.0,) * 3)
    np.testing.assert_allclose(u_p.entries, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(u_n.entries, np.eye(4), atol=1e-12)


def test_synthesize_rank_mismatch():
    with pytest.raises(RankMismatchError):
        synthesize_envariant(bell_pair(), (0.1,))


def test_restoration_property_random_states():
    rng = np.random.default_rng(2)
    dims = [2, 3, 4, 6]
    for trial in range(60):
        d_p, d_n = rng.choice(dims), rng.choice(dims)
        x = random_pair(int(d_p), int(d_n), int(rng.integers(1 << 31)))
        rank = int(np.sum(x.spectrum() > 1e-12))
        u_p, u_n = synthesize_envariant(x, rng.uniform(0.0, 2 * np.pi, size=rank))
        restored = apply_two_sided(x.joint, x.pos_dim, x.neg_dim, u_p, u_n)
        assert distance(restored, x.joint) <= 1e-9


# ---------------------------------------------------------------------------
# undo_on_n
# ---------------------------------------------------------------------------

def test_undo_identity():
    w = undo_on_n(random_pair(3, 3, 21), identity(3))
    np.testing.assert_allclose(w.u_n.entries, np.eye(3), atol=1e-12)
    assert w.residual < 1e-12


def test_undo_swap_on_bell_is_counter_swap():
    w = undo_on_n(bell_pair(), SWAP2)
    assert w.residual < 1e-12
    np.testing.assert_allclose(np.abs(w.u_n.entries), SWAP2.entries.real, atol=1e-10)


def test_undo_swap_with_distinct_coefficients_fails():
    with pytest.raises(NotEnvariantError) as err:
        undo_on_n(skew_pair(), SWAP2)
    lo, hi = sorted(err.value.mixed_coefficients)
    assert lo == pytest.approx(np.sqrt(0.1), abs=1e-12)
    assert hi == pytest.approx(np.sqrt(0.9), abs=1e-12)
    assert err.value.leakage > 0.5


def test_degenerate_block_admits_any_block_unitary():
    # maximally entangled state: a single degenerate block, so every sampled
    # unitary on the block admits an undoing
    dim = 4
    amps = np.eye(dim).reshape(-1) / np.sqrt(dim)
    x = JointPairState(StateVector(amps, (dim, dim)), (dim, dim))
    for seed in range(20):
        u_p = haar_unitary(dim, seed)
        w = undo_on_n(x, u_p)
        assert w.residual <= 1e-9
        # the undoing is the transported complex conjugate
        np.testing.assert_allclose(
            w.u_n.entries, u_p.entries.conj(), atol=1e-9
        )


def test_sampled_envariant_unitaries_always_undo():
    rng = np.random.default_rng(33)
    for seed in range(25):
        x = random_pair(4, 3, seed + 100)
        u_p = sample_envariant_unitary(x, rng)
        assert undo_on_n(x, u_p).residual <= 1e-9


# ---------------------------------------------------------------------------
# pair_equivalent
# ---------------------------------------------------------------------------

def test_pair_equivalent_reflexive():
    x = random_pair(3, 4, 77)
    verdict = pair_equivalent(x, x, trials=4, seed=0)
    assert verdict.related
    assert all(w.residual < 1e-10 for w in verdict.witnesses)


def test_pair_equivalent_locally_rotated_bell():
    x = bell_pair()
    hadamard = Operator(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    rotated = apply_two_sided(x.joint, 2, 2, identity(2), hadamard)
    y = JointPairState(rotated, (2, 2))
    verdict = pair_equivalent(x, y, trials=4, seed=1)
    assert verdict.related
    assert max(w.residual for w in verdict.witnesses) <= 1e-9


def test_pair_equivalent_rejects_a_leaking_trial(monkeypatch):
    # a rotation that mixes Schmidt blocks has no undo: the trial is a
    # rejected witness, not a raise
    real = envariance.sample_envariant_unitary

    def skewed(psi, rng):
        rotation = real(psi, rng).entries.copy()
        rotation[0, 0] *= 1.001
        return Operator(rotation)

    monkeypatch.setattr(envariance, "sample_envariant_unitary", skewed)
    verdict = pair_equivalent(random_pair(3, 3, 5), random_pair(3, 3, 5), trials=2)
    assert not verdict.related
    assert verdict.witnesses[0].residual <= 1e-9  # the transport witness holds
    assert min(w.residual for w in verdict.witnesses[1:]) > 1e-9


def test_pair_equivalent_bell_vs_product():
    bell = bell_pair()
    product = JointPairState(tensor(basis_state(2, 0), basis_state(2, 0)), (2, 2))
    verdict = pair_equivalent(bell, product)
    assert not verdict.related
    assert verdict.witnesses == ()


def test_pair_equivalent_requires_matching_dims():
    with pytest.raises(DimensionMismatchError):
        pair_equivalent(random_pair(2, 3, 0), random_pair(3, 2, 0))


def test_spectrum_soundness_adversarial():
    # same Schmidt bases, perturbed spectrum: never related
    rng = np.random.default_rng(6)
    for trial in range(30):
        x = random_pair(3, 4, trial + 500)
        original, left, right = schmidt(x.joint, (3, 4))
        coeffs = original.copy()
        bump = 10 ** rng.uniform(-3, -0.7)
        coeffs[0] += bump
        coeffs /= np.linalg.norm(coeffs)
        matrix = (left * coeffs) @ right.T
        y = JointPairState(StateVector(matrix.reshape(-1), (3, 4)), (3, 4))
        assert np.max(np.abs(np.sort(coeffs) - np.sort(original))) >= 1e-6
        assert not pair_equivalent(x, y).related


def test_stacked_verdict_rejects_unrelated_spectra():
    # partners built from x's Schmidt data: the largest coefficient scaled by
    # 1 + 1e-6, and the smallest dropped; both renormalized
    x = envariance._pairs(np.stack([random_pair(3, 3, seed + 700).joint.amplitudes
                                    for seed in range(20)]).reshape(20, 3, 3))
    blocks = envariance._support_blocks(x.coeffs[0])
    assert all(len(envariance._support_blocks(c)) == 3 for c in x.coeffs)
    rotations = [envariance._phase_stack(x.left, np.stack([
        np.random.default_rng((seed, trial)).uniform(0.0, 2.0 * np.pi, size=3)
        for seed in range(20)])) for trial in (0, 1)]
    undos = [envariance._undo_stack((x.left, x.right), blocks, r) for r in rotations]
    scaled, dropped = x.coeffs.copy(), x.coeffs.copy()
    scaled[:, 0] *= 1 + 1e-6
    dropped[:, -1] = 0.0
    for coeffs in (scaled, dropped):
        matrices = (x.left * coeffs[:, None, :]) @ np.swapaxes(x.right, 1, 2)
        partner = envariance._pairs(normalized(matrices).reshape(20, 3, 3))
        assert not envariance._verdict_stack(x, partner, rotations, undos).related.any()
        for amps, partner_amps in zip(x.amps, partner.amps):
            assert not pair_equivalent(
                JointPairState(StateVector(amps.reshape(-1), (3, 3)), (3, 3)),
                JointPairState(StateVector(partner_amps.reshape(-1), (3, 3)), (3, 3)),
            ).related


BELL = np.eye(2, dtype=complex)[None] / np.sqrt(2)
ZERO_ZERO_3X2 = np.zeros((1, 3, 2), dtype=complex)
ZERO_ZERO_3X2[0, 0, 0] = 1.0


@pytest.mark.parametrize("amps", [BELL, ZERO_ZERO_3X2, np.tile(BELL, (4, 1, 1))],
                         ids=["bell", "00-in-3x2", "four-bells"])
def test_singleton_phases_are_envariant_on_degenerate_states(amps):
    # the scenarios' rule -- one phase per Schmidt vector -- where its premise
    # of distinct nonzero coefficients fails: the phases span a smaller
    # subgroup, but each is still undone on the other side
    x = envariance._pairs(amps)
    k = x.coeffs.shape[1]
    blocks = [np.array([i]) for i in range(k)]
    sides = (x.left[:, :, :k], x.right[:, :, :k])
    rng = np.random.default_rng(4)
    rotations = [envariance._phase_stack(sides[0], rng.uniform(0.0, 2.0 * np.pi, (len(amps), k)))
                 for _ in range(2)]
    undos = [envariance._undo_stack(sides, blocks, r) for r in rotations]
    verdict = envariance._verdict_stack(x, x, rotations, undos)
    assert verdict.related.all()
    assert np.max(verdict.residuals) <= 1e-12
    assert all(np.all(undo.leakage == 0.0) for undo in undos)


def test_verdict_level_equivalence_laws():
    for seed in range(40):
        x = random_pair(3, 3, seed)
        y = rotated_copy(x, seed + 1000)
        z = rotated_copy(y, seed + 2000)
        assert pair_equivalent(x, x, trials=1, seed=seed).related
        xy = pair_equivalent(x, y, trials=2, seed=seed)
        yx = pair_equivalent(y, x, trials=2, seed=seed)
        yz = pair_equivalent(y, z, trials=2, seed=seed)
        xz = pair_equivalent(x, z, trials=2, seed=seed)
        assert xy.related and yx.related and yz.related and xz.related


# ---------------------------------------------------------------------------
# symmetry witnesses
# ---------------------------------------------------------------------------

def test_symmetry_identity():
    x = bell_pair()
    forward = pair_equivalent(x, x, trials=0).witnesses[0]
    w = symmetry_witness(x, x, forward, identity(2))
    assert w.residual < 1e-10
    np.testing.assert_allclose(w.u_n.entries, np.eye(2), atol=1e-10)


def test_symmetry_bell_phase_transport():
    x = bell_pair()
    forward = pair_equivalent(x, x, trials=0).witnesses[0]
    theta = 0.61
    v_p = Operator(np.diag([1.0, np.exp(1j * theta)]))
    w = symmetry_witness(x, x, forward, v_p)
    assert w.residual < 1e-10
    # the reverse negative-side unitary is the transported adjoint phase
    eigs = np.sort_complex(np.linalg.eigvals(w.u_n.entries))
    expected = np.sort_complex(np.array([1.0, np.exp(-1j * theta)]))
    np.testing.assert_allclose(eigs, expected, atol=1e-10)


def test_symmetry_inverts_stored_witness():
    x = random_pair(3, 4, 61)
    y = rotated_copy(x, 62)
    verdict = pair_equivalent(x, y, trials=3, seed=7)
    stored = verdict.witnesses[2]
    w = symmetry_witness(x, y, stored, stored.u_p.dagger)
    assert w.residual <= 1e-9
    assert np.max(np.abs((w.u_p @ stored.u_p).entries - np.eye(3))) <= 1e-10
    assert np.max(np.abs((w.u_n @ stored.u_n).entries - np.eye(4))) <= 1e-10


def test_symmetry_propagates_not_envariant():
    x = skew_pair()
    forward = pair_equivalent(x, x, trials=0).witnesses[0]
    _, left, _ = schmidt(x.joint, (2, 2))
    a0, a1 = left.T
    block_swap = Operator(np.outer(a0, a1.conj()) + np.outer(a1, a0.conj()))
    with pytest.raises(NotEnvariantError):
        symmetry_witness(x, x, forward, block_swap)


def test_symmetry_rejects_broken_forward_witness():
    x = bell_pair()
    bogus = WitnessSet(u_p=SWAP2, u_n=identity(2), residual=0.0)
    with pytest.raises(ValueError):
        symmetry_witness(x, skew_pair(), bogus, identity(2))


# ---------------------------------------------------------------------------
# transitivity over product-pair links
# ---------------------------------------------------------------------------

def test_link_certifies_product_pairs():
    link = link_product_pairs(
        (random_state(3, 1), random_state(2, 2)),
        (random_state(3, 3), random_state(2, 4)),
    )
    assert link.witness.residual < 1e-12


def test_link_undo_requires_transport():
    # the chain |0> ~ |1> ~ |0> on the positive slot: only a swap moves each
    # link's right_pos onto its left_pos
    zero, one = basis_state(2, 0), basis_state(2, 1)
    first = link_product_pairs((zero, zero), (one, one))
    second = link_product_pairs((one, one), (zero, zero))
    # identity maps |1> to |1>, orthogonal to |0>: not admissible
    with pytest.raises(NotEnvariantError):
        transitivity_witness(first, second, identity(2))
    assert transitivity_witness(first, second, SWAP2).residual <= 1e-12


def test_transitivity_all_identities():
    a = random_state(2, 5)
    b = random_state(2, 6)
    first = link_product_pairs((a, b), (a, b))
    second = link_product_pairs((a, b), (a, b))
    w = transitivity_witness(first, second, identity(2))
    assert w.residual < 1e-12
    assert w.ancilla.dim == 4
    np.testing.assert_allclose(
        w.u_ancilla.apply(w.ancilla).amplitudes, w.ancilla.amplitudes, atol=1e-12
    )


def test_transitivity_qubit_chain_with_phase_unitaries():
    rng = np.random.default_rng(8)
    a = basis_state(2, 0)
    b, d, f = (random_state(2, s) for s in (10, 11, 12))
    w_p = Operator(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))))
    phase = w_p.entries[0, 0]
    c = StateVector(a.amplitudes / phase)  # w_p c = a exactly
    e = StateVector(c.amplitudes / phase)
    first = link_product_pairs((a, b), (c, d))
    second = link_product_pairs((c, d), (e, f))
    w = transitivity_witness(first, second, w_p)
    assert w.residual <= 1e-10
    # four qubit-sized slots in play: the pair register (2) plus chi = d (x) c (2)
    assert w.ancilla.factor_dims == (2, 2)
    assert w.u_p is w_p


def test_transitivity_sampled_chains():
    for seed in range(25):
        first, second, w_p = sample_chain(3, 2, seed)
        w = transitivity_witness(first, second, w_p)
        assert w.residual <= 1e-9


def test_transitivity_requires_shared_middle():
    first, second, w_p = sample_chain(2, 2, 3)
    stranger = link_product_pairs(
        (random_state(2, 991), random_state(2, 992)),
        (random_state(2, 993), random_state(2, 994)),
    )
    with pytest.raises(DimensionMismatchError):
        transitivity_witness(first, stranger, w_p)


def test_transitivity_rejects_unaccepted_links():
    first, second, w_p = sample_chain(2, 2, 4)
    broken = PairLink(
        left_pos=first.left_pos, left_neg=first.left_neg,
        right_pos=first.right_pos, right_neg=first.right_neg,
        witness=WitnessSet(u_p=first.witness.u_p, u_n=first.witness.u_n,
                           residual=0.5),
    )
    with pytest.raises(ValueError):
        transitivity_witness(broken, second, w_p)


# ---------------------------------------------------------------------------
# composability monoid embedding
# ---------------------------------------------------------------------------

def test_composability_group_axioms():
    monoid = composability_monoid()
    rng = np.random.default_rng(17)
    for trial in range(20):
        d1, d2, d3, d4 = (int(v) for v in rng.integers(1, 5, size=4))
        x = element(monoid, random_state(d1, trial), random_state(d2, trial + 50))
        y = element(monoid, random_state(d3, trial + 100), random_state(d4, trial + 150))
        zero = group_zero(monoid)
        assert group_add(x, zero) == x
        assert group_add(x, group_neg(x)) == zero
        assert group_add(x, y) == group_add(y, x)


def test_composability_decision_is_dimension_cross_rule():
    monoid = composability_monoid()
    x = MonoidPair(random_state(4, 1), random_state(2, 2))
    y = MonoidPair(random_state(2, 3), trivial_state())
    # 4 * 1 == 2 * 2: both represent dimension ratio 2
    assert monoid_pair_equivalent(x, y, monoid)
    z = MonoidPair(random_state(3, 4), trivial_state())
    assert not monoid_pair_equivalent(x, z, monoid)


def test_representative_switch_realizes_the_equivalence():
    x = MonoidPair(random_state(4, 21), random_state(2, 22))
    y = MonoidPair(random_state(2, 23), trivial_state())
    u = representative_switch(x, y)
    moved = u.apply(tensor(x.pos, y.neg))
    assert distance(moved, tensor(y.pos, x.neg)) < 1e-12
    with pytest.raises(DimensionMismatchError):
        representative_switch(x, MonoidPair(random_state(3, 24), trivial_state()))
