"""Unitary measurement models: broadcast, fine-graining, redundancy, bleaching.

Everything here is a pure unitary map on an explicit joint state vector; no
step ever leaves the pure-state representation, and each gate is checked
against the unitarity tolerance (the dense ``bleach_map`` by its caller).
``premeasure`` and ``born_from_envariance`` also return the norm drift of
their output, measured before ``StateVector`` renormalizes it.

* ``premeasure`` broadcasts a system basis onto environment registers with a
  generalized controlled shift (or a controlled rotation when imperfect
  records with a declared overlap are wanted), producing branching states
  whose pointer basis states are fixed points, and keeps the gate and records.
* ``born_from_envariance`` realizes probability extraction for rational
  squared amplitudes: the environment register is fine-grained against an
  equal-size record register so that every fine branch carries amplitude
  1/sqrt(M), at which point every branch transposition is envariant and the
  outcome weights are exact branch counts.  All C(M, 2) transpositions are
  checked in one batch in M x M Schmidt coordinates, with no dense witness,
  and every claim comes back as a residual.
* ``darwinism_curve`` / ``redundancy`` quantify how many environment
  fragments independently carry the system's classical information.  Every
  I(S:F) comes from d_s x d_s branch Gram matrices (``fragment_information``),
  cross-checked in the darwinism scenario against a dense partial trace.
* ``bleach`` / ``recover`` implement information hiding into a d^2 ancilla:
  the system marginal becomes input-independent while the input stays
  recoverable by operations on the ancilla alone plus one fixed swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .envariance import JointPairState
from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    Operator,
    StateVector,
    basis_state,
    entropy,
    partial_trace,
    tensor,
)
from .tolerances import DEFAULT_TOL, DIM_BUDGET


class BudgetError(ValueError):
    """The requested joint space exceeds the dense-vector dimension budget."""


# ---------------------------------------------------------------------------
# Gate plumbing: a permutation gate is an int array, the image of each basis
# index; a diagonal gate is its 1-D diagonal; any other gate is a dense matrix
# ---------------------------------------------------------------------------

def _apply_gate(amps: np.ndarray, dims: Sequence[int], gate: np.ndarray,
                axes: Sequence[int]) -> np.ndarray:
    """Apply a gate to the given axes of a flattened state.

    ``amps`` may also be a matrix holding one flattened state per column.
    """
    n = len(dims)
    order = list(axes) + [i for i in range(n) if i not in axes]
    order += range(n, amps.ndim + n - 1)  # the column axis, if any
    moved = np.transpose(amps.reshape(*dims, *amps.shape[1:]), order)
    shape = moved.shape
    moved = moved.reshape(math.prod(dims[i] for i in axes), -1)
    if gate.ndim == 2:
        moved = gate @ moved
    elif gate.dtype.kind in "iu":  # row i moves to row gate[i]
        moved = moved[np.argsort(gate)]
    else:
        moved = gate[:, None] * moved
    return np.transpose(moved.reshape(shape), np.argsort(order)).reshape(amps.shape)


def gate_defect(gate) -> float:
    """max-norm of U^dag U - I for a gate in any of the three forms.

    A permutation gives exactly 0.0 when its index array is a bijection and
    1.0 when it is not, as its dense 0/1 matrix would.
    """
    gate = np.asarray(gate)
    if gate.ndim == 2:
        return Operator(gate).unitarity_defect()
    if gate.dtype.kind in "iu":
        return 0.0 if np.array_equal(np.sort(gate), np.arange(gate.size)) else 1.0
    return float(np.max(np.abs(np.abs(gate) ** 2 - 1.0)))


def _require_unitary(gate: np.ndarray, what: str) -> np.ndarray:
    defect = gate_defect(gate)
    if defect > DEFAULT_TOL.unitary:
        raise ValueError(f"{what} failed the unitarity check (defect {defect:.3e})")
    return gate


def controlled_shift_gate(dim: int) -> np.ndarray:
    """|k, j> -> |k, j+k mod dim>; the perfect-record broadcast gate."""
    k, j = np.divmod(np.arange(dim * dim), dim)
    return _require_unitary(k * dim + (j + k) % dim, "controlled shift")


def controlled_rotation_gate(angle: float) -> np.ndarray:
    """Qubit gate writing records |0> and cos(angle)|0> + sin(angle)|1>.

    At angle pi/2 this is the perfect-record controlled flip; smaller angles
    leave the two records with overlap cos(angle).
    """
    rotation = np.array([[math.cos(angle), -math.sin(angle)],
                         [math.sin(angle), math.cos(angle)]], dtype=complex)
    gate = np.zeros((4, 4), dtype=complex)
    gate[:2, :2] = np.eye(2)
    gate[2:, 2:] = rotation
    return _require_unitary(gate, "controlled rotation")


def fourier_matrix(dim: int) -> np.ndarray:
    j = np.arange(dim)
    omega = np.exp(2j * np.pi / dim)
    return _require_unitary(omega ** np.outer(j, j) / math.sqrt(dim),
                            "Fourier matrix")


# ---------------------------------------------------------------------------
# Premeasurement broadcast
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchingState:
    """System-plus-environment state after a broadcast premeasurement.

    ``branch_labels`` pairs each populated system basis index with its
    amplitude; ``records[j - 1, k]`` is the state branch k wrote on register
    j, read off ``gate``, the broadcast gate that was applied.
    """

    joint: StateVector
    branch_labels: tuple[tuple[int, complex], ...]
    records: np.ndarray
    gate: np.ndarray
    n_env: int
    norm_drift: float  # |norm - 1| of the broadcast output, before renormalizing


def premeasure(system: StateVector, n_env: int,
               record_angle: Optional[float] = None) -> BranchingState:
    """Broadcast the system basis onto ``n_env`` fresh environment registers.

    The perfect-record map sends |k>|0...0> to |k>|k...k> via one controlled
    shift per register.  Passing ``record_angle`` (qubit systems only) writes
    partially distinguishable records with pairwise overlap cos(angle)
    instead.  Pointer basis inputs are fixed points up to the records they
    imprint, and the reduced system state loses exactly its off-diagonal
    terms in the pointer basis.
    """
    d_s = system.dim
    if d_s < 2:
        raise DimensionMismatchError("system dimension must be at least 2")
    if n_env < 1:
        raise DimensionMismatchError("need at least one environment register")
    if d_s ** (n_env + 1) > DIM_BUDGET:
        raise BudgetError(
            f"joint dimension {d_s}^{n_env + 1} exceeds the budget {DIM_BUDGET}"
        )
    if record_angle is None:
        gate = controlled_shift_gate(d_s)
    else:
        if d_s != 2:
            raise DimensionMismatchError(
                "imperfect records are implemented for qubit systems only"
            )
        gate = controlled_rotation_gate(record_angle)
    joint = tensor(system, *(basis_state(d_s, 0) for _ in range(n_env)))
    amps = joint.amplitudes
    for register in range(1, n_env + 1):
        amps = _apply_gate(amps, joint.factor_dims, gate, [0, register])
    drift = abs(float(np.linalg.norm(amps)) - 1.0)
    # column k is gate |k, 0>; its register part is the record of branch k
    written = _apply_gate(np.eye(d_s * d_s, dtype=complex)[:, ::d_s],
                          (d_s, d_s), gate, [0, 1]).reshape(d_s, d_s, d_s)
    labels = tuple(
        (k, complex(a)) for k, a in enumerate(system.amplitudes)
        if abs(a) > 1e-14
    )
    return BranchingState(
        joint=StateVector(amps, joint.factor_dims),
        branch_labels=labels,
        records=np.broadcast_to(np.einsum("kjk->kj", written), (n_env, d_s, d_s)),
        gate=gate,
        n_env=n_env,
        norm_drift=drift,
    )


# ---------------------------------------------------------------------------
# Born weights by fine-graining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalWeights:
    """Positive integer branch multiplicities; their sum is the denominator."""

    m: tuple[int, ...]

    def __post_init__(self):
        values = tuple(int(v) for v in self.m)
        if not values or any(v < 1 for v in values):
            raise ValueError(f"weights must be positive integers, got {self.m}")
        object.__setattr__(self, "m", values)

    @property
    def total(self) -> int:
        return sum(self.m)

    def blocks(self) -> list[range]:
        """Consecutive index blocks of sizes m_k partitioning range(total)."""
        out, start = [], 0
        for size in self.m:
            out.append(range(start, start + size))
            start += size
        return out


@dataclass(frozen=True)
class BornOutcome:
    """Result of the fine-graining construction, with the residual of each claim.

    ``coarse`` is the pre-fine-graining state on system (x) environment;
    ``fine`` adds the record register, carrying all ``total`` branches at
    amplitude 1/sqrt(M).  ``probabilities`` are exact rationals m_k / M and
    ``fine_grain_unitary`` is the permutation gate that copies the fine index.
    The residuals: ``flatness`` of the fine amplitudes against 1/sqrt(M) (and
    0 off the M branches), ``spectrum_gap`` between the probabilities and the
    squared Schmidt coefficients of ``coarse``, the worst undo of a branch
    transposition, and ``norm_drift`` of the fine state before renormalizing.
    """

    weights: RationalWeights
    probabilities: tuple[Fraction, ...]
    coarse: StateVector
    fine: StateVector
    fine_grain_unitary: np.ndarray
    transpositions_checked: int
    transposition_residual_max: float
    flatness: float
    spectrum_gap: float
    norm_drift: float


def _transposition_residuals(pair: JointPairState) -> np.ndarray:
    """Residual of undoing on the other side each transposition (i, j) of the
    positive basis, i < j in ``combinations`` order.

    With Psi = L C R^T and A = L^dag P L, the undo u_n = I + R (conj(A) - I) R^dag
    that :func:`undo_on_n` builds for a flat spectrum takes Psi to
    P Psi u_n^T = P L C A^dag R^T.  R has orthonormal columns, so the
    phase-aligned ``distance`` to Psi is that of P L C A^dag to L C: an M x M
    problem, with u_n and the other side's dimension never formed.  P gathers
    rows of L, so a spectrum that is not flat leaves a residual.  On born's
    fine states the residual of (i j) is sqrt(2) | |a_i| - |a_j| |, a pairwise
    spread of the magnitudes.  The pairs go in batches of at most 2^18
    restored entries.
    """
    coeffs, left, _ = pair.schmidt_sides()
    scaled = left * coeffs  # L C
    first, second = np.triu_indices(pair.pos_dim, 1)
    perms = np.tile(np.arange(pair.pos_dim), (len(first), 1))
    perms[np.arange(len(first)), first] = second
    perms[np.arange(len(first)), second] = first
    batches = -(-perms.size * left.shape[1] // 2 ** 18) or 1  # ceil, at least 1
    out = []
    for chunk in np.array_split(perms, batches):
        action = left.conj().T @ left[chunk]  # A, one per pair
        restored = scaled[chunk] @ np.conj(np.swapaxes(action, 1, 2))
        phase = np.exp(-1j * np.angle(np.einsum("pij,ij->p", restored.conj(), scaled)))
        out.append(np.linalg.norm(restored - phase[:, None, None] * scaled, axis=(1, 2)))
    return np.concatenate(out)


def born_from_envariance(weights: RationalWeights) -> BornOutcome:
    """Extract outcome probabilities for rational weights by fine-graining.

    Builds |Psi> = sum_k sqrt(m_k/M) |s_k>|e_k>, where |e_k> is the equal
    superposition over block k of an M-dimensional environment register, then
    copies the fine index onto an M-dimensional record register:
    |e_k>|0> maps to the equal superposition over the m_k doubled states of
    block k.  All M fine-grained amplitudes come out at 1/sqrt(M), and every
    transposition of fine branches is envariant: it is undone on the
    complementary side.  All C(M, 2) transpositions are checked in one batch
    in the M x M Schmidt coordinates of the fine state
    (:func:`_transposition_residuals`); no dense witness is built.  The
    returned probabilities are the exact branch counts.  Every claim comes
    back as a residual on the outcome; only the budget and the weights raise.
    """
    k_outcomes = len(weights.m)
    m_total = weights.total
    if k_outcomes * m_total * m_total > DIM_BUDGET:
        raise BudgetError(
            f"fine-grained dimension {k_outcomes}*{m_total}^2 exceeds {DIM_BUDGET}"
        )
    blocks = weights.blocks()

    coarse = np.zeros((k_outcomes, m_total), dtype=complex)
    for k, block in enumerate(blocks):
        coarse[k, list(block)] = 1.0 / math.sqrt(m_total)
    coarse_state = StateVector(coarse.reshape(-1), (k_outcomes, m_total))

    fine_grain = controlled_shift_gate(m_total)
    start = tensor(coarse_state, basis_state(m_total, 0))
    fine_amps = _apply_gate(start.amplitudes, start.factor_dims, fine_grain,
                            [1, 2])
    drift = abs(float(np.linalg.norm(fine_amps)) - 1.0)
    fine_state = StateVector(fine_amps, (k_outcomes, m_total, m_total))

    # the M largest magnitudes against 1/sqrt(M), every other one against 0
    target = np.zeros(fine_state.dim)
    target[:m_total] = 1.0 / math.sqrt(m_total)
    flatness = np.max(np.abs(np.sort(np.abs(fine_state.amplitudes))[::-1] - target))

    env_first = fine_state.reordered([1, 0, 2])
    pair = JointPairState(env_first, (m_total, k_outcomes * m_total))
    residuals = _transposition_residuals(pair)

    probabilities = tuple(Fraction(mk, m_total) for mk in weights.m)
    squared = np.sort(np.linalg.svd(coarse_state.amplitudes.reshape(coarse.shape),
                                    compute_uv=False) ** 2)[::-1]
    expected = np.sort([float(p) for p in probabilities])[::-1]

    return BornOutcome(
        weights=weights,
        probabilities=probabilities,
        coarse=coarse_state,
        fine=fine_state,
        fine_grain_unitary=fine_grain,
        transpositions_checked=len(residuals),
        transposition_residual_max=float(np.max(residuals, initial=0.0)),
        flatness=float(flatness),
        spectrum_gap=float(np.max(np.abs(squared - expected))),
        norm_drift=drift,
    )


# ---------------------------------------------------------------------------
# Mutual-information curves and redundancy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    fragment_size: int
    mean_information: float
    samples: int
    first_fragment: tuple[int, ...] = ()  # the first fragment evaluated
    first_information: float = 0.0       # and its I(S:F)


@dataclass(frozen=True)
class MutualInformationCurve:
    """Mean I(S:F) against fragment size, for one branching state."""

    points: tuple[CurvePoint, ...]
    system_entropy: float
    n_env: int

    def __post_init__(self):
        cap = 2.0 * self.system_entropy + 1e-9
        for point in self.points:
            if not (-1e-9 <= point.mean_information <= cap):
                raise ValueError(
                    f"I(S:F) = {point.mean_information} outside [0, 2 H_S] "
                    f"at fragment size {point.fragment_size}"
                )

    def mean_at(self, fragment_size: int) -> float:
        for point in self.points:
            if point.fragment_size == fragment_size:
                return point.mean_information
        raise KeyError(f"no point at fragment size {fragment_size}")

    def to_csv(self) -> str:
        lines = ["f,mean_I_bits,samples,H_S"]
        for point in self.points:
            lines.append(f"{point.fragment_size},{point.mean_information!r},"
                         f"{point.samples},{self.system_entropy!r}")
        return "\n".join(lines) + "\n"


DEFAULT_FRAGMENT_SAMPLES = 2000


def _marginal_entropy(joint: StateVector, keep: list[int]) -> float:
    """Entropy of a marginal of a pure joint state.

    Both sides of a pure-state cut share a spectrum, so the reduced density
    matrix is always built on the smaller side of the bipartition.  Keeping
    every factor gives 0 without a density matrix: the state is pure, and
    the scenarios check that through its norm drift.
    """
    dims = joint.factor_dims
    d_keep = math.prod(dims[i] for i in keep)
    if d_keep * d_keep <= joint.dim:
        return entropy(partial_trace(joint, keep=keep))
    complement = [i for i in range(len(dims)) if i not in keep]
    if not complement:
        return 0.0
    return entropy(partial_trace(joint, keep=complement))


def fragment_information(state: BranchingState,
                         fragments: np.ndarray) -> tuple[float, np.ndarray]:
    """H_S, and I(S:F) in bits for each row of ``fragments`` (registers 1..N).

    Every entropy is that of a branch Gram matrix, found by one batched
    eigensolve floored as in ``entropy``: H_F of G_F[k, l] = sqrt(p_k p_l)
    prod_{j in F} <r_k^j|r_l^j>, H_SF of the complement's (the global state
    is pure), and H_S of rho_S[k, l] = a_k conj(a_l) prod_j <r_l^j|r_k^j>.
    """
    index, amps = (np.array(v) for v in zip(*state.branch_labels))
    records = state.records[:, index]
    overlaps = np.einsum("jka,jla->jkl", records.conj(), records)
    fragments = np.asarray(fragments) - 1
    outside = np.ones((len(fragments), state.n_env), dtype=bool)
    np.put_along_axis(outside, fragments, False, axis=1)
    rest = np.nonzero(outside)[1].reshape(len(fragments), -1)
    weights = np.outer(np.abs(amps), np.abs(amps))
    eigs = np.linalg.eigvalsh(np.concatenate([
        weights * np.prod(overlaps[fragments], axis=1),
        weights * np.prod(overlaps[rest], axis=1),
        [np.outer(amps, amps.conj()) * np.prod(overlaps, axis=0).T],
    ]))
    eigs = np.where(eigs > DEFAULT_TOL.entropy_floor, eigs, 1.0)  # 1 log 1 = 0
    h_frag, h_joint, (h_system,) = np.split(-np.sum(eigs * np.log2(eigs), axis=-1),
                                            [len(fragments), 2 * len(fragments)])
    return float(h_system), h_system + h_frag - h_joint


def darwinism_curve(state: BranchingState,
                    samples_per_size: int = DEFAULT_FRAGMENT_SAMPLES,
                    seed: int = 0) -> MutualInformationCurve:
    """Mean mutual information I(S:F) for every fragment size f = 0..N.

    Fragments of a given size are enumerated exhaustively when there are at
    most ``samples_per_size`` of them; otherwise that many are sampled
    uniformly without replacement, with a per-size seed derived from
    (seed, f) so results are independent of evaluation order.
    """
    n = state.n_env
    env_total = math.prod(state.joint.factor_dims[1:])
    if env_total > 2 ** 12:
        raise BudgetError(
            f"environment dimension {env_total} exceeds the 2^12 budget"
        )
    if samples_per_size < 1:
        raise ValueError("samples_per_size must be positive")
    points = [CurvePoint(0, 0.0, 1)]
    for size in range(1, n + 1):
        everything = list(combinations(range(1, n + 1), size))
        if len(everything) <= samples_per_size:
            fragments = everything
        else:
            rng = np.random.default_rng((seed, size))
            chosen = rng.choice(len(everything), size=samples_per_size,
                                replace=False)
            fragments = [everything[i] for i in sorted(chosen)]
        h_system, info = fragment_information(state, np.array(fragments))
        points.append(CurvePoint(size, float(np.mean(info)), len(fragments),
                                 fragments[0], float(info[0])))
    return MutualInformationCurve(tuple(points), h_system, n)


def redundancy(curve: MutualInformationCurve, delta: float) -> float:
    """R_delta = N / f_delta, the number of independently informative fragments.

    f_delta is the smallest fragment size whose mean information reaches
    (1 - delta) of the system entropy.  Returns 0 when the system carries no
    information at all or when no fragment size qualifies.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if curve.system_entropy <= 1e-12:
        return 0.0
    threshold = (1.0 - delta) * curve.system_entropy
    for point in curve.points:
        if point.fragment_size >= 1 and point.mean_information >= threshold:
            return curve.n_env / point.fragment_size
    return 0.0


# ---------------------------------------------------------------------------
# Information hiding (bleach) and ancilla-local recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BleachResult:
    """Bleached joint state on system (x) d^2 ancilla, plus the fixed marginal."""

    joint: StateVector
    sigma_system: DensityMatrix


DENSE_MAP_LIMIT = 4096


def _controlled_phase(d: int) -> np.ndarray:
    """Diagonal gate omega^{s b} over the index pair (s, b)."""
    omega = np.exp(2j * np.pi / d)
    exponents = np.multiply.outer(np.arange(d), np.arange(d)).reshape(-1)
    return _require_unitary(omega ** exponents, "controlled phase")


def _bleach_apply(amps: np.ndarray, d: int) -> np.ndarray:
    """The bleaching map on flattened (d, d, d) states, one per column."""
    dims = (d, d, d)
    fourier = fourier_matrix(d)
    amps = _apply_gate(amps, dims, fourier, [1])
    amps = _apply_gate(amps, dims, fourier, [2])
    # the broadcast gate shifts its second index by its first; on axes [1, 0]
    # the first ancilla register controls a shift of the system
    amps = _apply_gate(amps, dims, controlled_shift_gate(d), [1, 0])
    return _apply_gate(amps, dims, _controlled_phase(d), [0, 2])


def bleach(psi: StateVector) -> BleachResult:
    """Hide ``psi`` in a d^2-dimensional ancilla, leaving the system blank.

    The ancilla (two fresh d-dimensional registers) is Fourier-spread and
    coherently applies every shift-and-phase displacement to the system.
    Averaging over the full displacement family makes the reduced system state
    exactly I/d for every input; the input itself is carried entirely by the
    correlations with the ancilla, from which :func:`recover` extracts it.
    """
    d = psi.dim
    if d < 2:
        raise DimensionMismatchError("bleaching needs dimension at least 2")
    if d ** 3 > DIM_BUDGET:
        raise BudgetError(f"joint dimension {d}^3 exceeds the budget {DIM_BUDGET}")
    amps = tensor(psi, basis_state(d, 0), basis_state(d, 0)).amplitudes
    joint = StateVector(_bleach_apply(amps, d), (d, d, d))
    return BleachResult(joint=joint, sigma_system=partial_trace(joint, keep=[0]))


def bleach_map(d: int) -> np.ndarray:
    """The input-independent bleaching map as a dense matrix, for ``gate_defect``."""
    if d ** 3 > DENSE_MAP_LIMIT:
        raise BudgetError(f"dense map dimension {d}^3 exceeds {DENSE_MAP_LIMIT}")
    return _bleach_apply(np.eye(d ** 3, dtype=complex), d)


def recover(joint: StateVector) -> StateVector:
    """Undo a bleach by acting on the ancilla alone, then one fixed swap.

    The ancilla-local step inverts the Fourier spread on the second register
    and applies a subtract-and-relabel permutation, after which the hidden
    state sits in the first ancilla register; the fixed swap returns it to
    the system slot, whose marginal is then read out as the top eigenvector.
    """
    dims = joint.factor_dims
    if len(dims) != 3 or len(set(dims)) != 1:
        raise DimensionMismatchError(
            f"expected a (d, d, d) bleached joint, got factors {dims}"
        )
    d = dims[0]
    amps = _apply_gate(joint.amplitudes, dims, fourier_matrix(d).conj().T, [2])
    u, v = np.divmod(np.arange(d * d), d)
    relabel = _require_unitary((v - u) % d * d + v, "ancilla relabeling")
    amps = _apply_gate(amps, dims, relabel, [1, 2])
    swapped = StateVector(amps, dims).reordered([1, 0, 2])
    reduced = partial_trace(swapped, keep=[0])
    eigenvalues, eigenvectors = np.linalg.eigh(reduced.entries)
    if eigenvalues[-1] < 1.0 - 1e-6:
        raise ValueError(
            f"system marginal is not pure after recovery "
            f"(top eigenvalue {eigenvalues[-1]:.6f}); was this state bleached?"
        )
    return StateVector(eigenvectors[:, -1])


# ---------------------------------------------------------------------------
# Global-purity bookkeeping
# ---------------------------------------------------------------------------

def global_entropy(state: StateVector) -> float:
    """Entropy of the full joint state; 0 certifies pure unitary evolution."""
    if state.dim <= 1024:
        return entropy(state.to_density())
    purity = float(np.linalg.norm(state.amplitudes) ** 2)
    return float(-purity * math.log2(purity)) if purity < 1.0 else 0.0
