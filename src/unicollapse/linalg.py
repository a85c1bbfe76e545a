"""Dense complex linear algebra over multi-factor finite-dimensional spaces.

States, operators and density matrices are thin immutable wrappers around
numpy arrays that check their defining invariants at construction time.
Index flattening is row-major over the declared factor order: the leftmost
factor is the most significant index, so ``|k, j>`` flattens to ``k * d_j + j``.

Randomness never touches global state; every sampling function takes an
explicit seed (or an already-constructed ``numpy.random.Generator``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

from .tolerances import DEFAULT_TOL, Tolerances

SeedLike = Union[int, np.random.Generator]


class DimensionMismatchError(ValueError):
    """Shapes or factor dimensions do not line up."""


def _as_rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Core value types
# ---------------------------------------------------------------------------

class StateVector:
    """A pure state over an explicit tensor factorization.

    Amplitudes are stored flattened row-major over ``factor_dims`` and are
    normalized to unit Euclidean norm on construction.  The amplitude array is
    made read-only, so instances are safe to share across threads.
    """

    __slots__ = ("amplitudes", "factor_dims")

    def __init__(self, amplitudes, factor_dims: Sequence[int] | None = None):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        if factor_dims is None:
            dims = (amps.size,)
        else:
            dims = tuple(int(d) for d in factor_dims)
        if any(d < 1 for d in dims) or math.prod(dims) != amps.size:
            raise DimensionMismatchError(
                f"factor_dims {dims} do not multiply to amplitude count {amps.size}"
            )
        nrm = float(np.linalg.norm(amps))
        if nrm < 1e-8:
            raise ValueError("cannot normalize a (near-)zero amplitude vector")
        amps /= nrm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "factor_dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def reordered(self, order: Sequence[int]) -> "StateVector":
        """Permute the tensor factors into the given order."""
        if sorted(order) != list(range(len(self.factor_dims))):
            raise DimensionMismatchError(f"invalid factor order {order}")
        tensor_view = self.amplitudes.reshape(self.factor_dims)
        new = np.transpose(tensor_view, order).reshape(-1)
        return StateVector(new, tuple(self.factor_dims[i] for i in order))

    def with_factors(self, factor_dims: Sequence[int]) -> "StateVector":
        """Reinterpret the same amplitudes under a different factorization."""
        return StateVector(self.amplitudes, factor_dims)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim}, factor_dims={self.factor_dims})"


class Operator:
    """A dense complex square matrix acting on one declared space."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def dagger(self) -> "Operator":
        return Operator(self.entries.conj().T)

    def unitarity_defect(self) -> float:
        """max-norm of U^dag U - I."""
        d = self.dim
        return float(np.max(np.abs(self.entries.conj().T @ self.entries - np.eye(d))))

    def is_unitary(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return self.unitarity_defect() <= tol.unitary

    def apply(self, state: StateVector) -> StateVector:
        if self.dim != state.dim:
            raise DimensionMismatchError(
                f"operator dim {self.dim} does not match state dim {state.dim}"
            )
        return StateVector(self.entries @ state.amplitudes, state.factor_dims)

    def __matmul__(self, other):
        if isinstance(other, Operator):
            if self.dim != other.dim:
                raise DimensionMismatchError(
                    f"operator dims differ: {self.dim} vs {other.dim}"
                )
            return Operator(self.entries @ other.entries)
        if isinstance(other, StateVector):
            return self.apply(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix."""

    __slots__ = ("entries", "eigenvalues")

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOL):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {m.shape}")
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        if herm_defect > tol.density:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol.density:
            raise ValueError(f"trace is {tr}, expected 1")
        m = ((m + m.conj().T) / 2).copy()
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < -tol.density:
            raise ValueError(f"negative eigenvalue {eigs.min():.3e}")
        m.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "eigenvalues", eigs)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def tensor(*factors):
    """Tensor product of states (or of operators), row-major flattening.

    For states the result's factor_dims is the concatenation of the inputs'
    factor_dims; amplitudes are the Kronecker product.
    """
    if not factors:
        raise ValueError("tensor() needs at least one argument")
    if all(isinstance(f, StateVector) for f in factors):
        amps = factors[0].amplitudes
        dims: tuple[int, ...] = factors[0].factor_dims
        for f in factors[1:]:
            amps = np.kron(amps, f.amplitudes)
            dims = dims + f.factor_dims
        return StateVector(amps, dims)
    if all(isinstance(f, Operator) for f in factors):
        m = factors[0].entries
        for f in factors[1:]:
            m = np.kron(m, f.entries)
        return Operator(m)
    raise TypeError("tensor() arguments must be all StateVector or all Operator")


def schmidt(psi: StateVector, cut: tuple[int, int], full: bool = False):
    """Schmidt decomposition sum_i c_i |a_i> (x) |b_i> of ``psi`` across ``cut``.

    Returns ``(coefficients, left, right)`` from the singular value
    decomposition of the amplitudes reshaped to a (dl, dr) matrix: the
    min(dl, dr) coefficients in descending order, zeros included, and the a_i
    and b_i as the columns of ``left`` and ``right``, with exact phases, so
    ``(left * coefficients) @ right.T`` is the amplitude matrix.  By default
    both bases have min(dl, dr) columns; ``full=True`` completes them to
    square dl x dl and dr x dr unitaries, whose extra columns span the
    complement of the support.  For degenerate coefficients the basis choice
    is not unique; rely only on the spectrum there.
    """
    dl, dr = int(cut[0]), int(cut[1])
    if dl * dr != psi.dim:
        raise DimensionMismatchError(
            f"cut {cut} does not multiply to state dimension {psi.dim}"
        )
    matrix = psi.amplitudes.reshape(dl, dr)
    left, coeffs, right_h = np.linalg.svd(matrix, full_matrices=full)
    return coeffs, left, right_h.T


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept factors.

    The factors are those of ``state.factor_dims``; the kept ones stay in
    their original order.
    """
    keep_list = sorted(set(int(k) for k in keep))
    dims = state.factor_dims
    n = len(dims)
    if not keep_list:
        raise DimensionMismatchError("keep set must be nonempty")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise DimensionMismatchError(
            f"keep indices {keep_list} out of range for {n} factors"
        )
    drop = [i for i in range(n) if i not in keep_list]
    tensor_view = state.amplitudes.reshape(dims)
    moved = np.transpose(tensor_view, keep_list + drop)
    d_keep = math.prod(dims[i] for i in keep_list)
    matrix = moved.reshape(d_keep, -1)
    return DensityMatrix(matrix @ matrix.conj().T)


def entropy(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> float:
    """von Neumann entropy in bits; eigenvalues <= the floor contribute 0."""
    eigs = rho.eigenvalues
    eigs = eigs[eigs > tol.entropy_floor]
    return float(-np.sum(eigs * np.log2(eigs)))


def haar_unitary(dim: int, seed: SeedLike) -> Operator:
    """Haar-distributed random unitary.

    QR decomposition of a complex Ginibre matrix with the R diagonal phases
    folded back into Q, which makes the distribution exactly Haar.
    Deterministic for a fixed integer seed.
    """
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    rng = _as_rng(seed)
    ginibre = (rng.standard_normal((dim, dim))
               + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return Operator(q)


def random_state(dim: int, seed: SeedLike,
                 factor_dims: Sequence[int] | None = None) -> StateVector:
    """Normalized state with i.i.d. complex Gaussian amplitudes (Haar on rays)."""
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    rng = _as_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amps, factor_dims)


def basis_state(dim: int, index: int,
                factor_dims: Sequence[int] | None = None) -> StateVector:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, factor_dims)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def distance(a, b) -> float:
    """Distance between two like-typed objects.

    * states: min_phi ||a - e^{i phi} b||, i.e. sqrt(2 - 2|<a|b>|), evaluated
      at the minimizing phase so that nearly-identical states do not lose
      precision to cancellation;
    * density matrices: trace distance 0.5 * ||rho - sigma||_1;
    * operators: max-norm of the entrywise difference.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        if a.dim != b.dim:
            raise DimensionMismatchError(f"state dims differ: {a.dim} vs {b.dim}")
        ov = np.vdot(a.amplitudes, b.amplitudes)
        # evaluate the minimizing phase directly: equal to sqrt(2 - 2|<a|b>|)
        # but without the cancellation that formula suffers near |<a|b>| = 1
        phase = ov.conjugate() / abs(ov) if abs(ov) > 1e-300 else 1.0
        return float(np.linalg.norm(a.amplitudes - phase * b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        if a.dim != b.dim:
            raise DimensionMismatchError(f"density dims differ: {a.dim} vs {b.dim}")
        eigs = np.linalg.eigvalsh(a.entries - b.entries)
        return float(0.5 * np.sum(np.abs(eigs)))
    if isinstance(a, Operator) and isinstance(b, Operator):
        if a.dim != b.dim:
            raise DimensionMismatchError(f"operator dims differ: {a.dim} vs {b.dim}")
        return float(np.max(np.abs(a.entries - b.entries)))
    raise TypeError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}"
    )


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for pure states."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims differ: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def unitary_with_first_column(v: np.ndarray) -> np.ndarray:
    """Deterministic unitary whose first column equals ``v`` (unit vector)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = v.size
    stacked = np.column_stack([v, np.eye(d, dtype=complex)])
    q, r = np.linalg.qr(stacked)
    # v = q[:, 0] * r[0, 0], so folding the pivot phase back makes column 0 = v
    q[:, 0] = q[:, 0] * (r[0, 0] / abs(r[0, 0]))
    return q


def transport_unitary(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Deterministic unitary mapping the unit vector ``source`` to ``target``."""
    qs = unitary_with_first_column(source)
    qt = unitary_with_first_column(target)
    return qt @ qs.conj().T


# ---------------------------------------------------------------------------
# Serialization: {"factor_dims": [...], "re": [...], "im": [...]}
# ---------------------------------------------------------------------------

def state_to_json(state: StateVector) -> dict:
    return {
        "factor_dims": list(state.factor_dims),
        "re": [float(x) for x in state.amplitudes.real],
        "im": [float(x) for x in state.amplitudes.imag],
    }


def state_from_json(payload: dict) -> StateVector:
    dims = tuple(int(d) for d in payload["factor_dims"])
    amps = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    return StateVector(amps, dims)


def operator_to_json(op: Operator, factor_dims: Sequence[int] | None = None) -> dict:
    dims = list(factor_dims) if factor_dims is not None else [op.dim]
    if math.prod(dims) != op.dim:
        raise DimensionMismatchError(
            f"factor_dims {dims} do not multiply to operator dim {op.dim}"
        )
    flat = op.entries.reshape(-1)
    return {
        "factor_dims": dims,
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def operator_from_json(payload: dict) -> Operator:
    dims = [int(d) for d in payload["factor_dims"]]
    dim = math.prod(dims)
    flat = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    if flat.size != dim * dim:
        raise DimensionMismatchError(
            f"entry count {flat.size} is not the square of dim {dim}"
        )
    return Operator(flat.reshape(dim, dim))
