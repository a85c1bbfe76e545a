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

from .tolerances import DEFAULT_TOL

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
        if nrm < DEFAULT_TOL.normalizable:
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
        return float(unitarity_defects(self.entries))

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

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {m.shape}")
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        if herm_defect > DEFAULT_TOL.density:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > DEFAULT_TOL.density:
            raise ValueError(f"trace is {tr}, expected 1")
        m = ((m + m.conj().T) / 2).copy()
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < -DEFAULT_TOL.density:
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
    return schmidt_stack(psi.amplitudes.reshape(dl, dr), full)


def schmidt_stack(matrices: np.ndarray, full: bool = False):
    """:func:`schmidt` of amplitude matrices (..., dl, dr), one SVD call for all."""
    left, coeffs, right_h = np.linalg.svd(matrices, full_matrices=full)
    return coeffs, left, np.swapaxes(right_h, -1, -2)


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


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy in bits; eigenvalues <= the floor contribute 0."""
    eigs = rho.eigenvalues
    eigs = eigs[eigs > DEFAULT_TOL.entropy_floor]
    return float(-np.sum(eigs * np.log2(eigs)))


def haar_unitary(dim: int, seed: SeedLike) -> Operator:
    """Haar-distributed random unitary.

    Deterministic for a fixed integer seed; :func:`haar_from_normals` turns
    the two Gaussian draws into the unitary.
    """
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    rng = _as_rng(seed)
    return Operator(haar_from_normals(rng.standard_normal((dim, dim)),
                                      rng.standard_normal((dim, dim))))


def haar_from_normals(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Haar unitaries from the real and imaginary parts of Ginibre matrices.

    QR decomposition of each (..., d, d) complex Ginibre matrix with the R
    diagonal phases folded back into Q, which makes the distribution exactly
    Haar.  Stacked inputs give stacked unitaries.
    """
    ginibre = (real + 1j * imag) / math.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


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
        return float(distances(a.amplitudes[None], b.amplitudes[None])[0])
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


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as ``abs`` takes it of one complex number; ``np.abs`` on an array
    can differ from that in the last bit."""
    return np.hypot(z.real, z.imag)


def _norms(amps: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``amps`` (n, D), as ``np.linalg.norm`` takes it."""
    return np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag))


def normalized(amps: np.ndarray) -> np.ndarray:
    """Each item of the stack ``amps`` (n, ...) flattened and scaled to unit norm,
    as :class:`StateVector` normalizes its amplitudes.  An item too short to
    normalize comes back as the zero vector, at distance 1 from every state."""
    flat = amps.reshape(len(amps), -1)
    size = _norms(flat)[:, None]
    return np.divide(flat, size, out=np.zeros_like(flat),
                     where=size >= DEFAULT_TOL.normalizable)


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The state :func:`distance` between corresponding rows of a and b (n, D).

    min_phi ||a - e^{i phi} b||, i.e. sqrt(2 - 2|<a|b>|), evaluated at the
    minimizing phase so that nearly-identical states do not lose precision
    to the cancellation that formula suffers near |<a|b>| = 1.
    """
    overlap = np.vecdot(a, b)
    size = _modulus(overlap)
    phase = np.divide(overlap.conj(), size, out=np.ones_like(overlap),
                      where=size > 1e-300)
    return _norms(a - phase[:, None] * b)


def unitarity_defects(ops: np.ndarray) -> np.ndarray:
    """max-norm of U^dag U - I for each operator of the stack (..., d, d)."""
    # one expression, so numpy reuses the product's buffer for the difference
    return np.max(np.abs(np.swapaxes(ops.conj(), -1, -2) @ ops - np.eye(ops.shape[-1])),
                  axis=(-2, -1))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for pure states."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims differ: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def unitary_with_first_column(v: np.ndarray) -> np.ndarray:
    """Deterministic unitary whose first column equals ``v`` (unit vector).

    ``v`` may be a stack (..., d) of vectors; the result is then (..., d, d).
    """
    v = np.asarray(v, dtype=complex)
    d = v.shape[-1]
    eye = np.broadcast_to(np.eye(d, dtype=complex), v.shape[:-1] + (d, d))
    q, r = np.linalg.qr(np.concatenate([v[..., None], eye], axis=-1))
    # v = q[:, 0] * r[0, 0], so folding the pivot phase back makes column 0 = v
    pivot = r[..., 0, 0]
    q[..., 0] = q[..., 0] * (pivot / _modulus(pivot))[..., None]
    return q


def transport_unitary(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Deterministic unitary mapping the unit vector ``source`` to ``target``.

    Stacks of vectors (..., d) give stacks of unitaries (..., d, d).
    """
    qs = unitary_with_first_column(source)
    qt = unitary_with_first_column(target)
    return qt @ np.swapaxes(qs.conj(), -1, -2)
