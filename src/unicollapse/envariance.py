"""Envariant unitary synthesis and the swap-symmetry equivalence of pair states.

A pair state couples a "positive" factor H_p with a "negative" factor H_n plus
an optional ancilla (folded into the negative side for all spectral purposes).
A unitary acting on H_p alone is *envariant* for a joint state when its effect
can be undone by a unitary acting solely on the other side.  The construction
runs through the Schmidt decomposition: the undoing unitary is the complex
conjugate of the acting unitary's matrix, transported through the Schmidt
correspondence a_k <-> b_k, and it exists exactly when the acting unitary
preserves each degenerate coefficient block (swaps inside an equal-coefficient
block included, mixing across distinct coefficients excluded).

Equivalence of two pair states of matching factor dimensions is decided by
Schmidt-spectrum equality -- the standard criterion for relatedness under
local unitaries -- and every positive verdict is backed by constructive
witnesses: basis-transport unitaries mapping one state onto the other plus
sampled envariant rotations, each carrying the residual of its defining
equation.  ``symmetry_witness`` inverts a forward witness at a caller-chosen
unitary; ``transitivity_witness`` assembles the chained witness whose ancilla
register absorbs the middle pair of a two-link chain.

Every construction is a stacked kernel over arrays of n problems that share
their dimensions; the scenarios call the kernels on whole stacks, and each
object-level function here is a call with n = 1.

Note on slot bookkeeping: the chained identity equates two vectors whose
like-dimensioned registers appear in different positions on the two sides.
``transitivity_witness`` therefore validates the identity after the canonical
re-identification that swaps the pair register with the matching ancilla
slots; the permutation is fixed by the construction, not fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (
    DimensionMismatchError,
    Operator,
    StateVector,
    basis_state,
    distance,
    distances,
    haar_from_normals,
    identity,
    normalized,
    schmidt,
    schmidt_stack,
    tensor,
    transport_unitary,
)
from .grothendieck import CommutativeMonoid, MonoidPair
from .tolerances import DEFAULT_TOL


class NotEnvariantError(ValueError):
    """The acting unitary mixes distinct Schmidt coefficients; no undo exists.

    ``mixed_coefficients`` carries the offending coefficient pair and
    ``leakage`` the amount of amplitude crossing between their eigenspaces.
    """

    def __init__(self, message: str, mixed_coefficients: tuple[float, float],
                 leakage: float):
        super().__init__(message)
        self.mixed_coefficients = mixed_coefficients
        self.leakage = leakage


class RankMismatchError(ValueError):
    """The phases given do not match the Schmidt rank they apply to."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class JointPairState:
    """A pure state on H_p (x) H_n (x) H_ancilla, ancilla dimension 1 allowed.

    The positive/negative split is the cut all spectra refer to; the ancilla
    always counts toward the negative side.  The Schmidt data of that cut is
    computed once and cached -- instances are immutable, so every envariant
    construction on the same state shares one decomposition.
    """

    __slots__ = ("joint", "dims", "_schmidt_cache")

    def __init__(self, joint: StateVector, dims: Sequence[int]):
        d = tuple(int(x) for x in dims)
        if len(d) == 2:
            d = (d[0], d[1], 1)
        if len(d) != 3 or any(x < 1 for x in d):
            raise DimensionMismatchError(f"dims must be (d_p, d_n[, d_ancilla]), got {dims}")
        if math.prod(d) != joint.dim:
            raise DimensionMismatchError(
                f"dims {d} do not multiply to joint dimension {joint.dim}"
            )
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "dims", d)
        object.__setattr__(self, "_schmidt_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("JointPairState is immutable")

    def schmidt_sides(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached (coefficients, left basis, right basis) across the pair cut.

        Bases have min(d_p, d_n * d_ancilla) columns; the coefficient array is
        sorted descending and includes zeros.
        """
        if self._schmidt_cache is None:
            sides = schmidt(self.joint, (self.pos_dim, self.right_dim))
            for array in sides:
                array.setflags(write=False)
            object.__setattr__(self, "_schmidt_cache", sides)
        return self._schmidt_cache

    @property
    def pos_dim(self) -> int:
        return self.dims[0]

    @property
    def neg_dim(self) -> int:
        return self.dims[1]

    @property
    def ancilla_dim(self) -> int:
        return self.dims[2]

    @property
    def right_dim(self) -> int:
        return self.dims[1] * self.dims[2]

    def padded(self, ancilla_dim: int) -> "JointPairState":
        """Embed the ancilla register into a larger one (zero padding)."""
        if ancilla_dim == self.ancilla_dim:
            return self
        if ancilla_dim < self.ancilla_dim:
            raise DimensionMismatchError("cannot shrink the ancilla register")
        block = self.joint.amplitudes.reshape(self.dims)
        padded = np.zeros((self.dims[0], self.dims[1], ancilla_dim), dtype=complex)
        padded[:, :, : self.dims[2]] = block
        return JointPairState(
            StateVector(padded.reshape(-1), (self.dims[0], self.dims[1], ancilla_dim)),
            (self.dims[0], self.dims[1], ancilla_dim),
        )

    def spectrum(self) -> np.ndarray:
        """Schmidt coefficients across the positive | negative+ancilla cut."""
        return self.schmidt_sides()[0]

    def __repr__(self) -> str:
        return f"JointPairState(dims={self.dims})"


@dataclass(frozen=True)
class WitnessSet:
    """The unitaries realizing one witness equation, with its residual.

    ``u_p`` acts on the positive factor; ``u_n`` on whatever the construction
    designates as the other side (the full negative+ancilla register for
    restoration witnesses, the bare negative factor for chained links);
    ``u_ancilla`` and ``ancilla`` are populated by constructions that need an
    explicit ancilla register.  Construction does not judge the operators'
    unitarity: whoever reports on a witness reads ``unitarity_defect`` of
    each, as the equiv-laws scenario does.
    """

    u_p: Operator
    u_n: Operator
    u_ancilla: Optional[Operator] = None
    ancilla: Optional[StateVector] = None
    residual: float = 0.0

    def accepted(self) -> bool:
        return self.residual <= DEFAULT_TOL.witness


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a pair-equivalence check.

    ``related`` is true only when the sorted spectra agree entrywise and every
    witness met its residual bound.  ``witnesses`` is empty when the spectra
    differ; otherwise it holds the basis-transport witness followed by one
    witness per trial.
    """

    related: bool
    spectrum_left: np.ndarray
    spectrum_right: np.ndarray
    witnesses: tuple[WitnessSet, ...]
    trials: int


# ---------------------------------------------------------------------------
# Stacked kernels
#
# Each kernel works on a leading axis of n independent problems that share
# their dimensions (and, where Schmidt blocks matter, their block structure).
# The scenarios call them on whole stacks; every object-level function below
# is a call with n = 1.  Kernels return residuals and leakages; they never
# raise on them.
# ---------------------------------------------------------------------------

class _Pairs(NamedTuple):
    """Pair states (n, d_p, d_right) with the square Schmidt bases of their cut."""

    amps: np.ndarray
    coeffs: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _pairs(amps: np.ndarray) -> _Pairs:
    return _Pairs(amps, *schmidt_stack(amps, full=True))


class _Undo(NamedTuple):
    """Other-side unitaries u_n and, per problem and Schmidt block, the largest
    amplitude u_p moves out of the block (``leak``) with the index of the
    coefficient it moves into (``partner``; -1 when it leaves the support)."""

    u_n: np.ndarray
    leak: np.ndarray
    partner: np.ndarray

    @property
    def leakage(self) -> np.ndarray:
        return np.max(self.leak, axis=1, initial=0.0)


def _dagger(ops: np.ndarray) -> np.ndarray:
    """Conjugate transposes, laid out as ``Operator.dagger`` lays them out."""
    return np.ascontiguousarray(np.swapaxes(ops, -1, -2).conj())


def _apply(ops: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``Operator.apply`` over a stack: normalized ops @ vectors."""
    return normalized((ops @ vectors[..., None])[..., 0])


def _kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker products of stacked vectors (n, d) or operators (n, d, d)."""
    out = factors[0]
    for f in factors[1:]:
        if out.ndim == 2:
            out = (out[:, :, None] * f[:, None, :]).reshape(len(out), -1)
        else:
            d = out.shape[1] * f.shape[1]
            out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(len(out), d, d)
    return out


def _rotated(amps: np.ndarray, u_p: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """The normalized amplitude matrices of (u_p (x) u_right)|amps>."""
    return normalized(u_p @ amps @ np.swapaxes(u_right, -1, -2)).reshape(amps.shape)


def _residuals(u_p: np.ndarray, source: np.ndarray, u_right: np.ndarray,
               target: np.ndarray) -> np.ndarray:
    """distance((u_p (x) u_right)|source>, |target>) for each problem."""
    moved = normalized(u_p @ source @ np.swapaxes(u_right, -1, -2))
    return distances(moved, target.reshape(len(target), -1))


def _rejected(residual: np.ndarray, leakage: np.ndarray) -> np.ndarray:
    """A witness whose undo leaks beyond the witness bound is rejected: its
    residual is raised to the leakage."""
    return np.where(leakage > DEFAULT_TOL.witness, np.maximum(residual, leakage),
                    residual)


def _schmidt_action(basis: np.ndarray, blocks: Sequence[np.ndarray],
                    actions: Sequence[np.ndarray]) -> np.ndarray:
    """I + sum_b B_b (A_b - I) B_b^dag for each problem.

    ``basis`` (n, d, k) holds Schmidt vectors as columns, ``blocks`` groups
    their indices and ``actions`` holds one (n, w, w) unitary per block, in
    Schmidt coordinates.  Off the blocks' span the result is the identity.
    """
    n, d = basis.shape[:2]
    out = np.tile(np.eye(d, dtype=complex), (n, 1, 1))
    for block, action in zip(blocks, actions):
        b = basis[:, :, block]
        out += b @ (action - np.eye(len(block))) @ np.swapaxes(b.conj(), 1, 2)
    return out


def _synthesize_stack(left: np.ndarray, right: np.ndarray,
                      phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`synthesize_envariant` for phases (n, r) along the first r
    Schmidt vectors of each problem."""
    singles = [np.array([k]) for k in range(phases.shape[1])]
    u_p = _schmidt_action(left, singles, np.exp(1j * phases).T[:, :, None, None])
    u_n = _schmidt_action(right, singles, np.exp(-1j * phases).T[:, :, None, None])
    return u_p, u_n


def _draw_envariant(blocks: Sequence[np.ndarray], rng: np.random.Generator) -> list:
    """The numbers :func:`sample_envariant_unitary` draws, in its order: a phase
    for each one-dimensional block, the Ginibre parts of a Haar unitary for
    each wider one."""
    return [rng.uniform(0.0, 2.0 * math.pi) if len(block) == 1
            else (rng.standard_normal((len(block),) * 2),
                  rng.standard_normal((len(block),) * 2))
            for block in blocks]


def _sample_stack(left: np.ndarray, blocks: Sequence[np.ndarray],
                  draws: Sequence[list]) -> np.ndarray:
    """Envariant rotations from already-drawn numbers, one
    :func:`_draw_envariant` list per problem."""
    actions = []
    for i, block in enumerate(blocks):
        if len(block) == 1:
            actions.append(np.exp(1j * np.array([drawn[i] for drawn in draws]))[:, None, None])
        else:
            actions.append(haar_from_normals(np.stack([drawn[i][0] for drawn in draws]),
                                             np.stack([drawn[i][1] for drawn in draws])))
    return _schmidt_action(left, blocks, actions)


def _undo_stack(sides: tuple[np.ndarray, np.ndarray], blocks: Sequence[np.ndarray],
                u_p: np.ndarray) -> _Undo:
    """:func:`undo_on_n` in Schmidt coordinates, reporting leakage instead of
    raising.  ``sides`` holds the (n, d_p, k) and (n, d_right, k) Schmidt bases."""
    left, right = sides
    n, nb = len(u_p), len(blocks)
    support = np.concatenate(blocks) if blocks else np.empty(0, dtype=int)
    a_support_h = np.swapaxes(left[:, :, support].conj(), 1, 2)
    leak = np.zeros((n, nb))
    partner = np.full((n, nb), -1)
    actions = []
    offset = 0
    for i, block in enumerate(blocks):
        width = len(block)
        rows = slice(offset, offset + width)
        offset += width
        image = u_p @ left[:, :, block]
        coords = a_support_h @ image
        leak[:, i] = np.max(np.abs(image - np.swapaxes(a_support_h.conj(), 1, 2) @ coords),
                            axis=(1, 2))
        others = np.delete(support, rows)
        if others.size:
            outside = np.abs(np.delete(coords, rows, axis=1)).reshape(n, -1)
            worst = outside.argmax(axis=1)
            crossing = outside[np.arange(n), worst]
            partner[:, i] = np.where(crossing > leak[:, i], others[worst // width], -1)
            leak[:, i] = np.maximum(leak[:, i], crossing)
        actions.append(coords[:, rows, :].conj())
    return _Undo(_schmidt_action(right, blocks, actions), leak, partner)


class _Verdicts(NamedTuple):
    """Stacked verdicts: the residuals (n, 1 + trials) of the transport
    witness and of each trial, undo leakage folded in, and the u_p and u_n of
    each witness in that order."""

    related: np.ndarray
    spectra_equal: np.ndarray
    residuals: np.ndarray
    operators: list


def _verdict_stack(s: _Pairs, t: _Pairs, rotations: Sequence[np.ndarray],
                   undos: Sequence[_Undo]) -> _Verdicts:
    """:func:`pair_equivalent` of s and t at s's sampled rotations and their undos."""
    spectra_equal = np.max(np.abs(s.coeffs - t.coeffs), axis=1) <= DEFAULT_TOL.spectrum
    map_p = s.left @ np.swapaxes(t.left.conj(), 1, 2)
    map_r = s.right @ np.swapaxes(t.right.conj(), 1, 2)
    residuals = [_residuals(map_p, t.amps, map_r, s.amps)]
    operators = [map_p, map_r]
    for rotation, undo in zip(rotations, undos):
        w_p = rotation @ map_p
        w_n = undo.u_n @ map_r
        residuals.append(_rejected(_residuals(w_p, t.amps, w_n, s.amps), undo.leakage))
        operators += [w_p, w_n]
    residuals = np.stack(residuals, axis=1)
    related = spectra_equal & np.all(residuals <= DEFAULT_TOL.witness, axis=1)
    return _Verdicts(related, spectra_equal, residuals, operators)


def _reverse_stack(x_amps: np.ndarray, y_amps: np.ndarray,
                   y_sides: tuple[np.ndarray, np.ndarray], y_blocks: Sequence[np.ndarray],
                   forward_p: np.ndarray, forward_n: np.ndarray, v_p: np.ndarray):
    """:func:`symmetry_witness` at v_p: (v_n, residual, undo)."""
    undo = _undo_stack(y_sides, y_blocks, _dagger(forward_p) @ _dagger(v_p))
    v_n = _dagger(forward_n @ undo.u_n)
    return v_n, _residuals(v_p, x_amps, v_n, y_amps), undo


def _link_stack(a, b, c, d, ancilla):
    """:func:`link_product_pairs` of (a, b) and (c, d): (u_p, u_n, residual)."""
    u_p = transport_unitary(c, a)
    u_n = transport_unitary(b, d)
    lhs = normalized(_kron(a, d, ancilla))
    rhs = normalized(_kron(_apply(u_p, c), _apply(u_n, b), normalized(ancilla)))
    return u_p, u_n, distances(lhs, rhs)


def _link_undo_stack(left_pos, right_pos, left_neg, right_neg, u_p):
    """The u_n matching u_p in a link's equation, (u_n, leakage): u_n maps
    left_neg to right_neg with the phase compensating u_p, exact when the
    leakage 1 - |<left_pos|u_p right_pos>| is zero."""
    overlap = np.vecdot(left_pos, (u_p @ right_pos[..., None])[..., 0])
    u_n = overlap.conj()[:, None, None] * transport_unitary(left_neg, right_neg)
    return u_n, 1.0 - np.abs(overlap)


def _chain_stack(a, b, c, d, e, f, xi, eta, u_xi, v_eta, w_p):
    """:func:`transitivity_witness` for the links (a, b) ~ (c, d) ~ (e, f)
    with ancillas xi and eta: (w_n, w_chi, chi, residual, leakage)."""
    w_n, leak_first = _link_undo_stack(a, c, b, d, w_p)
    v_n, leak_second = _link_undo_stack(c, e, d, f, w_p)
    chi = normalized(_kron(d, c, xi, eta))
    w_chi = _kron(v_n, w_p, u_xi, v_eta)
    lhs = normalized(_kron(a, f, chi))
    rhs = normalized(_kron(_apply(w_p, e), _apply(w_n, b), _apply(w_chi, chi)))
    # the pair register and the matching chi slots trade places between the
    # two sides; undo that fixed relabeling before comparing
    d_p, d_n = a.shape[1], b.shape[1]
    aligned = rhs.reshape(len(a), d_p, d_n, d_n, d_p, -1).transpose(0, 4, 3, 2, 1, 5)
    residual = distances(lhs, normalized(aligned))
    return w_n, w_chi, chi, residual, np.maximum(leak_first, leak_second)


def _chain_shapes(d_p: int, d_n: int) -> list[tuple[int, ...]]:
    """The shapes of :func:`sample_chain`'s Gaussian draws, in its order: the
    parts of a Haar w_p, then of e, b, d and f."""
    return [(d_p, d_p)] * 2 + [(d_p,)] * 2 + [(d_n,)] * 6


def _draw_chain(d_p: int, d_n: int, seed: int) -> np.ndarray:
    """:func:`sample_chain`'s draws as one flat array: a generator's normals
    come out the same whether drawn in pieces or at once."""
    size = sum(math.prod(shape) for shape in _chain_shapes(d_p, d_n))
    return np.random.default_rng(seed).standard_normal(size)


def _split(draws: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive pieces of stacked flat draws (n, L), reshaped to ``shapes``."""
    pieces, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        pieces.append(draws[:, start:start + size].reshape(len(draws), *shape))
        start += size
    return pieces


def _chain_states(draws: np.ndarray, d_p: int, d_n: int):
    """:func:`sample_chain`'s unitary and states from stacked
    :func:`_draw_chain` draws: (w_p, a, b, c, d, e, f)."""
    parts = _split(draws, _chain_shapes(d_p, d_n))
    w_p = haar_from_normals(parts[0], parts[1])
    e, b, d, f = (normalized(parts[i] + 1j * parts[i + 1]) for i in (2, 4, 6, 8))
    c = _apply(w_p, e)
    return w_p, _apply(w_p, c), b, c, d, e, f


def _support_blocks(coeffs: np.ndarray) -> list[np.ndarray]:
    """Group the indices of nonzero coefficients into degenerate blocks."""
    blocks: list[list[int]] = []
    values = coeffs.tolist()  # Python floats: the same comparisons, less overhead
    for idx, value in enumerate(values):
        if value <= DEFAULT_TOL.rank_cutoff:
            continue
        if blocks and abs(value - values[blocks[-1][-1]]) <= DEFAULT_TOL.spectrum:
            blocks[-1].append(idx)
        else:
            blocks.append([idx])
    return [np.asarray(b) for b in blocks]


def _raise_if_leaking(coeffs: np.ndarray, blocks: Sequence[np.ndarray], undo: _Undo) -> None:
    """NotEnvariantError for the first block a batch-of-one undo lets leak."""
    for i, block in enumerate(blocks):
        if undo.leak[0, i] > DEFAULT_TOL.witness:
            other = undo.partner[0, i]
            raise NotEnvariantError(
                "unitary mixes distinct Schmidt coefficients" if other >= 0
                else "unitary moves a Schmidt vector off the support",
                mixed_coefficients=(float(coeffs[block[0]]),
                                    float(coeffs[other]) if other >= 0 else 0.0),
                leakage=float(undo.leak[0, i]),
            )


def _pad_pair(x: JointPairState, y: JointPairState) -> tuple[JointPairState, JointPairState]:
    if x.pos_dim != y.pos_dim or x.neg_dim != y.neg_dim:
        raise DimensionMismatchError(
            f"pair dimensions differ: {x.dims[:2]} vs {y.dims[:2]}"
        )
    target = max(x.ancilla_dim, y.ancilla_dim)
    return x.padded(target), y.padded(target)


def _one(psi: JointPairState) -> np.ndarray:
    """``psi``'s amplitude matrix as a stack of one."""
    return psi.joint.amplitudes.reshape(1, psi.pos_dim, psi.right_dim)


def _sides(psi: JointPairState) -> tuple[np.ndarray, np.ndarray]:
    """``psi``'s cached Schmidt bases as stacks of one."""
    _, left, right = psi.schmidt_sides()
    return left[None], right[None]


# ---------------------------------------------------------------------------
# Envariant synthesis and undoing
# ---------------------------------------------------------------------------

def synthesize_envariant(psi: JointPairState,
                         phases: Sequence[float]) -> tuple[Operator, Operator]:
    """Phase unitaries in the Schmidt bases that jointly restore ``psi``.

    The positive-side unitary applies e^{i phi_k} along each Schmidt vector
    a_k (identity off the support); the negative-side unitary applies the
    opposite phases along the b_k.  Their joint action leaves ``psi``
    unchanged.
    """
    coeffs = psi.spectrum()
    rank = int(np.sum(coeffs > DEFAULT_TOL.rank_cutoff))
    if len(phases) != rank:
        raise RankMismatchError(
            f"{len(phases)} phases given but the Schmidt rank is {rank}"
        )
    u_p, u_n = _synthesize_stack(*_sides(psi), np.asarray(phases, dtype=float)[None])
    return Operator(u_p[0]), Operator(u_n[0])


def undo_on_n(psi: JointPairState, u_p: Operator) -> WitnessSet:
    """Undo a positive-side unitary by acting solely on the other side.

    Requires ``u_p`` to preserve each degenerate Schmidt block of ``psi``'s
    reduced positive-side state; inside an equal-coefficient block any unitary
    action is allowed (this is what makes the swap / counter-swap pair work).
    Raises :class:`NotEnvariantError`, with the violated coefficient pair,
    when amplitude crosses between blocks or leaks off the support.
    """
    if u_p.dim != psi.pos_dim:
        raise DimensionMismatchError(
            f"u_p dim {u_p.dim} does not match positive factor {psi.pos_dim}"
        )
    coeffs = psi.spectrum()
    blocks = _support_blocks(coeffs)
    undo = _undo_stack(_sides(psi), blocks, u_p.entries[None])
    _raise_if_leaking(coeffs, blocks, undo)
    residual = _residuals(u_p.entries[None], _one(psi), undo.u_n, _one(psi))
    return WitnessSet(u_p=u_p, u_n=Operator(undo.u_n[0]), residual=float(residual[0]))


def sample_envariant_unitary(psi: JointPairState, rng: np.random.Generator) -> Operator:
    """Random element of the envariant subgroup for ``psi``.

    Independent Haar blocks inside each degenerate Schmidt block (a random
    phase when the block is one-dimensional) and identity off the support.
    """
    blocks = _support_blocks(psi.spectrum())
    left, _ = _sides(psi)
    return Operator(_sample_stack(left, blocks, [_draw_envariant(blocks, rng)])[0])


# ---------------------------------------------------------------------------
# Pair equivalence
# ---------------------------------------------------------------------------

def pair_equivalent(x: JointPairState, y: JointPairState, trials: int = 6,
                    seed: int = 0) -> EquivalenceVerdict:
    """Decide whether two pair states are related by side-local unitaries.

    The decision is Schmidt-spectrum equality across the positive | negative
    cut (ancillas padded to a common register and folded into the negative
    side).  On success the verdict carries constructive witnesses: first the
    basis-transport pair mapping ``y`` onto ``x`` exactly, then ``trials``
    rotations sampled from ``x``'s envariant subgroup
    (:func:`sample_envariant_unitary`, seeded by ``(seed, trial)``) and
    composed with it, each validated against its defining equation.  The
    transport maps come from the square Schmidt bases (``schmidt(...,
    full=True)``), so they are unitaries on the whole of each side.  A trial
    whose undo leaks amplitude across Schmidt blocks beyond the witness bound
    is a rejected witness: its residual is raised to the leakage, and the
    verdict is not related.
    """
    xp, yp = _pad_pair(x, y)
    sx = xp.spectrum()
    sy = yp.spectrum()
    spectra_equal = bool(np.max(np.abs(sx - sy)) <= DEFAULT_TOL.spectrum)
    if not spectra_equal:
        return EquivalenceVerdict(False, sx, sy, (), trials)

    blocks = _support_blocks(sx)
    left, _ = sides = _sides(xp)
    rotations = [_sample_stack(left, blocks, [_draw_envariant(
        blocks, np.random.default_rng((seed, trial)))]) for trial in range(trials)]
    undos = [_undo_stack(sides, blocks, rotation) for rotation in rotations]
    verdict = _verdict_stack(_pairs(_one(xp)), _pairs(_one(yp)), rotations, undos)
    ops = verdict.operators
    witnesses = tuple(WitnessSet(u_p=Operator(ops[2 * i][0]), u_n=Operator(ops[2 * i + 1][0]),
                                 residual=float(verdict.residuals[0, i]))
                      for i in range(trials + 1))
    return EquivalenceVerdict(bool(verdict.related[0]), sx, sy, witnesses, trials)


# ---------------------------------------------------------------------------
# Symmetry
# ---------------------------------------------------------------------------

def symmetry_witness(x: JointPairState, y: JointPairState, forward: WitnessSet,
                     v_p: Operator) -> WitnessSet:
    """Reverse witness for y ~ x out of a forward witness for x ~ y.

    ``forward`` must satisfy (forward.u_p (x) forward.u_n)|y> = |x>.  For the
    requested reverse unitary ``v_p``, the forward relation is evaluated at
    its inverse and the resulting undoing inverted: the returned witness
    satisfies (v_p (x) u_n)|x> = |y>.  Raises :class:`NotEnvariantError` when
    ``v_p`` falls outside the coset of unitaries the relation supports.
    """
    xp, yp = _pad_pair(x, y)
    forward_p, forward_n = forward.u_p.entries[None], forward.u_n.entries[None]
    residual_fwd = _residuals(forward_p, _one(yp), forward_n, _one(xp))[0]
    if residual_fwd > DEFAULT_TOL.witness:
        raise ValueError(
            f"forward witness does not hold (residual {residual_fwd:.3e})"
        )
    coeffs = yp.spectrum()
    blocks = _support_blocks(coeffs)
    v_n, residual, undo = _reverse_stack(_one(xp), _one(yp), _sides(yp), blocks,
                                         forward_p, forward_n, v_p.entries[None])
    _raise_if_leaking(coeffs, blocks, undo)
    return WitnessSet(u_p=v_p, u_n=Operator(v_n[0]), residual=float(residual[0]))


# ---------------------------------------------------------------------------
# Transitivity over product-pair links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairLink:
    """A certified link (left_pos, left_neg) ~ (right_pos, right_neg).

    The witness realizes the crossed defining equation

        left_pos (x) right_neg (x) ancilla
            = (u_p right_pos) (x) (u_n left_neg) (x) (u_ancilla ancilla)

    at one canonical choice of u_p.  :func:`transitivity_witness` recomputes
    the matching u_n at the positive-side unitary it is given.
    """

    left_pos: StateVector
    left_neg: StateVector
    right_pos: StateVector
    right_neg: StateVector
    ancilla: StateVector
    ancilla_unitary: Operator
    witness: WitnessSet


def link_product_pairs(left: tuple[StateVector, StateVector],
                       right: tuple[StateVector, StateVector],
                       ancilla: Optional[StateVector] = None) -> PairLink:
    """Build and certify a link between two product pairs.

    Any two product pairs of matching slot dimensions are related; the
    canonical witness transports right_pos onto left_pos and left_neg onto
    right_neg with no ancilla action.
    """
    a, b = left
    c, d = right
    if a.dim != c.dim or b.dim != d.dim:
        raise DimensionMismatchError(
            f"slot dimensions differ: ({a.dim},{b.dim}) vs ({c.dim},{d.dim})"
        )
    if ancilla is None:
        ancilla = basis_state(1, 0)
    u_p, u_n, residual = _link_stack(*(v.amplitudes[None] for v in (a, b, c, d, ancilla)))
    u_anc = identity(ancilla.dim)
    witness = WitnessSet(u_p=Operator(u_p[0]), u_n=Operator(u_n[0]), u_ancilla=u_anc,
                         ancilla=ancilla, residual=float(residual[0]))
    return PairLink(left_pos=a, left_neg=b, right_pos=c, right_neg=d,
                    ancilla=ancilla, ancilla_unitary=u_anc, witness=witness)


def _not_transported(leakage: float) -> NotEnvariantError:
    return NotEnvariantError(
        "unitary does not transport the link's positive slot",
        mixed_coefficients=(1.0, 1.0 - leakage),
        leakage=leakage,
    )


def transitivity_witness(first: PairLink, second: PairLink, w_p: Operator) -> WitnessSet:
    """Chain two links into a witness for left-of-first ~ right-of-second.

    With the links (a,b) ~ (c,d) and (c,d) ~ (e,f) and a caller-chosen
    ``w_p``, both link equations are evaluated at the same positive-side
    unitary; the middle pair and the links' ancillas assemble into the new
    ancilla register chi = d (x) c (x) xi (x) eta, acted on by
    u_ancilla = (undo of second) (x) w_p (x) u_xi (x) v_eta.  The defining
    identity is validated after the canonical slot re-identification (the pair
    register exchanged with the matching chi slots).
    """
    if max(first.witness.residual, second.witness.residual) > DEFAULT_TOL.witness:
        raise ValueError("input witnesses must be accepted before chaining")
    if max(distance(first.right_pos, second.left_pos),
           distance(first.right_neg, second.left_neg)) > DEFAULT_TOL.witness:
        raise DimensionMismatchError(
            "links do not share their middle pair; cannot chain"
        )
    states = (first.left_pos, first.left_neg, first.right_pos, first.right_neg,
              second.right_pos, second.right_neg, first.ancilla, second.ancilla)
    w_n, w_chi, chi, residual, leakage = _chain_stack(
        *(v.amplitudes[None] for v in states),
        first.ancilla_unitary.entries[None], second.ancilla_unitary.entries[None],
        w_p.entries[None])
    if leakage[0] > DEFAULT_TOL.witness:
        raise _not_transported(float(leakage[0]))
    chi_dims = sum((v.factor_dims for v in (first.right_neg, first.right_pos,
                                            first.ancilla, second.ancilla)), ())
    return WitnessSet(u_p=w_p, u_n=Operator(w_n[0]), u_ancilla=Operator(w_chi[0]),
                      ancilla=StateVector(chi[0], chi_dims), residual=float(residual[0]))


def sample_chain(d_p: int, d_n: int, seed: int) -> tuple[PairLink, PairLink, Operator]:
    """A two-link chain plus a positive-side unitary valid for both links.

    The chain is built from the unitary outward -- right_pos of each link is
    the w_p-preimage of its left_pos -- so the sampled w_p lies in both links'
    admissible cosets by construction.
    """
    w_p, *states = (v[0] for v in _chain_states(_draw_chain(d_p, d_n, seed)[None], d_p, d_n))
    a, b, c, d, e, f = (StateVector(v) for v in states)
    first = link_product_pairs((a, b), (c, d))
    second = link_product_pairs((c, d), (e, f))
    return first, second, Operator(w_p)


# ---------------------------------------------------------------------------
# Composability monoid (plugs into the group-completion machinery)
# ---------------------------------------------------------------------------

def trivial_state() -> StateVector:
    return basis_state(1, 0)


def composability_monoid() -> CommutativeMonoid:
    """States under the tensor product, as a group-completion input.

    Two states are equal in the monoid when their dimensions are, so pair
    equivalence is the dimension cross rule: the crossed sides
    pos(x) (x) neg(y) and pos(y) (x) neg(x) live in spaces of equal total
    dimension exactly when a unitary between them exists, so the completion
    is the dimension arithmetic of tensor products (positive rationals).  At
    fixed slot dimensions, :func:`pair_equivalent` refines the comparison by
    spectra; :func:`representative_switch` realizes the witnessing unitary.
    """
    return CommutativeMonoid(
        name="state-composability",
        combine=tensor,
        identity=trivial_state(),
        eq=lambda u, v: u.dim == v.dim,
    )


def representative_switch(x: MonoidPair, y: MonoidPair) -> Operator:
    """Unitary on the total space carrying one representative to the other.

    Maps pos(x) (x) neg(y) onto pos(y) (x) neg(x); exists whenever the
    dimension cross rule holds.
    """
    source = tensor(x.pos, y.neg)
    target = tensor(y.pos, x.neg)
    if source.dim != target.dim:
        raise DimensionMismatchError(
            "pairs are not equivalent: total crossed dimensions differ"
        )
    return Operator(transport_unitary(source.amplitudes, target.amplitudes))
