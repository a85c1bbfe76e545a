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

Note on slot bookkeeping: the chained identity equates two vectors whose
like-dimensioned registers appear in different positions on the two sides.
``transitivity_witness`` therefore validates the identity after the canonical
re-identification that swaps the pair register with the matching ancilla
slots; the permutation is fixed by the construction, not fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    DimensionMismatchError,
    Operator,
    StateVector,
    basis_state,
    distance,
    haar_unitary,
    identity,
    schmidt,
    tensor,
    transport_unitary,
)
from .grothendieck import CommutativeMonoid, MonoidPair
from .tolerances import DEFAULT_TOL, Tolerances


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
    """A phase specification does not match the Schmidt rank it applies to."""


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
class PhaseSpec:
    """Per-Schmidt-vector phases and integer shifts for envariant synthesis.

    The integer shifts enter the undoing side only through e^{-i 2 pi l} = 1,
    so they are validated and recorded but numerically inert.
    """

    phases: tuple[float, ...]
    integer_shifts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        shifts = tuple(int(s) for s in self.integer_shifts)
        if len(shifts) != len(self.phases):
            raise RankMismatchError(
                f"{len(self.phases)} phases but {len(shifts)} integer shifts"
            )
        object.__setattr__(self, "integer_shifts", shifts)

    @classmethod
    def random(cls, rank: int, rng: np.random.Generator) -> "PhaseSpec":
        return cls(tuple(rng.uniform(0.0, 2.0 * math.pi, size=rank)),
                   tuple(int(s) for s in rng.integers(-3, 4, size=rank)))


@dataclass(frozen=True)
class WitnessSet:
    """The unitaries realizing one witness equation, with its residual.

    ``u_p`` acts on the positive factor; ``u_n`` on whatever the construction
    designates as the other side (the full negative+ancilla register for
    restoration witnesses, the bare negative factor for chained links);
    ``u_ancilla`` and ``ancilla`` are populated by constructions that need an
    explicit ancilla register.
    """

    u_p: Operator
    u_n: Operator
    u_ancilla: Optional[Operator] = None
    ancilla: Optional[StateVector] = None
    residual: float = 0.0

    def __post_init__(self):
        for op in (self.u_p, self.u_n, self.u_ancilla):
            if op is not None and not op.is_unitary():
                raise ValueError(
                    f"witness operator is not unitary (defect {op.unitarity_defect():.3e})"
                )

    def accepted(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return self.residual <= tol.witness


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
# Internal helpers
# ---------------------------------------------------------------------------

def _apply_two_sided(state: StateVector, d_p: int, d_right: int,
                     u_p: Operator, u_right: Operator) -> StateVector:
    """(u_p (x) u_right)|state> without materializing the Kronecker product."""
    matrix = state.amplitudes.reshape(d_p, d_right)
    moved = u_p.entries @ matrix @ u_right.entries.T
    return StateVector(moved.reshape(-1), state.factor_dims)


def _support_blocks(coeffs: np.ndarray, tol: Tolerances) -> list[np.ndarray]:
    """Group the indices of nonzero coefficients into degenerate blocks."""
    support = np.flatnonzero(coeffs > tol.rank_cutoff)
    blocks: list[list[int]] = []
    for idx in support:
        if blocks and abs(coeffs[idx] - coeffs[blocks[-1][-1]]) <= tol.spectrum:
            blocks[-1].append(int(idx))
        else:
            blocks.append([int(idx)])
    return [np.asarray(b) for b in blocks]


def _pad_pair(x: JointPairState, y: JointPairState) -> tuple[JointPairState, JointPairState]:
    if x.pos_dim != y.pos_dim or x.neg_dim != y.neg_dim:
        raise DimensionMismatchError(
            f"pair dimensions differ: {x.dims[:2]} vs {y.dims[:2]}"
        )
    target = max(x.ancilla_dim, y.ancilla_dim)
    return x.padded(target), y.padded(target)


# ---------------------------------------------------------------------------
# Envariant synthesis and undoing
# ---------------------------------------------------------------------------

def synthesize_envariant(psi: JointPairState, phase_spec: PhaseSpec,
                         tol: Tolerances = DEFAULT_TOL) -> tuple[Operator, Operator]:
    """Phase unitaries in the Schmidt bases that jointly restore ``psi``.

    The positive-side unitary applies e^{i phi_k} along each Schmidt vector
    a_k (identity off the support); the negative-side unitary applies the
    opposite phases along the b_k.  Their joint action leaves ``psi``
    unchanged.
    """
    coeffs, left, right = psi.schmidt_sides()
    rank = int(np.sum(coeffs > tol.rank_cutoff))
    if len(phase_spec.phases) != rank:
        raise RankMismatchError(
            f"{len(phase_spec.phases)} phases given but the Schmidt rank is {rank}"
        )
    u_p = np.eye(psi.pos_dim, dtype=complex)
    u_n = np.eye(psi.right_dim, dtype=complex)
    for k, phi in enumerate(phase_spec.phases):
        a_k = left[:, k]
        b_k = right[:, k]
        u_p += (np.exp(1j * phi) - 1.0) * np.outer(a_k, a_k.conj())
        # the integer shift contributes e^{-i 2 pi l} = 1 and is dropped
        u_n += (np.exp(-1j * phi) - 1.0) * np.outer(b_k, b_k.conj())
    return Operator(u_p), Operator(u_n)


def undo_on_n(psi: JointPairState, u_p: Operator,
              tol: Tolerances = DEFAULT_TOL) -> WitnessSet:
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
    coeffs, left, right = psi.schmidt_sides()
    blocks = _support_blocks(coeffs, tol)
    support = np.concatenate(blocks) if blocks else np.empty(0, dtype=int)
    a_support_h = left[:, support].conj().T
    u_n = np.eye(psi.right_dim, dtype=complex)
    offset = 0
    for block in blocks:
        width = len(block)
        rows = slice(offset, offset + width)
        offset += width
        image = u_p.entries @ left[:, block]
        coords = a_support_h @ image
        off_support = float(np.max(np.abs(image - a_support_h.conj().T @ coords)))
        if off_support > tol.witness:
            raise NotEnvariantError(
                "unitary moves a Schmidt vector off the support",
                mixed_coefficients=(float(coeffs[block[0]]), 0.0),
                leakage=off_support,
            )
        outside = np.abs(np.delete(coords, rows, axis=0))
        if outside.size and float(outside.max()) > tol.witness:
            worst = np.unravel_index(int(outside.argmax()), outside.shape)[0]
            other = int(np.delete(support, rows)[worst])
            raise NotEnvariantError(
                "unitary mixes distinct Schmidt coefficients",
                mixed_coefficients=(float(coeffs[block[0]]), float(coeffs[other])),
                leakage=float(outside.max()),
            )
        action = coords[rows, :]
        b_block = right[:, block]
        u_n += b_block @ (action.conj() - np.eye(width)) @ b_block.conj().T
    undo = Operator(u_n)
    restored = _apply_two_sided(psi.joint, psi.pos_dim, psi.right_dim, u_p, undo)
    return WitnessSet(u_p=u_p, u_n=undo,
                      residual=distance(restored, psi.joint))


def sample_envariant_unitary(psi: JointPairState, rng: np.random.Generator,
                             tol: Tolerances = DEFAULT_TOL) -> Operator:
    """Random element of the envariant subgroup for ``psi``.

    Independent Haar blocks inside each degenerate Schmidt block (a random
    phase when the block is one-dimensional) and identity off the support.
    """
    coeffs, left, _ = psi.schmidt_sides()
    blocks = _support_blocks(coeffs, tol)
    u_p = np.eye(psi.pos_dim, dtype=complex)
    for block in blocks:
        a_block = left[:, block]
        if len(block) == 1:
            rotation = np.array([[np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))]])
        else:
            rotation = haar_unitary(len(block), rng).entries
        u_p += a_block @ (rotation - np.eye(len(block))) @ a_block.conj().T
    return Operator(u_p)


# ---------------------------------------------------------------------------
# Pair equivalence
# ---------------------------------------------------------------------------

def pair_equivalent(x: JointPairState, y: JointPairState, trials: int = 6,
                    seed: int = 0,
                    tol: Tolerances = DEFAULT_TOL) -> EquivalenceVerdict:
    """Decide whether two pair states are related by side-local unitaries.

    The decision is Schmidt-spectrum equality across the positive | negative
    cut (ancillas padded to a common register and folded into the negative
    side).  On success the verdict carries constructive witnesses: first the
    basis-transport pair mapping ``y`` onto ``x`` exactly, then ``trials``
    rotations sampled from ``x``'s envariant subgroup
    (:func:`sample_envariant_unitary`, seeded by ``(seed, trial)``) and
    composed with it, each validated against its defining equation.  The
    transport maps come from the square Schmidt bases (``schmidt(...,
    full=True)``), so they are unitaries on the whole of each side.  An
    envariant rotation always admits an undo; should :func:`undo_on_n` still
    reject one, its :class:`NotEnvariantError` propagates.
    """
    xp, yp = _pad_pair(x, y)
    sx = xp.spectrum()
    sy = yp.spectrum()
    spectra_equal = bool(np.max(np.abs(sx - sy)) <= tol.spectrum)
    if not spectra_equal:
        return EquivalenceVerdict(False, sx, sy, (), trials)

    cut = (xp.pos_dim, xp.right_dim)
    _, left_x, right_x = schmidt(xp.joint, cut, full=True)
    _, left_y, right_y = schmidt(yp.joint, cut, full=True)
    map_p = Operator(left_x @ left_y.conj().T)
    map_r = Operator(right_x @ right_y.conj().T)
    mapped = _apply_two_sided(yp.joint, xp.pos_dim, xp.right_dim, map_p, map_r)
    witnesses = [WitnessSet(u_p=map_p, u_n=map_r,
                            residual=distance(mapped, xp.joint))]
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        rotation = sample_envariant_unitary(xp, rng, tol)
        undo = undo_on_n(xp, rotation, tol)
        w_p = rotation @ map_p
        w_n = undo.u_n @ map_r
        moved = _apply_two_sided(yp.joint, xp.pos_dim, xp.right_dim, w_p, w_n)
        witnesses.append(WitnessSet(u_p=w_p, u_n=w_n,
                                    residual=distance(moved, xp.joint)))
    related = all(w.accepted(tol) for w in witnesses)
    return EquivalenceVerdict(related, sx, sy, tuple(witnesses), trials)


# ---------------------------------------------------------------------------
# Symmetry
# ---------------------------------------------------------------------------

def symmetry_witness(x: JointPairState, y: JointPairState, forward: WitnessSet,
                     v_p: Operator, tol: Tolerances = DEFAULT_TOL) -> WitnessSet:
    """Reverse witness for y ~ x out of a forward witness for x ~ y.

    ``forward`` must satisfy (forward.u_p (x) forward.u_n)|y> = |x>.  For the
    requested reverse unitary ``v_p``, the forward relation is evaluated at
    its inverse and the resulting undoing inverted: the returned witness
    satisfies (v_p (x) u_n)|x> = |y>.  Raises :class:`NotEnvariantError` when
    ``v_p`` falls outside the coset of unitaries the relation supports.
    """
    xp, yp = _pad_pair(x, y)
    residual_fwd = distance(
        _apply_two_sided(yp.joint, xp.pos_dim, xp.right_dim, forward.u_p, forward.u_n),
        xp.joint,
    )
    if residual_fwd > tol.witness:
        raise ValueError(
            f"forward witness does not hold (residual {residual_fwd:.3e})"
        )
    requested = v_p.dagger
    env_part = forward.u_p.dagger @ requested
    env_undo = undo_on_n(yp, env_part, tol)
    u_n = forward.u_n @ env_undo.u_n
    v_n = u_n.dagger
    reversed_state = _apply_two_sided(xp.joint, xp.pos_dim, xp.right_dim, v_p, v_n)
    return WitnessSet(u_p=v_p, u_n=v_n,
                      residual=distance(reversed_state, yp.joint))


# ---------------------------------------------------------------------------
# Transitivity over product-pair links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairLink:
    """A certified link (left_pos, left_neg) ~ (right_pos, right_neg).

    The witness realizes the crossed defining equation

        left_pos (x) right_neg (x) ancilla
            = (u_p right_pos) (x) (u_n left_neg) (x) (u_ancilla ancilla)

    at one canonical choice of u_p.  Other positive-side unitaries are served
    by :func:`link_undo`, which recomputes the matching u_n.
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
                       ancilla: Optional[StateVector] = None,
                       tol: Tolerances = DEFAULT_TOL) -> PairLink:
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
    u_p = Operator(transport_unitary(c.amplitudes, a.amplitudes))
    u_n = Operator(transport_unitary(b.amplitudes, d.amplitudes))
    u_anc = identity(ancilla.dim)
    lhs = tensor(a, d, ancilla)
    rhs = tensor(u_p.apply(c), u_n.apply(b), u_anc.apply(ancilla))
    witness = WitnessSet(u_p=u_p, u_n=u_n, u_ancilla=u_anc, ancilla=ancilla,
                         residual=distance(lhs, rhs))
    return PairLink(left_pos=a, left_neg=b, right_pos=c, right_neg=d,
                    ancilla=ancilla, ancilla_unitary=u_anc, witness=witness)


def link_undo(link: PairLink, u_p: Operator,
              tol: Tolerances = DEFAULT_TOL) -> Operator:
    """The negative-side unitary matching ``u_p`` in the link's equation.

    ``u_p`` must transport the link's right_pos onto left_pos up to a phase;
    the returned unitary carries the compensating phase and maps left_neg to
    right_neg.
    """
    overlap = complex(np.vdot(link.left_pos.amplitudes,
                              u_p.entries @ link.right_pos.amplitudes))
    if 1.0 - abs(overlap) > tol.witness:
        raise NotEnvariantError(
            "unitary does not transport the link's positive slot",
            mixed_coefficients=(1.0, float(abs(overlap))),
            leakage=float(1.0 - abs(overlap)),
        )
    transport = transport_unitary(link.left_neg.amplitudes,
                                  link.right_neg.amplitudes)
    return Operator(overlap.conjugate() * transport)


def transitivity_witness(first: PairLink, second: PairLink, w_p: Operator,
                         tol: Tolerances = DEFAULT_TOL) -> WitnessSet:
    """Chain two links into a witness for left-of-first ~ right-of-second.

    With the links (a,b) ~ (c,d) and (c,d) ~ (e,f) and a caller-chosen
    ``w_p``, both link equations are evaluated at the same positive-side
    unitary; the middle pair and the links' ancillas assemble into the new
    ancilla register chi = d (x) c (x) xi (x) eta, acted on by
    u_ancilla = (undo of second) (x) w_p (x) u_xi (x) v_eta.  The defining
    identity is validated after the canonical slot re-identification (the pair
    register exchanged with the matching chi slots).
    """
    if first.witness.residual > tol.witness or second.witness.residual > tol.witness:
        raise ValueError("input witnesses must be accepted before chaining")
    if distance(first.right_pos, second.left_pos) > tol.witness or \
            distance(first.right_neg, second.left_neg) > tol.witness:
        raise DimensionMismatchError(
            "links do not share their middle pair; cannot chain"
        )
    w_n = link_undo(first, w_p, tol)
    v_n = link_undo(second, w_p, tol)
    u_xi = first.ancilla_unitary
    v_eta = second.ancilla_unitary
    chi = tensor(first.right_neg, first.right_pos, first.ancilla, second.ancilla)
    w_chi = tensor(v_n, w_p, u_xi, v_eta)
    lhs = tensor(first.left_pos, second.right_neg, chi)
    rhs = tensor(w_p.apply(second.right_pos), w_n.apply(first.left_neg),
                 w_chi.apply(chi))
    # the pair register and the matching chi slots trade places between the
    # two sides; undo that fixed relabeling before comparing
    rhs_aligned = rhs.reordered([3, 2, 1, 0, 4, 5])
    residual = distance(lhs, rhs_aligned)
    return WitnessSet(u_p=w_p, u_n=w_n, u_ancilla=w_chi, ancilla=chi,
                      residual=residual)


def sample_chain(d_p: int, d_n: int, seed: int,
                 tol: Tolerances = DEFAULT_TOL) -> tuple[PairLink, PairLink, Operator]:
    """A two-link chain plus a positive-side unitary valid for both links.

    The chain is built from the unitary outward -- right_pos of each link is
    the w_p-preimage of its left_pos -- so the sampled w_p lies in both links'
    admissible cosets by construction.
    """
    rng = np.random.default_rng(seed)
    w_p = haar_unitary(d_p, rng)
    e = StateVector(rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p))
    c = w_p.apply(e)
    a = w_p.apply(c)
    b, d, f = (
        StateVector(rng.standard_normal(d_n) + 1j * rng.standard_normal(d_n))
        for _ in range(3)
    )
    first = link_product_pairs((a, b), (c, d), tol=tol)
    second = link_product_pairs((c, d), (e, f), tol=tol)
    return first, second, w_p


# ---------------------------------------------------------------------------
# Composability monoid (plugs into the group-completion machinery)
# ---------------------------------------------------------------------------

def trivial_state() -> StateVector:
    return basis_state(1, 0)


def _dimension_cross_rule(x: MonoidPair, y: MonoidPair) -> bool:
    return x.pos.dim * y.neg.dim == x.neg.dim * y.pos.dim


def composability_monoid(tol: Tolerances = DEFAULT_TOL) -> CommutativeMonoid:
    """States under the tensor product, as a group-completion input.

    Pair equivalence follows the dimension cross rule: the crossed sides
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
        eq=lambda u, v: u.dim == v.dim and distance(u, v) <= tol.witness,
        cancellative=True,
        pair_decision=_dimension_cross_rule,
    )


def representative_switch(x: MonoidPair, y: MonoidPair) -> Operator:
    """Unitary on the total space carrying one representative to the other.

    Maps pos(x) (x) neg(y) onto pos(y) (x) neg(x); exists whenever the
    dimension cross rule holds.
    """
    if not _dimension_cross_rule(x, y):
        raise DimensionMismatchError(
            "pairs are not equivalent: total crossed dimensions differ"
        )
    source = tensor(x.pos, y.neg)
    target = tensor(y.pos, x.neg)
    return Operator(transport_unitary(source.amplitudes, target.amplitudes))
