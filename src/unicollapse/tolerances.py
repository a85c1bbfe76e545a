"""Central numerical tolerances and size budgets.

Every comparison threshold used by the package lives in one frozen record
instead of being scattered through the code as magic numbers.  The library
reads ``DEFAULT_TOL``; no function takes a per-call override.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-12            # unit-norm check on state construction
    unitary: float = 1e-10         # max-norm bound on U^dag U - I
    density: float = 1e-10         # hermiticity, trace-one, eigenvalue floor
    spectrum: float = 1e-9         # Schmidt-spectrum comparison / degeneracy grouping
    witness: float = 1e-9          # residual bound for an accepted witness
    rank_cutoff: float = 1e-12     # singular values at or below this count as zero
    entropy_floor: float = 1e-14   # eigenvalues at or below this contribute no entropy
    born_amplitude: float = 1e-12  # flatness bound on fine-grained amplitudes
    bleach: float = 1e-10          # trace-distance bound for bleached outputs
    normalizable: float = 1e-8     # norms below this cannot be normalized
    branch_amplitude: float = 1e-14  # amplitudes at or below this label no branch
    information_floor: float = 1e-12  # system entropy (bits) at or below this: no redundancy
    curve: float = 1e-9            # darwinism curve against its closed form and monotonicity
    fragment_env_dim: int = 2 ** 12  # largest environment dimension darwinism_curve accepts


DEFAULT_TOL = Tolerances()

# Dense-vector dimension budget: operations refuse to build joint spaces
# larger than this.
DIM_BUDGET = 2 ** 14
