"""Local dephasing and the Hilbert-Schmidt discord measure.

The dephasing map keeps the diagonal of a system operator in the
eigenbasis of the reduced system state, a unitary V, and drops the rest:
Phi(A) = V diag(V^dagger A V) V^dagger. Applied to one side of a
bipartite state it keeps the system-diagonal blocks in the V x 1 frame,
leaves both marginals invariant and generally changes the total state.
The residual Hilbert-Schmidt distance is the discord measure: zero
exactly for classically correlated states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEGENERACY_GAP, as_square, dagger, eig_hermitian, hs_norm, require_unitary
from .states import BipartiteState, purity

CLASSICALITY_TOL = 1e-8


@dataclass(frozen=True)
class DephasingBasis:
    """Orthonormal dephasing basis from a marginal eigenbasis.

    ``vectors`` is a d_s x d_s unitary whose columns are the basis
    vectors, ordered by ascending marginal eigenvalue. ``degenerate``
    flags spectra with any gap below the eigensolver's degeneracy
    threshold; the basis is then a convention (the deterministic
    tie-broken one), not a property of the state alone.
    """

    vectors: np.ndarray
    source_eigenvalues: np.ndarray
    degenerate: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", require_unitary(self.vectors, "vectors"))
        object.__setattr__(
            self, "source_eigenvalues", np.asarray(self.source_eigenvalues, dtype=float)
        )

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def eigenbasis_of_marginal(state: BipartiteState) -> DephasingBasis:
    """Dephasing basis from the eigenvectors of the reduced system state."""
    eig = eig_hermitian(state.marginal_system())
    gaps = np.diff(eig.eigenvalues)
    degenerate = bool(gaps.size and gaps.min() < DEGENERACY_GAP)
    return DephasingBasis(eig.eigenvectors, eig.eigenvalues, degenerate)


def dephase_local(a, basis: DephasingBasis) -> np.ndarray:
    """Apply the dephasing map to a system operator: V diag(V^dagger A V) V^dagger."""
    a = as_square(a, "a")
    if a.shape != (basis.dim, basis.dim):
        raise ValueError(f"operator shape {a.shape} does not match basis dimension {basis.dim}")
    v = basis.vectors
    return (v * np.diagonal(dagger(v) @ a @ v)) @ dagger(v)


def dephase_total(state: BipartiteState, basis: DephasingBasis | None = None) -> BipartiteState:
    """Dephase the system side of a total state: sum_mu Pi_mu rho Pi_mu.

    Only the system-diagonal blocks of rho in the V x 1 frame survive.
    Both marginals are invariant; the purity never increases. With no
    basis given, the marginal eigenbasis of ``state`` is used.
    """
    if basis is None:
        basis = eigenbasis_of_marginal(state)
    if basis.dim != state.d_s:
        raise ValueError(f"basis dimension {basis.dim} does not match d_s = {state.d_s}")
    v = basis.vectors
    r = state.rho.reshape(state.d_s, state.d_e, state.d_s, state.d_e)
    # block mu is <v_mu| rho |v_mu>, an operator on the environment
    blocks = np.einsum("am,akbl,bm->mkl", v.conj(), r, v)
    out = np.einsum("im,mkl,jm->ikjl", v, blocks, v.conj()).reshape(state.rho.shape)
    out = 0.5 * (out + dagger(out))
    return BipartiteState(state.d_s, state.d_e, out)


def discord_delta(state: BipartiteState) -> float:
    """Hilbert-Schmidt distance between a state and its dephased image.

    Nonnegative, and zero exactly when the state carries only classical
    correlations. Equals sqrt(purity(rho) - purity(rho')) by the purity
    identity; the direct norm is returned and the identity is asserted in
    debug mode.
    """
    deph = dephase_total(state)
    direct = float(hs_norm(state.rho - deph.rho))
    if __debug__:
        drop = purity(state) - purity(deph)
        assert abs(direct**2 - drop) <= 1e-10 * max(1.0, purity(state)), (
            f"purity identity violated: delta^2 = {direct**2}, purity drop = {drop}"
        )
    return direct


def is_classical(state: BipartiteState, tol: float = CLASSICALITY_TOL) -> bool:
    """True when the state is invariant under local dephasing within tol."""
    return discord_delta(state) <= tol
