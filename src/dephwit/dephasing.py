"""Local dephasing and the Hilbert-Schmidt discord measure.

The dephasing map Phi keeps the system-diagonal blocks of a bipartite
state in the eigenbasis V of its reduced system state, a plain d_s x d_s
unitary with columns v_mu, and drops the rest: Phi(rho) = sum_mu
(|v_mu><v_mu| x 1) rho (|v_mu><v_mu| x 1). It leaves both marginals
invariant and generally changes the total state. The residual
Hilbert-Schmidt distance is the discord measure: zero exactly for
classically correlated states.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, eig_hermitian, hs_norm, require_unitary
from .states import BipartiteState, _with_lowest_eigenvalue, purity

CLASSICALITY_TOL = 1e-8
DEGENERACY_GAP = 1e-9


def eigenbasis_of_marginal(state: BipartiteState) -> tuple[np.ndarray, bool]:
    """Dephasing basis from the eigenvectors of the reduced system state.

    Returns ``(vectors, degenerate)``. ``vectors`` is a d_s x d_s unitary
    whose columns are the basis vectors, ordered by ascending marginal
    eigenvalue. ``degenerate`` flags spectra with any gap below
    ``DEGENERACY_GAP``; delta then depends on the basis the eigensolver
    picks inside the degenerate eigenspace, not on the state alone.
    """
    eigenvalues, vectors = eig_hermitian(state.marginal_system())
    gaps = np.diff(eigenvalues)
    return vectors, bool(gaps.size and gaps.min() < DEGENERACY_GAP)


def dephase_total(state: BipartiteState, basis: np.ndarray | None = None) -> BipartiteState:
    """Dephase the system side of a total state: sum_mu Pi_mu rho Pi_mu.

    ``basis`` is a d_s x d_s unitary whose columns are the dephasing
    basis; with none given, the marginal eigenbasis of ``state`` is used.
    The purity never increases.

    Phi(rho) is unitarily the direct sum of its d_s blocks
    <v_mu| rho |v_mu>, so its spectrum is theirs: the output is checked to
    be positive semidefinite from one eigensolve of the (d_s, d_e, d_e)
    stack of blocks, not of the d x d matrix.
    """
    v = eigenbasis_of_marginal(state)[0] if basis is None else require_unitary(basis, "basis")
    if v.shape[0] != state.d_s:
        raise ValueError(f"basis dimension {v.shape[0]} does not match d_s = {state.d_s}")
    r = state.rho.reshape(state.d_s, state.d_e, state.d_s, state.d_e)
    # block mu is <v_mu| rho |v_mu>, an operator on the environment
    blocks = np.einsum("am,akbl,bm->mkl", v.conj(), r, v)
    out = np.einsum("im,mkl,jm->ikjl", v, blocks, v.conj()).reshape(state.rho.shape)
    out = 0.5 * (out + dagger(out))
    lowest = eig_hermitian(blocks)[0].min()
    return _with_lowest_eigenvalue(state.d_s, state.d_e, out, lowest)


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
