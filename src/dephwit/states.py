"""Bipartite density matrices and pure-state structure.

Construction from pure vectors and probability tables, Schmidt
decomposition (one singular value decomposition of the reshaped
amplitude matrix), purity, the generalized concurrence, and random-state
generators drawn from the Hilbert-Schmidt ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import dagger, eig_hermitian, hs_norm_sq, partial_trace_env, require_hermitian
from .randmat import RngHandle, ginibre, haar_unitary

STATE_TOL = 1e-10


@dataclass(frozen=True)
class BipartiteState:
    """Density operator on a system (d_s) times environment (d_e) space.

    Validated on construction: Hermitian, unit trace, and positive
    semidefinite within ``STATE_TOL``.
    """

    d_s: int
    d_e: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        if self.d_s < 1 or self.d_e < 1:
            raise ValueError("dimensions must be at least 1")
        rho = require_hermitian(self.rho, "rho")
        if rho.shape[0] != self.d_s * self.d_e:
            raise ValueError(
                f"rho must be {self.d_s * self.d_e} x {self.d_s * self.d_e}, got {rho.shape}"
            )
        if abs(complex(np.trace(rho)) - 1.0) > STATE_TOL:
            raise ValueError("rho does not have unit trace")
        lowest = eig_hermitian(rho).eigenvalues[0]
        if lowest < -STATE_TOL:
            raise ValueError(f"rho is not positive semidefinite (min eigenvalue {lowest})")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.d_s * self.d_e

    def marginal_system(self) -> np.ndarray:
        return partial_trace_env(self.rho, self.d_s, self.d_e)

    def marginal_env(self) -> np.ndarray:
        return linalg.partial_trace_sys(self.rho, self.d_s, self.d_e)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Biorthogonal expansion of a bipartite pure vector.

    ``coefficients`` are positive and descending with squares summing
    to one; the two vector families are orthonormal columns. Coefficients
    at the rounding level of the largest, lambda_0 max(d_s, d_e) eps or
    below, are dropped, so the rank can be smaller than min(d_s, d_e).
    """

    coefficients: np.ndarray
    system_vectors: np.ndarray
    environment_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)

    def reconstruct(self) -> np.ndarray:
        return ((self.system_vectors * self.coefficients) @ self.environment_vectors.T).reshape(-1)


def _as_state_vector(psi, d_s: int, d_e: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != d_s * d_e:
        raise ValueError(f"vector length {psi.size} does not match d_s*d_e = {d_s * d_e}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > STATE_TOL:
        raise ValueError(f"state vector is not normalized (norm {norm})")
    return psi


def from_pure(psi, d_s: int, d_e: int) -> BipartiteState:
    """Rank-one density operator |psi><psi| of a normalized vector."""
    psi = _as_state_vector(psi, d_s, d_e)
    return BipartiteState(d_s, d_e, np.outer(psi, psi.conj()))


def schmidt(psi, d_s: int, d_e: int) -> SchmidtDecomposition:
    """Schmidt decomposition of a normalized bipartite vector.

    The amplitude matrix C (d_s by d_e) has the singular value
    decomposition C = U diag(lambda) W^T: the coefficients are its
    singular values, the system vectors the columns of U and the
    environment vectors the columns of W. The singular values keep their
    relative accuracy, so small coefficients are not lost to the squared
    condition number of the Gram matrix C C^dagger.
    """
    psi = _as_state_vector(psi, d_s, d_e)
    u, lams, wt = np.linalg.svd(psi.reshape(d_s, d_e), full_matrices=False)
    keep = lams > lams[0] * max(d_s, d_e) * np.finfo(float).eps
    return SchmidtDecomposition(lams[keep], u[:, keep], wt[keep].T)


def purity(state: BipartiteState) -> float:
    """Tr(rho^2), between 1/(d_s*d_e) for maximally mixed and 1 for pure."""
    return float(hs_norm_sq(state.rho))


def concurrence_pure(psi, d_s: int, d_e: int) -> float:
    """Generalized concurrence sqrt(2 (1 - sum lambda_i^4)) of a pure state.

    Summed as 2 sqrt(sum_{i<j} lambda_i^2 lambda_j^2), which equals it for
    normalized coefficients and, unlike 1 - sum lambda_i^4, does not
    cancel for nearly product states. Vanishes exactly for product states.
    """
    p = schmidt(psi, d_s, d_e).coefficients ** 2
    return float(2.0 * np.sqrt(np.sum(np.triu(np.outer(p, p), 1))))


def _basis(u, d: int, name: str) -> np.ndarray:
    if u is None:
        return np.eye(d)
    u = linalg.require_unitary(u, name)
    if u.shape != (d, d):
        raise ValueError(f"{name} must be {d} x {d} to match the table, got {u.shape}")
    return u


def classical_state(p, system_basis=None, env_basis=None) -> BipartiteState:
    """Classically correlated state sum_ij p_ij |a_i><a_i| x |b_j><b_j|.

    ``p`` is a d_s by d_e table of probabilities; the bases are matrices
    of orthonormal columns (identity when omitted). When the system
    marginal is nondegenerate the output is an exact fixed point of the
    local dephasing map.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValueError("probability table must be 2-dimensional")
    if np.any(p < -STATE_TOL):
        raise ValueError("probability table has negative entries")
    if abs(float(p.sum()) - 1.0) > STATE_TOL:
        raise ValueError(f"probability table sums to {p.sum()}, expected 1")
    d_s, d_e = p.shape
    # column i d_e + j of a x b is a_i x b_j, weighted by p_ij
    ab = np.kron(_basis(system_basis, d_s, "system_basis"), _basis(env_basis, d_e, "env_basis"))
    return BipartiteState(d_s, d_e, (ab * p.reshape(-1)) @ dagger(ab))


def random_pure(d_s: int, d_e: int, rng: RngHandle) -> np.ndarray:
    """Haar-distributed unit vector (a d x 1 Haar isometry, from 2d normals)."""
    return haar_unitary(d_s * d_e, rng, columns=1)[:, 0]


def random_mixed(d_s: int, d_e: int, rank: int, rng: RngHandle) -> BipartiteState:
    """Hilbert-Schmidt-ensemble mixed state of the given rank.

    Normalized G G^dagger with G a (d_s*d_e) by rank complex Gaussian
    matrix; rank 1 reproduces a Haar-like pure state.
    """
    d = d_s * d_e
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    g = ginibre(d, rng, columns=rank)
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + dagger(rho))
    return BipartiteState(d_s, d_e, rho)
