"""Bipartite density matrices.

Construction from pure vectors and probability tables, purity, and
mixed states drawn from the Hilbert-Schmidt ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _require_integer, dagger, eig_hermitian, hs_norm_sq, partial_trace_env, require_hermitian
from .randmat import RngHandle, ginibre

STATE_TOL = 1e-10


@dataclass(frozen=True)
class BipartiteState:
    """Density operator on a system (d_s) times environment (d_e) space.

    Validated on construction: Hermitian, unit trace, and positive
    semidefinite within ``STATE_TOL``. The positive-semidefinite check
    takes the lowest eigenvalue from a d x d eigensolve, except for the
    output of ``dephase_total``: that state is unitarily the direct sum
    of its d_s diagonal blocks, so the lowest eigenvalue of the blocks is
    exactly its own, and the d x d eigensolve is skipped.
    """

    d_s: int
    d_e: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        self._validate(None)

    def _validate(self, lowest: float | None) -> None:
        _require_integer(self.d_s, "d_s", 1)
        _require_integer(self.d_e, "d_e", 1)
        rho = require_hermitian(self.rho, "rho")
        if rho.shape[0] != self.d_s * self.d_e:
            raise ValueError(
                f"rho must be {self.d_s * self.d_e} x {self.d_s * self.d_e}, got {rho.shape}"
            )
        if abs(complex(np.trace(rho)) - 1.0) > STATE_TOL:
            raise ValueError("rho does not have unit trace")
        if lowest is None:
            lowest = eig_hermitian(rho)[0][0]
        if lowest < -STATE_TOL:
            raise ValueError(f"rho is not positive semidefinite (min eigenvalue {lowest})")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.d_s * self.d_e

    def marginal_system(self) -> np.ndarray:
        return partial_trace_env(self.rho, self.d_s, self.d_e)


def _with_lowest_eigenvalue(d_s: int, d_e: int, rho, lowest: float) -> BipartiteState:
    """``BipartiteState(d_s, d_e, rho)`` with ``lowest``, the caller's exact
    lowest eigenvalue of ``rho``, in place of the d x d eigensolve."""
    state = object.__new__(BipartiteState)
    vars(state).update(d_s=d_s, d_e=d_e, rho=rho)
    state._validate(lowest)
    return state


def from_pure(psi, d_s: int, d_e: int) -> BipartiteState:
    """Rank-one density operator |psi><psi| of a normalized vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != d_s * d_e:
        raise ValueError(f"vector length {psi.size} does not match d_s*d_e = {d_s * d_e}")
    norm = float(np.linalg.norm(psi))
    # not <=, so that a NaN entry fails here and not as a Hermiticity fault
    if not abs(norm - 1.0) <= STATE_TOL:
        raise ValueError(f"state vector is not normalized (norm {norm})")
    return BipartiteState(d_s, d_e, np.outer(psi, psi.conj()))


def purity(state: BipartiteState) -> float:
    """Tr(rho^2), between 1/(d_s*d_e) for maximally mixed and 1 for pure."""
    return float(hs_norm_sq(state.rho))


def classical_state(p) -> BipartiteState:
    """Classically correlated state sum_ij p_ij |i><i| x |j><j|.

    ``p`` is a d_s by d_e table of probabilities; the state is diagonal in
    the product of the computational bases. When the system marginal is
    nondegenerate the output is an exact fixed point of the local
    dephasing map.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValueError("probability table must be 2-dimensional")
    if np.any(p < -STATE_TOL):
        raise ValueError("probability table has negative entries")
    if not abs(float(p.sum()) - 1.0) <= STATE_TOL:  # a NaN entry fails here too
        raise ValueError(f"probability table sums to {p.sum()}, expected 1")
    d_s, d_e = p.shape
    # entry i d_e + j of the diagonal is p_ij
    return BipartiteState(d_s, d_e, np.diag(p.reshape(-1)))


def random_mixed(d_s: int, d_e: int, rank: int, rng: RngHandle) -> BipartiteState:
    """Hilbert-Schmidt-ensemble mixed state of the given rank.

    Normalized G G^dagger with G a (d_s*d_e) by rank complex Gaussian
    matrix; rank 1 reproduces a Haar-like pure state.
    """
    d = _require_integer(d_s, "d_s", 1) * _require_integer(d_e, "d_e", 1)
    if _require_integer(rank, "rank", 1) > d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    g = ginibre(d, rng, columns=rank)
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + dagger(rho))
    return BipartiteState(d_s, d_e, rho)
