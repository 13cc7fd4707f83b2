"""Dense complex-matrix primitives.

Partial traces over either factor, Hilbert-Schmidt geometry, unitarity
checks, and a cyclic Jacobi eigensolver for complex Hermitian matrices
with a deterministic ordering convention for degenerate spectra.

Matrices are plain ``numpy`` arrays of complex128. Where it costs nothing,
operations broadcast over leading axes so stacked inputs (Monte Carlo
batches) go through the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
DEGENERACY_GAP = 1e-9
JACOBI_SWEEP_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


class ConvergenceError(ArithmeticError):
    """An iterative routine failed to reach its tolerance."""


def _tol(base: float, scale: float) -> float:
    # absolute below unit scale, relative above it
    return base * max(1.0, scale)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose acting on the last two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    a = as_square(a, name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a single matrix, not a stack")
    # written as not <= so that a NaN entry fails
    if not float(np.abs(a - dagger(a)).max(initial=0.0)) <= _tol(HERMITICITY_TOL, float(hs_norm(a))):
        raise ValueError(f"{name} is not Hermitian within tolerance {HERMITICITY_TOL}")
    return a


def require_unitary(u, name: str = "matrix") -> np.ndarray:
    u = as_square(u, name)
    if u.ndim != 2:
        raise ValueError(f"{name} must be a single matrix, not a stack")
    if not float(np.abs(dagger(u) @ u - np.eye(u.shape[-1])).max(initial=0.0)) <= UNITARITY_TOL:
        raise ValueError(f"{name} is not unitary within tolerance {UNITARITY_TOL}")
    return u


def partial_trace_env(x: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Trace out the environment factor of an operator on a d_s*d_e space.

    Accepts stacked input (..., d, d) and contracts each slice.
    """
    x = as_square(x, "x")
    if x.shape[-1] != d_s * d_e:
        raise ValueError(
            f"operator dimension {x.shape[-1]} does not match d_s*d_e = {d_s * d_e}"
        )
    r = x.reshape(x.shape[:-2] + (d_s, d_e, d_s, d_e))
    return np.einsum("...ikjk->...ij", r)


def partial_trace_sys(x: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Trace out the system factor, returning a d_e by d_e operator."""
    x = as_square(x, "x")
    if x.shape[-1] != d_s * d_e:
        raise ValueError(
            f"operator dimension {x.shape[-1]} does not match d_s*d_e = {d_s * d_e}"
        )
    r = x.reshape(x.shape[:-2] + (d_s, d_e, d_s, d_e))
    return np.einsum("...kikj->...ij", r)


def hs_inner(a: np.ndarray, b: np.ndarray):
    """Hilbert-Schmidt inner product Tr(a^dagger b); broadcasts over stacks."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    out = np.einsum("...ij,...ij->...", np.conj(a), b)
    return complex(out) if out.ndim == 0 else out


def hs_norm_sq(a: np.ndarray):
    """Squared Hilbert-Schmidt norm, clipped to be nonnegative."""
    a = np.asarray(a, dtype=complex)
    val = np.real(np.einsum("...ij,...ij->...", np.conj(a), a))
    return float(max(val, 0.0)) if val.ndim == 0 else np.maximum(val, 0.0)


def hs_norm(a: np.ndarray):
    """Hilbert-Schmidt norm sqrt(Tr a^dagger a)."""
    return np.sqrt(hs_norm_sq(a))


@dataclass(frozen=True)
class HermitianEigensystem:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` is ascending; ``eigenvectors`` holds the matching
    orthonormal columns. Within a degenerate cluster (gap below
    ``DEGENERACY_GAP``) columns are ordered by descending magnitude, then
    phase, of their first significant component, and every column is
    rescaled so that component is real and positive. This makes the basis
    a deterministic function of the input matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def _first_significant(col: np.ndarray) -> int:
    idx = np.flatnonzero(np.abs(col) > 1e-9)
    return int(idx[0]) if idx.size else int(np.argmax(np.abs(col)))


def _canonicalize_columns(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    d = vals.size
    i = 0
    while i < d:
        j = i + 1
        while j < d and vals[j] - vals[j - 1] < DEGENERACY_GAP:
            j += 1
        if j - i > 1:
            def key(k: int):
                z = out[:, k][_first_significant(out[:, k])]
                return (-abs(z), math.atan2(z.imag, z.real))

            order = sorted(range(i, j), key=key)
            out[:, i:j] = out[:, order]
        i = j
    for k in range(d):
        z = out[:, k][_first_significant(out[:, k])]
        if abs(z) > 0.0:
            out[:, k] *= z.conjugate() / abs(z)
    return out


def _jacobi_rotate(work: np.ndarray, vecs: np.ndarray, p: int, q: int) -> None:
    apq = work[p, q]
    mag = abs(apq)
    phase = apq / mag
    tau = (work[q, q].real - work[p, p].real) / (2.0 * mag)
    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    # 2x2 unitary: a real rotation composed with the phase that makes
    # the pivot entry real positive
    rot = np.array(
        [[c, s], [-s * phase.conjugate(), c * phase.conjugate()]], dtype=complex
    )
    cols = [p, q]
    work[:, cols] = work[:, cols] @ rot
    work[cols, :] = dagger(rot) @ work[cols, :]
    work[p, q] = 0.0
    work[q, p] = 0.0
    work[p, p] = work[p, p].real
    work[q, q] = work[q, q].real
    vecs[:, cols] = vecs[:, cols] @ rot


def eig_hermitian(a: np.ndarray) -> HermitianEigensystem:
    """Diagonalize a complex Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Hilbert-Schmidt norm drops below
    ``JACOBI_SWEEP_TOL`` (hybrid absolute/relative). Eigenvalues come back
    ascending with deterministically tie-broken eigenvectors; see
    :class:`HermitianEigensystem`.

    Raises ``ValueError`` for non-Hermitian input and ``ConvergenceError``
    if the sweep limit is exceeded (does not happen for Hermitian input
    at these dimensions).
    """
    a = require_hermitian(a, "a")
    d = a.shape[0]
    work = 0.5 * (a + dagger(a))
    vecs = np.eye(d, dtype=complex)
    if d == 1:
        return HermitianEigensystem(np.array([work[0, 0].real]), vecs)
    stop = _tol(JACOBI_SWEEP_TOL, hs_norm(work))
    skip = stop / (d * d)
    off_mask = ~np.eye(d, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        # summed directly over off-diagonal entries; subtracting the
        # diagonal from the total norm cancels catastrophically
        off = math.sqrt(float(np.sum(np.abs(work[off_mask]) ** 2)))
        if off <= stop:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(work[p, q]) > skip:
                    _jacobi_rotate(work, vecs, p, q)
    else:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge within {JACOBI_MAX_SWEEPS} sweeps"
        )
    vals = np.diagonal(work).real.copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = _canonicalize_columns(vals, vecs[:, order])
    return HermitianEigensystem(vals, vecs)
