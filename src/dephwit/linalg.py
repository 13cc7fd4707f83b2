"""Dense complex-matrix primitives.

The partial trace over the environment, the Hilbert-Schmidt norm,
Hermiticity and unitarity checks, the integer rule for dimensions and
counts, and a cyclic Jacobi eigensolver for complex Hermitian matrices
that returns plain arrays ``(w, v)``, the contract of ``np.linalg.eigh``,
for one matrix or a stack of them.

Matrices are plain ``numpy`` arrays of complex128. Where it costs nothing,
operations broadcast over leading axes so stacked inputs (Monte Carlo
batches) go through the same code path.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
JACOBI_SWEEP_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


class ConvergenceError(ArithmeticError):
    """An iterative routine failed to reach its tolerance."""


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _require_integer(value, name: str, low: int) -> int:
    """``value`` as an int, if it is an integer of at least ``low``: int()
    would truncate 2.5 to 2, and numpy would fail later on a float."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}")
    return int(value)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose acting on the last two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def as_square(a, name: str = "matrix") -> np.ndarray:
    """``a`` as one complex square matrix; a stack of matrices is rejected."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.ndim != 2:
        raise ValueError(f"{name} must be a single matrix, not a stack")
    return a


def _require_each_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    """``a``, if each matrix of its (..., n, n) stack is Hermitian within
    ``HERMITICITY_TOL``: absolute below unit HS norm, relative above it."""
    # written as not <= so that a NaN entry fails
    tol = HERMITICITY_TOL * np.maximum(1.0, hs_norm(a))
    if not np.all(np.abs(a - dagger(a)).max(axis=(-2, -1), initial=0.0) <= tol):
        raise ValueError(f"{name} is not Hermitian within tolerance {HERMITICITY_TOL}")
    return a


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    return _require_each_hermitian(as_square(a, name), name)


def require_unitary(u, name: str = "matrix") -> np.ndarray:
    u = as_square(u, name)
    if not float(np.abs(dagger(u) @ u - np.eye(u.shape[-1])).max(initial=0.0)) <= UNITARITY_TOL:
        raise ValueError(f"{name} is not unitary within tolerance {UNITARITY_TOL}")
    return u


def partial_trace_env(x: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Trace out the environment factor of an operator on a d_s*d_e space.

    Accepts stacked input (..., d, d) and contracts each slice.
    """
    x = np.asarray(x, dtype=complex)
    d = _require_integer(d_s, "d_s", 1) * _require_integer(d_e, "d_e", 1)
    if x.shape[-2:] != (d, d):
        raise ValueError(f"operator shape {x.shape} must end in ({d}, {d}) for d_s*d_e = {d}")
    r = x.reshape(x.shape[:-2] + (d_s, d_e, d_s, d_e))
    return np.einsum("...ikjk->...ij", r)


def hs_norm_sq(a: np.ndarray):
    """Squared Hilbert-Schmidt norm Tr a^dagger a."""
    a = np.asarray(a, dtype=complex)
    val = np.real(np.einsum("...ij,...ij->...", np.conj(a), a))
    return float(val) if val.ndim == 0 else val


def hs_norm(a: np.ndarray):
    """Hilbert-Schmidt norm sqrt(Tr a^dagger a)."""
    return np.sqrt(hs_norm_sq(a))


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


def _eig_one(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = require_hermitian(a, "a")
    d = a.shape[0]
    work = 0.5 * (a + dagger(a))
    vecs = np.eye(d, dtype=complex)
    stop = JACOBI_SWEEP_TOL * max(1.0, hs_norm(work))
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
    vals = np.diagonal(work).real
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize complex Hermitian matrices by cyclic Jacobi rotations.

    Returns ``(w, v)`` as ``np.linalg.eigh`` does: the eigenvalues ``w``
    ascending and ``v`` with the matching orthonormal columns. A stack
    (..., n, n) gives ``w`` of shape (..., n) and ``v`` of shape
    (..., n, n), each slice exactly what the slice's own call returns.

    Sweeps run until the off-diagonal Hilbert-Schmidt norm drops below
    ``JACOBI_SWEEP_TOL`` (hybrid absolute/relative).

    Raises ``ValueError`` if any matrix is not Hermitian and
    ``ConvergenceError`` if the sweep limit is exceeded (does not happen
    for Hermitian input at these dimensions).
    """
    a = np.asarray(a, dtype=complex)
    w = np.empty(a.shape[:-1])
    v = np.empty(a.shape, dtype=complex)
    # a single matrix is the one index (); the loop calls the helper, not
    # this name, so a wrapper of this name sees a stack as one call
    for i in np.ndindex(a.shape[:-2]):
        w[i], v[i] = _eig_one(a[i])
    return w, v
