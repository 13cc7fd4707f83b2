"""Dense complex-matrix primitives.

The partial trace over the environment, the Hilbert-Schmidt norm,
Hermiticity and unitarity checks, the integer rule for dimensions and
counts, and the Hermitian eigensolver: LAPACK ``np.linalg.eigh`` behind a
Hermiticity check, for one matrix or a stack of them.

Matrices are plain ``numpy`` arrays of complex128. Where it costs nothing,
operations broadcast over leading axes so stacked inputs (Monte Carlo
batches) go through the same code path.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10


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


def _as_squares(a, name: str) -> np.ndarray:
    """``a`` as a complex (..., n, n) stack of square matrices."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def as_square(a, name: str = "matrix") -> np.ndarray:
    """``a`` as one complex square matrix; a stack of matrices is rejected."""
    a = _as_squares(a, name)
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


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize complex Hermitian matrices: LAPACK ``np.linalg.eigh``
    on the Hermitian part (a + a^dagger)/2.

    Returns ``(w, v)``: the eigenvalues ``w`` ascending and ``v`` with the
    matching orthonormal columns. A stack (..., n, n) gives ``w`` of shape
    (..., n) and ``v`` of shape (..., n, n), one LAPACK call per slice.

    Raises ``ValueError`` if ``a`` is not square or any matrix is not
    Hermitian, and ``np.linalg.LinAlgError``, itself a ``ValueError``, if
    LAPACK does not converge.
    """
    a = _require_each_hermitian(_as_squares(a, "a"), "a")
    return np.linalg.eigh(0.5 * (a + dagger(a)))
