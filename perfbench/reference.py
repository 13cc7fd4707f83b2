"""Reference computations the benchmark checks `dephwit` against.

Everything here uses numpy only (`np.linalg.eigh`, `svd`, `qr`,
`eigvalsh` and `np.random.default_rng`) and none of `dephwit`'s code, so a
fault in the program cannot hide in its own reference. Operators on the
joint space are ordered system first, environment second.
"""

from __future__ import annotations

import math

import numpy as np


def partial_trace_env(x: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Tr_E of an operator, or of a stack of operators, on a d_s*d_e space."""
    r = x.reshape(x.shape[:-2] + (d_s, d_e, d_s, d_e))
    return np.trace(r, axis1=-3, axis2=-1)


def dephase(rho: np.ndarray, d_s: int, d_e: int) -> tuple[np.ndarray, np.ndarray]:
    """Local dephasing in the eigenbasis of the system marginal.

    Returns the dephased state and the ascending marginal spectrum. In the
    frame V (x) I, with V the eigenvectors of the marginal, dephasing keeps
    the diagonal system blocks of rho reshaped to (d_s, d_e, d_s, d_e).
    """
    vals, v = np.linalg.eigh(partial_trace_env(rho, d_s, d_e))
    frame = np.kron(v, np.eye(d_e))
    r = (frame.conj().T @ rho @ frame).reshape(d_s, d_e, d_s, d_e)
    kept = np.zeros_like(r)
    idx = np.arange(d_s)
    kept[idx, :, idx, :] = r[idx, :, idx, :]
    d = d_s * d_e
    return frame @ kept.reshape(d, d) @ frame.conj().T, vals


def discord(rho: np.ndarray, d_s: int, d_e: int) -> float:
    """delta(rho) = ||rho - Phi(rho)||_2 with Phi the marginal dephasing."""
    return float(np.linalg.norm(rho - dephase(rho, d_s, d_e)[0]))


def concurrence(psi: np.ndarray, d_s: int, d_e: int) -> float:
    """Generalized concurrence sqrt(2 (1 - sum s^4)) from the singular
    values s of the amplitude matrix; for pure states delta = C / sqrt 2."""
    s = np.linalg.svd(np.asarray(psi).reshape(d_s, d_e), compute_uv=False)
    return math.sqrt(max(2.0 * (1.0 - float(np.sum(s**4))), 0.0))


def haar_mean_sq(m: np.ndarray, d_s: int, d_e: int) -> float:
    """E_U ||Tr_E(U M U^dagger)||^2 over Haar U, for Hermitian M.

    From the second moment E[(U M U^dagger)^(x2)] = c_1 1 + c_2 F, with F
    the swap of the two copies (Weingarten calculus at degree 2), and
    ||Tr_E X||^2 = Tr[(X (x) X)(F_S (x) 1_E)]. The two traces are
    Tr[F_S (x) 1_E] = d_s d_e^2 and Tr[F (F_S (x) 1_E)] = d_s^2 d_e, which
    gives alpha ||M||^2 + beta (Tr M)^2.
    """
    d = d_s * d_e
    norm_sq = float(np.real(np.vdot(m, m)))
    tr_sq = float(np.real(np.trace(m))) ** 2
    c_1 = (tr_sq - norm_sq / d) / (d * d - 1)
    c_2 = (norm_sq - tr_sq / d) / (d * d - 1)
    return c_1 * d_s * d_e**2 + c_2 * d_s**2 * d_e


def choi(a_op: np.ndarray, b_op: np.ndarray) -> np.ndarray:
    """Choi matrix (1/d) sum_op (A|o><p|B) (x) |o><p| of X -> A X B,
    output factor first, built term by term."""
    d = a_op.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for o in range(d):
        for p in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[o, p] = 1.0
            out += np.kron(a_op @ unit @ b_op, unit)
    return out / d


def omega(d: int) -> np.ndarray:
    """Maximally entangled ket (1/sqrt d) sum_w |w>|w>."""
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def twirl_constants(a_op: np.ndarray, b_op: np.ndarray) -> tuple[complex, complex]:
    """(a, b) of the twirl E_U[U^dag A U X U^dag B U] = a Tr(X) 1 + b X.

    The twirl maps the Choi matrix C of X -> A X B onto a 1/d + b |W><W|
    (W = omega) and keeps its trace and its overlap <W|C|W>. So
    a d + b = Tr C and a / d + b = <W|C|W>.
    """
    d = a_op.shape[0]
    c = choi(a_op, b_op)
    w = omega(d)
    trace = complex(np.trace(c))
    overlap = complex(w.conj() @ c @ w)
    a = (trace - overlap) / (d - 1.0 / d)
    return a, overlap - a / d


def isotropic_choi(a: complex, b: complex, d: int) -> np.ndarray:
    """a 1/d + b |W><W|, the Choi matrix of the twirled channel."""
    w = omega(d)
    return a * np.eye(d * d) / d + b * np.outer(w, w.conj())


def haar_unitaries(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """n Haar unitaries: QR of complex Gaussians, columns rephased by diag(R)."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (np.abs(diag) / diag)[:, None, :]


def gue_levels(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """n GUE spectra, ascending, scaled to unit mean spacing over the bulk:
    levels floor(0.1 d) to ceil(0.9 d) - 1 (the whole spectrum when that
    leaves fewer than two levels)."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    levels = np.linalg.eigvalsh(g + np.conj(np.swapaxes(g, -1, -2)))
    lo, hi = math.floor(0.1 * d), math.ceil(0.9 * d)
    if hi - lo < 2:
        lo, hi = 0, d
    spacing = (levels[:, hi - 1] - levels[:, lo]) / (hi - 1 - lo)
    return levels / spacing[:, None]


def mean_and_error(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(samples.size))


def structured_mean_sq(
    m: np.ndarray, d_s: int, d_e: int, t: float, n: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Annealed GUE average of ||Tr_E(U M U^dagger)||^2 with
    U = W exp(-i E t) W^dagger, W Haar and E a fresh GUE spectrum per sample."""
    d = d_s * d_e
    w = haar_unitaries(rng, d, n)
    levels = gue_levels(rng, d, n)
    u = (w * np.exp(-1j * t * levels)[:, None, :]) @ np.conj(np.swapaxes(w, -1, -2))
    red = partial_trace_env(u @ m @ np.conj(np.swapaxes(u, -1, -2)), d_s, d_e)
    return mean_and_error(np.sum(np.abs(red) ** 2, axis=(-2, -1)))


def z_score(mean: float, error: float, reference: float, reference_error: float = 0.0) -> float:
    """Distance of mean from reference in combined standard errors."""
    scale = math.hypot(error, reference_error)
    if scale == 0.0:
        return 0.0 if mean == reference else math.copysign(math.inf, mean - reference)
    return (mean - reference) / scale
