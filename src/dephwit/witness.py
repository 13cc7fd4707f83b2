"""Local-detection witness and Haar-average machinery.

The witness compares the reduced evolution of a state against that of
its locally dephased image. This module provides the single-unitary
witness distance, Monte Carlo Haar averages of its square with the exact
closed form they must reproduce, structured-evolution averages, the
twirling channel with its analytic constants and Choi-matrix
cross-check, and the trace-distance diagnostic.

Monte Carlo sampling is chunked: samples are split into fixed-size
chunks, each drawn from its own derived RNG substream. Each chunk reports
(count, mean, M2), its sum of squared deviations, and the chunks are
merged in chunk order. Results are therefore bit-identical for any worker
count. The Choi check's samples are rank one, the outer product of two
vectors of length d^2, so its chunk moments come from centered factors
through matrix products over the chunk axis, in O(n d^2) memory, instead
of a second pass over n dense (d^2, d^2) samples.

Structured averages take the mean over the Haar eigenvectors exactly
(:mod:`dephwit.weingarten`): fixed spectra give exact rows, and annealed
rows are a Monte Carlo over shared spectra, correlated by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_square,
    dagger,
    eig_hermitian,
    hs_norm,
    partial_trace_env,
    require_hermitian,
    require_unitary,
)
from .randmat import RngHandle, SpectrumEnsemble, StructuredEvolution, haar_unitary, sample_spectrum
from .states import BipartiteState
from .weingarten import weingarten_matrix, witness_columns, witness_rows

MC_CHUNK = 512


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo sample mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("Monte Carlo estimates need at least 2 samples")

    def rms(self) -> tuple[float, float]:
        """Root of the mean with the propagated standard error.

        The estimators target squared norms, for which the closed forms
        are exact; the root is the reported observable. Error propagation
        std_error / (2 rms) degenerates at rms = 0, where the root of the
        error is returned as a conservative scale.
        """
        root = math.sqrt(max(self.mean, 0.0))
        if root > 0.0:
            return root, self.std_error / (2.0 * root)
        return 0.0, math.sqrt(max(self.std_error, 0.0))

    def z_score(self, reference: float) -> float:
        """Deviation of the mean from ``reference`` in standard errors.

        When the samples carry no noise, ``std_error`` sits at the rounding
        scale, and a closed form carries its own rounding:
        ``theorem_rhs(np.eye(6), 2, 3)`` gives 17.999999999999996. There z
        measures rounding rather than sampling; on that operator it comes
        out near 24 at 2,000 samples.
        """
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else math.inf
        return (self.mean - reference) / self.std_error


@dataclass(frozen=True)
class TwirlConstants:
    """Coefficients of the twirled channel a Tr(X) I + b X.

    Real for Hermitian operator pairs; complex in general.
    """

    a: complex
    b: complex


@dataclass(frozen=True)
class ChoiCheckResult:
    """Residual of the Monte Carlo Choi matrix against the isotropic form."""

    residual: float
    mc_error: float
    constants: TwirlConstants
    n_samples: int


@dataclass(frozen=True)
class WitnessResult:
    """Witness trajectory along a time grid, with the trace-distance diagnostic."""

    time_grid: np.ndarray
    hs_distance: np.ndarray
    trace_distance: np.ndarray


# ---------------------------------------------------------------------------
# chunked Monte Carlo driver


def _chunk_counts(n_samples: int) -> list[int]:
    full, rest = divmod(n_samples, MC_CHUNK)
    return [MC_CHUNK] * full + ([rest] if rest else [])


def _run_chunks(worker_fn, n_chunks: int, workers: int) -> list:
    if workers <= 1 or n_chunks <= 1:
        return [worker_fn(k) for k in range(n_chunks)]
    from concurrent.futures import ThreadPoolExecutor  # a serial run skips the import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker_fn, range(n_chunks)))


def _two_pass(samples: np.ndarray):
    """(count, mean, M2) of one chunk of samples, M2 from a second pass.

    No sum of squares cancels against a squared mean. For complex samples
    M2 sums the squared deviations of the real and imaginary parts.
    """
    # samplers return a fresh array, so the deviations overwrite it
    dev = np.ascontiguousarray(samples)
    count = dev.shape[0]
    mean = dev.mean(axis=0)
    dev -= mean
    # real and imaginary parts side by side, squared and summed in one pass
    parts = dev.reshape(count, -1).view(np.float64)
    m2 = np.einsum("nk,nk->k", parts, parts).reshape(np.shape(mean) + (-1,)).sum(axis=-1)
    return count, mean, m2


def _merge(partials):
    """Mean and standard error from per-chunk (count, mean, M2), in chunk order.

    The pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 242, 1983);
    merging in a fixed order keeps the result independent of ``workers``.
    """
    n, mean, m2 = partials[0]
    for n_b, mean_b, m2_b in partials[1:]:
        delta = mean_b - mean
        total = n + n_b
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + (delta.real**2 + delta.imag**2) * (n * n_b / total)
        n = total
    return mean, np.sqrt(m2 / ((n - 1) * n))


def _mc_chunks(chunk_fn, n_samples: int, rng: RngHandle, workers: int):
    """Mean and standard error from chunk statistics.

    ``chunk_fn(handle, count)`` draws ``count`` samples from ``handle`` and
    returns their (count, mean, M2). Chunk k always uses rng.derive(0, k).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    counts = _chunk_counts(n_samples)
    partials = _run_chunks(lambda k: chunk_fn(rng.derive(0, k), counts[k]), len(counts), workers)
    return _merge(partials)


def _mc_moments(sample_fn, n_samples: int, rng: RngHandle, workers: int):
    """Mean and standard error of a per-sample function of any trailing shape.

    ``sample_fn(handle, count)`` returns ``count`` samples drawn from the
    given substream; each chunk's moments come from :func:`_two_pass`.
    """
    return _mc_chunks(lambda handle, count: _two_pass(sample_fn(handle, count)), n_samples, rng, workers)


def _batch_norm_sq_reduced(u: np.ndarray, m: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Per-sample squared HS norm of the reduced conjugated operator."""
    x = (u @ m) @ dagger(u)
    delta = partial_trace_env(x, d_s, d_e)
    return np.einsum("nij,nij->n", delta.conj(), delta).real


# ---------------------------------------------------------------------------
# witness distance and Haar averages


def _check_state_pair(rho: BipartiteState, rho_deph: BipartiteState) -> np.ndarray:
    if (rho.d_s, rho.d_e) != (rho_deph.d_s, rho_deph.d_e):
        raise ValueError("state pair has mismatched dimensions")
    return rho.rho - rho_deph.rho


def witness_distance(rho: BipartiteState, rho_deph: BipartiteState, u) -> float:
    """HS norm of the reduced difference after a joint unitary evolution.

    Zero (within numerical noise) for every unitary when the state is
    classical; any strictly positive value witnesses nonclassical
    correlations. Bounded above by sqrt(d_e) times the discord measure.
    """
    m = _check_state_pair(rho, rho_deph)
    u = require_unitary(u, "u")
    if u.shape[0] != rho.dim:
        raise ValueError(f"unitary dimension {u.shape[0]} does not match state dimension {rho.dim}")
    return float(hs_norm(partial_trace_env(u @ m @ dagger(u), rho.d_s, rho.d_e)))


def haar_witness_prefactor_sq(d_s: int, d_e: int) -> float:
    """Haar mean of the squared witness per unit squared discord.

    For a traceless Hermitian difference operator the average squared
    reduced distance is this dimensional factor times the squared HS norm.
    """
    if d_s * d_e < 2:
        raise ValueError("total dimension must be at least 2")
    return (d_s**2 * d_e - d_e) / (d_s**2 * d_e**2 - 1)


def pure_state_rms_prefactor(d_s: int, d_e: int) -> float:
    """RMS witness per unit concurrence for pure states (discord = C / sqrt 2)."""
    return math.sqrt(haar_witness_prefactor_sq(d_s, d_e) / 2.0)


def theorem_rhs(m, d_s: int, d_e: int) -> float:
    """Closed-form Haar average of || Tr_env(U M U^dagger) ||^2.

    Two dimensional coefficients multiply the squared HS norm and the
    squared trace of the Hermitian operator M.
    """
    m = require_hermitian(m, "m")
    if m.shape[0] != d_s * d_e:
        raise ValueError(f"operator dimension {m.shape[0]} does not match d_s*d_e = {d_s * d_e}")
    if d_s * d_e < 2:
        raise ValueError("total dimension must be at least 2")
    denom = d_s**2 * d_e**2 - 1
    norm_coeff = (d_s**2 * d_e - d_e) / denom
    trace_coeff = (d_s * d_e**2 - d_s) / denom
    tr = float(np.trace(m).real)
    return norm_coeff * float(hs_norm(m)) ** 2 + trace_coeff * tr**2


def _haar_mean_sq(m: np.ndarray, d_s: int, d_e: int, n_samples: int, rng: RngHandle, workers: int) -> McEstimate:
    d = d_s * d_e

    def sample_fn(handle: RngHandle, count: int) -> np.ndarray:
        u = haar_unitary(d, handle, size=count)
        return _batch_norm_sq_reduced(u, m, d_s, d_e)

    mean, std_error = _mc_moments(sample_fn, n_samples, rng, workers)
    return McEstimate(float(mean), float(std_error), n_samples)


def haar_average_distance_sq(
    rho: BipartiteState,
    rho_deph: BipartiteState,
    n_samples: int,
    rng: RngHandle,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo Haar average of the squared witness distance.

    Converges to the dimensional prefactor times the squared discord of
    ``rho``; take ``.rms()`` for the root-mean-square witness.
    """
    m = _check_state_pair(rho, rho_deph)
    return _haar_mean_sq(m, rho.d_s, rho.d_e, n_samples, rng, workers)


def theorem_mc_check(
    m, d_s: int, d_e: int, n_samples: int, rng: RngHandle, workers: int = 1
) -> tuple[McEstimate, float]:
    """Monte Carlo estimate of the Haar-averaged squared reduced norm,
    paired with its closed-form value."""
    m = require_hermitian(m, "m")
    rhs = theorem_rhs(m, d_s, d_e)  # rejects bad dimensions before any sampling
    return _haar_mean_sq(m, d_s, d_e, n_samples, rng, workers), rhs


def structured_average_grid(
    rho: BipartiteState,
    rho_deph: BipartiteState,
    ensemble: SpectrumEnsemble,
    time_grid,
    n_samples: int,
    rng: RngHandle,
    workers: int = 1,
    redraw_spectrum: bool = True,
) -> list[McEstimate]:
    """Average squared witness under W exp(-iDt) W^dagger along a time grid.

    The Haar W is averaged exactly, by the degree-4 Weingarten sum
    r(M) Wg c(D, t) of :mod:`dephwit.weingarten`, M = rho - rho_deph. For a
    dephasing pair r(M) / delta^2 is one fixed vector: the average is exactly
    delta^2 K(d_s, d_e, D, t), the ensemble analogue of the Haar
    proportionality. A fixed D (quenched, frozen once from rng.derive(1), or
    ``explicit``) gives exact rows ``McEstimate(value, 0.0, n_samples)`` that
    draw nothing; ``n_samples`` only labels them. Annealed rows are a Monte
    Carlo over spectra alone (chunk k from rng.derive(0, k)), each sample the
    exact mean over W; all times share the spectra, so those rows are
    correlated and must not be combined as independent estimates. Rows with
    t = 0 are exactly zero.
    """
    m = _check_state_pair(rho, rho_deph)
    d = rho.dim
    if ensemble.dim != d:
        raise ValueError(f"ensemble dimension {ensemble.dim} does not match state dimension {d}")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    times = np.asarray(time_grid, dtype=float).reshape(-1)
    estimates = [McEstimate(0.0, 0.0, n_samples)] * times.size
    moving = np.flatnonzero(times)
    if moving.size == 0:
        return estimates
    weights = weingarten_matrix(4, d) @ witness_rows(m, rho.d_s, rho.d_e)

    def mean_sq(levels: np.ndarray) -> np.ndarray:
        # the exact mean over W for each spectrum, one column per moving time
        return np.stack([(witness_columns(levels, t) @ weights).real for t in times[moving]], axis=-1)

    if ensemble.kind == "explicit" or not redraw_spectrum:
        mean = mean_sq(sample_spectrum(ensemble, rng.derive(1)))
        std_error = np.zeros_like(mean)
    else:
        mean, std_error = _mc_moments(
            lambda handle, count: mean_sq(sample_spectrum(ensemble, handle, size=count)), n_samples, rng, workers
        )
    for i, mu, err in zip(moving, mean, std_error):
        estimates[i] = McEstimate(float(mu), float(err), n_samples)
    return estimates


def structured_average_distance(
    rho: BipartiteState,
    rho_deph: BipartiteState,
    ensemble: SpectrumEnsemble,
    t: float,
    n_samples: int,
    rng: RngHandle,
    workers: int = 1,
    redraw_spectrum: bool = True,
) -> McEstimate:
    """Average squared witness at the single time ``t``.

    The one-point case of :func:`structured_average_grid`, with the same
    draws for the same ``rng``.
    """
    return structured_average_grid(
        rho, rho_deph, ensemble, [t], n_samples, rng, workers, redraw_spectrum
    )[0]


def witness_trajectory(
    rho: BipartiteState,
    rho_deph: BipartiteState,
    se: StructuredEvolution,
    time_grid,
) -> WitnessResult:
    """Witness distance along a time grid for one fixed evolution.

    Also records the trace distance between the reduced evolved states
    as a diagnostic (the quantity used by trace-distance-based
    detection schemes). Both are norms of the one reduced difference
    Tr_E(U M U^dagger), M = rho - rho_deph.
    """
    m = _check_state_pair(rho, rho_deph)
    times = np.asarray(time_grid, dtype=float).reshape(-1)
    hs_vals = np.empty(times.size)
    td_vals = np.empty(times.size)
    for i, t in enumerate(times):
        u = se.evolve(t)
        red = partial_trace_env(u @ m @ dagger(u), rho.d_s, rho.d_e)
        hs_vals[i] = hs_norm(red)
        td_vals[i] = _half_trace_norm(red)
    return WitnessResult(times, hs_vals, td_vals)


# ---------------------------------------------------------------------------
# twirling channel


def twirl_constants(a_op, b_op) -> TwirlConstants:
    """Analytic coefficients of the Haar-twirled two-sided channel.

    The Haar average of U^dagger A U X U^dagger B U equals
    a Tr(X) I + b X with a and b fixed by d, Tr(BA), Tr(A) and Tr(B).
    Satisfies a d + b = Tr(BA) / d; the identity pair gives (0, 1).
    """
    a_op = as_square(a_op, "a_op")
    b_op = as_square(b_op, "b_op")
    d = a_op.shape[0]
    if b_op.shape[0] != d:
        raise ValueError("operator dimensions differ")
    if d < 2:
        raise ValueError("twirl constants are undefined at dimension 1")
    tr_ba = complex(np.trace(b_op @ a_op))
    tr_a = complex(np.trace(a_op))
    tr_b = complex(np.trace(b_op))
    denom = d * (d**2 - 1)
    a = (d * tr_ba - tr_a * tr_b) / denom
    b = (d * tr_a * tr_b - tr_ba) / denom
    return TwirlConstants(a, b)


def twirl_mc(
    a_op,
    b_op,
    x,
    n_samples: int,
    rng: RngHandle,
    workers: int = 1,
    return_stderr: bool = False,
):
    """Monte Carlo estimate of the twirled channel applied to X.

    Converges entrywise to a Tr(X) I + b X with the analytic constants.
    With ``return_stderr`` the entrywise standard-error matrix is
    returned alongside the mean.
    """
    a_op = as_square(a_op, "a_op")
    b_op = as_square(b_op, "b_op")
    x = as_square(x, "x")
    d = a_op.shape[0]
    if b_op.shape[0] != d or x.shape[0] != d:
        raise ValueError("operator dimensions differ")

    def sample_fn(handle: RngHandle, count: int) -> np.ndarray:
        u = haar_unitary(d, handle, size=count)
        udag = dagger(u)
        left = udag @ a_op @ u
        right = udag @ b_op @ u
        return left @ x @ right

    mean, stderr = _mc_moments(sample_fn, n_samples, rng, workers)
    return (mean, stderr) if return_stderr else mean


def maximally_entangled_ket(d: int) -> np.ndarray:
    """(1/sqrt d) sum_w |w> x |w> on the doubled space."""
    omega = np.zeros(d * d, dtype=complex)
    omega[:: d + 1] = 1.0 / math.sqrt(d)
    return omega


def _abs_sq(x: np.ndarray) -> np.ndarray:
    return x.real**2 + x.imag**2


def _choi_moments(a_op: np.ndarray, b_op: np.ndarray, n_samples: int, rng: RngHandle, workers: int):
    """Mean and entrywise standard error of the sampled Choi matrix.

    The channel output on |w><w'| is (column w of U^dagger A U) times (row
    w' of U^dagger B U), so each sample's Choi matrix is the rank-one outer
    product of L = vec(U^dagger A U) / d and R = vec((U^dagger B U)^T).
    With chunk means a, b and centered factors l = L - a, r = R - b, the
    chunk mean is a b^T + c with c = l^T r / n, and every sum over the chunk
    is a product of (n, d^2) factors: no (n, d^2, d^2) tensor is formed.
    """
    d = a_op.shape[0]

    def chunk_fn(handle: RngHandle, count: int):
        u = haar_unitary(d, handle, size=count)
        udag = dagger(u)
        left = (udag @ a_op @ u).reshape(count, -1) / d
        right = np.swapaxes(udag @ b_op @ u, 1, 2).reshape(count, -1)
        a, b = left.mean(axis=0), right.mean(axis=0)
        l, r = left - a, right - b
        l_sq, r_sq = _abs_sq(l), _abs_sq(r)
        c = (l.T @ r) / count
        # M2 = sum_n |a_i r_nj + b_j l_ni + l_ni r_nj|^2 - n |c_ij|^2, as the
        # centered factors sum to zero; each cross term is one GEMM
        cross = a[:, None] * b.conj() * (l.conj().T @ r)
        cross += a[:, None] * (l.T @ r_sq).conj()
        cross += b * (l_sq.T @ r).conj()
        m2 = np.outer(_abs_sq(a), r_sq.sum(axis=0)) + np.outer(l_sq.sum(axis=0), _abs_sq(b))
        m2 += l_sq.T @ r_sq
        m2 += 2.0 * cross.real
        m2 -= count * _abs_sq(c)
        return count, np.outer(a, b) + c, m2

    return _mc_chunks(chunk_fn, n_samples, rng, workers)


def choi_isotropic_check(
    a_op, b_op, n_samples: int, rng: RngHandle, workers: int = 1
) -> ChoiCheckResult:
    """Residual of the sampled Choi matrix against its isotropic form.

    The twirled channel is estimated on the full operator basis
    |w><w'| (one shared unitary stream), assembled into the Choi matrix,
    and compared with a I / d + b |Omega><Omega|. The aggregate Monte
    Carlo error is the root sum of squared entrywise standard errors.
    Each sample's Choi matrix is rank one, vec(U^dagger A U) times
    vec((U^dagger B U)^T) / d, so the chunk moments come from centered
    (n, d^2) factors and memory stays O(n d^2) rather than O(n d^4).
    """
    a_op = as_square(a_op, "a_op")
    b_op = as_square(b_op, "b_op")
    d = a_op.shape[0]
    # undefined dimensions fail before any sampling
    consts = twirl_constants(a_op, b_op)
    mean, stderr = _choi_moments(a_op, b_op, n_samples, rng, workers)
    omega = maximally_entangled_ket(d)
    analytic = consts.a * np.eye(d * d, dtype=complex) / d + consts.b * np.outer(
        omega, omega.conj()
    )
    residual = float(hs_norm(mean - analytic))
    aggregate = float(math.sqrt(float((stderr**2).sum())))
    return ChoiCheckResult(residual, aggregate, consts, n_samples)


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of the Hermitian difference."""
    a = require_hermitian(a, "a")
    b = require_hermitian(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _half_trace_norm(a - b)


def _half_trace_norm(x: np.ndarray) -> float:
    return 0.5 * float(np.abs(eig_hermitian(x).eigenvalues).sum())
