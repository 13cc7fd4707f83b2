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
count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
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
from .weingarten import monomial_weights, weingarten_matrix, witness_means, witness_rows

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
        error is returned as a conservative scale. A NaN mean gives a NaN
        root.
        """
        root = math.sqrt(max(self.mean, 0.0))
        if root == 0.0:
            return 0.0, math.sqrt(max(self.std_error, 0.0))
        return root, self.std_error / (2.0 * root)

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
    """``[worker_fn(k) for k in range(n_chunks)]`` on up to ``workers`` threads.

    Threads beyond the cores or the chunks buy nothing, since results do
    not depend on the worker count. Thread w runs chunk w first, so every
    thread runs a chunk of its own; after that each takes the next chunk
    not yet taken. No thread exits before every thread has started, so
    all of them are alive at once and no two share a thread identifier,
    which a thread started after another's exit may reuse. The caller
    only waits: chunks run on the caller's thread allocate from the main
    malloc arena, which returns freed pages to the system and faults them
    in again for the next chunk. The first exception raised stops further
    claims and is raised again once every thread has finished.
    """
    workers = min(workers, os.cpu_count() or 1, n_chunks)
    if workers <= 1:
        return [worker_fn(k) for k in range(n_chunks)]
    results = [None] * n_chunks
    failures = []
    claim = threading.Lock()
    unclaimed = itertools.count(workers)
    # threads start from numpy's default error state, not the caller's
    errors = np.geterr()
    started = threading.Event()

    def share(k: int) -> None:
        try:
            with np.errstate(**errors):
                while k < n_chunks and not failures:
                    results[k] = worker_fn(k)
                    with claim:
                        k = next(unclaimed)
        except BaseException as exc:  # raised again on the caller below
            failures.append(exc)
        finally:
            started.wait()

    threads = [threading.Thread(target=share, args=(w,)) for w in range(workers)]
    try:
        for thread in threads:
            thread.start()
    finally:
        started.set()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results


def _abs_sq(x: np.ndarray) -> np.ndarray:
    return x.real**2 + x.imag**2


def _row_norms_sq(x: np.ndarray) -> np.ndarray:
    # |x_n|^2 per row of a complex (n, k) array, without a squared copy
    parts = x.view(np.float64)
    return np.einsum("nk,nk->n", parts, parts)


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
    M2 is entrywise, shaped like the mean, or summed over all entries, a
    scalar; the shift term is summed down to M2's shape, and the standard
    error has that shape too.
    """
    n, mean, m2 = partials[0]
    for n_b, mean_b, m2_b in partials[1:]:
        delta = mean_b - mean
        total = n + n_b
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + _abs_sq(delta).reshape(np.shape(m2) + (-1,)).sum(axis=-1) * (n * n_b / total)
        n = total
    return mean, np.sqrt(m2 / ((n - 1) * n))


def _mc_chunks(chunk_fn, n_samples: int, rng: RngHandle, workers: int):
    """Mean and standard error from chunk statistics.

    ``chunk_fn(handle, count)`` draws ``count`` samples from ``handle`` and
    returns their (count, mean, M2), M2 entrywise or summed over entries
    (:func:`_merge`). Chunk k always uses rng.derive(0, k).
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


def _batch_norm_sq_reduced(v: np.ndarray, lam: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Per-sample squared HS norm of Tr_env(V diag(lam) V^dagger).

    ``v`` is a stack of d x k isometries, row index s d_e + e. Reshaped to
    (d_s, d_e k), column e k + j carries lam_j, so one product per sample
    forms the reduced operator at cost d_s^2 d_e k.
    """
    n, k = v.shape[0], lam.size
    w = v.reshape(n, d_s, d_e * k)
    red = (w * np.tile(lam, d_e)) @ dagger(w)
    return np.einsum("nij,nij->n", red.conj(), red).real


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

    ``haar_witness_prefactor_sq(d_s, d_e)`` multiplies the squared HS norm of
    the Hermitian operator M, and the same factor with d_s and d_e swapped
    multiplies its squared trace.
    """
    m = require_hermitian(m, "m")
    if m.shape[0] != d_s * d_e:
        raise ValueError(f"operator dimension {m.shape[0]} does not match d_s*d_e = {d_s * d_e}")
    norm_sq, tr = float(hs_norm(m)) ** 2, float(np.trace(m).real)
    return haar_witness_prefactor_sq(d_s, d_e) * norm_sq + haar_witness_prefactor_sq(d_e, d_s) * tr**2


def _haar_mean_sq(m: np.ndarray, d_s: int, d_e: int, n_samples: int, rng: RngHandle, workers: int) -> McEstimate:
    """Monte Carlo Haar mean of ||Tr_env(U M U^dagger)||^2 from the eigenvalues of M.

    Haar measure is right-invariant, so with M = W diag(lam) W^dagger the
    product U W is again Haar, and U M U^dagger = V diag(lam) V^dagger where V
    holds the columns of a Haar unitary on the range of M: a d x k Haar
    isometry, k = rank M, drawn from a d x k Ginibre block. The rank is that of
    ``np.linalg.matrix_rank``: eigenvalues with |lam| <= d eps max|lam| are
    rounding noise of M and are dropped. A pure state's M has rank 2, so each
    sample costs d_s^2 d_e k operations and 2 d k normals; a full-rank M draws
    d x d Haar unitaries, and a zero M draws nothing.
    """
    d = d_s * d_e
    lam = np.linalg.eigvalsh(m)
    lam = lam[np.abs(lam) > d * np.finfo(float).eps * np.abs(lam).max()]

    def sample_fn(handle: RngHandle, count: int) -> np.ndarray:
        if lam.size == 0:
            return np.zeros(count)
        v = haar_unitary(d, handle, size=count, columns=lam.size)
        return _batch_norm_sq_reduced(v, lam, d_s, d_e)

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
    paired with its closed-form value :func:`theorem_rhs`."""
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
    proportionality. The 24 weights (Wg r)(tau) are summed once into the 8
    grouped weights kappa of the distinct column monomials, and a stack of
    spectra costs one phase table exp(-iDt) over all moving times
    (:func:`dephwit.weingarten.witness_means`). A fixed D (quenched, frozen
    once from rng.derive(1), or ``explicit``) gives exact rows
    ``McEstimate(value, 0.0, n_samples)`` that draw nothing; ``n_samples``
    only labels them. Annealed rows are a Monte Carlo over spectra alone
    (chunk k from rng.derive(0, k)), each sample the exact mean over W; all
    times share the spectra, so those rows are correlated and must not be
    combined as independent estimates. Rows with t = 0 are exactly zero.
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
    kappa = monomial_weights(weingarten_matrix(4, d) @ witness_rows(m, rho.d_s, rho.d_e))

    def mean_sq(levels: np.ndarray) -> np.ndarray:
        # the exact mean over W for each spectrum, one column per moving time
        return witness_means(kappa, levels, times[moving])

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


# kept while perfbench/tracer.py names it in MC_CALLS; the CLI calls structured_average_grid
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
    if se.levels.size != rho.dim:
        raise ValueError(f"evolution dimension {se.levels.size} does not match state dimension {rho.dim}")
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


def _conjugate_pair(u: np.ndarray, a_op: np.ndarray, b_op: np.ndarray):
    """U^dagger A U and U^dagger B U for a stack of n unitaries, and a spare
    buffer of their shape: three (n, d, d) arrays in all.

    W = U^dagger is made C-contiguous once, so each product by a fixed
    operator is one (n d, d) @ (d, d) GEMM; the product with U stays a
    stacked matmul, and U^dagger B U overwrites W.
    """
    n, d, _ = u.shape
    w = np.conjugate(np.swapaxes(u, 1, 2), order="C")
    tmp, left = np.empty_like(w), np.empty_like(w)
    for op, out in ((a_op, left), (b_op, w)):
        np.matmul(w.reshape(n * d, d), op, out=tmp.reshape(n * d, d))
        np.matmul(tmp, u, out=out)
    return left, w, tmp


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
        left, right, tmp = _conjugate_pair(haar_unitary(d, handle, size=count), a_op, b_op)
        np.matmul(left.reshape(-1, d), x, out=tmp.reshape(-1, d))
        return np.matmul(tmp, right, out=left)

    mean, stderr = _mc_moments(sample_fn, n_samples, rng, workers)
    return (mean, stderr) if return_stderr else mean


def maximally_entangled_ket(d: int) -> np.ndarray:
    """(1/sqrt d) sum_w |w> x |w> on the doubled space."""
    omega = np.zeros(d * d, dtype=complex)
    omega[:: d + 1] = 1.0 / math.sqrt(d)
    return omega


def _choi_moments(a_op: np.ndarray, b_op: np.ndarray, n_samples: int, rng: RngHandle, workers: int):
    """Mean and aggregate standard error of the sampled Choi matrix.

    The channel output on |w><w'| is (column w of U^dagger A U) times (row
    w' of U^dagger B U), so each sample's Choi matrix is the rank-one outer
    product of L = vec(U^dagger (A/d) U) and vec((U^dagger B U)^T). A chunk
    uses R = vec(U^dagger B U), whose columns are those of the transpose
    permuted; the merged mean's columns are permuted back once. With chunk
    means a, b and centered factors l = L - a, r = R - b (in place), the
    chunk mean is a b^T + c, c = l^T r / n, its one complex GEMM. Only the
    sum of M2 over all entries is kept: with alpha = l conj(a) and
    beta = r conj(b), per-sample vectors,

        sum M2 = |a|^2 sum_n |r_n|^2 + |b|^2 sum_n |l_n|^2
                 + sum_n |l_n|^2 |r_n|^2 - n |c|^2
                 + 2 Re sum_n (conj(alpha_n) beta_n + conj(alpha_n) |r_n|^2
                               + conj(beta_n) |l_n|^2),

    as the centered factors sum to zero, which is O(n d^2) vector work.
    Returns the mean and sqrt(sum M2 / (n (n - 1))), the root sum of the
    squared entrywise standard errors.
    """
    d = a_op.shape[0]
    a_scaled = a_op / d

    def chunk_fn(handle: RngHandle, count: int):
        left, right, _ = _conjugate_pair(haar_unitary(d, handle, size=count), a_scaled, b_op)
        l, r = left.reshape(count, -1), right.reshape(count, -1)
        a, b = l.mean(axis=0), r.mean(axis=0)
        l -= a
        r -= b
        c = l.T @ r
        c /= count
        l_sq, r_sq = _row_norms_sq(l), _row_norms_sq(r)
        alpha, beta = l @ a.conj(), r @ b.conj()
        cross = np.vdot(alpha, beta).real + alpha.real @ r_sq + beta.real @ l_sq
        m2 = np.vdot(a, a).real * r_sq.sum() + np.vdot(b, b).real * l_sq.sum() + l_sq @ r_sq
        m2 += 2.0 * cross - count * np.vdot(c, c).real
        return count, np.outer(a, b) + c, m2

    mean, std_error = _mc_chunks(chunk_fn, n_samples, rng, workers)
    mean = mean.reshape(d * d, d, d).swapaxes(1, 2).reshape(d * d, d * d)
    return mean, float(std_error)


def choi_isotropic_check(
    a_op, b_op, n_samples: int, rng: RngHandle, workers: int = 1
) -> ChoiCheckResult:
    """Residual of the sampled Choi matrix against its isotropic form.

    The twirled channel is estimated on the full operator basis
    |w><w'| (one shared unitary stream), assembled into the Choi matrix,
    and compared with a I / d + b |Omega><Omega|. The aggregate Monte
    Carlo error is the root sum of squared entrywise standard errors.
    """
    a_op = as_square(a_op, "a_op")
    b_op = as_square(b_op, "b_op")
    d = a_op.shape[0]
    # undefined dimensions fail before any sampling
    consts = twirl_constants(a_op, b_op)
    mean, mc_error = _choi_moments(a_op, b_op, n_samples, rng, workers)
    omega = maximally_entangled_ket(d)
    analytic = consts.a * np.eye(d * d, dtype=complex) / d + consts.b * np.outer(
        omega, omega.conj()
    )
    residual = float(hs_norm(mean - analytic))
    return ChoiCheckResult(residual, mc_error, consts, n_samples)


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of the Hermitian difference."""
    a = require_hermitian(a, "a")
    b = require_hermitian(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _half_trace_norm(a - b)


def _half_trace_norm(x: np.ndarray) -> float:
    return 0.5 * float(np.abs(eig_hermitian(x).eigenvalues).sum())
