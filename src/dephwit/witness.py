"""Local-detection witness and Haar-average machinery.

The witness compares the reduced evolution of a state against that of
its locally dephased image. This module provides the single-unitary
witness distance, Monte Carlo Haar averages of its square with the exact
closed form they must reproduce, structured-evolution averages, the
twirling channel with its analytic constants and Choi-matrix
cross-check, and the trace-distance diagnostic.

Monte Carlo sampling is chunked: samples are split into chunks of
``MC_CHUNK``, chunk k drawn from the substream rng.derive(0, k). Each chunk
reports (count, mean, M2), its sum of squared deviations, and the chunks
are merged in chunk order. Results are therefore bit-identical for any
worker count. A Haar-average chunk draws its samples in blocks of about
``BLOCK_BYTES`` from its own substream (see :func:`_haar_mean_sq`).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _require_each_hermitian,
    _require_integer,
    as_square,
    dagger,
    eig_hermitian,  # unused; perfbench/test_tracer.py checks that the tracer wraps this name
    hs_norm,
    hs_norm_sq,
    partial_trace_env,
    require_hermitian,
    require_unitary,
)
from .randmat import RngHandle, SpectrumEnsemble, haar_unitary, sample_spectrum
from .states import BipartiteState
from .weingarten import monomial_weights, weingarten_matrix, witness_means, witness_rows

MC_CHUNK = 512
BLOCK_BYTES = 128 * 1024
TRAJECTORY_BLOCK = 256


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo sample mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        _require_integer(self.n_samples, "n_samples", 2)

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
    in again for the next chunk. The first exception raised in a thread
    stops further claims and is raised again once every thread has
    finished; so does an exception on the caller, such as an interrupt.
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
    finished = threading.Semaphore(0)

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
            finished.release()

    threads = [threading.Thread(target=share, args=(w,)) for w in range(workers)]
    try:
        try:
            for thread in threads:
                thread.start()
        finally:
            started.set()
        # the caller waits here, not in Thread.join: up to CPython 3.12 an
        # interrupted join marks a thread that still runs as stopped, and a
        # second join of it returns at once
        for _ in threads:
            finished.acquire()
    except BaseException as exc:
        failures.append(exc)
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if failures:
        raise failures[0]
    return results


def _abs_sq(x: np.ndarray) -> np.ndarray:
    return x.real**2 + x.imag**2


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
    parts = dev.reshape(count, -1).view(np.float64)
    m2 = np.einsum("nk,nk->k", parts, parts).reshape(np.shape(mean) + (-1,)).sum(axis=-1)
    return count, mean, m2


def _merge(partials):
    """Mean and standard error from per-chunk (count, mean, M2).

    The pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 242, 1983).
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
    returns their (count, mean, M2) in a form :func:`_merge` takes.
    """
    _require_integer(n_samples, "n_samples", 2)
    _require_integer(workers, "workers", 1)
    counts = _chunk_counts(n_samples)
    partials = _run_chunks(lambda k: chunk_fn(rng.derive(0, k), counts[k]), len(counts), workers)
    return _merge(partials)


def _mc_moments(sample_fn, n_samples: int, rng: RngHandle, workers: int):
    """Mean and standard error of a per-sample function of any trailing shape.

    ``sample_fn(handle, count)`` returns ``count`` samples drawn from the
    given substream; each chunk's moments come from :func:`_two_pass`.
    """
    return _mc_chunks(lambda handle, count: _two_pass(sample_fn(handle, count)), n_samples, rng, workers)


def _batch_norm_sq_reduced(v: np.ndarray, weights: np.ndarray, d_s: int) -> np.ndarray:
    """Per-sample squared HS norm of Tr_env(V diag(lam) V^dagger).

    ``v`` is a stack of d x k isometries, row index s d_e + e. Reshaped to
    (d_s, d_e k), column e k + j carries lam_j, so with ``weights`` =
    ``np.tile(lam, d_e)`` one product per sample forms the reduced operator
    at cost d_s^2 d_e k.
    """
    w = v.reshape(v.shape[0], d_s, weights.size)
    red = (w * weights) @ dagger(w)
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
    d_s, d_e = _require_integer(d_s, "d_s", 1), _require_integer(d_e, "d_e", 1)
    if d_s * d_e < 2:
        raise ValueError("total dimension must be at least 2")
    return (d_s**2 * d_e - d_e) / (d_s**2 * d_e**2 - 1)


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

    A chunk draws its samples in consecutive blocks of
    b = max(1, BLOCK_BYTES // (16 d k)) from the chunk's substream, one
    ``haar_unitary`` call per block, so a block's complex d x k stack takes
    at most ``BLOCK_BYTES`` (unless b = 1) and the chunk's temporaries stay
    cache-sized. The chunk's samples are its blocks' in order; b depends
    only on d and k, so results stay bit-identical for any worker count.
    """
    d = d_s * d_e
    lam = np.linalg.eigvalsh(m)
    lam = lam[np.abs(lam) > d * np.finfo(float).eps * np.abs(lam).max()]
    k = lam.size
    weights = np.tile(lam, d_e)

    def sample_fn(handle: RngHandle, count: int) -> np.ndarray:
        if k == 0:
            return np.zeros(count)
        block = max(1, BLOCK_BYTES // (16 * d * k))
        return np.concatenate(
            [
                _batch_norm_sq_reduced(haar_unitary(d, handle, size=min(block, count - s), columns=k), weights, d_s)
                for s in range(0, count, block)
            ]
        )

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


def _structured_inputs(rho: BipartiteState, rho_deph: BipartiteState, ensemble: SpectrumEnsemble, time_grid):
    """M = rho - rho_deph and the grid as a flat float array, once the pair, the
    ensemble dimension and the times (no NaN, no infinity) are checked."""
    m = _check_state_pair(rho, rho_deph)
    if ensemble.dim != rho.dim:
        raise ValueError(f"ensemble dimension {ensemble.dim} does not match state dimension {rho.dim}")
    times = np.asarray(time_grid, dtype=float).reshape(-1)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    return m, times


def structured_average_grid(
    rho: BipartiteState,
    rho_deph: BipartiteState,
    ensemble: SpectrumEnsemble,
    time_grid,
    n_samples: int,
    rng: RngHandle,
    workers: int = 1,
) -> list[McEstimate]:
    """Average squared witness under W exp(-iDt) W^dagger along a time grid.

    The Haar W is averaged exactly, by the degree-4 Weingarten sum
    r(M) Wg c(D, t) of :mod:`dephwit.weingarten`, M = rho - rho_deph. For a
    dephasing pair r(M) is delta^2 times one fixed vector, so the average is
    exactly delta^2 K(d_s, d_e, D, t), the ensemble analogue of the Haar
    proportionality. A fixed D, i.e. an explicit spectrum, gives exact rows
    ``McEstimate(value, 0.0, n_samples)`` that draw nothing; ``n_samples``
    only labels them. A quenched spectrum is a sampled one passed in as
    explicit. Poisson and GUE rows are a Monte Carlo over spectra alone,
    each sample the exact mean over W; all times share the spectra, so
    those rows are correlated and must not be combined as independent
    estimates. Rows with t = 0 are exactly zero.
    """
    m, times = _structured_inputs(rho, rho_deph, ensemble, time_grid)
    estimates = [McEstimate(0.0, 0.0, n_samples)] * times.size
    moving = np.flatnonzero(times)
    if moving.size == 0:
        return estimates
    kappa = monomial_weights(weingarten_matrix(4, rho.dim) @ witness_rows(m, rho.d_s, rho.d_e))

    def mean_sq(levels: np.ndarray) -> np.ndarray:
        # the exact mean over W for each spectrum, one column per moving time
        return witness_means(kappa, levels, times[moving])

    if ensemble.kind == "explicit":
        mean = mean_sq(ensemble.explicit_levels)
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
) -> McEstimate:
    """Average squared witness at the single time ``t``.

    The one-point case of :func:`structured_average_grid`, with the same
    draws for the same ``rng``.
    """
    return structured_average_grid(rho, rho_deph, ensemble, [t], n_samples, rng, workers)[0]


def witness_trajectory(
    rho: BipartiteState,
    rho_deph: BipartiteState,
    ensemble: SpectrumEnsemble,
    time_grid,
    rng: RngHandle,
) -> tuple[np.ndarray, np.ndarray]:
    """Witness distance along a time grid for one drawn evolution.

    U(t) = W exp(-iEt) W^dagger (hbar = 1). Once the inputs are checked,
    W = ``haar_unitary(d, rng)`` is drawn first and E =
    ``sample_spectrum(ensemble, rng)`` next; an explicit ensemble fixes E
    and draws nothing. Returns ``(hs_distance, trace_distance)``, one
    entry per time: norms of Y(t) = Tr_E(U(t) M U(t)^dagger),
    M = rho - rho_deph. The trace distance is a diagnostic (the quantity
    used by trace-distance-based detection schemes).

    The eigenbasis W is fixed, so no U(t) is formed. With M' = W^dagger M W,
    W_i the d_e x d block of W's rows with system index i,
    K^ij = M' o (W_j^dagger W_i)^T (entrywise) and phi(t) = exp(-iEt),

        Y_ij(t) = phi(t)^T K^ij conj(phi(t)),

    d^2 per pair and time at any shape. Y is Hermitian, so K^ij is formed
    for the pairs i <= j only, one at a time, and applied to blocks of
    b <= ``TRAJECTORY_BLOCK`` times: O(d^2 + d b) memory. The stack of all
    T matrices Y(t), its lower triangle the conjugate of the upper, holds
    T d_s^2 complex entries; its eigenvalues alone give the trace norms.
    """
    m, times = _structured_inputs(rho, rho_deph, ensemble, time_grid)
    w = haar_unitary(rho.dim, rng)
    levels = sample_spectrum(ensemble, rng)
    d_s, d_e = rho.d_s, rho.d_e
    mp = dagger(w) @ m @ w
    rows = w.reshape(d_s, d_e, -1)
    y = np.zeros((times.size, d_s, d_s), dtype=complex)
    for i, j in itertools.combinations_with_replacement(range(d_s), 2):
        k = (rows[i].T @ rows[j].conj()) * mp  # (W_j^dagger W_i)^T = W_i^T conj(W_j)
        for s in range(0, times.size, TRAJECTORY_BLOCK):
            phases = np.exp(-1j * np.multiply.outer(levels, times[s : s + TRAJECTORY_BLOCK]))
            y[s : s + TRAJECTORY_BLOCK, i, j] = np.einsum("pt,pt->t", k @ phases.conj(), phases)
    y += dagger(np.triu(y, 1))  # the lower triangle, zero until here
    return hs_norm(y), _half_trace_norm(y)


# ---------------------------------------------------------------------------
# twirling channel


def _twirl_operands(**ops) -> list[np.ndarray]:
    """The named operators as single square matrices of one dimension."""
    mats = [as_square(op, name) for name, op in ops.items()]
    if len({m.shape[0] for m in mats}) > 1:
        raise ValueError("operator dimensions differ")
    return mats


def twirl_constants(a_op, b_op) -> TwirlConstants:
    """Analytic coefficients of the Haar-twirled two-sided channel.

    The Haar average of U^dagger A U X U^dagger B U equals
    a Tr(X) I + b X with a and b fixed by d, Tr(BA), Tr(A) and Tr(B).
    Satisfies a d + b = Tr(BA) / d; the identity pair gives (0, 1).
    """
    a_op, b_op = _twirl_operands(a_op=a_op, b_op=b_op)
    d = a_op.shape[0]
    if d < 2:
        raise ValueError("twirl constants are undefined at dimension 1")
    tr_ba = complex(np.trace(b_op @ a_op))
    tr_a = complex(np.trace(a_op))
    tr_b = complex(np.trace(b_op))
    denom = d * (d**2 - 1)
    a = (d * tr_ba - tr_a * tr_b) / denom
    b = (d * tr_a * tr_b - tr_ba) / denom
    return TwirlConstants(a, b)


def _traceless(op: np.ndarray) -> tuple[np.ndarray, complex]:
    """The traceless part op - w 1 of a square operator and its trace weight w = Tr(op) / d."""
    d = op.shape[0]
    weight = complex(np.trace(op)) / d
    return op - weight * np.eye(d), weight


def _conjugate_pair(u: np.ndarray, a_op: np.ndarray, b_op: np.ndarray):
    """U^dagger A U and U^dagger B U for a stack of n unitaries, and a spare
    buffer of their shape: three (n, d, d) arrays in all.

    W = U^dagger is made C-contiguous once, so that each product by a fixed
    operator is one (n d, d) @ (d, d) GEMM.
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
    With A = A_0 + alpha I and B = B_0 + beta I, alpha = Tr(A)/d and
    beta = Tr(B)/d, only U^dagger A_0 U X U^dagger B_0 U is sampled and
    alpha beta X is added to the mean. The dropped cross terms have mean
    exactly zero, since E_U[U^dagger A_0 U] = (Tr(A_0)/d) I = 0, so the
    estimate stays unbiased, and the identity parts of A and B add no
    noise. With ``return_stderr`` the entrywise standard-error matrix of
    the samples drawn is returned alongside the mean. The error of a
    complex entry combines the spread of its real and imaginary parts, so
    the real part of an entry's z-score has variance near 1/2, not 1.
    """
    a_op, b_op, x = _twirl_operands(a_op=a_op, b_op=b_op, x=x)
    d = a_op.shape[0]
    a_0, alpha = _traceless(a_op)
    b_0, beta = _traceless(b_op)

    def sample_fn(handle: RngHandle, count: int) -> np.ndarray:
        left, right, tmp = _conjugate_pair(haar_unitary(d, handle, size=count), a_0, b_0)
        np.matmul(left.reshape(-1, d), x, out=tmp.reshape(-1, d))
        return np.matmul(tmp, right, out=left)

    mean, stderr = _mc_moments(sample_fn, n_samples, rng, workers)
    mean += alpha * beta * x
    return (mean, stderr) if return_stderr else mean


def maximally_entangled_ket(d: int) -> np.ndarray:
    """(1/sqrt d) sum_w |w> x |w> on the doubled space."""
    omega = np.zeros(d * d, dtype=complex)
    omega[:: d + 1] = 1.0 / math.sqrt(d)
    return omega


def _choi_moments(a_op: np.ndarray, b_op: np.ndarray, n_samples: int, rng: RngHandle, workers: int):
    """Mean and aggregate standard error of the sampled Choi matrix.

    The channel output on |w><w'| is (column w of U^dagger A U) times (row
    w' of U^dagger B U), so each sample's Choi matrix is, up to a fixed
    permutation of its columns, the rank-one outer product of
    L = vec(U^dagger (A_0/d) U) and R = vec(U^dagger B_0 U). As in
    :func:`twirl_mc`, A_0 and B_0 are the traceless parts of A and B; the
    dropped cross terms have mean zero, and the identity parts add
    alpha beta |Omega><Omega|, the identity channel's Choi matrix, to the
    mean. A chunk's mean is the one product L^T R / n. Conjugation by U
    keeps HS norms, so every sample S = L R^T has the same squared norm
    N = ||A_0/d||^2 ||B_0||^2, and the sum of M2 over all entries is

        sum M2 = n (N - ||mean||^2),

    with no (n, d^2, d^2) array. This cannot cancel: the twirl bounds
    ||E S||^2 by N / (d^2 - 1), at most N / 3, with equality when B_0 is a
    multiple of A_0^dagger, and a mean of n samples exceeds it by O(N / n).
    Returns the mean and sqrt(sum M2 / (n (n - 1))), the root sum of the
    squared entrywise standard errors.
    """
    d = a_op.shape[0]
    a_0, alpha = _traceless(a_op)
    b_0, beta = _traceless(b_op)
    a_0 /= d
    norm_sq = hs_norm_sq(a_0) * hs_norm_sq(b_0)

    def chunk_fn(handle: RngHandle, count: int):
        left, right, _ = _conjugate_pair(haar_unitary(d, handle, size=count), a_0, b_0)
        mean = left.reshape(count, -1).T @ right.reshape(count, -1)
        mean /= count
        return count, mean, count * (norm_sq - hs_norm_sq(mean))

    mean, std_error = _mc_chunks(chunk_fn, n_samples, rng, workers)
    mean = mean.reshape(d * d, d, d).swapaxes(1, 2).reshape(d * d, d * d)
    omega = maximally_entangled_ket(d)
    mean += alpha * beta * np.outer(omega, omega.conj())
    return mean, float(std_error)


def choi_isotropic_check(
    a_op, b_op, n_samples: int, rng: RngHandle, workers: int = 1
) -> ChoiCheckResult:
    """Residual of the sampled Choi matrix against its isotropic form.

    The twirled channel is estimated on the full operator basis |w><w'|
    from one shared unitary stream and compared with
    a I / d + b |Omega><Omega|. Only the traceless parts of A and B are
    sampled (see :func:`_choi_moments`), so the estimate is unbiased and
    its error does not grow with the trace weights of A and B. The
    aggregate Monte Carlo error is the root sum of the squared entrywise
    standard errors.
    """
    a_op, b_op = _twirl_operands(a_op=a_op, b_op=b_op)
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


def _half_trace_norm(x: np.ndarray) -> np.ndarray:
    """Half the trace norm of a Hermitian matrix, or of each in a (T, n, n)
    stack, from ``np.linalg.eigvalsh``. It reads one triangle only, so each
    matrix must first pass ``require_hermitian``'s tolerance."""
    return 0.5 * np.abs(np.linalg.eigvalsh(_require_each_hermitian(x, "a"))).sum(axis=-1)
