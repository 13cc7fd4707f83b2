"""Independent oracles for cross-checking library results.

Everything here is built from numpy.linalg and explicit index loops,
deliberately avoiding the library's own decompositions and samplers so
the two routes stay independent.
"""

import numpy as np


def np_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product straight from the index definition."""
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


def ptrace_env_loops(x: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    """Partial trace over the environment from the index definition."""
    out = np.zeros((d_s, d_s), dtype=complex)
    for i in range(d_s):
        for j in range(d_s):
            for k in range(d_e):
                out[i, j] += x[i * d_e + k, j * d_e + k]
    return out


def random_hermitian_np(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def random_density_np(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    k = d if rank is None else rank
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_np(rng: np.random.Generator, d: int) -> np.ndarray:
    """Independent Haar sampler: numpy QR with phase correction."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q / phases


def discord_oracle(rho: np.ndarray, d_s: int, d_e: int) -> tuple[float, np.ndarray]:
    """Hilbert-Schmidt discord and the dephased state, via numpy.linalg.eigh
    and explicit sums."""
    rho_s = ptrace_env_loops(rho, d_s, d_e)
    _, vecs = np.linalg.eigh(rho_s)
    deph = np.zeros_like(rho)
    for mu in range(d_s):
        proj = np.outer(vecs[:, mu], vecs[:, mu].conj())
        big = kron_loops(proj, np.eye(d_e, dtype=complex))
        deph += big @ rho @ big
    diff = rho - deph
    return float(np.sqrt(np.trace(diff.conj().T @ diff).real)), deph


def hs_norm_np(a: np.ndarray) -> float:
    return float(np.sqrt(np.trace(a.conj().T @ a).real))


def haar_batch_np(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """n independent Haar unitaries, as in :func:`haar_np`."""
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (np.abs(diag) / diag)[:, None, :]


def gue_levels_np(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """n GUE spectra, ascending, with unit mean spacing over levels
    floor(0.1 d) to ceil(0.9 d) - 1 (the whole spectrum when that leaves
    fewer than two levels)."""
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    levels = np.linalg.eigvalsh(g + np.conj(np.swapaxes(g, -1, -2)))
    lo, hi = int(np.floor(0.1 * d)), int(np.ceil(0.9 * d))
    if hi - lo < 2:
        lo, hi = 0, d
    return levels * ((hi - 1 - lo) / (levels[:, hi - 1] - levels[:, lo]))[:, None]


def structured_samples_np(m, d_s, d_e, levels, times, rng, chunk=1024):
    """(W, spectrum) Monte Carlo oracle of the structured witness.

    Row n, column j is ||Tr_E(U M U^dagger)||^2 with U = W exp(-iE t_j)
    W^dagger, W Haar from ``rng`` and E = levels[n]. Every time reuses the
    sample's W, so the columns are correlated; each column is an unbiased
    sample of the average over W (and over the spectra, if they vary).
    """
    levels = np.asarray(levels, dtype=float)
    n, d = levels.shape
    out = np.empty((n, len(times)))
    for start in range(0, n, chunk):
        lv = levels[start : start + chunk]
        w = haar_batch_np(rng, d, lv.shape[0])
        wdag = np.conj(np.swapaxes(w, -1, -2))
        for j, t in enumerate(times):
            u = (w * np.exp(-1j * t * lv)[:, None, :]) @ wdag
            x = u @ m @ np.conj(np.swapaxes(u, -1, -2))
            red = np.einsum("nikjk->nij", x.reshape(-1, d_s, d_e, d_s, d_e))
            out[start : start + chunk, j] = np.sum(np.abs(red) ** 2, axis=(-2, -1))
    return out
