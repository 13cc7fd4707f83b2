"""Independent oracles for cross-checking library results.

Everything here is built from numpy.linalg and explicit index loops,
deliberately avoiding the library's own decompositions and samplers so
the two routes stay independent.
"""

import itertools
from fractions import Fraction

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


def evolution_np(levels, w: np.ndarray, t: float) -> np.ndarray:
    """U(t) = W diag(exp(-i E_j t)) W^dagger, a dense d x d matrix."""
    return (w * np.exp(-1j * t * np.asarray(levels, dtype=float))) @ w.conj().T


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


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def geometric_discord_qubit_np(rho: np.ndarray, d_e: int) -> float:
    """Geometric discord of a 2 x d_e state: the least ||rho - Phi_V(rho)||^2
    over all system bases V, eigenbases of rho_S or not.

    Closed form of Dakic, Vedral & Brukner (PRL 105, 190502, 2010), which
    needs no eigenbasis of the marginal: D_G = ||rho||^2 - ||rho_E||^2 / 2
    - lambda_max(G) / 2, with G_ij = Re Tr(R_i R_j), R_i = Tr_S[(sigma_i x 1) rho].
    """
    r = rho.reshape(2, d_e, 2, d_e)
    rho_e = np.einsum("kikj->ij", r)
    big_r = np.einsum("plk,kalb->pab", PAULIS, r)
    g = np.einsum("iab,jba->ij", big_r, big_r).real
    return float(
        np.sum(np.abs(rho) ** 2) - 0.5 * np.sum(np.abs(rho_e) ** 2) - 0.5 * np.linalg.eigvalsh(g)[-1]
    )


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


def witness_columns_np(levels, t: float) -> np.ndarray:
    """c(tau) of the degree-4 structured witness for one spectrum and time,
    over S_4 in the order of ``itertools.permutations``.

    Each cycle of tau contributes the power sum sum_p exp(-i k E_p t), k the
    sum over the cycle of the slot signs (+1, -1, -1, +1) of L_p, conj(L_q),
    conj(L_p'), L_q'; one exp per cycle and no table of monomials.
    """
    levels = np.asarray(levels, dtype=float)
    signs = (1, -1, -1, 1)
    out = []
    for tau in itertools.permutations(range(4)):
        seen, value = set(), 1.0 + 0.0j
        for start in range(4):
            if start in seen:
                continue
            k, j = 0, start
            while j not in seen:
                seen.add(j)
                k += signs[j]
                j = tau[j]
            value *= np.exp(-1j * k * t * levels).sum()
        out.append(value)
    return np.array(out)


def _cycle_count(p) -> int:
    seen, count = set(), 0
    for start in range(len(p)):
        count += start not in seen
        k = start
        while k not in seen:
            seen.add(k)
            k = p[k]
    return count


def weingarten_exact(n: int, d: int) -> list[list[Fraction]]:
    """Wg(sigma, tau) over S_n in exact rationals, for d >= n.

    The inverse of the Gram matrix d^#cycles(sigma^-1 tau), by Gauss-Jordan
    elimination in ``Fraction``; permutations in the order of
    ``itertools.permutations(range(n))``, the identity first.
    """
    perms = list(itertools.permutations(range(n)))
    size = len(perms)
    rows = [
        [Fraction(d) ** _cycle_count([sigma.index(t) for t in tau]) for tau in perms]
        + [Fraction(int(i == j)) for j in range(size)]
        for i, sigma in enumerate(perms)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


def twirl_constants_exact(a_op, b_op) -> tuple[Fraction, Fraction]:
    """(a, b) of E_U[U^dagger A U X U^dagger B U] = a Tr(X) 1 + b X for integer
    matrices, from the exact degree-2 Weingarten sum.

    The rows are Tr(A) Tr(B) (sigma = id) and Tr(AB) (sigma = swap); tau = swap
    gives Tr(X) 1 and tau = id gives X.
    """
    d = len(a_op)
    wg = weingarten_exact(2, d)
    rows = (
        Fraction(sum(a_op[i][i] for i in range(d)) * sum(b_op[i][i] for i in range(d))),
        Fraction(sum(a_op[i][j] * b_op[j][i] for i in range(d) for j in range(d))),
    )
    return rows[0] * wg[0][1] + rows[1] * wg[1][1], rows[0] * wg[0][0] + rows[1] * wg[1][0]


def haar_witness_coefficients_exact(d_s: int, d_e: int) -> tuple[Fraction, Fraction]:
    """Coefficients of ||M||^2 and of Tr(M)^2 in E_U ||Tr_E(U M U^dagger)||^2.

    The degree-2 Weingarten sum: sigma = swap pairs with ||M||^2 and sigma = id
    with Tr(M)^2; tau contracts with the partial swap on the system, giving
    d_s d_e^2 for tau = id and d_s^2 d_e for tau = swap.
    """
    wg = weingarten_exact(2, d_s * d_e)
    cols = (d_s * d_e**2, d_s**2 * d_e)
    return wg[1][0] * cols[0] + wg[1][1] * cols[1], wg[0][0] * cols[0] + wg[0][1] * cols[1]


def split_top_level_loop(body: str) -> list[str]:
    """Character-loop splitter of a bracket list's body at its top-level
    commas; raises ValueError("unbalanced brackets")."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError("unbalanced brackets")
    tail = "".join(current)
    if tail.strip() or parts:
        parts.append(tail)
    return parts


def parse_value_loop(raw: str, parse_scalar):
    """A config right-hand side parsed with ``split_top_level_loop``;
    ``parse_scalar`` parses each leaf."""
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ValueError("unterminated array")
        return [parse_value_loop(tok, parse_scalar) for tok in split_top_level_loop(raw[1:-1])]
    if "]" in raw:
        raise ValueError("unbalanced brackets")
    return parse_scalar(raw)
