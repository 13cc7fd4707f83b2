"""Exact Haar averages by Weingarten calculus.

For Haar U of dimension d, the average of a product of n entries of U and
n entries of conj(U) is

    sum over sigma, tau in S_n of r(sigma) Wg(sigma, tau) c(tau)

(Collins & Sniady, CMP 264, 773, 2006). r(sigma) sums the integrand's
coefficients over row indices in which the k-th row of U equals the
sigma(k)-th row of conj(U); c(tau) does the same for the columns. Wg is
the pseudo-inverse of the Gram matrix d^#cycles(sigma^-1 tau). The Gram
matrix is singular for d < n, and its pseudo-inverse is still the right
weight there. Wg comes from the characters of S_n, with no linear solve.

The structured witness E_W ||Tr_E(W L W^dagger M W conj(L) W^dagger)||^2,
L = diag(exp(-iEt)), is the case n = 4. With X = U M U^dagger,

    X_ab = sum W_ap L_p conj(W_cp) M_ce W_eq conj(L_q) conj(W_bq),

and ||Tr_E X||^2 sums X_ab conj(X_a'b') over a = (i,k), b = (i',k),
a' = (i,k'), b' = (i',k'). So the rows of W are (a, e, c', b') and those
of conj(W) are (c, b, a', e'): r depends on M alone. The columns carry
L_p, conj(L_q), conj(L_p'), L_q', so c(tau) is a product over the cycles
of tau of power sums sum_p exp(-ikE_p t), k in -2..2: a polynomial in
d f(t) and d f(2t), with f(t) = (1/d) sum_j exp(-i E_j t) the normalized
Fourier transform of the level density. The 24 columns take only 8
distinct monomials, so the weights (Wg r)(tau) are summed once into 8
grouped weights kappa (:func:`monomial_weights`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np


def _cycles(perm) -> list[list[int]]:
    """Cycles of a permutation of range(n), given as the tuple of images."""
    seen, out = set(), []
    for start in range(len(perm)):
        cycle = []
        k = start
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = perm[k]
        if cycle:
            out.append(cycle)
    return out


def _cycle_type(perm) -> tuple:
    return tuple(sorted(map(len, _cycles(perm)), reverse=True))


def _partitions(n: int, largest: int | None = None):
    """Partitions of n, parts in descending order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _character(beta: frozenset, lengths: tuple) -> int:
    """chi^lambda on the cycle type ``lengths``, by the Murnaghan-Nakayama
    rule on the beta-set {lambda_i + l - i} of lambda: removing a border
    strip of length r moves a bead from b to b - r, with the sign of the
    beads it passes."""
    if not lengths:
        return 1
    r, total = lengths[0], 0
    for b in beta:
        if b >= r and b - r not in beta:
            sign = (-1) ** sum(b - r < x < b for x in beta)
            total += sign * _character(beta - {b} | {b - r}, lengths[1:])
    return total


@lru_cache(maxsize=None)
def _symmetric_group(n: int) -> tuple:
    """Cycle types of S_n (the partitions of n, the identity's last), the
    character table chi[lambda][mu] over them, and the cycle type of
    sigma^-1 tau, as an index, for each pair in the order of
    ``itertools.permutations``."""
    types = list(_partitions(n))
    chars = {}
    for lam in types:
        beta = frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam))
        chars[lam] = [_character(beta, mu) for mu in types]
    perms = list(permutations(range(n)))
    inverse = [tuple(sorted(range(n), key=s.__getitem__)) for s in perms]
    classes = np.array(
        [[types.index(_cycle_type([s_inv[t[k]] for k in range(n)])) for t in perms] for s_inv in inverse]
    )
    classes.flags.writeable = False
    return types, chars, classes


def weingarten_matrix(n: int, d: int) -> np.ndarray:
    """Wg(sigma, tau) over S_n, in the order of ``itertools.permutations``.

    Wg(sigma, tau) = Wg(sigma^-1 tau) = (1/n!) sum over lambda of
    chi^lambda(1) chi^lambda(sigma^-1 tau) / prod over the cells of lambda
    of (d + content). Dropping the lambda with more than d rows, whose
    product is 0, gives the pseudo-inverse of the Gram matrix. Each value
    is summed in integers and rounded once.

    Only the tables of S_n are cached, those of S_4 at import. The matrix
    is rebuilt per call, in about 30 us at n = 4, so a run keeps no array.
    """
    types, chars, classes = _symmetric_group(n)
    terms = []
    for lam in types:
        contents = math.prod(d + j - i for i, part in enumerate(lam) for j in range(part))
        if contents:
            terms.append((chars[lam], contents))
    common = math.lcm(*(c for _, c in terms))
    wg = [
        sum(chi[-1] * chi[k] * (common // c) for chi, c in terms) / (math.factorial(n) * common)
        for k in range(len(types))
    ]
    return np.array(wg)[classes]


_symmetric_group(4)


# row indices of the degree-4 witness, rows of W then rows of conj(W)
_A, _E, _C2, _B2, _C, _B, _A2, _E2 = range(8)
_W_ROWS = (_A, _E, _C2, _B2)
_WBAR_ROWS = (_C, _B, _A2, _E2)
# index x splits into system label 2x and environment label 2x + 1; the
# partial trace and the norm tie a_S = a'_S, b_S = b'_S, a_E = b_E, a'_E = b'_E
_TRACE_TIES = [(2 * _A, 2 * _A2), (2 * _B, 2 * _B2), (2 * _A + 1, 2 * _B + 1), (2 * _A2 + 1, 2 * _B2 + 1)]
_PERMS4 = list(permutations(range(4)))


def _label_classes(ties) -> list[int]:
    root = list(range(16))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for x, y in ties:
        root[find(x)] = find(y)
    return [find(x) for x in range(16)]


def _row_wirings() -> list[tuple]:
    # per sigma: the einsum labels of M (rows c, columns e) and of conj(M)
    # (rows c', columns e'), and how many system and environment labels are
    # tied to neither operator, each of which sums a constant over its range
    out = []
    for sigma in _PERMS4:
        ties = _TRACE_TIES + [
            (2 * w + part, 2 * _WBAR_ROWS[sigma[k]] + part) for k, w in enumerate(_W_ROWS) for part in (0, 1)
        ]
        label = _label_classes(ties)
        on_m = [label[2 * _C], label[2 * _C + 1], label[2 * _E], label[2 * _E + 1]]
        on_mbar = [label[2 * _C2], label[2 * _C2 + 1], label[2 * _E2], label[2 * _E2 + 1]]
        free = set(label) - set(on_m) - set(on_mbar)
        out.append((on_m, on_mbar, sum(x % 2 == 0 for x in free), sum(x % 2 for x in free)))
    return out


_ROW_WIRINGS = _row_wirings()


def witness_rows(m, d_s: int, d_e: int) -> np.ndarray:
    """r(sigma) of the degree-4 witness for the operator M, over S_4.

    Each entry is one contraction of M with conj(M) in split (system,
    environment) indices, so the work is at most d^4 multiply-adds and the
    memory that of M. r is a combination of ||M||^2, |Tr M|^2,
    ||Tr_E M||^2 and ||Tr_S M||^2. For a dephasing pair M = rho - Phi(rho)
    the last three vanish, so r / delta^2 is one fixed vector.
    """
    m4 = np.asarray(m, dtype=complex).reshape(d_s, d_e, d_s, d_e)
    m4_bar = m4.conj()
    return np.array([
        d_s**n_s * d_e**n_e * np.einsum(m4, on_m, m4_bar, on_mbar, [])
        for on_m, on_mbar, n_s, n_e in _ROW_WIRINGS
    ])


def _column_monomials():
    # c(tau) is a monomial in the power sums P_k, k = 0, 1, 2, -2, -1 (index
    # k % 5): the exponent of P_k counts the cycles of tau whose slot signs
    # sum to k. The 24 permutations give 8 distinct monomials, none with an
    # exponent above 2.
    slot_signs = (1, -1, -1, 1)
    exponents = []
    for tau in _PERMS4:
        powers = [0] * 5
        for cycle in _cycles(tau):
            powers[sum(slot_signs[j] for j in cycle) % 5] += 1
        exponents.append(tuple(powers))
    monomials = sorted(set(exponents))
    return np.array(monomials), np.array([monomials.index(e) for e in exponents])


_MONOMIALS, _MONOMIAL_OF_TAU = _column_monomials()
# per monomial, the power of P_0 = d and the other factors as indices into
# (P_1, P_2, P_-2, P_-1), the columns after P_0
_FACTORS = [
    (e[0], tuple(k for k in range(4) for _ in range(e[k + 1]))) for e in _MONOMIALS.tolist()
]


def monomial_weights(weights) -> np.ndarray:
    """kappa, shape (8,): the 24 weights (Wg r)(tau) summed over the tau that
    share a column monomial. The grouping needs no property of M, so
    kappa . monomials = (Wg r) . c exactly for any operator."""
    kappa = np.zeros(len(_MONOMIALS), dtype=complex)
    np.add.at(kappa, _MONOMIAL_OF_TAU, np.asarray(weights, dtype=complex))
    return kappa


def witness_means(kappa, levels, times) -> np.ndarray:
    """The exact mean over W of the witness, sum_tau (Wg r)(tau) c(tau), for
    each spectrum and time, from the grouped weights of :func:`monomial_weights`.

    ``levels`` has shape (d,) or (n, d) and ``times`` is 1-d; the result has
    shape (times,) or (n, times). One phase table exp(-iEt) over all spectra
    and times gives both power sums: P_1 = d f(t) sums it and P_2 = d f(2t)
    sums its square.
    """
    levels = np.asarray(levels, dtype=float)
    times = np.asarray(times, dtype=float)
    d = levels.shape[-1]
    x = times[:, None] * levels[..., None, :]
    phases = np.empty(x.shape, dtype=complex)
    np.cos(x, out=phases.real)
    np.sin(np.negative(x, out=x), out=phases.imag)
    p1 = np.einsum("...k->...", phases)
    phases *= phases
    p2 = np.einsum("...k->...", phases)
    sums = (p1, p2, p2.conj(), p1.conj())
    total = 0.0
    for weight, (d_power, factors) in zip(np.asarray(kappa).tolist(), _FACTORS):
        total = total + weight * d**d_power * math.prod(sums[k] for k in factors)
    return total.real
