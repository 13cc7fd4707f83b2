import itertools
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dephwit.dephasing import dephase_total
from dephwit.linalg import dagger, eig_hermitian, hs_norm, partial_trace_env
from dephwit.randmat import (
    RngHandle,
    SpectrumEnsemble,
    haar_unitary,
    sample_spectrum,
)
from dephwit.states import (
    BipartiteState,
    classical_state,
    from_pure,
    random_mixed,
)
from dephwit import linalg, weingarten, witness
from dephwit.dephasing import discord_delta
from dephwit.witness import (
    MC_CHUNK,
    McEstimate,
    _choi_moments,
    _mc_moments,
    _merge,
    choi_isotropic_check,
    haar_average_distance_sq,
    haar_witness_prefactor_sq,
    maximally_entangled_ket,
    structured_average_distance,
    structured_average_grid,
    theorem_mc_check,
    theorem_rhs,
    twirl_constants,
    twirl_mc,
    witness_distance,
    witness_trajectory,
)
from dephwit.weingarten import monomial_weights, weingarten_matrix, witness_means, witness_rows
from helpers import (
    evolution_np,
    gue_levels_np,
    haar_batch_np,
    haar_np,
    haar_witness_coefficients_exact,
    hs_norm_np,
    np_rng,
    ptrace_env_loops,
    random_hermitian_np,
    structured_samples_np,
    twirl_constants_exact,
    weingarten_exact,
    witness_columns_np,
)

SQRT8 = np.array([np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)], dtype=complex)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _pair(psi_or_rho, d_s, d_e):
    if np.asarray(psi_or_rho).ndim == 1:
        state = from_pure(psi_or_rho, d_s, d_e)
    else:
        state = BipartiteState(d_s, d_e, psi_or_rho)
    return state, dephase_total(state)


def _classical_pair(seed=101):
    rng = np_rng(seed)
    p = rng.dirichlet(np.ones(4)).reshape(2, 2)
    # keep the marginal well away from degeneracy
    while abs(p[0].sum() - p[1].sum()) < 0.1:
        p = rng.dirichlet(np.ones(4)).reshape(2, 2)
    return _pair(classical_state(p).rho, 2, 2)


# ---------------------------------------------------------------------------
# single-unitary witness


def test_witness_identity_unitary_gives_zero():
    state, deph = _pair(SQRT8, 2, 2)
    assert witness_distance(state, deph, np.eye(4)) <= 1e-10


def test_witness_zero_for_classical_states():
    state, deph = _classical_pair()
    rng = RngHandle(102)
    for i in range(20):
        u = haar_unitary(4, rng.derive(i))
        assert witness_distance(state, deph, u) <= 1e-10


def test_witness_known_unitary_action():
    # CNOT maps the pure-state difference onto reduced coherences of size
    # 0.4, so the distance is 0.4 sqrt 2; cross-checked against an
    # independent loop-based pipeline
    state, deph = _pair(SQRT8, 2, 2)
    value = witness_distance(state, deph, CNOT)
    assert value == pytest.approx(0.4 * np.sqrt(2), abs=1e-12)
    m = state.rho - deph.rho
    oracle = hs_norm_np(ptrace_env_loops(CNOT @ m @ CNOT.conj().T, 2, 2))
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value > 0.0


def test_witness_contraction_bound():
    rng = RngHandle(103)
    for i in range(10):
        state = random_mixed(2, 3, 4, rng.derive(i))
        deph = dephase_total(state)
        delta = discord_delta(state)
        u = haar_unitary(6, rng.derive(100 + i))
        assert witness_distance(state, deph, u) <= math.sqrt(3) * delta + 1e-10


def test_witness_rejects_bad_input():
    state, deph = _pair(SQRT8, 2, 2)
    with pytest.raises(ValueError):
        witness_distance(state, deph, 2.0 * np.eye(4))
    with pytest.raises(ValueError):
        witness_distance(state, deph, np.eye(6))


# ---------------------------------------------------------------------------
# Haar averages of the squared witness


def test_prefactor_reference_values():
    assert haar_witness_prefactor_sq(2, 2) == pytest.approx(0.4, abs=1e-15)
    assert haar_witness_prefactor_sq(2, 3) == pytest.approx(9 / 35, abs=1e-15)
    assert haar_witness_prefactor_sq(3, 2) == pytest.approx(16 / 35, abs=1e-15)
    assert haar_witness_prefactor_sq(2, 4) == pytest.approx(4 / 21, abs=1e-15)


def test_haar_average_partially_entangled():
    state, deph = _pair(SQRT8, 2, 2)
    est = haar_average_distance_sq(state, deph, 20_000, RngHandle(111))
    assert abs(est.mean - 0.128) <= 4.0 * est.std_error
    rms, rms_err = est.rms()
    assert abs(rms - math.sqrt(0.128)) <= 4.0 * rms_err


def test_haar_average_bell_state():
    state, deph = _pair(BELL, 2, 2)
    est = haar_average_distance_sq(state, deph, 20_000, RngHandle(112))
    assert abs(est.mean - 0.2) <= 4.0 * est.std_error
    rms, _ = est.rms()
    assert rms == pytest.approx(math.sqrt(0.2), abs=0.02)


def test_haar_average_classical_state_vanishes():
    state, deph = _classical_pair()
    est = haar_average_distance_sq(state, deph, 2_000, RngHandle(113))
    assert est.mean <= 1e-20
    assert est.std_error <= 1e-20


def test_haar_average_proportionality_across_states_and_dims():
    # mean over Haar equals the dimensional prefactor times delta^2
    rng = RngHandle(114)
    cases = [(2, 2), (2, 3), (3, 2)]
    idx = 0
    for d_s, d_e in cases:
        for _ in range(3):
            state = random_mixed(d_s, d_e, d_s * d_e, rng.derive(idx))
            deph = dephase_total(state)
            delta = discord_delta(state)
            assert delta > 1e-3
            est = haar_average_distance_sq(state, deph, 10_000, rng.derive(1000 + idx))
            expected = haar_witness_prefactor_sq(d_s, d_e) * delta**2
            assert abs(est.mean - expected) <= 4.0 * est.std_error
            idx += 1


def test_haar_average_matches_worker_counts():
    state, deph = _pair(SQRT8, 2, 2)
    serial = haar_average_distance_sq(state, deph, 5_000, RngHandle(115), workers=1)
    threaded = haar_average_distance_sq(state, deph, 5_000, RngHandle(115), workers=4)
    assert serial == threaded  # bit-identical, not approximately equal


# ---------------------------------------------------------------------------
# closed-form average (theorem) checks


def test_theorem_rhs_traceless_unit_norm():
    m = np.diag([0.5, 0.5, -0.5, -0.5]).astype(complex)
    assert hs_norm(m) == pytest.approx(1.0)
    assert theorem_rhs(m, 2, 2) == pytest.approx(0.4, abs=1e-15)


def test_theorem_rhs_identity_cross_check():
    # reduced identity is d_e I for every unitary, squared norm d_e^2 d_s
    value = theorem_rhs(np.eye(4), 2, 2)
    assert value == pytest.approx(8.0, abs=1e-12)
    est, rhs = theorem_mc_check(np.eye(4), 2, 2, 500, RngHandle(121))
    assert rhs == pytest.approx(8.0, abs=1e-12)
    assert est.mean == pytest.approx(8.0, abs=1e-10)
    assert est.std_error <= 1e-10


def test_theorem_rhs_trivial_system_dimension():
    rng = np_rng(122)
    m = random_hermitian_np(rng, 3)
    assert theorem_rhs(m, 1, 3) == pytest.approx(np.trace(m).real ** 2, abs=1e-12)


def test_theorem_rhs_rejects_non_hermitian():
    with pytest.raises(ValueError):
        theorem_rhs(np.triu(np.ones((4, 4))), 2, 2)


def test_theorem_mc_random_hermitian():
    m = random_hermitian_np(np_rng(123), 6)
    est, rhs = theorem_mc_check(m, 2, 3, 20_000, RngHandle(124))
    assert abs(est.mean - rhs) <= 4.0 * est.std_error
    assert est.std_error <= 0.01 * rhs


def test_theorem_mc_zero_operator():
    est, rhs = theorem_mc_check(np.zeros((4, 4)), 2, 2, 100, RngHandle(125))
    assert est.mean == 0.0 and rhs == 0.0


def _hermitian_with_spectrum(rng, d, eigenvalues):
    # the given nonzero eigenvalues on random orthonormal vectors, zero elsewhere
    w = haar_np(rng, d)[:, : len(eigenvalues)]
    return (w * np.asarray(eigenvalues)) @ w.conj().T


SPECTRA = {"rank_one": [1.3], "indefinite_rank_two": [0.7, -0.7], "traced_rank_three": [1.0, -0.4, 0.25]}


@pytest.mark.parametrize("d_s, d_e", [(2, 3), (3, 2), (1, 4)])
@pytest.mark.parametrize("kind", ["full_rank", "rank_one", "indefinite_rank_two"])
def test_isometry_kernel_matches_conjugation_oracle(d_s, d_e, kind):
    # V = U W on the kept eigenvectors W of M gives Tr_env(U M U^dagger) exactly
    d = d_s * d_e
    rng = np_rng(126)
    m = random_hermitian_np(rng, d) if kind == "full_rank" else _hermitian_with_spectrum(rng, d, SPECTRA[kind])
    lam, w = np.linalg.eigh(m)
    keep = np.abs(lam) > d * np.finfo(float).eps * np.abs(lam).max()
    assert keep.sum() == (d if kind == "full_rank" else len(SPECTRA[kind]))
    us = haar_batch_np(rng, d, 3)
    got = witness._batch_norm_sq_reduced((us @ w)[:, :, keep], np.tile(lam[keep], d_e), d_s)
    expected = [hs_norm_np(ptrace_env_loops(u @ m @ u.conj().T, d_s, d_e)) ** 2 for u in us]
    assert np.abs(got - expected).max() <= 1e-12


@pytest.mark.parametrize("d_s, d_e", [(2, 3), (3, 2), (2, 8)])
@pytest.mark.parametrize("kind", sorted(SPECTRA))
def test_theorem_mc_rank_deficient_operators(d_s, d_e, kind):
    m = _hermitian_with_spectrum(np_rng(127), d_s * d_e, SPECTRA[kind])
    est, rhs = theorem_mc_check(m, d_s, d_e, 10_000, RngHandle(128))
    assert abs(est.mean - rhs) <= 4.0 * est.std_error


def test_theorem_mc_error_bar_is_calibrated_over_seeds():
    # 200 seeds at 2 x 2 and n = 64, each with its own M = H + 1. Over 20,000
    # seeds the mean of z^2 is 1.063 (kurtosis of z 3.2), and its spread over
    # 100 batches of 200 seeds (sd 0.115) is that of 1.063 chi^2_nu / nu with
    # nu = 170. In that law the window's false-alarm rate is 2e-5. An error bar
    # scaled by 1.5 or by 0.67 moves the statistic to about 0.47 or 2.37.
    z_sq = []
    for seed in range(200):
        m = random_hermitian_np(np_rng(7300 + seed), 4) + np.eye(4)
        est, rhs = theorem_mc_check(m, 2, 2, 64, RngHandle(7301, (seed,)))
        z_sq.append(((est.mean - rhs) / est.std_error) ** 2)
    assert 0.65 <= float(np.mean(z_sq)) <= 1.65


def test_haar_samples_draw_normals_for_the_rank_of_m(monkeypatch):
    drawn = []
    normals = RngHandle.normals

    def counting_normals(self, shape):
        drawn.append(math.prod(shape))
        return normals(self, shape)

    monkeypatch.setattr(RngHandle, "normals", counting_normals)
    n, d_s, d_e = 1100, 2, 8
    d = d_s * d_e
    g = np_rng(129).normal(size=d) + 1j * np_rng(130).normal(size=d)
    state, deph = _pair(g / np.linalg.norm(g), d_s, d_e)
    haar_average_distance_sq(state, deph, n, RngHandle(131))
    assert sum(drawn) == 2 * n * d * 2  # a pure state's M has rank 2
    drawn.clear()
    est, _ = theorem_mc_check(np.zeros((d, d)), d_s, d_e, n, RngHandle(132))
    assert sum(drawn) == 0 and est.mean == 0.0 and est.std_error == 0.0
    theorem_mc_check(random_hermitian_np(np_rng(133), d), d_s, d_e, n, RngHandle(134))
    assert sum(drawn) == 2 * n * d * d


# ---------------------------------------------------------------------------
# structured evolutions


def test_structured_average_zero_at_time_zero():
    state, deph = _pair(SQRT8, 2, 2)
    ens = SpectrumEnsemble("gue", 4)
    est = structured_average_distance(state, deph, ens, 0.0, 1_000, RngHandle(131))
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_structured_average_classical_vanishes():
    state, deph = _classical_pair()
    ens = SpectrumEnsemble("poisson", 4)
    est = structured_average_distance(state, deph, ens, 1.5, 1_000, RngHandle(132))
    assert est.mean <= 1e-20


def test_structured_average_state_independent_ratio():
    ens = SpectrumEnsemble("gue", 4)
    rng = RngHandle(133)
    ratios = []
    errors = []
    for i in range(3):
        state = random_mixed(2, 2, 4, rng.derive(i))
        deph = dephase_total(state)
        delta = discord_delta(state)
        est = structured_average_distance(state, deph, ens, 1.0, 10_000, rng.derive(100 + i))
        ratios.append(est.mean / delta**2)
        errors.append(est.std_error / delta**2)
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            gap = abs(ratios[i] - ratios[j])
            assert gap <= 4.0 * math.hypot(errors[i], errors[j])


def _frozen(ens, rng):
    """The quenched form of ``ens``: one spectrum from rng.derive(1), as an explicit ensemble."""
    return SpectrumEnsemble("explicit", ens.dim, sample_spectrum(ens, rng.derive(1)))


def test_structured_average_quenched_mode_reproducible():
    state, deph = _pair(SQRT8, 2, 2)
    ens = SpectrumEnsemble("poisson", 4)
    a = structured_average_distance(state, deph, _frozen(ens, RngHandle(134)), 2.0, 2_000, RngHandle(134))
    b = structured_average_distance(state, deph, _frozen(ens, RngHandle(134)), 2.0, 2_000, RngHandle(134))
    assert a == b and a.std_error == 0.0
    annealed = structured_average_distance(state, deph, ens, 2.0, 2_000, RngHandle(134))
    assert annealed != a


def test_structured_average_rejects_mismatched_ensemble(monkeypatch):
    calls = []
    draw = witness.sample_spectrum

    def counting_draw(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(witness, "sample_spectrum", counting_draw)
    state, deph = _pair(SQRT8, 2, 2)
    with pytest.raises(ValueError):
        structured_average_distance(state, deph, SpectrumEnsemble("gue", 6), 1.0, 100, RngHandle(1))
    # one sample is rejected before any spectrum is drawn, annealed or quenched
    gue = SpectrumEnsemble("gue", 4)
    for ens in (gue, _frozen(gue, RngHandle(1))):
        with pytest.raises(ValueError, match="at least 2"):
            structured_average_grid(state, deph, ens, [0.0, 1.0], 1, RngHandle(1))
    assert calls == []
    structured_average_grid(state, deph, SpectrumEnsemble("gue", 4), [1.0], 2, RngHandle(1))
    assert len(calls) == 1  # the counter sees the sampler


def _grid_case():
    state = random_mixed(2, 3, 4, RngHandle(190))
    return state, dephase_total(state)


def test_structured_grid_matches_worker_counts():
    state, deph = _grid_case()
    times = [0.0, 0.5, 1.5, 3.0]
    n = 2 * MC_CHUNK + 76
    for ens in (
        SpectrumEnsemble("gue", 6),
        SpectrumEnsemble("poisson", 6),
        _frozen(SpectrumEnsemble("poisson", 6), RngHandle(191)),
    ):
        one, two = (structured_average_grid(state, deph, ens, times, n, RngHandle(191), workers=w) for w in (1, 2))
        assert one == two  # bit-identical, not approximately equal


def test_structured_grid_columns_match_single_times():
    # each column against the single-time call on the same stream
    state, deph = _grid_case()
    times = [0.25, 1.0, 2.5]
    n = 2 * MC_CHUNK + 76
    rng = RngHandle(192)
    for ens in (SpectrumEnsemble("gue", 6), _frozen(SpectrumEnsemble("poisson", 6), rng)):
        grid = structured_average_grid(state, deph, ens, times, n, rng)
        for t, est in zip(times, grid):
            single = structured_average_distance(state, deph, ens, t, n, rng)
            assert est.mean == pytest.approx(single.mean, rel=1e-12)
            assert est.std_error == pytest.approx(single.std_error, rel=1e-12)
            assert est.n_samples == single.n_samples == n


def test_structured_grid_zero_and_repeated_times():
    state, deph = _grid_case()
    ens = SpectrumEnsemble("gue", 6)
    grid = structured_average_grid(state, deph, ens, [0.7, 0.0, 1.4, 0.0, 0.0, 1.4], 1_000, RngHandle(193))
    for i in (1, 3, 4):
        assert grid[i] == McEstimate(0.0, 0.0, 1_000)
    assert grid[0].mean > 0.0 and grid[2].mean > 0.0
    assert grid[2] == grid[5]
    # the zero rows draw nothing, so the sampled rows are those of the grid without them
    assert [grid[0], grid[2]] == structured_average_grid(state, deph, ens, [0.7, 1.4], 1_000, RngHandle(193))
    assert structured_average_grid(state, deph, ens, [0.0, 0.0], 1_000, RngHandle(193)) == [
        McEstimate(0.0, 0.0, 1_000)
    ] * 2


# ---------------------------------------------------------------------------
# exact Weingarten engine


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2), (1, 4), (3, 3)])
def test_degree_two_weingarten_reproduces_theorem_rhs(d_s, d_e):
    # rows of U: (a, b'), of conj(U): (b, a'); the partial trace and the norm
    # tie a_S = a'_S, b_S = b'_S, a_E = b_E, a'_E = b'_E
    d = d_s * d_e
    one_s, one_e = np.eye(d_s), np.eye(d_e)
    ties = np.einsum("ac,bd,AB,CD->aAbBcCdD", one_s, one_s, one_e, one_e).reshape((d,) * 4)
    rows = [np.einsum("aabb->", ties), np.einsum("abab->", ties)]  # sigma = id, swap
    wg = weingarten_matrix(2, d)
    for seed in range(3):
        m = random_hermitian_np(np_rng(900 + seed), d)
        # columns of U: (p, q'), of conj(U): (q, p'), weighted by M_pq conj(M_p'q')
        cols = [abs(np.trace(m)) ** 2, hs_norm_np(m) ** 2]
        assert _rel(rows @ wg @ cols, theorem_rhs(m, d_s, d_e)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_weingarten_matrix_is_the_gram_pseudo_inverse(n, d):
    # Gram(sigma, tau) = d^#cycles(sigma^-1 tau); singular for d < n
    perms = list(itertools.permutations(range(n)))

    def cycles(p):
        seen, count = set(), 0
        for start in range(n):
            count += start not in seen
            k = start
            while k not in seen:
                seen.add(k)
                k = p[k]
        return count

    inverse = [tuple(np.argsort(s)) for s in perms]
    gram = np.array([[float(d) ** cycles([s_inv[t[k]] for k in range(n)]) for t in perms] for s_inv in inverse])
    wg = weingarten_matrix(n, d)
    assert np.abs(wg - np.linalg.pinv(gram, 1e-10, hermitian=True)).max() <= 1e-12 * np.abs(wg).max()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_degree_two_weingarten_reproduces_twirl_constants(d):
    # U^dagger A U X U^dagger B U: rows of U (q, v), of conj(U) (p, u), with
    # A_pq B_uv; tau = id gives X and tau = swap gives Tr(X) I
    wg = weingarten_matrix(2, d)
    rng = np_rng(910 + d)
    a_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rows = np.array([np.trace(a_op) * np.trace(b_op), np.trace(a_op @ b_op)])
    consts = twirl_constants(a_op, b_op)
    assert _rel(rows @ wg[:, 1], consts.a) <= 1e-12
    assert _rel(rows @ wg[:, 0], consts.b) <= 1e-12


def _ulps(x, exact):
    # distance of a float from an exact rational, in units of the rounded value's last place
    return abs(x - float(exact)) / math.ulp(float(exact))


def test_degree_two_weingarten_floats_are_the_rounded_rationals():
    for d in (2, 3, 4, 5, 8, 64, 256, 4096):
        exact = weingarten_exact(2, d)
        # Collins & Sniady: Wg(id) = 1 / (d^2 - 1), Wg(swap) = -1 / (d (d^2 - 1))
        assert exact[0] == [Fraction(1, d**2 - 1), Fraction(-1, d * (d**2 - 1))]
        assert exact[1] == exact[0][::-1]
        wg = weingarten_matrix(2, d)
        assert all(_ulps(wg[i, j], exact[i][j]) <= 2 for i in range(2) for j in range(2))


def _collins_s4(d):
    # Collins, IMRN 2003, 953: Wg over S_4 by the cycle type of sigma^-1 tau
    big = d**2 * (d**2 - 1) * (d**2 - 4) * (d**2 - 9)
    return {
        (1, 1, 1, 1): Fraction(d**4 - 8 * d**2 + 6, big),
        (2, 1, 1): Fraction(-1, d * (d**2 - 1) * (d**2 - 9)),
        (2, 2): Fraction(d**2 + 6, big),
        (3, 1): Fraction(2 * d**2 - 3, big),
        (4,): Fraction(-5, d * (d**2 - 1) * (d**2 - 4) * (d**2 - 9)),
    }


def _cycle_types_s4():
    # cycle type of sigma^-1 tau for each pair, in the order of itertools.permutations
    perms = list(itertools.permutations(range(4)))
    types = []
    for sigma in perms:
        row = []
        for tau in perms:
            p = [sigma.index(t) for t in tau]
            seen, lengths = set(), []
            for start in range(4):
                k, length = start, 0
                while k not in seen:
                    seen.add(k)
                    k, length = p[k], length + 1
                if length:
                    lengths.append(length)
            row.append(tuple(sorted(lengths, reverse=True)))
        types.append(row)
    return types


def test_degree_four_weingarten_floats_are_collins_rational_functions():
    types = _cycle_types_s4()
    # the closed forms are the exact Gram inverse
    for d in (4, 5, 6, 9):
        forms = _collins_s4(d)
        assert weingarten_exact(4, d) == [[forms[t] for t in row] for row in types]
    # the float matrix is each form correctly rounded
    for d in [*range(4, 65), 256, 1024, 4096, 65536]:
        forms = {t: float(v) for t, v in _collins_s4(d).items()}
        assert weingarten_matrix(4, d).tolist() == [[forms[t] for t in row] for row in types]


def test_haar_witness_prefactors_are_the_rounded_exact_sums():
    grid = (1, 2, 3, 4, 5, 7, 8, 16, 31, 64)
    for d_s, d_e in itertools.product(grid, repeat=2):
        if d_s * d_e < 2:
            continue
        norm_coefficient, trace_coefficient = haar_witness_coefficients_exact(d_s, d_e)
        assert norm_coefficient == Fraction(d_s**2 * d_e - d_e, d_s**2 * d_e**2 - 1)
        assert _ulps(haar_witness_prefactor_sq(d_s, d_e), norm_coefficient) <= 2
        # theorem_rhs weighs Tr(M)^2 with the prefactor of the swapped dimensions
        assert _ulps(haar_witness_prefactor_sq(d_e, d_s), trace_coefficient) <= 2


@pytest.mark.parametrize("d", [2, 3, 4, 9, 64])
def test_twirl_constants_are_the_rounded_exact_rationals(d):
    rng = np_rng(930 + d)
    for _ in range(3):
        a_op, b_op = (rng.integers(-5, 6, size=(d, d)) for _ in range(2))
        exact_a, exact_b = twirl_constants_exact(a_op.tolist(), b_op.tolist())
        consts = twirl_constants(a_op, b_op)
        assert consts.a.imag == consts.b.imag == 0.0
        assert _ulps(consts.a.real, exact_a) <= 2
        assert _ulps(consts.b.real, exact_b) <= 2


def _entry_moment_np(d, rows, cols, n, rng):
    u = haar_batch_np(rng, d, n)
    samples = np.prod(np.abs(u[:, rows, cols]) ** 2, axis=-1)
    return samples.mean(), samples.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "rows, cols", [((0, 0, 0, 0), (0, 0, 0, 0)), ((0, 0, 1, 1), (0, 1, 0, 1)), ((0, 1, 1, 0), (0, 0, 1, 1))]
)
def test_singular_gram_weingarten_matches_haar_entry_moments(d, rows, cols):
    # E prod_k |U_{i_k j_k}|^2 sums Wg(sigma, tau) over the sigma fixing the
    # row tuple and the tau fixing the column tuple
    perms = list(itertools.permutations(range(4)))
    r = np.array([all(rows[s[k]] == rows[k] for k in range(4)) for s in perms], dtype=float)
    c = np.array([all(cols[s[k]] == cols[k] for k in range(4)) for s in perms], dtype=float)
    exact = r @ weingarten_matrix(4, d) @ c
    mean, err = _entry_moment_np(d, list(rows), list(cols), 40_000, np_rng(920 + d))
    assert abs(exact - mean) <= 5.0 * err
    if rows == cols == (0, 0, 0, 0):
        assert exact == pytest.approx(24.0 / (d * (d + 1) * (d + 2) * (d + 3)), rel=1e-12)


@pytest.mark.parametrize("d_s, d_e", [(2, 1), (3, 1), (1, 2), (1, 3)])
def test_singular_gram_structured_witness_is_exact(d_s, d_e):
    # at d = 2 and 3 one factor is trivial and every evolution gives the same
    # value: ||M||^2 without an environment, |Tr M|^2 without a system
    d = d_s * d_e
    m = random_hermitian_np(np_rng(930 + d_s), d)
    expected = hs_norm_np(m) ** 2 if d_e == 1 else abs(np.trace(m)) ** 2
    weights = weingarten_matrix(4, d) @ witness_rows(m, d_s, d_e)
    levels = np_rng(940 + d).normal(size=d)
    times = [0.4, 1.5, 7.0]
    for t, mean in zip(times, witness_means(monomial_weights(weights), levels, times)):
        assert _rel(mean, (witness_columns_np(levels, t) @ weights).real) <= 1e-12
        assert _rel(mean, expected) <= 1e-12


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2)])
def test_grouped_witness_means_match_the_column_oracle(d_s, d_e):
    # kappa groups the 24 weights of any operator, not only of a dephasing pair
    d = d_s * d_e
    m = random_hermitian_np(np_rng(945 + d), d)
    weights = weingarten_matrix(4, d) @ witness_rows(m, d_s, d_e)
    levels = np_rng(946 + d).normal(size=(3, d))
    times = [0.4, 1.5, 7.0]
    means = witness_means(monomial_weights(weights), levels, times)
    assert means.shape == (3, 3)
    for row, spectrum in zip(means, levels):
        for mean, t in zip(row, times):
            assert _rel(mean, (witness_columns_np(spectrum, t) @ weights).real) <= 1e-12


def _witness_means_direct(kappa, levels, times):
    # exp(-iEt) as numpy's complex exp, then every monomial of _MONOMIALS
    # written out factor by factor; also the sum of the terms' moduli, the
    # scale of the rounding in the weighted sum
    phases = np.exp(-1j * np.multiply.outer(times, levels).swapaxes(0, -2))
    p1 = phases.sum(axis=-1)
    p2 = (phases * phases).sum(axis=-1)
    sums = (levels.shape[-1], p1, p2, np.conj(p2), np.conj(p1))
    total = scale = 0.0
    for weight, exponents in zip(kappa, weingarten._MONOMIALS):
        term = weight
        for p_k, e in zip(sums, exponents):
            for _ in range(e):
                term = term * p_k
        total = total + term
        scale = scale + np.abs(term)
    return np.real(total), scale


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("spread", [1.0, 1e2, 1e4])
def test_witness_means_match_the_direct_complex_exponential(stacked, spread):
    # complex weights, and |tE| up to 1e4 so cos and sin reduce large arguments
    rng = np_rng(947)
    d = 6
    kappa = rng.normal(size=8) + 1j * rng.normal(size=8)
    levels = rng.uniform(-1.0, 1.0, size=(4, d) if stacked else d) * spread
    times = np.array([-1.0, 0.3, 0.75, 1.0])
    means = witness_means(kappa, levels, times)
    expected, scale = _witness_means_direct(kappa, levels, times)
    assert means.shape == expected.shape == levels.shape[:-1] + times.shape
    assert np.max(np.abs(means - expected) / scale) <= 1e-13


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2)])
def test_witness_rows_per_squared_discord_are_one_vector(d_s, d_e):
    reference = None
    for rank in range(1, min(6, d_s * d_e) + 1):
        state = random_mixed(d_s, d_e, rank, RngHandle(950 + rank))
        m = state.rho - dephase_total(state).rho
        rows = witness_rows(m, d_s, d_e) / discord_delta(state) ** 2
        if reference is None:
            reference = rows
        assert np.abs(rows - reference).max() <= 1e-12 * np.abs(reference).max()


def test_structured_average_of_a_classical_pair_is_exactly_zero():
    state, deph = _classical_pair()
    times = [0.0, 0.4, 7.0]
    for ens in (SpectrumEnsemble("gue", 4), _frozen(SpectrumEnsemble("poisson", 4), RngHandle(960))):
        grid = structured_average_grid(state, deph, ens, times, 1_000, RngHandle(960))
        assert grid == [McEstimate(0.0, 0.0, 1_000)] * 3


STRUCTURED_TIMES = [0.4, 1.5, 7.0]


def _z_case(d_s, d_e):
    state = random_mixed(d_s, d_e, 2, RngHandle(970 + 10 * d_s + d_e))
    deph = dephase_total(state)
    return state, deph, state.rho - deph.rho


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_exact_rows_pass_z_checks_against_the_sampler(d_s, d_e):
    state, deph, m = _z_case(d_s, d_e)
    d = d_s * d_e
    n = 4_000
    rng = RngHandle(980)
    explicit = SpectrumEnsemble("explicit", d, explicit_levels=np_rng(981).uniform(0.0, d, d))
    quenched = _frozen(SpectrumEnsemble("poisson", d), rng)
    for ens in (explicit, quenched):
        grid = structured_average_grid(state, deph, ens, STRUCTURED_TIMES, n, rng)
        assert all(est.std_error == 0.0 and est.n_samples == n for est in grid)
        levels = np.broadcast_to(ens.explicit_levels, (n, d))
        samples = structured_samples_np(m, d_s, d_e, levels, STRUCTURED_TIMES, np_rng(982 + d))
        for est, col in zip(grid, samples.T):
            z = (est.mean - col.mean()) / (col.std(ddof=1) / math.sqrt(n))
            assert abs(z) <= 5.0


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_annealed_rows_pass_z_checks_against_the_sampler(d_s, d_e):
    state, deph, m = _z_case(d_s, d_e)
    d = d_s * d_e
    n = 4_000
    grid = structured_average_grid(state, deph, SpectrumEnsemble("gue", d), STRUCTURED_TIMES, n, RngHandle(990))
    rng = np_rng(991 + d)
    samples = structured_samples_np(m, d_s, d_e, gue_levels_np(rng, d, n), STRUCTURED_TIMES, rng)
    for est, col in zip(grid, samples.T):
        assert 0.0 < est.std_error < col.std(ddof=1) / math.sqrt(n)
        z = (est.mean - col.mean()) / math.hypot(est.std_error, col.std(ddof=1) / math.sqrt(n))
        assert abs(z) <= 5.0


# ---------------------------------------------------------------------------
# trajectories


def _drawn_evolution(ensemble, seed):
    # the (levels, W) that witness_trajectory draws from RngHandle(seed): W first, then E
    handle = RngHandle(seed)
    w = haar_unitary(ensemble.dim, handle)
    return sample_spectrum(ensemble, handle), w


def test_witness_trajectory_starts_at_zero():
    state, deph = _pair(SQRT8, 2, 2)
    ens = SpectrumEnsemble("gue", 4)
    hs_distance, trace_distance = witness_trajectory(state, deph, ens, np.linspace(0.0, 3.0, 7), RngHandle(141))
    assert hs_distance[0] <= 1e-10
    assert trace_distance[0] <= 1e-10
    assert np.all(hs_distance >= 0.0)
    assert hs_distance.shape == trace_distance.shape == (7,)


@pytest.mark.parametrize("d_s, d_e, rank", [(2, 2, 1), (2, 3, 3), (3, 2, 6)])
def test_witness_trajectory_trace_distance_at_nonzero_times(d_s, d_e, rank):
    # half the summed |eigenvalues| of the reduced difference, from U = W e^{-iEt} W^dagger
    state = random_mixed(d_s, d_e, rank, RngHandle(144))
    deph = dephase_total(state)
    ens = SpectrumEnsemble("gue", d_s * d_e)
    levels, w = _drawn_evolution(ens, 145)
    times = np.array([0.4, 1.3, 2.9, 7.5])
    _, trace_distance = witness_trajectory(state, deph, ens, times, RngHandle(145))
    m = state.rho - deph.rho
    for t, td in zip(times, trace_distance):
        u = evolution_np(levels, w, t)
        red = ptrace_env_loops(u @ m @ u.conj().T, d_s, d_e)
        expected = 0.5 * np.abs(np.linalg.eigvalsh(red)).sum()
        assert expected > 1e-3
        assert abs(td - expected) <= 1e-10


@pytest.mark.parametrize("kind", ["gue", "poisson", "explicit"])
@pytest.mark.parametrize("d_s, d_e, rank", [(2, 2, 4), (3, 2, 1), (2, 16, 32), (2, 64, 1), (4, 2, 8), (16, 2, 32)])
def test_witness_trajectory_rows_match_the_dense_evolution(d_s, d_e, rank, kind):
    # every row against U(t) = W e^{-iEt} W^dagger applied to M in numpy; the
    # 3 x 2, 4 x 2 and 16 x 2 shapes cover d_s > d_e
    d = d_s * d_e
    state = random_mixed(d_s, d_e, rank, RngHandle(146 + d))
    deph = dephase_total(state)
    explicit = np_rng(147 + d).uniform(-d, d, size=d) if kind == "explicit" else None
    ens = SpectrumEnsemble(kind, d, explicit_levels=explicit)
    levels, w = _drawn_evolution(ens, 148)
    times = np.array([0.0, 0.4, 1.3, 2.9, 7.5, 31.0])
    hs_distance, trace_distance = witness_trajectory(state, deph, ens, times, RngHandle(148))
    m = state.rho - deph.rho
    for t, hs, td in zip(times, hs_distance, trace_distance):
        u = evolution_np(levels, w, t)
        red = ptrace_env_loops(u @ m @ u.conj().T, d_s, d_e)
        expected = np.array([hs_norm_np(red), 0.5 * np.abs(np.linalg.eigvalsh(red)).sum()])
        if t == 0.0:
            # Tr_E M, zero up to rounding for a dephasing pair
            np.testing.assert_allclose([hs, td], expected, rtol=0.0, atol=1e-12)
        else:
            assert expected.min() > 1e-3
            np.testing.assert_allclose([hs, td], expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d_s, d_e", [(2, 3), (3, 2)])
def test_trajectory_draws_average_to_the_exact_grid_rows(d_s, d_e):
    # one model: over independent draws of W, the mean of hs_distance^2 at a
    # fixed spectrum is the Weingarten average, at d_s < d_e and at d_s > d_e
    state, deph, _ = _z_case(d_s, d_e)
    d = d_s * d_e
    ens = SpectrumEnsemble("explicit", d, np_rng(996 + d_s).uniform(-d, d, size=d))
    n = 1_000
    grid = structured_average_grid(state, deph, ens, STRUCTURED_TIMES, n, RngHandle(997))
    rng = RngHandle(998 + d_s)
    hs = np.array([witness_trajectory(state, deph, ens, STRUCTURED_TIMES, rng.derive(k))[0] for k in range(n)])
    for est, col in zip(grid, (hs**2).T):
        assert est.std_error == 0.0 and est.mean > 1e-3
        z = (col.mean() - est.mean) / (col.std(ddof=1) / math.sqrt(n))
        assert abs(z) <= 4.0


@pytest.mark.parametrize(
    "times",
    [[], [0.7], np.linspace(0.5, 40.0, witness.TRAJECTORY_BLOCK + 44)],
    ids=["empty", "one-point", "two-blocks"],
)
def test_witness_trajectory_has_one_row_per_time(times):
    state, deph = _pair(SQRT8, 2, 2)
    ens = SpectrumEnsemble("gue", 4)
    levels, w = _drawn_evolution(ens, 149)
    hs_distance, trace_distance = witness_trajectory(state, deph, ens, times, RngHandle(149))
    assert hs_distance.shape == trace_distance.shape == (len(times),)
    expected = [witness_distance(state, deph, evolution_np(levels, w, t)) for t in times]
    np.testing.assert_allclose(hs_distance, expected, rtol=1e-12)


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (3, 2)])
@pytest.mark.parametrize("steps", [1, 50, witness.TRAJECTORY_BLOCK + 1])
def test_witness_trajectory_makes_one_stacked_eigensolve(monkeypatch, steps, d_s, d_e):
    # eigenvalues only, for all times at once; a Poisson spectrum needs no
    # eigensolve of its own, so every eigvalsh call is the trace norms'
    state = random_mixed(d_s, d_e, 2, RngHandle(151))
    deph = dephase_total(state)
    shapes, jacobi = [], []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        shapes.append(np.shape(a))
        return eigvalsh(a)

    def counting(a):
        jacobi.append(np.shape(a))
        return eig_hermitian(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(linalg, "eig_hermitian", counting)
    monkeypatch.setattr(witness, "eig_hermitian", counting)
    ens = SpectrumEnsemble("poisson", d_s * d_e)
    witness_trajectory(state, deph, ens, np.linspace(0.0, 3.0, steps), RngHandle(150))
    assert shapes == [(steps, d_s, d_s)]
    assert jacobi == []


def test_witness_trajectory_forms_one_pair_block_at_a_time():
    # all d_s^2 blocks K^ij at once take d_s^2 d^2 complex entries, 4 MiB at
    # 8 x 8; one block is d^2, 64 KiB
    state = random_mixed(8, 8, 64, RngHandle(152))
    deph = dephase_total(state)
    ens = SpectrumEnsemble("gue", 64)
    times = np.linspace(0.0, 3.0, 20)
    assert _traced_peak(lambda: witness_trajectory(state, deph, ens, times, RngHandle(153))) < 512 * 1024


def test_witness_trajectory_classical_flat():
    state, deph = _classical_pair()
    ens = SpectrumEnsemble("poisson", 4)
    hs_distance, _ = witness_trajectory(state, deph, ens, np.linspace(0.0, 5.0, 11), RngHandle(142))
    assert np.all(hs_distance <= 1e-9)


def test_witness_trajectory_rejects_a_mismatched_ensemble():
    # the grid's message, before anything is drawn from the stream
    state, deph = _pair(SQRT8, 2, 2)
    rng = RngHandle(143)
    with pytest.raises(ValueError, match="^ensemble dimension 6 does not match state dimension 4$"):
        witness_trajectory(state, deph, SpectrumEnsemble("poisson", 6), [0.0, 1.0], rng)
    np.testing.assert_array_equal(rng.uniform(4), RngHandle(143).uniform(4))


@pytest.mark.parametrize("mu", [0.5, 2.5])
@pytest.mark.parametrize("kind", ["gue", "poisson"])
def test_scaled_levels_are_scaled_times(kind, mu):
    # the witness sees E only through exp(-iEt): levels mu E at t are E at mu t,
    # so a level spacing other than 1 is a rescaled time grid
    state = random_mixed(2, 3, 3, RngHandle(154))
    deph = dephase_total(state)
    levels, _ = _drawn_evolution(SpectrumEnsemble(kind, 6), 155)
    times = np.array([0.0, 0.4, 1.3, 2.9, 7.5])
    # an explicit ensemble draws no levels, so RngHandle(155) gives both calls the same W
    scaled = witness_trajectory(state, deph, SpectrumEnsemble("explicit", 6, mu * levels), times, RngHandle(155))
    stretched = witness_trajectory(state, deph, SpectrumEnsemble(kind, 6), mu * times, RngHandle(155))
    for a, b in zip(scaled, stretched):
        np.testing.assert_allclose(a[1:], b[1:], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(a[0], b[0], rtol=0.0, atol=1e-12)  # Tr_E M, zero up to rounding
    kappa = monomial_weights(weingarten_matrix(4, 6) @ witness_rows(state.rho - deph.rho, 2, 3))
    stack = sample_spectrum(SpectrumEnsemble(kind, 6), RngHandle(156), size=4)
    np.testing.assert_allclose(
        witness_means(kappa, mu * stack, times[1:]), witness_means(kappa, stack, mu * times[1:]), rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_are_rejected_before_any_work(monkeypatch, bad):
    # a NaN reached the eigensolver as "not Hermitian", or became a NaN row
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(witness, name, wrapped)

    counting("sample_spectrum", sample_spectrum)
    counting("haar_unitary", haar_unitary)
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
    state, deph = _pair(SQRT8, 2, 2)
    explicit = SpectrumEnsemble("explicit", 4, explicit_levels=[0.0, 1.0, 2.5, 4.0])
    for call in (
        lambda: witness_trajectory(state, deph, SpectrumEnsemble("gue", 4), [0.0, bad], RngHandle(157)),
        lambda: structured_average_grid(state, deph, SpectrumEnsemble("gue", 4), [bad, 1.0], 100, RngHandle(157)),
        lambda: structured_average_grid(state, deph, explicit, [bad], 100, RngHandle(157)),
        lambda: structured_average_distance(state, deph, explicit, bad, 100, RngHandle(157)),
    ):
        with pytest.raises(ValueError, match="^times must be finite$"):
            call()
    assert calls == []


# ---------------------------------------------------------------------------
# pure-state consistency between average-witness routes


def test_pure_state_discord_is_concurrence_over_sqrt_two():
    rng = np_rng(151)
    for d_s, d_e in [(2, 2), (2, 3), (3, 3)] * 5:
        psi = haar_np(rng, d_s * d_e)[:, 0]
        # C = sqrt(2 (1 - Tr rho_S^2)), rho_S from the amplitude matrix
        amplitudes = psi.reshape(d_s, d_e)
        rho_s = amplitudes @ amplitudes.conj().T
        conc = math.sqrt(2.0 * (1.0 - np.sum(np.abs(rho_s) ** 2)))
        assert abs(discord_delta(from_pure(psi, d_s, d_e)) - conc / math.sqrt(2.0)) <= 1e-10


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_pure_state_haar_mean_is_half_the_prefactor_times_concurrence_sq(d_s, d_e):
    # delta = C / sqrt(2) makes the closed-form Haar mean of D^2 equal to
    # haar_witness_prefactor_sq * C^2 / 2: the RMS witness is sqrt(1/2) of
    # the mixed-state prefactor times C
    rng = np_rng(153 + 5 * d_s + d_e)
    for _ in range(3):
        psi = haar_np(rng, d_s * d_e)[:, 0]
        amplitudes = psi.reshape(d_s, d_e)
        rho_s = amplitudes @ amplitudes.conj().T
        conc_sq = 2.0 * (1.0 - np.sum(np.abs(rho_s) ** 2))
        assert conc_sq > 1e-3
        state = from_pure(psi, d_s, d_e)
        rhs = theorem_rhs(state.rho - dephase_total(state).rho, d_s, d_e)
        assert _rel(rhs, haar_witness_prefactor_sq(d_s, d_e) * conc_sq / 2.0) <= 1e-10


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 5)])
def test_nearly_product_pure_states_keep_their_small_concurrence(dims, eps):
    # sqrt(1 - eps^2)|00> + eps|11> under 20 local rotations U (x) W has
    # C = 2 eps sqrt(1 - eps^2) = sqrt(2) delta; rounding of order 1e-16 in
    # the amplitudes bounds the relative accuracy of delta at about 1e-16/eps
    d_s, d_e = dims
    amplitudes = np.zeros((d_s, d_e), dtype=complex)
    amplitudes[0, 0], amplitudes[1, 1] = math.sqrt(1.0 - eps**2), eps
    exact = 2.0 * eps * math.sqrt(1.0 - eps**2)
    rng = np_rng(152)
    for _ in range(20):
        psi = np.kron(haar_np(rng, d_s), haar_np(rng, d_e)) @ amplitudes.reshape(-1)
        delta = discord_delta(from_pure(psi, d_s, d_e))
        assert abs(math.sqrt(2.0) * delta - exact) <= 1e-14 / eps * exact


# ---------------------------------------------------------------------------
# twirling channel


def test_twirl_constants_identity_pair():
    consts = twirl_constants(np.eye(4), np.eye(4))
    assert consts.a == pytest.approx(0.0, abs=1e-15)
    assert consts.b == pytest.approx(1.0, abs=1e-15)


def test_twirl_constants_pauli_z():
    # traceless with Tr(BA) = 2 at d = 2
    sz = np.diag([1.0, -1.0]).astype(complex)
    consts = twirl_constants(sz, sz)
    assert consts.a == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert consts.b == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_twirl_constants_trace_identity():
    # applying the channel to the identity gives Tr(BA)/d times the identity
    rng = np_rng(152)
    for d in (2, 3, 4):
        a_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        consts = twirl_constants(a_op, b_op)
        lhs = consts.a * d + consts.b
        rhs = np.trace(b_op @ a_op) / d
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_twirl_constants_rejects_dimension_one():
    with pytest.raises(ValueError):
        twirl_constants(np.eye(1), np.eye(1))


def test_twirl_mc_identity_pair_is_noiseless():
    rng = np_rng(153)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mean, stderr = twirl_mc(np.eye(3), np.eye(3), x, 200, RngHandle(154), return_stderr=True)
    assert np.abs(mean - x).max() <= 1e-13
    assert stderr.max() <= 1e-13


def test_twirl_mc_matches_lemma_elementwise():
    rng = np_rng(155)
    d = 4
    a_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    consts = twirl_constants(a_op, b_op)
    mean, stderr = twirl_mc(a_op, b_op, x, 20_000, RngHandle(156), return_stderr=True)
    exact = consts.a * np.trace(x) * np.eye(d) + consts.b * x
    assert np.all(np.abs(mean - exact) <= 5.0 * stderr)


def test_twirl_mc_on_identity_argument():
    rng = np_rng(157)
    d = 3
    a_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mean, stderr = twirl_mc(a_op, b_op, np.eye(d), 20_000, RngHandle(158), return_stderr=True)
    expected = (np.trace(b_op @ a_op) / d) * np.eye(d)
    assert np.all(np.abs(mean - expected) <= 5.0 * stderr + 1e-12)


def test_twirl_unitary_invariance():
    # conjugating the argument commutes with the twirl
    rng = np_rng(159)
    d = 3
    a_op = random_hermitian_np(rng, d)
    b_op = random_hermitian_np(rng, d)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = haar_np(rng, d)
    lhs, lhs_err = twirl_mc(a_op, b_op, w @ x @ w.conj().T, 20_000, RngHandle(160), return_stderr=True)
    rhs_mean, rhs_err = twirl_mc(a_op, b_op, x, 20_000, RngHandle(161), return_stderr=True)
    rhs = w @ rhs_mean @ w.conj().T
    # conjugation mixes entries, so compare against the aggregate error scale
    combined = math.hypot(float(np.linalg.norm(lhs_err)), float(np.linalg.norm(rhs_err)))
    assert hs_norm(lhs - rhs) <= 5.0 * combined


@pytest.mark.parametrize("c, c_prime", [(0.7 - 0.3j, -2.5), (1e4, 1e4), (-3.0, 1e4j)])
def test_identity_parts_of_a_and_b_add_no_noise(c, c_prime):
    # A + c 1 and B + c' 1 move the twirl's mean by (alpha c' + c beta + c c') X
    # on the same stream and leave both error bars as they were, up to the
    # rounding of the shifted operators, even where c = 1e4 makes the
    # identity parts dominate A and B
    d = 3
    n = 2 * MC_CHUNK + 76
    rng = np_rng(211)
    a_op, b_op, x = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3))
    alpha, beta = np.trace(a_op) / d, np.trace(b_op) / d
    a_shifted, b_shifted = a_op + c * np.eye(d), b_op + c_prime * np.eye(d)
    eps = np.finfo(float).eps
    rounding = 16 * eps * max(1.0, abs(c), abs(c_prime))

    mean, std_error = twirl_mc(a_op, b_op, x, n, RngHandle(212), return_stderr=True)
    shifted_mean, shifted_error = twirl_mc(a_shifted, b_shifted, x, n, RngHandle(212), return_stderr=True)
    scale = abs(alpha + c) * abs(beta + c_prime) * np.abs(x).max()
    shift = (alpha * c_prime + c * beta + c * c_prime) * x
    assert np.abs(shifted_mean - (mean + shift)).max() <= 8 * eps * scale
    np.testing.assert_allclose(shifted_error, std_error, rtol=rounding)

    base = choi_isotropic_check(a_op, b_op, n, RngHandle(213))
    shifted = choi_isotropic_check(a_shifted, b_shifted, n, RngHandle(213))
    assert shifted.mc_error == pytest.approx(base.mc_error, rel=rounding)


def _ginibre_np(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_twirl_mc_error_bars_are_calibrated_over_seeds():
    # 200 seeds at d = 3 and n = 64, each with its own Ginibre A, B and X; seed
    # s reads entry s mod 9, so the z-scores are independent. X is circularly
    # symmetric, so Re z and Im z share one law and the variance of Re z is
    # half of E|z|^2: 0.5035 over 10,000 seeds. How that variance splits
    # between Re z and Im z varies with the draw, which widens the spread of
    # the statistic beyond chi^2 with 200 degrees of freedom; the window is
    # that of 0.5 chi^2_nu / nu with nu = 130, matched to the spread of 50
    # batches of 200 seeds, and its false-alarm rate is 3e-4. An error bar
    # scaled by 1.5 or by 0.67 moves the statistic to about 0.22 or 1.11.
    d, n = 3, 64
    re_z = []
    for seed in range(200):
        rng = np_rng(7100 + seed)
        a_op, b_op, x = _ginibre_np(rng, d), _ginibre_np(rng, d), _ginibre_np(rng, d)
        consts = twirl_constants(a_op, b_op)
        mean, std_error = twirl_mc(a_op, b_op, x, n, RngHandle(7101, (seed,)), return_stderr=True)
        z = (mean - consts.a * np.trace(x) * np.eye(d) - consts.b * x) / std_error
        re_z.append(z.reshape(-1)[seed % (d * d)].real)
    assert 0.30 <= float(np.mean(np.square(re_z))) <= 0.75


# ---------------------------------------------------------------------------
# Choi-matrix isotropic form


def test_choi_identity_pair():
    result = choi_isotropic_check(np.eye(3), np.eye(3), 200, RngHandle(171))
    assert result.residual <= 1e-12


def test_choi_random_operators():
    rng = np_rng(172)
    d = 3
    a_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    result = choi_isotropic_check(a_op, b_op, 20_000, RngHandle(173))
    assert result.residual <= 5.0 * result.mc_error


def test_choi_residual_shrinks_with_samples():
    rng = np_rng(174)
    d = 3
    a_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    small = choi_isotropic_check(a_op, b_op, 4_000, RngHandle(175))
    large = choi_isotropic_check(a_op, b_op, 16_000, RngHandle(175))
    assert large.residual < small.residual
    assert large.mc_error == pytest.approx(small.mc_error / 2.0, rel=0.1)


def test_choi_error_bar_is_calibrated_over_seeds():
    # residual / mc_error over 200 seeds at d = 3 and n = 64, each with its own
    # Ginibre A and B: over 10,000 seeds it had mean 0.997 and sd 0.069, so
    # the mean of 200 has sd 0.0049 (0.0055 across 50 batches), and the window
    # lies more than 4.9 of those sd from 0.997 on each side: a false-alarm
    # rate below 1e-6 in the normal approximation. An mc_error scaled by 1.5
    # or by 0.67 moves the mean to about 0.66 or 1.49.
    d, n = 3, 64
    ratios = []
    for seed in range(200):
        rng = np_rng(7400 + seed)
        result = choi_isotropic_check(_ginibre_np(rng, d), _ginibre_np(rng, d), n, RngHandle(7401, (seed,)))
        ratios.append(result.residual / result.mc_error)
    assert 0.97 <= float(np.mean(ratios)) <= 1.03


def test_maximally_entangled_ket():
    omega = maximally_entangled_ket(3)
    assert np.linalg.norm(omega) == pytest.approx(1.0, abs=1e-14)
    rho = np.outer(omega, omega.conj())
    np.testing.assert_allclose(
        ptrace_env_loops(rho, 3, 3), np.eye(3) / 3, atol=1e-14
    )


# ---------------------------------------------------------------------------
# trace distance diagnostic


def test_half_trace_norm_reference_values():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert witness._half_trace_norm(a - a) == 0.0
    assert witness._half_trace_norm(a - b) == pytest.approx(1.0, abs=1e-12)
    assert witness._half_trace_norm(np.diag([0.7, 0.3]) - np.diag([0.5, 0.5])) == pytest.approx(
        0.2, abs=1e-12
    )


def test_half_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        witness._half_trace_norm(np.triu(np.ones((2, 2))) - np.eye(2))
    # eigvalsh reads one triangle, so one bad slice of a stack must fail the call;
    # each slice has its own tolerance, which a large neighbour does not widen
    skewed = np.array([[0.0, 1e-8], [0.0, 0.0]])
    for stack in (np.stack([np.eye(2), np.triu(np.ones((2, 2))), np.eye(2)]), np.stack([1e4 * np.eye(2), skewed])):
        with pytest.raises(ValueError, match="^a is not Hermitian within tolerance 1e-10$"):
            witness._half_trace_norm(stack)
    assert witness._half_trace_norm(np.stack([1e4 * np.eye(2) + skewed, np.eye(2)])) == pytest.approx([1e4, 1.0])


# ---------------------------------------------------------------------------
# estimator mechanics


def test_mc_estimate_rms_propagation():
    est = McEstimate(mean=0.25, std_error=0.01, n_samples=100)
    rms, rms_err = est.rms()
    assert rms == pytest.approx(0.5)
    assert rms_err == pytest.approx(0.01 / (2 * 0.5))
    zero = McEstimate(mean=0.0, std_error=0.0, n_samples=10)
    assert zero.rms() == (0.0, 0.0)
    nan_rms, nan_err = McEstimate(mean=math.nan, std_error=1.0, n_samples=10).rms()
    assert math.isnan(nan_rms) and math.isnan(nan_err)
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, std_error=0.0, n_samples=1)


def _regenerate(sample_fn, n_samples, rng):
    # the samples the reducer saw: chunk k is drawn from rng.derive(0, k)
    starts = range(0, n_samples, MC_CHUNK)
    return np.concatenate(
        [sample_fn(rng.derive(0, k), min(MC_CHUNK, n_samples - s)) for k, s in enumerate(starts)]
    )


def test_mc_moments_large_offset_scalar():
    # a one-pass sum of squares cancels against the squared mean here
    def sample_fn(handle, count):
        return 1e8 + handle.normals(count)

    n = 5_000  # nine full chunks and a short last one
    rng = RngHandle(181)
    mean, std_error = _mc_moments(sample_fn, n, rng, workers=1)
    samples = _regenerate(sample_fn, n, rng)
    assert mean == pytest.approx(samples.mean(), rel=1e-12)
    assert std_error == pytest.approx(samples.std(ddof=1) / math.sqrt(n), rel=1e-6)


def test_mc_moments_large_offset_complex_matrix():
    def sample_fn(handle, count):
        noise = handle.normals((count, 2, 3)) + 1j * handle.normals((count, 2, 3))
        return 1e8 * (1.0 - 2.0j) + noise

    n = 5_000
    rng = RngHandle(182)
    mean, std_error = _mc_moments(sample_fn, n, rng, workers=1)
    samples = _regenerate(sample_fn, n, rng)
    assert mean.shape == std_error.shape == (2, 3)
    np.testing.assert_allclose(mean, samples.mean(axis=0), rtol=1e-12)
    var = samples.real.var(axis=0, ddof=1) + samples.imag.var(axis=0, ddof=1)
    np.testing.assert_allclose(std_error, np.sqrt(var / n), rtol=1e-6)


@pytest.mark.parametrize("d", [3, 9])
def test_twirl_mc_matches_the_dense_conjugation_kernel(d):
    # the reference forms each sample from the traceless parts A_0 and B_0 as
    # dagger(u) @ a_0 @ u, then left @ x @ right, and adds alpha beta X to the mean
    def sample_fn(handle, count):
        u = haar_unitary(d, handle, size=count)
        left = dagger(u) @ a_0 @ u
        right = dagger(u) @ b_0 @ u
        return left @ x @ right

    n = 2 * MC_CHUNK + 76
    rng = np_rng(190 + d)
    a_op, b_op, x = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3))
    alpha, beta = np.trace(a_op) / d, np.trace(b_op) / d
    a_0, b_0 = a_op - alpha * np.eye(d), b_op - beta * np.eye(d)
    handle = RngHandle(191)
    mean, std_error = twirl_mc(a_op, b_op, x, n, handle, return_stderr=True)
    samples = _regenerate(sample_fn, n, handle)
    np.testing.assert_allclose(mean, samples.mean(axis=0) + alpha * beta * x, rtol=1e-12)
    var = samples.real.var(axis=0, ddof=1) + samples.imag.var(axis=0, ddof=1)
    np.testing.assert_allclose(std_error, np.sqrt(var / n), rtol=1e-12)


def _haar_block_reference(m, d_s, d_e, block):
    # one haar_unitary call per block of a chunk, and each sample's reduced
    # operator formed densely from V diag(lam) V^dagger
    d = d_s * d_e
    lam = np.linalg.eigvalsh(m)
    lam = lam[np.abs(lam) > d * np.finfo(float).eps * np.abs(lam).max()]

    def sample_fn(handle, count):
        samples = []
        for s in range(0, count, block):
            for v in haar_unitary(d, handle, size=min(block, count - s), columns=lam.size):
                samples.append(hs_norm(partial_trace_env((v * lam) @ dagger(v), d_s, d_e)) ** 2)
        return np.array(samples)

    return sample_fn, lam.size


# d_s, d_e and the block length the rule gives for the operator's rank
HAAR_BLOCK_CASES = {
    "full_rank_4x4": (4, 4, 32),
    "pure_2x8": (2, 8, 256),
    "rank_three_4x4": (4, 4, 170),  # a chunk is 3 blocks of 170 and a ragged one of 2
}


@pytest.mark.parametrize("case", sorted(HAAR_BLOCK_CASES))
def test_blocked_haar_sampler_matches_a_per_block_reference(case):
    d_s, d_e, block = HAAR_BLOCK_CASES[case]
    d = d_s * d_e
    n = 2 * MC_CHUNK + 76
    rng = np_rng(194)
    if case == "pure_2x8":
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        state, deph = _pair(g / np.linalg.norm(g), d_s, d_e)
        m = state.rho - deph.rho
        runs = [haar_average_distance_sq(state, deph, n, RngHandle(195), workers) for workers in (1, 2)]
    else:
        if case == "full_rank_4x4":
            m = random_hermitian_np(rng, d)
        else:
            m = _hermitian_with_spectrum(rng, d, SPECTRA["traced_rank_three"])
        runs = [theorem_mc_check(m, d_s, d_e, n, RngHandle(195), workers)[0] for workers in (1, 2)]
    sample_fn, rank = _haar_block_reference(m, d_s, d_e, block)
    assert max(1, witness.BLOCK_BYTES // (16 * d * rank)) == block
    assert runs[0] == runs[1]  # bit-identical for any worker count
    samples = _regenerate(sample_fn, n, RngHandle(195))
    assert runs[0].mean == pytest.approx(samples.mean(), rel=1e-12)
    assert runs[0].std_error == pytest.approx(samples.std(ddof=1) / math.sqrt(n), rel=1e-12)


def _traced_peak(fn):
    fn()  # first-call allocations are not the sampler's
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_haar_sampler_temporaries_stay_block_sized():
    # numpy reports its buffers to tracemalloc, so the traced peak bounds the
    # sampler's temporaries whatever the allocator does with freed pages; a
    # chunk drawn in one pass peaked at 8,335 KiB here and at 861 KiB on the
    # pure-state pair
    m = random_hermitian_np(np_rng(196), 16)
    assert _traced_peak(lambda: theorem_mc_check(m, 4, 4, 2048, RngHandle(197))) < 1024 * 1024
    g = np_rng(198).normal(size=16) + 1j * np_rng(199).normal(size=16)
    state, deph = _pair(g / np.linalg.norm(g), 2, 8)
    assert _traced_peak(lambda: haar_average_distance_sq(state, deph, 2048, RngHandle(200))) < 860 * 1024


def test_every_mc_entry_point_states_one_sample_rule():
    state, deph = _pair(SQRT8, 2, 2)
    eye = np.eye(4)
    calls = [
        lambda: haar_average_distance_sq(state, deph, 1, RngHandle(201)),
        lambda: theorem_mc_check(eye, 2, 2, 1, RngHandle(201)),
        lambda: twirl_mc(eye, eye, eye, 1, RngHandle(201)),
        lambda: choi_isotropic_check(eye, eye, 1, RngHandle(201)),
        lambda: McEstimate(0.0, 0.0, 1),
    ]
    gue = SpectrumEnsemble("gue", 4)
    for ens in (gue, _frozen(gue, RngHandle(201))):
        calls.append(lambda ens=ens: structured_average_grid(state, deph, ens, [0.0, 1.0], 1, RngHandle(201)))
    for call in calls:
        with pytest.raises(ValueError, match="^n_samples must be at least 2$"):
            call()


def test_merge_with_summed_m2_is_the_entrywise_merge_summed():
    rng = np_rng(192)
    partials = [
        (count, rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5)), rng.uniform(0.5, 2.0, size=(4, 5)))
        for count in (MC_CHUNK, MC_CHUNK, 76)
    ]
    mean, std_error = _merge(partials)
    summed_mean, summed_error = _merge([(count, mu, m2.sum()) for count, mu, m2 in partials])
    assert np.array_equal(summed_mean, mean)
    assert np.shape(summed_error) == ()
    assert summed_error**2 == pytest.approx(float((std_error**2).sum()), rel=1e-12)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_choi_identity_pair_has_rounding_scale_finite_error(d, workers):
    # the traceless parts of the identity are exactly zero, so every sampled
    # term is zero and the error must come out finite and zero, not NaN from
    # the root of a negative M2; the rounding-scale traceless parts of
    # 1 +- 1e-12 h are checked against the two-pass reference below
    eye = np.eye(d, dtype=complex)
    for seed in range(50):
        mc_error = choi_isotropic_check(eye, eye, MC_CHUNK + 76, RngHandle(193, (seed,)), workers).mc_error
        assert math.isfinite(mc_error) and mc_error <= 1e-14


def test_mc_results_identical_across_worker_counts():
    n = 2 * MC_CHUNK + 76  # more than one chunk, with a remainder
    rng = np_rng(183)
    m = random_hermitian_np(rng, 4)
    a_op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b_op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    runs = {}
    for workers in (1, 2):
        theorem = theorem_mc_check(m, 2, 2, n, RngHandle(184), workers=workers)
        twirl = twirl_mc(a_op, b_op, x, n, RngHandle(185), workers=workers, return_stderr=True)
        choi = choi_isotropic_check(a_op, b_op, n, RngHandle(186), workers=workers)
        runs[workers] = theorem, twirl, choi
    (theorem_1, twirl_1, choi_1), (theorem_2, twirl_2, choi_2) = runs[1], runs[2]
    assert theorem_1 == theorem_2  # bit-identical, not approximately equal
    for a, b in zip(twirl_1, twirl_2):
        assert np.array_equal(a, b)
    assert choi_1 == choi_2


def test_worker_threads_are_capped_at_the_core_count(monkeypatch):
    # every thread started draws a chunk of its own, so the threads that
    # draw unitaries are all the threads the run starts; the caller waits,
    # and no thread exits before all have started, so their identifiers differ
    threads, idents, alive = [], [], []
    draw = witness.haar_unitary

    def recording_draw(*args, **kwargs):
        threads.append(threading.current_thread())
        idents.append(threading.get_ident())
        alive.append(threading.active_count())
        return draw(*args, **kwargs)

    monkeypatch.setattr(witness, "haar_unitary", recording_draw)
    monkeypatch.setattr(witness.os, "cpu_count", lambda: 3)
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    n = 5 * MC_CHUNK
    before = threading.active_count()
    capped = theorem_mc_check(m, 2, 2, n, RngHandle(187), workers=10**6)
    assert len(threads) == 5 and len(set(threads)) == len(set(idents)) == 3
    assert threading.current_thread() not in threads
    assert max(alive) <= before + 3
    threads.clear()
    assert capped == theorem_mc_check(m, 2, 2, n, RngHandle(187), workers=1)
    assert set(threads) == {threading.current_thread()}


def test_every_chunk_runs_once_under_rapid_thread_switching(monkeypatch):
    # more threads than cores, switching every microsecond: a chunk claimed
    # twice or skipped would show in the calls or the results
    monkeypatch.setattr(witness.os, "cpu_count", lambda: 6)
    calls = []

    def worker(k):
        calls.append(k)
        return k * k

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_chunks in (5, 6, 7, 97):
            calls.clear()
            assert witness._run_chunks(worker, n_chunks, 6) == [k * k for k in range(n_chunks)]
            assert sorted(calls) == list(range(n_chunks))
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_chunk_raises_on_the_caller(monkeypatch):
    monkeypatch.setattr(witness.os, "cpu_count", lambda: 2)

    def worker(k):
        if k == 3:
            raise ArithmeticError("chunk 3")
        return k

    with pytest.raises(ArithmeticError, match="chunk 3"):
        witness._run_chunks(worker, 6, 2)


def test_an_interrupt_on_the_caller_stops_the_pool(monkeypatch):
    # the caller takes the signal while it waits; the threads finish the
    # chunks under way, claim no more, and are joined before it re-raises
    monkeypatch.setattr(witness.os, "cpu_count", lambda: 2)
    calls = []

    def worker(k):
        calls.append(k)
        if k == 2:
            os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.01)
        return k

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        witness._run_chunks(worker, 200, 2)
    assert len(calls) < 200
    assert threading.active_count() == before


def _materialized_choi(a_op, b_op):
    # the dense per-sample Choi matrices of the traceless parts A_0 and B_0,
    # (count, d^2, d^2), as a reference, and the constant alpha beta
    # |Omega><Omega| that the identity parts add to the mean
    d = a_op.shape[0]
    # Python's complex division, as in the program: numpy's may differ by an
    # ulp, which moves the traceless part of 1 +- 1e-12 h by 1e-4 of its size
    alpha, beta = complex(np.trace(a_op)) / d, complex(np.trace(b_op)) / d
    a_0, b_0 = a_op - alpha * np.eye(d), b_op - beta * np.eye(d)

    def sample_fn(handle, count):
        u = haar_unitary(d, handle, size=count)
        left = dagger(u) @ a_0 @ u
        right = dagger(u) @ b_0 @ u
        return np.einsum("nio,npj->niojp", left, right).reshape(count, d * d, d * d) / d

    omega = maximally_entangled_ket(d)
    return sample_fn, alpha * beta * np.outer(omega, omega.conj())


@pytest.mark.parametrize("case", ["random", "identity", "large_offset", "b_equals_a", "rounding_scale"])
def test_choi_factored_moments_match_materialized_two_pass(case):
    n = 2 * MC_CHUNK + 76
    d = 3
    rng = np_rng(187)
    if case == "random":
        a_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    elif case == "identity":
        a_op = b_op = np.eye(d, dtype=complex)
    elif case == "b_equals_a":
        # B_0 = A_0^dagger attains the twirl's bound ||E S||^2 <= N / (d^2 - 1)
        a_op = b_op = random_hermitian_np(rng, d)
    else:
        h = random_hermitian_np(rng, d)
        scale = 1e4 if case == "large_offset" else 1.0
        shift = 1.0 if case == "large_offset" else 1e-12
        a_op, b_op = scale * np.eye(d) + shift * h, scale * np.eye(d) - shift * h
    handle = RngHandle(188)
    mean, _ = _choi_moments(a_op, b_op, n, handle, workers=1)
    mc_error = choi_isotropic_check(a_op, b_op, n, handle).mc_error
    sample_fn, constant = _materialized_choi(a_op, b_op)
    samples = _regenerate(sample_fn, n, handle)
    expected_mean = samples.mean(axis=0) + constant
    assert np.linalg.norm(mean - expected_mean) <= 1e-12 * np.linalg.norm(expected_mean)
    if case == "identity":
        assert mc_error <= 1e-14  # the traceless parts are zero, and so is every sample
    else:
        expected = math.sqrt(float(samples.var(axis=0, ddof=1).sum()) / n)
        # abs=0: the rounding-scale case's error is about 1e-25
        assert mc_error == pytest.approx(expected, rel=1e-8 if case == "large_offset" else 1e-10, abs=0)


@pytest.mark.parametrize(
    "a_op, b_op, message",
    [
        (np.ones((2, 3, 3)), np.ones((2, 3, 3)), "not a stack"),
        (np.ones((2, 3, 3)), np.eye(2), "not a stack"),
        (np.eye(3), np.eye(4), "dimensions differ"),
        (np.ones((3, 4)), np.eye(3), "must be square"),
    ],
)
def test_twirl_operands_are_single_square_matrices_of_one_dimension(monkeypatch, a_op, b_op, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("a Haar unitary was drawn")

    monkeypatch.setattr(witness, "haar_unitary", no_draw)
    calls = [
        lambda: twirl_constants(a_op, b_op),
        lambda: twirl_mc(a_op, b_op, b_op, 200, RngHandle(202)),
        lambda: twirl_mc(b_op, b_op, a_op, 200, RngHandle(202)),
        lambda: choi_isotropic_check(a_op, b_op, 200, RngHandle(202)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_invalid_dimensions_fail_before_sampling(monkeypatch):
    calls = []

    def counting_haar(*args, **kwargs):
        calls.append(args)
        return haar_unitary(*args, **kwargs)

    monkeypatch.setattr(witness, "haar_unitary", counting_haar)
    with pytest.raises(ValueError, match="undefined at dimension 1"):
        choi_isotropic_check(np.eye(1), np.eye(1), 200_000, RngHandle(189))
    with pytest.raises(ValueError, match="at least 2"):
        theorem_mc_check(np.eye(1), 1, 1, 200_000, RngHandle(189))
    with pytest.raises(ValueError, match="does not match"):
        theorem_mc_check(np.eye(4), 2, 3, 200_000, RngHandle(189))
    assert calls == []
    choi_isotropic_check(np.eye(2), np.eye(2), 10, RngHandle(189))
    assert len(calls) == 1  # the counter sees the sampler


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m, s: haar_witness_prefactor_sq(-2, -3), "^d_s must be at least 1$"),
        (lambda m, s: haar_witness_prefactor_sq(2.0, 3), "^d_s must be an integer, got 2.0$"),
        (lambda m, s: haar_witness_prefactor_sq(2, True), "^d_e must be an integer, got True$"),
        (lambda m, s: theorem_rhs(m, -2, -3), "^d_s must be at least 1$"),
        (lambda m, s: theorem_rhs(m, 3, 2.0), "^d_e must be an integer, got 2.0$"),
        (lambda m, s: theorem_mc_check(m, -2, -3, 100, RngHandle(190)), "^d_s must be at least 1$"),
        (lambda m, s: haar_average_distance_sq(*s, 600.5, RngHandle(190)), "^n_samples must be an integer, got 600.5$"),
        (lambda m, s: McEstimate(0.0, 0.0, 2.5), "^n_samples must be an integer, got 2.5$"),
        (lambda m, s: haar_average_distance_sq(*s, 600, RngHandle(190), workers=1.5),
         "^workers must be an integer, got 1.5$"),
        (lambda m, s: theorem_mc_check(m, 2, 3, 600, RngHandle(190), workers=2.5),
         "^workers must be an integer, got 2.5$"),
        (lambda m, s: twirl_mc(m, m, m, 600, RngHandle(190), workers=True), "^workers must be an integer, got True$"),
        (lambda m, s: choi_isotropic_check(m, m, 600, RngHandle(190), workers=0), "^workers must be at least 1$"),
    ],
    ids=["prefactor-negative", "prefactor-float", "prefactor-bool", "rhs-negative", "rhs-float",
         "mc-check-negative", "haar-average-float-count", "estimate-float-count", "haar-average-float-workers",
         "mc-check-fractional-workers", "twirl-bool-workers", "choi-zero-workers"],
)
def test_dimensions_and_counts_must_be_integers_before_any_draw(monkeypatch, call, message):
    # a negative pair gave a negative prefactor and rhs, and a float failed inside numpy
    calls = []

    def counting_haar(*args, **kwargs):
        calls.append(args)
        return haar_unitary(*args, **kwargs)

    monkeypatch.setattr(witness, "haar_unitary", counting_haar)
    m = random_hermitian_np(np_rng(191), 6)
    with pytest.raises(ValueError, match=message):
        call(m, _pair(SQRT8, 2, 2))
    assert calls == []
