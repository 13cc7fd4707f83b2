import itertools
import math
import sys
import threading

import numpy as np
import pytest

from dephwit.dephasing import dephase_total
from dephwit.linalg import dagger, hs_norm
from dephwit.randmat import (
    RngHandle,
    SpectrumEnsemble,
    haar_unitary,
    sample_spectrum,
    structured_evolution,
)
from dephwit.states import (
    BipartiteState,
    classical_state,
    concurrence_pure,
    from_pure,
    random_mixed,
    random_pure,
    schmidt,
)
from dephwit import weingarten, witness
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
    pure_state_rms_prefactor,
    structured_average_distance,
    structured_average_grid,
    theorem_mc_check,
    theorem_rhs,
    trace_distance,
    twirl_constants,
    twirl_mc,
    witness_distance,
    witness_trajectory,
)
from dephwit.weingarten import monomial_weights, weingarten_matrix, witness_means, witness_rows
from helpers import (
    gue_levels_np,
    haar_batch_np,
    haar_np,
    hs_norm_np,
    np_rng,
    ptrace_env_loops,
    random_hermitian_np,
    structured_samples_np,
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
    got = witness._batch_norm_sq_reduced((us @ w)[:, :, keep], lam[keep], d_s, d_e)
    expected = [hs_norm_np(ptrace_env_loops(u @ m @ u.conj().T, d_s, d_e)) ** 2 for u in us]
    assert np.abs(got - expected).max() <= 1e-12


@pytest.mark.parametrize("d_s, d_e", [(2, 3), (3, 2), (2, 8)])
@pytest.mark.parametrize("kind", sorted(SPECTRA))
def test_theorem_mc_rank_deficient_operators(d_s, d_e, kind):
    m = _hermitian_with_spectrum(np_rng(127), d_s * d_e, SPECTRA[kind])
    est, rhs = theorem_mc_check(m, d_s, d_e, 10_000, RngHandle(128))
    assert abs(est.z_score(rhs)) <= 4.0


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


def test_structured_average_quenched_mode_reproducible():
    state, deph = _pair(SQRT8, 2, 2)
    ens = SpectrumEnsemble("poisson", 4)
    a = structured_average_distance(
        state, deph, ens, 2.0, 2_000, RngHandle(134), redraw_spectrum=False
    )
    b = structured_average_distance(
        state, deph, ens, 2.0, 2_000, RngHandle(134), redraw_spectrum=False
    )
    assert a == b
    annealed = structured_average_distance(state, deph, ens, 2.0, 2_000, RngHandle(134))
    assert annealed != a


def test_structured_average_rejects_mismatched_ensemble():
    state, deph = _pair(SQRT8, 2, 2)
    with pytest.raises(ValueError):
        structured_average_distance(state, deph, SpectrumEnsemble("gue", 6), 1.0, 100, RngHandle(1))


def _grid_case():
    state = random_mixed(2, 3, 4, RngHandle(190))
    return state, dephase_total(state)


def test_structured_grid_matches_worker_counts():
    state, deph = _grid_case()
    times = [0.0, 0.5, 1.5, 3.0]
    n = 2 * MC_CHUNK + 76
    for ens, redraw in (
        (SpectrumEnsemble("gue", 6), True),
        (SpectrumEnsemble("poisson", 6), True),
        (SpectrumEnsemble("poisson", 6), False),
    ):
        one, two = (
            structured_average_grid(
                state, deph, ens, times, n, RngHandle(191), workers=w, redraw_spectrum=redraw
            )
            for w in (1, 2)
        )
        assert one == two  # bit-identical, not approximately equal


def test_structured_grid_columns_match_single_times():
    # each column against the single-time call on the same stream
    state, deph = _grid_case()
    times = [0.25, 1.0, 2.5]
    n = 2 * MC_CHUNK + 76
    for ens, redraw in ((SpectrumEnsemble("gue", 6), True), (SpectrumEnsemble("poisson", 6), False)):
        rng = RngHandle(192)
        grid = structured_average_grid(state, deph, ens, times, n, rng, redraw_spectrum=redraw)
        for t, est in zip(times, grid):
            single = structured_average_distance(
                state, deph, ens, t, n, rng, redraw_spectrum=redraw
            )
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
    for ens, redraw in ((SpectrumEnsemble("gue", 4), True), (SpectrumEnsemble("poisson", 4), False)):
        grid = structured_average_grid(state, deph, ens, times, 1_000, RngHandle(960), redraw_spectrum=redraw)
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
    quenched = SpectrumEnsemble("poisson", d)
    for ens, redraw in ((explicit, True), (explicit, False), (quenched, False)):
        grid = structured_average_grid(state, deph, ens, STRUCTURED_TIMES, n, rng, redraw_spectrum=redraw)
        assert all(est.std_error == 0.0 and est.n_samples == n for est in grid)
        levels = np.broadcast_to(sample_spectrum(ens, rng.derive(1)), (n, d))
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


def test_witness_trajectory_starts_at_zero():
    state, deph = _pair(SQRT8, 2, 2)
    se = structured_evolution(SpectrumEnsemble("gue", 4), RngHandle(141))
    result = witness_trajectory(state, deph, se, np.linspace(0.0, 3.0, 7))
    assert result.hs_distance[0] <= 1e-10
    assert result.trace_distance[0] <= 1e-10
    assert np.all(result.hs_distance >= 0.0)
    assert result.time_grid.shape == result.hs_distance.shape


def test_witness_trajectory_classical_flat():
    state, deph = _classical_pair()
    se = structured_evolution(SpectrumEnsemble("poisson", 4), RngHandle(142))
    result = witness_trajectory(state, deph, se, np.linspace(0.0, 5.0, 11))
    assert np.all(result.hs_distance <= 1e-9)


def test_witness_trajectory_rejects_mismatched_evolution():
    state, deph = _pair(SQRT8, 2, 2)
    se = structured_evolution(SpectrumEnsemble("poisson", 6), RngHandle(143))
    with pytest.raises(ValueError, match="evolution dimension 6 does not match state dimension 4"):
        witness_trajectory(state, deph, se, [0.0, 1.0])


# ---------------------------------------------------------------------------
# pure-state consistency between average-witness routes


def test_pure_state_prefactor_ratio_is_sqrt_half():
    for d_s, d_e in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
        ratio = pure_state_rms_prefactor(d_s, d_e) / math.sqrt(
            haar_witness_prefactor_sq(d_s, d_e)
        )
        assert abs(ratio - 1.0 / math.sqrt(2.0)) <= 1e-12


def test_pure_state_discord_is_concurrence_over_sqrt_two():
    rng = RngHandle(151)
    for i, dims in enumerate([(2, 2), (2, 3), (3, 3)] * 5):
        d_s, d_e = dims
        psi = random_pure(d_s, d_e, rng.derive(i))
        state = from_pure(psi, d_s, d_e)
        delta = discord_delta(state)
        conc = concurrence_pure(psi, d_s, d_e)
        assert abs(delta - conc / math.sqrt(2.0)) <= 1e-10


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 5)])
def test_nearly_product_pure_states_keep_their_small_concurrence(dims, eps):
    # sqrt(1 - eps^2)|00> + eps|11> under 20 local rotations U (x) W has
    # C = 2 eps sqrt(1 - eps^2) = sqrt(2) delta; rounding of order 1e-16 in
    # the amplitudes bounds the relative accuracy of both at about 1e-16/eps
    d_s, d_e = dims
    amplitudes = np.zeros((d_s, d_e), dtype=complex)
    amplitudes[0, 0], amplitudes[1, 1] = math.sqrt(1.0 - eps**2), eps
    exact = 2.0 * eps * math.sqrt(1.0 - eps**2)
    rng = np_rng(152)
    for _ in range(20):
        psi = np.kron(haar_np(rng, d_s), haar_np(rng, d_e)) @ amplitudes.reshape(-1)
        assert schmidt(psi, d_s, d_e).rank == 2
        assert abs(concurrence_pure(psi, d_s, d_e) - exact) <= 1e-14 / eps * exact
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


def test_maximally_entangled_ket():
    omega = maximally_entangled_ket(3)
    assert np.linalg.norm(omega) == pytest.approx(1.0, abs=1e-14)
    rho = np.outer(omega, omega.conj())
    np.testing.assert_allclose(
        ptrace_env_loops(rho, 3, 3), np.eye(3) / 3, atol=1e-14
    )


# ---------------------------------------------------------------------------
# trace distance diagnostic


def test_trace_distance_reference_values():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, a) == 0.0
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(np.diag([0.7, 0.3]), np.diag([0.5, 0.5])) == pytest.approx(
        0.2, abs=1e-12
    )


def test_trace_distance_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_distance(np.triu(np.ones((2, 2))), np.eye(2))


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
    # the reference forms each sample as dagger(u) @ a_op @ u, then left @ x @ right
    def sample_fn(handle, count):
        u = haar_unitary(d, handle, size=count)
        left = dagger(u) @ a_op @ u
        right = dagger(u) @ b_op @ u
        return left @ x @ right

    n = 2 * MC_CHUNK + 76
    rng = np_rng(190 + d)
    a_op, b_op, x = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3))
    handle = RngHandle(191)
    mean, std_error = twirl_mc(a_op, b_op, x, n, handle, return_stderr=True)
    samples = _regenerate(sample_fn, n, handle)
    np.testing.assert_allclose(mean, samples.mean(axis=0), rtol=1e-12)
    var = samples.real.var(axis=0, ddof=1) + samples.imag.var(axis=0, ddof=1)
    np.testing.assert_allclose(std_error, np.sqrt(var / n), rtol=1e-12)


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
    # every sample is |Omega><Omega| up to rounding, so the summed M2 is at
    # the rounding scale and its cancelling terms must not drive it negative
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


def _materialized_choi(a_op, b_op):
    # the dense per-sample Choi matrices, (count, d^2, d^2), as a reference
    d = a_op.shape[0]

    def sample_fn(handle, count):
        u = haar_unitary(d, handle, size=count)
        left = dagger(u) @ a_op @ u
        right = dagger(u) @ b_op @ u
        return np.einsum("nio,npj->niojp", left, right).reshape(count, d * d, d * d) / d

    return sample_fn


@pytest.mark.parametrize("case", ["random", "identity", "large_offset"])
def test_choi_factored_moments_match_materialized_two_pass(case):
    n = 2 * MC_CHUNK + 76
    d = 3
    rng = np_rng(187)
    if case == "random":
        a_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    elif case == "identity":
        a_op = b_op = np.eye(d, dtype=complex)
    else:
        h = random_hermitian_np(rng, d)
        a_op, b_op = 1e4 * np.eye(d) + h, 1e4 * np.eye(d) - h
    handle = RngHandle(188)
    mean, _ = _choi_moments(a_op, b_op, n, handle, workers=1)
    mc_error = choi_isotropic_check(a_op, b_op, n, handle).mc_error
    samples = _regenerate(_materialized_choi(a_op, b_op), n, handle)
    expected_mean = samples.mean(axis=0)
    assert np.linalg.norm(mean - expected_mean) <= 1e-12 * np.linalg.norm(expected_mean)
    if case == "identity":
        assert mc_error <= 1e-14  # every sample is |Omega><Omega| up to rounding
    else:
        expected = math.sqrt(float(samples.var(axis=0, ddof=1).sum()) / n)
        assert mc_error == pytest.approx(expected, rel=1e-10 if case == "random" else 1e-8)


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
