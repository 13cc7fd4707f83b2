"""Tests of the benchmark's reference computations.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def _random_pure(rng, d):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def _random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def test_partial_trace_matches_index_definition():
    rng = np.random.default_rng(1)
    d_s, d_e = 3, 4
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    loops = np.zeros((d_s, d_s), dtype=complex)
    for i in range(d_s):
        for j in range(d_s):
            for k in range(d_e):
                loops[i, j] += x[i * d_e + k, j * d_e + k]
    np.testing.assert_allclose(ref.partial_trace_env(x, d_s, d_e), loops, atol=1e-13)
    stack = np.stack([x, 2 * x])
    np.testing.assert_allclose(ref.partial_trace_env(stack, d_s, d_e)[1], 2 * loops, atol=1e-12)


def test_dephasing_fixes_classical_states_and_keeps_marginals():
    rng = np.random.default_rng(2)
    p = np.diag([0.1, 0.3, 0.6]) @ rng.dirichlet(np.ones(2), size=3)
    rho = np.diag(p.reshape(-1)).astype(complex)
    assert ref.discord(rho, 3, 2) < 1e-14
    psi = _random_pure(rng, 12)
    rho = np.outer(psi, psi.conj())
    deph, vals = ref.dephase(rho, 3, 4)
    np.testing.assert_allclose(
        ref.partial_trace_env(deph, 3, 4), ref.partial_trace_env(rho, 3, 4), atol=1e-13
    )
    assert np.all(np.diff(vals) > 0)
    # the dephased state commutes with the marginal eigenprojectors
    np.testing.assert_allclose(ref.dephase(deph, 3, 4)[0], deph, atol=1e-13)


def test_discord_and_concurrence_of_bell_and_product_states():
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert ref.concurrence(bell, 2, 2) == pytest.approx(1.0, abs=1e-14)
    # Bell marginals are degenerate; any basis of the marginal gives 1/sqrt 2 here
    assert ref.discord(np.outer(bell, bell), 2, 2) == pytest.approx(math.sqrt(0.5), abs=1e-14)
    product = np.kron([0.6, 0.8], [1.0, 0.0]).astype(complex)
    assert ref.concurrence(product, 2, 2) == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("dims", [(2, 3), (3, 5), (4, 4)])
def test_discord_is_concurrence_over_root_two_for_pure_states(dims):
    d_s, d_e = dims
    rng = np.random.default_rng(sum(dims))
    for _ in range(5):
        psi = _random_pure(rng, d_s * d_e)
        delta = ref.discord(np.outer(psi, psi.conj()), d_s, d_e)
        assert delta == pytest.approx(ref.concurrence(psi, d_s, d_e) / math.sqrt(2), abs=1e-12)


def test_haar_closed_form_exact_cases():
    # U 1 U^dagger = 1 and ||Tr_E 1||^2 = d_s d_e^2
    assert ref.haar_mean_sq(np.eye(6), 2, 3) == pytest.approx(2 * 9, rel=1e-14)
    # with d_e = 1 the reduced norm is the full norm, which Haar conjugation keeps
    m = _random_hermitian(np.random.default_rng(3), 5)
    assert ref.haar_mean_sq(m, 5, 1) == pytest.approx(np.linalg.norm(m) ** 2, rel=1e-13)
    # with d_s = 1 only the trace survives
    assert ref.haar_mean_sq(m, 1, 5) == pytest.approx(abs(np.trace(m)) ** 2, rel=1e-13)


def test_haar_closed_form_against_sampling():
    rng = np.random.default_rng(4)
    d_s, d_e, n = 2, 3, 40_000
    m = _random_hermitian(rng, d_s * d_e)
    u = ref.haar_unitaries(rng, d_s * d_e, n)
    red = ref.partial_trace_env(u @ m @ np.conj(np.swapaxes(u, -1, -2)), d_s, d_e)
    mean, err = ref.mean_and_error(np.sum(np.abs(red) ** 2, axis=(-2, -1)))
    assert abs(ref.z_score(mean, err, ref.haar_mean_sq(m, d_s, d_e))) < 5


def test_haar_unitaries_are_unitary_with_flat_entries():
    u = ref.haar_unitaries(np.random.default_rng(5), 4, 20_000)
    np.testing.assert_allclose(
        np.conj(np.swapaxes(u[:3], -1, -2)) @ u[:3], np.broadcast_to(np.eye(4), (3, 4, 4)), atol=1e-13
    )
    np.testing.assert_allclose(np.mean(np.abs(u) ** 2, axis=0), 0.25, atol=0.01)
    # the rephasing leaves no bias on the phase of the diagonal
    assert abs(np.mean(u[:, 0, 0])) < 0.01


def test_twirl_constants_exact_cases():
    d = 4
    a, b = ref.twirl_constants(np.eye(d), np.eye(d))
    assert a == pytest.approx(0.0, abs=1e-14) and b == pytest.approx(1.0, abs=1e-14)
    proj = np.zeros((d, d))
    proj[0, 0] = 1.0
    # E[|phi><phi| X |phi><phi|] = (Tr X 1 + X) / (d (d + 1)) for a Haar vector phi
    a, b = ref.twirl_constants(proj, proj)
    assert a == pytest.approx(1 / (d * (d + 1)), abs=1e-14)
    assert b == pytest.approx(1 / (d * (d + 1)), abs=1e-14)


def test_twirl_constants_against_sampling():
    rng = np.random.default_rng(6)
    d, n = 3, 40_000
    a_op, b_op, x = (_random_hermitian(rng, d) + 1j * _random_hermitian(rng, d) for _ in range(3))
    a, b = ref.twirl_constants(a_op, b_op)
    u = ref.haar_unitaries(rng, d, n)
    udag = np.conj(np.swapaxes(u, -1, -2))
    samples = (udag @ a_op @ u) @ x @ (udag @ b_op @ u)
    mean = samples.mean(axis=0)
    err = np.sqrt((samples.real.var(axis=0, ddof=1) + samples.imag.var(axis=0, ddof=1)) / n)
    exact = a * np.trace(x) * np.eye(d) + b * x
    assert np.max(np.abs(mean - exact) / err) < 5


def test_isotropic_choi_keeps_the_two_invariants():
    rng = np.random.default_rng(7)
    a_op, b_op = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    a, b = ref.twirl_constants(a_op, b_op)
    c, iso, w = ref.choi(a_op, b_op), ref.isotropic_choi(a, b, 3), ref.omega(3)
    assert np.trace(iso) == pytest.approx(np.trace(c), abs=1e-13)
    assert w.conj() @ iso @ w == pytest.approx(w.conj() @ c @ w, abs=1e-13)
    assert np.trace(c) == pytest.approx(np.trace(b_op @ a_op) / 3, abs=1e-13)


@pytest.mark.parametrize("d", [2, 8, 20])
def test_gue_levels_have_unit_bulk_spacing(d):
    levels = ref.gue_levels(np.random.default_rng(d), d, 50)
    assert np.all(np.diff(levels, axis=-1) > 0)
    lo, hi = (0, d) if d < 5 else (math.floor(0.1 * d), math.ceil(0.9 * d))
    np.testing.assert_allclose(np.diff(levels[:, lo:hi], axis=-1).mean(axis=-1), 1.0, atol=1e-12)


def test_structured_average_vanishes_at_zero_time_and_is_bounded():
    rng = np.random.default_rng(8)
    psi = _random_pure(rng, 8)
    rho = np.outer(psi, psi.conj())
    m = rho - ref.dephase(rho, 2, 4)[0]
    mean, err = ref.structured_mean_sq(m, 2, 4, 0.0, 200, rng)
    assert mean < 1e-28
    mean, err = ref.structured_mean_sq(m, 2, 4, 1.5, 2000, rng)
    assert 0.0 < mean <= 4 * np.linalg.norm(m) ** 2
    assert 0.0 < err < mean


def test_z_score():
    assert ref.z_score(1.0, 0.5, 0.0) == 2.0
    assert ref.z_score(1.0, 3.0, 0.0, 4.0) == pytest.approx(0.2)
    assert ref.z_score(1.0, 0.0, 1.0) == 0.0
    assert ref.z_score(1.0, 0.0, 2.0) == -math.inf
