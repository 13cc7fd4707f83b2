import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephwit.linalg import (
    ConvergenceError,
    dagger,
    eig_hermitian,
    hs_inner,
    hs_norm,
    partial_trace_env,
    partial_trace_sys,
)
from helpers import haar_np, np_rng, ptrace_env_loops, random_hermitian_np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# partial traces


def test_partial_trace_product_operator():
    rng = np_rng(21)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(
        partial_trace_env(np.kron(a, b), 2, 3), a * np.trace(b), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace_sys(np.kron(a, b), 2, 3), b * np.trace(a), atol=1e-12
    )


def test_partial_trace_bell_state():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(partial_trace_env(rho, 2, 2), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_preserves_trace_and_matches_loops():
    rng = np_rng(22)
    for _ in range(5):
        x = random_hermitian_np(rng, 6)
        red = partial_trace_env(x, 2, 3)
        assert np.trace(red) == pytest.approx(np.trace(x))
        np.testing.assert_allclose(red, ptrace_env_loops(x, 2, 3), atol=1e-13)


def test_partial_trace_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace_env(np.eye(5), 2, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_linear_and_hermiticity_preserving(seed):
    rng = np_rng(seed)
    x = random_hermitian_np(rng, 6)
    y = random_hermitian_np(rng, 6)
    alpha = rng.normal()
    lhs = partial_trace_env(alpha * x + y, 2, 3)
    rhs = alpha * partial_trace_env(x, 2, 3) + partial_trace_env(y, 2, 3)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    red = partial_trace_env(x, 2, 3)
    assert np.abs(red - red.conj().T).max() <= 1e-13


def test_partial_trace_cauchy_schwarz_bound():
    # || Tr_env X ||^2 <= d_e ||X||^2 on 200 random matrices
    rng = np_rng(23)
    d_s, d_e = 3, 4
    x = rng.normal(size=(200, 12, 12)) + 1j * rng.normal(size=(200, 12, 12))
    red = partial_trace_env(x, d_s, d_e)
    lhs = np.einsum("nij,nij->n", red.conj(), red).real
    rhs = d_e * np.einsum("nij,nij->n", x.conj(), x).real
    assert np.all(lhs <= rhs * (1 + 1e-12))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt geometry


def test_hs_norm_reference_values():
    assert hs_norm(np.eye(5)) == pytest.approx(np.sqrt(5), abs=1e-14)
    assert hs_norm(np.zeros((3, 3))) == 0.0
    assert hs_norm(SIGMA_X) == pytest.approx(np.sqrt(2), abs=1e-14)


def test_hs_inner_conjugate_symmetry():
    rng = np_rng(31)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
    assert hs_inner(a, b) == pytest.approx(np.trace(a.conj().T @ b))


def test_hs_inner_rejects_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hs_norm_triangle_inequality(seed):
    rng = np_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert hs_norm(a + b) <= hs_norm(a) + hs_norm(b) + 1e-12


# ---------------------------------------------------------------------------
# Hermitian eigensolver


def test_eig_diagonal_permutation():
    eig = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    perm = np.abs(eig.eigenvectors)
    np.testing.assert_allclose(perm, np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_eig_2x2_closed_form():
    m = np.array([[0.75, 0.25], [0.25, 0.25]])
    eig = eig_hermitian(m)
    expected = np.array([(1 - np.sqrt(0.5)) / 2, (1 + np.sqrt(0.5)) / 2])
    np.testing.assert_allclose(eig.eigenvalues, expected, atol=1e-12)
    np.testing.assert_allclose(eig.reconstruct(), m, atol=1e-12)


def test_eig_reconstruction_random_6x6():
    rng = np_rng(41)
    for _ in range(5):
        m = random_hermitian_np(rng, 6)
        eig = eig_hermitian(m)
        assert hs_norm(eig.reconstruct() - m) <= 1e-10 * max(1.0, hs_norm(m))
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.abs(gram - np.eye(6)).max() <= 1e-10
        assert np.all(np.diff(eig.eigenvalues) >= -1e-12)


def test_eig_degenerate_spectrum():
    # doubly degenerate eigenvalue embedded in a random basis
    rng = np_rng(42)
    u = haar_np(rng, 4)
    m = u @ np.diag([0.1, 0.4, 0.4, 0.9]) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    eig = eig_hermitian(m)
    assert hs_norm(eig.reconstruct() - m) <= 1e-10
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.abs(gram - np.eye(4)).max() <= 1e-10
    np.testing.assert_allclose(eig.eigenvalues, [0.1, 0.4, 0.4, 0.9], atol=1e-10)


def test_eig_identity_fully_degenerate():
    eig = eig_hermitian(np.eye(3))
    np.testing.assert_allclose(eig.eigenvalues, np.ones(3), atol=1e-14)
    np.testing.assert_allclose(eig.reconstruct(), np.eye(3), atol=1e-12)


def test_eig_deterministic_and_canonical():
    rng = np_rng(43)
    m = random_hermitian_np(rng, 5)
    first = eig_hermitian(m)
    second = eig_hermitian(m.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    # leading significant component of every column is real positive
    for k in range(5):
        col = first.eigenvectors[:, k]
        lead = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0.0


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_convergence_error_is_exported():
    assert issubclass(ConvergenceError, ArithmeticError)


# ---------------------------------------------------------------------------
# conjugate transpose


def test_dagger_is_conjugate_transpose():
    rng = np_rng(53)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_array_equal(dagger(a), a.conj().T)
