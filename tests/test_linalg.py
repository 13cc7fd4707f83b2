import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephwit.linalg import (
    ConvergenceError,
    dagger,
    eig_hermitian,
    hs_norm,
    partial_trace_env,
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


@pytest.mark.parametrize(
    "d_s, d_e, message",
    [
        (2.0, 3, "^d_s must be an integer, got 2.0$"),
        (2, 3.0, "^d_e must be an integer, got 3.0$"),
        (6, True, "^d_e must be an integer, got True$"),
        (-2, -3, "^d_s must be at least 1$"),
    ],
)
def test_partial_trace_dimensions_must_be_integers(d_s, d_e, message):
    # a float failed inside numpy, True passed as 1 and a negative pair reached reshape
    with pytest.raises(ValueError, match=message):
        partial_trace_env(np.eye(6), d_s, d_e)
    np.testing.assert_allclose(partial_trace_env(np.eye(6), np.int64(2), np.int64(3)), 3 * np.eye(2))


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


def test_hs_norm_squared_is_the_trace_of_a_dagger_a():
    rng = np_rng(31)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert hs_norm(a) ** 2 == pytest.approx(np.trace(a.conj().T @ a).real, rel=1e-13)
    assert hs_norm(a) == pytest.approx(np.linalg.norm(a, "fro"), rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hs_norm_triangle_inequality(seed):
    rng = np_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert hs_norm(a + b) <= hs_norm(a) + hs_norm(b) + 1e-12


# ---------------------------------------------------------------------------
# Hermitian eigensolver


def _reconstruct(w, v):
    return (v * w) @ v.conj().T


def test_eig_diagonal_permutation():
    w, v = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)
    for value in (0.3, 1e-300, 5e5, -2.0, 0.0):
        w, v = eig_hermitian(np.array([[value]]))
        assert np.array_equal(w, [value])
        assert np.array_equal(v, [[1.0]])


def test_eig_2x2_closed_form():
    m = np.array([[0.75, 0.25], [0.25, 0.25]])
    w, v = eig_hermitian(m)
    expected = np.array([(1 - np.sqrt(0.5)) / 2, (1 + np.sqrt(0.5)) / 2])
    np.testing.assert_allclose(w, expected, atol=1e-12)
    np.testing.assert_allclose(_reconstruct(w, v), m, atol=1e-12)


def test_eig_reconstruction_random_6x6():
    rng = np_rng(41)
    for _ in range(5):
        m = random_hermitian_np(rng, 6)
        w, v = eig_hermitian(m)
        assert hs_norm(_reconstruct(w, v) - m) <= 1e-10 * max(1.0, hs_norm(m))
        gram = v.conj().T @ v
        assert np.abs(gram - np.eye(6)).max() <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)


def test_eig_degenerate_spectrum():
    # doubly degenerate eigenvalue embedded in a random basis
    rng = np_rng(42)
    u = haar_np(rng, 4)
    m = u @ np.diag([0.1, 0.4, 0.4, 0.9]) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    w, v = eig_hermitian(m)
    assert hs_norm(_reconstruct(w, v) - m) <= 1e-10
    gram = v.conj().T @ v
    assert np.abs(gram - np.eye(4)).max() <= 1e-10
    np.testing.assert_allclose(w, [0.1, 0.4, 0.4, 0.9], atol=1e-10)


def test_eig_identity_fully_degenerate():
    w, v = eig_hermitian(np.eye(3))
    np.testing.assert_allclose(w, np.ones(3), atol=1e-14)
    np.testing.assert_allclose(_reconstruct(w, v), np.eye(3), atol=1e-12)


def test_eig_deterministic_and_canonical():
    rng = np_rng(43)
    m = random_hermitian_np(rng, 5)
    w1, v1 = eig_hermitian(m)
    w2, v2 = eig_hermitian(m.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eig_keeps_eigenpairs_together_in_near_degenerate_clusters():
    # clusters with gaps from 1e-11 to 9e-10: reordering columns inside a
    # cluster without their eigenvalues leaves a residual of the gap's size
    u = haar_np(np_rng(44), 6)
    lam = np.array([0.1, 0.1 + 1e-11, 0.1 + 5e-10, 0.5, 0.5 + 9e-10, 0.9])
    m = (u * lam) @ u.conj().T
    w, v = eig_hermitian(0.5 * (m + m.conj().T))
    assert np.abs(m @ v - v * w).max() <= 1e-11


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("k, n", [(3, 4), (1, 1)])
def test_eig_of_a_stack_is_the_stack_of_single_solves(k, n):
    rng = np_rng(61 + n)
    stack = np.stack([random_hermitian_np(rng, n) for _ in range(k)])
    w, v = eig_hermitian(stack)
    assert w.shape == (k, n) and v.shape == (k, n, n)
    for i in range(k):
        wi, vi = eig_hermitian(stack[i])
        np.testing.assert_array_equal(w[i], wi)
        np.testing.assert_array_equal(v[i], vi)


def test_eig_rejects_a_stack_with_one_non_hermitian_member():
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(stack)


def test_eig_convergence_error_is_exported():
    assert issubclass(ConvergenceError, ArithmeticError)


# ---------------------------------------------------------------------------
# conjugate transpose


def test_dagger_is_conjugate_transpose():
    rng = np_rng(53)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_array_equal(dagger(a), a.conj().T)
