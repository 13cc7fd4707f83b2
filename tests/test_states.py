import numpy as np
import pytest

from dephwit.randmat import RngHandle
from dephwit.states import (
    BipartiteState,
    classical_state,
    from_pure,
    purity,
    random_mixed,
)
from helpers import np_rng

SQRT8 = np.array([np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)], dtype=complex)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)


# ---------------------------------------------------------------------------
# construction


def test_from_pure_basis_state():
    s = from_pure([1, 0, 0, 0], 2, 2)
    np.testing.assert_allclose(s.rho, np.diag([1.0, 0, 0, 0]), atol=1e-14)


def test_from_pure_bell_state():
    s = from_pure(BELL, 2, 2)
    assert purity(s) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(s.marginal_system(), np.eye(2) / 2, atol=1e-12)


def test_from_pure_partially_entangled_marginal():
    s = from_pure(SQRT8, 2, 2)
    np.testing.assert_allclose(s.marginal_system(), np.diag([0.8, 0.2]), atol=1e-12)


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_from_pure_marginal_spectrum_is_the_squared_schmidt_coefficients(d_s, d_e):
    # the Schmidt coefficients are the singular values of the amplitude matrix
    rng = np_rng(17 + 3 * d_s + d_e)
    for _ in range(5):
        psi = rng.normal(size=d_s * d_e) + 1j * rng.normal(size=d_s * d_e)
        psi /= np.linalg.norm(psi)
        coefficients = np.linalg.svd(psi.reshape(d_s, d_e), compute_uv=False)
        # a system larger than the environment adds d_s - d_e zero eigenvalues
        expected = np.sort(np.concatenate([coefficients**2, np.zeros(d_s - coefficients.size)]))
        s = from_pure(psi, d_s, d_e)
        marginal = np.linalg.eigvalsh(s.marginal_system())
        np.testing.assert_allclose(marginal, expected, rtol=0, atol=1e-12)
        assert purity(s) == pytest.approx(1.0, abs=1e-12)


def test_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        from_pure([1.0, 1.0, 0.0, 0.0], 2, 2)


def test_nan_inputs_fail_with_their_own_message():
    with pytest.raises(ValueError, match=r"state vector is not normalized \(norm nan\)"):
        from_pure([np.nan, 0, 0, 1], 2, 2)
    with pytest.raises(ValueError, match="probability table sums to nan, expected 1"):
        classical_state(np.array([[0.5, np.nan], [0.25, 0.25]]))


def test_state_invariants_rejected():
    with pytest.raises(ValueError):
        BipartiteState(2, 2, np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        BipartiteState(2, 2, bad)  # negative eigenvalue
    nonherm = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    nonherm[0, 1] = 0.5
    with pytest.raises(ValueError):
        BipartiteState(2, 2, nonherm)


# ---------------------------------------------------------------------------
# purity


def test_purity_reference_values():
    assert purity(from_pure(SQRT8, 2, 2)) == pytest.approx(1.0, abs=1e-10)
    mixed = BipartiteState(2, 2, np.eye(4, dtype=complex) / 4)
    assert purity(mixed) == pytest.approx(0.25, abs=1e-14)
    two_point = BipartiteState(2, 2, np.diag([0.8, 0, 0, 0.2]).astype(complex))
    assert purity(two_point) == pytest.approx(0.68, abs=1e-14)


def test_purity_matches_matrix_product():
    rng = np_rng(61)
    for _ in range(5):
        g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        s = BipartiteState(2, 3, rho)
        assert purity(s) == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)


# ---------------------------------------------------------------------------
# classical states


def test_classical_state_diagonal_table():
    s = classical_state(np.array([[0.7, 0.0], [0.0, 0.3]]))
    np.testing.assert_allclose(s.rho, np.diag([0.7, 0.0, 0.0, 0.3]), atol=1e-14)


def test_classical_state_single_entry_is_pure_product():
    s = classical_state(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert purity(s) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(s.rho, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-14)


def test_classical_state_rejects_bad_tables():
    with pytest.raises(ValueError):
        classical_state(np.array([[0.7, 0.2], [0.3, 0.3]]))  # sums to 1.5
    with pytest.raises(ValueError):
        classical_state(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative entry


@pytest.mark.parametrize(
    "p, message",
    [
        (np.array([0.5, 0.5]), "probability table must be 2-dimensional"),
        (np.array([[1.2, 0.0], [0.0, -0.2]]), "probability table has negative entries"),
        (np.array([[0.7, 0.2], [0.3, 0.3]]), r"probability table sums to 1\.5, expected 1"),
    ],
)
def test_classical_state_names_what_is_wrong_with_the_table(p, message):
    with pytest.raises(ValueError, match=message):
        classical_state(p)


@pytest.mark.parametrize("d_s, d_e", [(2, 3), (3, 2)])
def test_classical_state_matches_the_sum_of_product_projectors(d_s, d_e):
    p = np_rng(305).dirichlet(np.ones(d_s * d_e)).reshape(d_s, d_e)
    a, b = np.eye(d_s), np.eye(d_e)
    expected = sum(
        p[i, j] * np.kron(np.outer(a[:, i], a[:, i]), np.outer(b[:, j], b[:, j]))
        for i in range(d_s)
        for j in range(d_e)
    )
    s = classical_state(p)
    np.testing.assert_array_equal(s.rho, expected)
    # the system marginal is diagonal, with the row sums of p
    np.testing.assert_allclose(s.marginal_system(), np.diag(p.sum(axis=1)), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# random generators


def test_random_mixed_rank_one_is_pure():
    s = random_mixed(2, 2, 1, RngHandle(11))
    assert purity(s) == pytest.approx(1.0, abs=1e-10)


def test_random_mixed_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_mixed(2, 2, 0, RngHandle(1))
    with pytest.raises(ValueError):
        random_mixed(2, 2, 5, RngHandle(1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BipartiteState(2.0, 2, np.eye(4) / 4), "^d_s must be an integer, got 2.0$"),
        (lambda: BipartiteState(2, True, np.eye(2) / 2), "^d_e must be an integer, got True$"),
        (lambda: BipartiteState(-2, -2, np.eye(4) / 4), "^d_s must be at least 1$"),
        (lambda: from_pure([1.0, 0.0, 0.0, 0.0], 2, 2.0), "^d_e must be an integer, got 2.0$"),
        (lambda: random_mixed(2, 2, 1.5, RngHandle(1)), "^rank must be an integer, got 1.5$"),
        (lambda: random_mixed(2.0, 2, 1, RngHandle(1)), "^d_s must be an integer, got 2.0$"),
        (lambda: random_mixed(-2, -2, 1, RngHandle(1)), "^d_s must be at least 1$"),
    ],
    ids=["float-d_s", "bool-d_e", "negative", "from-pure-float", "float-rank", "random-float-d_s", "random-negative"],
)
def test_state_dimensions_and_rank_must_be_integers(build, message):
    # accepted, a float dimension failed later with a TypeError from numpy,
    # and a rank of 1.5 silently drew one column
    with pytest.raises(ValueError, match=message):
        build()


def test_random_mixed_invariants_and_mean_purity():
    # full-rank Hilbert-Schmidt ensemble at total dimension 4
    rng = RngHandle(12)
    purities = np.empty(10_000)
    for i in range(purities.size):
        s = random_mixed(2, 2, 4, rng.derive(i))
        purities[i] = purity(s)
    mean = float(purities.mean())
    assert 0.25 < mean < 1.0
    assert np.all(purities <= 1.0 + 1e-12)
    assert np.all(purities >= 0.25 - 1e-12)


def test_random_generators_reproducible():
    a = random_mixed(2, 3, 4, RngHandle(99))
    b = random_mixed(2, 3, 4, RngHandle(99))
    assert np.array_equal(a.rho, b.rho)
