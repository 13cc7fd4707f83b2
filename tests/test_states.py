import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephwit.linalg import hs_norm
from dephwit.randmat import RngHandle, haar_unitary
from dephwit.states import (
    BipartiteState,
    classical_state,
    concurrence_pure,
    from_pure,
    purity,
    random_mixed,
    random_pure,
    schmidt,
)
from helpers import np_rng

SQRT8 = np.array([np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)], dtype=complex)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)


def _random_pure_np(seed, d):
    rng = np_rng(seed)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


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


def test_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        from_pure([1.0, 1.0, 0.0, 0.0], 2, 2)


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
# Schmidt decomposition


def test_schmidt_product_state():
    sd = schmidt([0, 1, 0, 0], 2, 2)
    assert sd.rank == 1
    np.testing.assert_allclose(sd.coefficients, [1.0], atol=1e-12)


def test_schmidt_bell_coefficients():
    sd = schmidt(BELL, 2, 2)
    np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-10)


def test_schmidt_partially_entangled():
    sd = schmidt(SQRT8, 2, 2)
    np.testing.assert_allclose(sd.coefficients, [np.sqrt(0.8), np.sqrt(0.2)], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
def test_schmidt_reconstruction_and_orthonormality(seed, dims):
    d_s, d_e = dims
    psi = _random_pure_np(seed, d_s * d_e)
    sd = schmidt(psi, d_s, d_e)
    assert np.linalg.norm(sd.reconstruct() - psi) <= 1e-10
    assert np.sum(sd.coefficients**2) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(sd.coefficients) <= 1e-12)
    for vecs in (sd.system_vectors, sd.environment_vectors):
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(sd.rank)).max() <= 1e-10


# ---------------------------------------------------------------------------
# purity and concurrence


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


def test_concurrence_reference_values():
    assert concurrence_pure([0, 1, 0, 0], 2, 2) == 0.0
    assert concurrence_pure(BELL, 2, 2) == pytest.approx(1.0, abs=1e-10)
    assert concurrence_pure(SQRT8, 2, 2) == pytest.approx(0.8, abs=1e-12)


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
    "p, bases, message",
    [
        (np.full((2, 3), 1 / 6), {"system_basis": np.eye(3)}, "system_basis must be 2 x 2"),
        (np.full((2, 3), 1 / 6), {"env_basis": np.eye(2)}, "env_basis must be 3 x 3"),
        # a 4 x 4 product of two wrong bases broadcasts against a 1 x 4 table
        (np.full((1, 4), 1 / 4), {"system_basis": np.eye(2), "env_basis": np.eye(2)}, "system_basis must be 1 x 1"),
        (np.full((2, 2), 1 / 4), {"system_basis": np.eye(1), "env_basis": np.eye(4)}, "system_basis must be 2 x 2"),
        (np.full((2, 2), 1 / 4), {"env_basis": np.eye(1)}, "env_basis must be 2 x 2"),
    ],
)
def test_classical_state_rejects_bases_that_do_not_match_the_table(p, bases, message):
    with pytest.raises(ValueError, match=message):
        classical_state(p, **bases)


def test_classical_state_in_rotated_bases():
    rng = RngHandle(303)
    a = haar_unitary(2, rng)
    b = haar_unitary(3, rng)
    p = np.array([[0.5, 0.1, 0.05], [0.2, 0.1, 0.05]])
    s = classical_state(p, system_basis=a, env_basis=b)
    # marginal eigenvalues are the row sums of p
    marg = np.linalg.eigvalsh(s.marginal_system())
    np.testing.assert_allclose(marg, sorted(p.sum(axis=1)), atol=1e-12)


@pytest.mark.parametrize("d_s, d_e", [(2, 3), (3, 2)])
def test_classical_state_matches_the_sum_of_product_projectors(d_s, d_e):
    rng = RngHandle(304, (d_s, d_e))
    a, b = haar_unitary(d_s, rng), haar_unitary(d_e, rng)
    p = np_rng(305).dirichlet(np.ones(d_s * d_e)).reshape(d_s, d_e)
    expected = sum(
        p[i, j] * np.kron(np.outer(a[:, i], a[:, i].conj()), np.outer(b[:, j], b[:, j].conj()))
        for i in range(d_s)
        for j in range(d_e)
    )
    np.testing.assert_allclose(classical_state(p, a, b).rho, expected, rtol=0, atol=1e-14)


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


def test_random_pure_is_normalized_haar_vector():
    psi = random_pure(2, 3, RngHandle(13))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert psi.shape == (6,)


def test_random_generators_reproducible():
    a = random_mixed(2, 3, 4, RngHandle(99))
    b = random_mixed(2, 3, 4, RngHandle(99))
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(random_pure(2, 2, RngHandle(5)), random_pure(2, 2, RngHandle(5)))
