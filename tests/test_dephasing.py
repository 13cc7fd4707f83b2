import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephwit.dephasing import (
    DephasingBasis,
    dephase_local,
    dephase_total,
    discord_delta,
    eigenbasis_of_marginal,
    is_classical,
)
from dephwit.linalg import hs_norm
from dephwit.randmat import RngHandle, haar_unitary
from dephwit.states import BipartiteState, classical_state, from_pure, purity, random_mixed
from helpers import discord_oracle, np_rng, random_density_np

SQRT8 = np.array([np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)], dtype=complex)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)

# separable but discordant: an even mixture of |0><0| x |0><0| and |+><+| x |1><1|
_KET0 = np.array([1, 0], complex)
_KETP = np.array([1, 1], complex) / np.sqrt(2)
_KET1 = np.array([0, 1], complex)
_proj = lambda v: np.outer(v, v.conj())
DISCORDANT_SEPARABLE = 0.5 * np.kron(_proj(_KET0), _proj(_KET0)) + 0.5 * np.kron(
    _proj(_KETP), _proj(_KET1)
)
# value computed independently (numpy.linalg.eigh + explicit sums); equals 1/(2 sqrt 2)
DISCORDANT_SEPARABLE_DELTA = 0.35355339059327373


# ---------------------------------------------------------------------------
# basis construction


def test_eigenbasis_orders_by_ascending_eigenvalue():
    s = BipartiteState(2, 2, np.diag([0.49, 0.21, 0.21, 0.09]).astype(complex))
    # marginal is diag(0.7, 0.3); ascending order puts the 0.3 eigenvector first
    basis = eigenbasis_of_marginal(s)
    np.testing.assert_allclose(basis.source_eigenvalues, [0.3, 0.7], atol=1e-12)
    v = basis.vectors
    np.testing.assert_allclose(np.outer(v[:, 0], v[:, 0].conj()), np.diag([0.0, 1.0]), atol=1e-10)
    np.testing.assert_allclose(np.outer(v[:, 1], v[:, 1].conj()), np.diag([1.0, 0.0]), atol=1e-10)
    assert not basis.degenerate


def test_eigenbasis_flags_degenerate_marginal():
    basis = eigenbasis_of_marginal(from_pure(BELL, 2, 2))
    assert basis.degenerate
    np.testing.assert_allclose(basis.vectors @ basis.vectors.conj().T, np.eye(2), atol=1e-10)


def test_eigenbasis_of_nondiagonal_marginal():
    s = BipartiteState(2, 2, DISCORDANT_SEPARABLE)
    np.testing.assert_allclose(s.marginal_system(), [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)
    basis = eigenbasis_of_marginal(s)
    expected = np.array([(1 - np.sqrt(0.5)) / 2, (1 + np.sqrt(0.5)) / 2])
    np.testing.assert_allclose(basis.source_eigenvalues, expected, atol=1e-12)
    rho_s = s.marginal_system()
    for lam, vec in zip(basis.source_eigenvalues, basis.vectors.T):
        assert np.linalg.norm(rho_s @ vec - lam * vec) <= 1e-10


def test_basis_invariants_enforced():
    good = eigenbasis_of_marginal(from_pure(SQRT8, 2, 2))
    with pytest.raises(ValueError):
        DephasingBasis(good.vectors * 0.5, good.source_eigenvalues, False)


# ---------------------------------------------------------------------------
# dephasing maps


def test_dephase_local_fixes_diagonal_operators():
    s = from_pure(SQRT8, 2, 2)
    basis = eigenbasis_of_marginal(s)
    a = np.diag([0.3, 0.7]).astype(complex)
    np.testing.assert_allclose(dephase_local(a, basis), a, atol=1e-12)


def test_dephase_local_kills_coherences():
    s = BipartiteState(2, 2, np.diag([0.49, 0.21, 0.21, 0.09]).astype(complex))
    basis = eigenbasis_of_marginal(s)
    np.testing.assert_allclose(dephase_local(SIGMA_X, basis), np.zeros((2, 2)), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dephase_local_idempotent_and_trace_preserving(seed):
    rng = np_rng(seed)
    rho = random_density_np(rng, 6)
    s = BipartiteState(2, 3, rho)
    basis = eigenbasis_of_marginal(s)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    once = dephase_local(a, basis)
    twice = dephase_local(once, basis)
    np.testing.assert_allclose(twice, once, atol=1e-11)
    assert np.trace(once) == pytest.approx(np.trace(a), abs=1e-11)


def test_dephase_total_fixes_classical_states():
    p = np.array([[0.4, 0.1], [0.2, 0.3]])
    s = classical_state(p)
    deph = dephase_total(s)
    assert hs_norm(deph.rho - s.rho) <= 1e-10


def test_dephase_total_projects_onto_schmidt_basis():
    s = from_pure(SQRT8, 2, 2)
    deph = dephase_total(s)
    np.testing.assert_allclose(deph.rho, np.diag([0.8, 0.0, 0.0, 0.2]), atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dephase_total_marginals_and_purity(seed):
    rng = np_rng(seed)
    s = BipartiteState(2, 3, random_density_np(rng, 6))
    deph = dephase_total(s)
    np.testing.assert_allclose(deph.marginal_system(), s.marginal_system(), atol=1e-10)
    np.testing.assert_allclose(deph.marginal_env(), s.marginal_env(), atol=1e-10)
    assert purity(deph) <= purity(s) + 1e-12
    again = dephase_total(deph, eigenbasis_of_marginal(s))
    assert hs_norm(again.rho - deph.rho) <= 1e-10


def test_dephase_total_rejects_mismatched_basis():
    s = from_pure(SQRT8, 2, 2)
    other = eigenbasis_of_marginal(BipartiteState(3, 2, np.eye(6, dtype=complex) / 6))
    with pytest.raises(ValueError):
        dephase_total(s, other)


# ---------------------------------------------------------------------------
# discord measure


def test_discord_zero_for_product_state():
    rho = np.kron(np.diag([0.7, 0.3]).astype(complex), np.diag([0.6, 0.4]).astype(complex))
    s = BipartiteState(2, 2, rho)
    assert discord_delta(s) <= 1e-12


def test_discord_partially_entangled_pure():
    assert discord_delta(from_pure(SQRT8, 2, 2)) == pytest.approx(np.sqrt(0.32), abs=1e-10)


def test_discord_separable_discordant_state():
    s = BipartiteState(2, 2, DISCORDANT_SEPARABLE)
    delta = discord_delta(s)
    assert delta == pytest.approx(DISCORDANT_SEPARABLE_DELTA, abs=1e-12)
    assert delta > 0.1
    # cross-check against the independent eigh-based oracle
    assert delta == pytest.approx(discord_oracle(s.rho, 2, 2)[0], abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_discord_matches_oracle_on_random_states(seed, dims):
    d_s, d_e = dims
    rng = np_rng(seed)
    s = BipartiteState(d_s, d_e, random_density_np(rng, d_s * d_e))
    delta, deph = discord_oracle(s.rho, d_s, d_e)
    assert discord_delta(s) == pytest.approx(delta, abs=1e-9)
    # the Jacobi solver stops at an off-diagonal norm of 1e-12, which puts
    # up to 2.5e-12 into the dephased state (20,000 random 3 x 3 states)
    np.testing.assert_allclose(dephase_total(s).rho, deph, rtol=0, atol=1e-11)


def test_purity_identity_on_random_states():
    rng = RngHandle(71)
    for i, dims in enumerate([(2, 2), (2, 3), (3, 2), (3, 3)] * 12):
        s = random_mixed(*dims, rank=(i % 4) + 1, rng=rng.derive(i))
        delta = discord_delta(s)
        drop = purity(s) - purity(dephase_total(s))
        assert abs(delta**2 - drop) <= 1e-10


def test_both_discord_routes_agree():
    rng = RngHandle(72)
    for i in range(10):
        s = random_mixed(2, 3, 6, rng.derive(i))
        delta = discord_delta(s)
        drop = purity(s) - purity(dephase_total(s))
        assert delta > 1e-3  # generic states are discordant
        assert delta == pytest.approx(np.sqrt(drop), abs=1e-10)


def test_discord_invariant_under_commuting_local_unitaries():
    # phases diagonal in the dephasing basis on the system, anything on the environment
    s = BipartiteState(2, 3, random_density_np(np_rng(73), 6))
    basis = eigenbasis_of_marginal(s)
    assert not basis.degenerate
    eig_cols = np.linalg.eigh(s.marginal_system())[1]
    phases = np.exp(1j * np.array([0.3, -1.1]))
    u_s = eig_cols @ np.diag(phases) @ eig_cols.conj().T
    u_e = haar_unitary(3, RngHandle(74))
    u = np.kron(u_s, u_e)
    rotated = BipartiteState(2, 3, u @ s.rho @ u.conj().T)
    assert discord_delta(rotated) == pytest.approx(discord_delta(s), abs=1e-9)


def test_discord_zero_for_eigenprojector_mixtures():
    # sum_i q_i pi_i (x) sigma_i with {pi_i} the marginal eigenprojectors
    rng = np_rng(75)
    basis_u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    sigmas = [random_density_np(rng, 3) for _ in range(2)]
    q = np.array([0.7, 0.3])
    rho = sum(
        q[i] * np.kron(np.outer(basis_u[:, i], basis_u[:, i].conj()), sigmas[i])
        for i in range(2)
    )
    s = BipartiteState(2, 3, rho)
    assert discord_delta(s) <= 1e-10


# ---------------------------------------------------------------------------
# classicality predicate


def test_is_classical_reference_cases():
    assert is_classical(classical_state(np.array([[0.6, 0.1], [0.1, 0.2]])))
    assert not is_classical(from_pure(BELL, 2, 2))
    assert discord_delta(from_pure(BELL, 2, 2)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    maximally_mixed = BipartiteState(2, 2, np.eye(4, dtype=complex) / 4)
    assert is_classical(maximally_mixed)


def test_is_classical_respects_tolerance():
    s = from_pure(SQRT8, 2, 2)
    assert not is_classical(s)
    assert is_classical(s, tol=1.0)
