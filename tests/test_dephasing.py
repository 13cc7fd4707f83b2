import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephwit import dephasing, states
from dephwit.dephasing import (
    CLASSICALITY_TOL,
    dephase_total,
    discord_delta,
    eigenbasis_of_marginal,
)
from dephwit.linalg import eig_hermitian, hs_norm
from dephwit.randmat import RngHandle, haar_unitary
from dephwit.states import BipartiteState, classical_state, from_pure, purity, random_mixed
from helpers import discord_oracle, geometric_discord_qubit_np, haar_np, np_rng, random_density_np

SQRT8 = np.array([np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)], dtype=complex)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)

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
    v, degenerate = eigenbasis_of_marginal(s)
    np.testing.assert_allclose(np.outer(v[:, 0], v[:, 0].conj()), np.diag([0.0, 1.0]), atol=1e-10)
    np.testing.assert_allclose(np.outer(v[:, 1], v[:, 1].conj()), np.diag([1.0, 0.0]), atol=1e-10)
    assert not degenerate


def test_eigenbasis_flags_degenerate_marginal():
    v, degenerate = eigenbasis_of_marginal(from_pure(BELL, 2, 2))
    assert degenerate
    np.testing.assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-10)


def test_eigenbasis_of_nondiagonal_marginal():
    s = BipartiteState(2, 2, DISCORDANT_SEPARABLE)
    np.testing.assert_allclose(s.marginal_system(), [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)
    v, _ = eigenbasis_of_marginal(s)
    expected = np.array([(1 - np.sqrt(0.5)) / 2, (1 + np.sqrt(0.5)) / 2])
    rho_s = s.marginal_system()
    for lam, vec in zip(expected, v.T):
        assert np.linalg.norm(rho_s @ vec - lam * vec) <= 1e-10


def test_basis_invariants_enforced():
    s = from_pure(SQRT8, 2, 2)
    good, _ = eigenbasis_of_marginal(s)
    with pytest.raises(ValueError, match="basis is not unitary"):
        dephase_total(s, good * 0.5)


# ---------------------------------------------------------------------------
# dephasing maps


def test_dephase_total_fixes_classical_states():
    p = np.array([[0.4, 0.1], [0.2, 0.3]])
    s = classical_state(p)
    deph = dephase_total(s)
    assert hs_norm(deph.rho - s.rho) <= 1e-10


def test_dephase_total_fixes_classical_states_in_rotated_bases():
    # (a x b) classical_state(p) (a x b)^dagger is diagonal in the columns of a x b
    rng = RngHandle(303)
    a, b = haar_unitary(2, rng), haar_unitary(3, rng)
    p = np.array([[0.5, 0.1, 0.05], [0.2, 0.1, 0.05]])
    u = np.kron(a, b)
    s = BipartiteState(2, 3, u @ classical_state(p).rho @ u.conj().T)
    # the marginal eigenvalues are the row sums of p
    np.testing.assert_allclose(np.linalg.eigvalsh(s.marginal_system()), sorted(p.sum(axis=1)), atol=1e-12)
    assert hs_norm(dephase_total(s, a).rho - s.rho) <= 1e-12
    assert hs_norm(dephase_total(s).rho - s.rho) <= 1e-12


def test_dephase_total_keeps_environment_coherences():
    # Phi acts on the system side only: diag(0.3, 0.7) x rho_E is a fixed point
    rho_e = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    s = BipartiteState(2, 2, np.kron(np.diag([0.3, 0.7]), rho_e))
    np.testing.assert_allclose(dephase_total(s).rho, s.rho, atol=1e-12)


def test_dephase_total_kills_system_coherences_in_the_given_basis():
    # |+><+| x rho_E dephased in the computational basis is I/2 x rho_E
    basis = np.eye(2, dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho_e = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    s = BipartiteState(2, 2, np.kron(plus, rho_e))
    np.testing.assert_allclose(dephase_total(s, basis).rho, np.kron(np.eye(2) / 2, rho_e), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dephase_total_idempotent_and_block_diagonal_in_any_basis(seed):
    rng = np_rng(seed)
    s = BipartiteState(2, 3, random_density_np(rng, 6))
    v = haar_np(rng, 2)
    once = dephase_total(s, v)
    twice = dephase_total(once, v)
    np.testing.assert_allclose(twice.rho, once.rho, atol=1e-12)
    assert np.trace(once.rho).real == pytest.approx(1.0, abs=1e-12)
    # the blocks <v_0| rho' |v_1> between different basis vectors vanish
    r = once.rho.reshape(2, 3, 2, 3)
    cross = np.einsum("a,akbl,b->kl", v[:, 0].conj(), r, v[:, 1])
    assert np.abs(cross).max() <= 1e-12


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
    env = lambda rho: np.einsum("kikj->ij", rho.reshape(2, 3, 2, 3))
    np.testing.assert_allclose(env(deph.rho), env(s.rho), atol=1e-10)
    assert purity(deph) <= purity(s) + 1e-12
    again = dephase_total(deph, eigenbasis_of_marginal(s)[0])
    assert hs_norm(again.rho - deph.rho) <= 1e-10


def test_dephase_total_ignores_the_order_and_phases_of_the_basis_columns():
    # the map depends only on the projectors |v_mu><v_mu|
    state = random_mixed(3, 2, 4, RngHandle(133))
    basis, _ = eigenbasis_of_marginal(state)
    perm = [2, 0, 1]
    phases = np.exp(1j * np.array([0.3, -2.0, 2.9]))
    shuffled = basis[:, perm] * phases
    np.testing.assert_allclose(
        dephase_total(state, shuffled).rho, dephase_total(state, basis).rho, rtol=0, atol=1e-14
    )


def test_dephase_total_rejects_mismatched_basis():
    s = from_pure(SQRT8, 2, 2)
    other, _ = eigenbasis_of_marginal(BipartiteState(3, 2, np.eye(6, dtype=complex) / 6))
    with pytest.raises(ValueError, match="basis dimension 3 does not match d_s = 2"):
        dephase_total(s, other)


@pytest.mark.parametrize("d_s, d_e", [(3, 4), (2, 8)])
def test_dephase_total_validates_its_output_from_one_solve_of_the_blocks(monkeypatch, d_s, d_e):
    state = random_mixed(d_s, d_e, 5, RngHandle(d_s * d_e))
    shapes = []

    def recording(a):
        shapes.append(np.shape(a))
        return eig_hermitian(a)

    monkeypatch.setattr(dephasing, "eig_hermitian", recording)
    monkeypatch.setattr(states, "eig_hermitian", recording)
    deph = dephase_total(state)
    d = d_s * d_e
    assert shapes.count((d_s, d_e, d_e)) == 1 and (d, d) not in shapes
    monkeypatch.undo()
    # the same output as the map written out, checked by a d x d solve
    v, _ = eigenbasis_of_marginal(state)
    r = state.rho.reshape(d_s, d_e, d_s, d_e)
    blocks = np.einsum("am,akbl,bm->mkl", v.conj(), r, v)
    out = np.einsum("im,mkl,jm->ikjl", v, blocks, v.conj()).reshape(d, d)
    full = BipartiteState(d_s, d_e, 0.5 * (out + out.conj().T))
    np.testing.assert_array_equal(deph.rho, full.rho)


def test_dephase_total_rejects_a_block_with_a_negative_eigenvalue():
    # the input skips its own check; its first block diag(0.5 + 1e-6, -1e-6)
    # is the one the dephased state's check sees
    rho = np.diag([0.5 + 1e-6, -1e-6, 0.3, 0.2]).astype(complex)
    state = states._with_lowest_eigenvalue(2, 2, rho, 0.0)
    with pytest.raises(ValueError, match=r"not positive semidefinite \(min eigenvalue -1e-06\)"):
        dephase_total(state, np.eye(2))


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
    np.testing.assert_allclose(dephase_total(s).rho, deph, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d_e", [64, 128])
def test_discord_matches_oracle_at_large_environments(d_e):
    # full rank, so each dephased block is a dense d_e x d_e matrix
    s = random_mixed(2, d_e, 2 * d_e, RngHandle(1000 + d_e))
    delta, deph = discord_oracle(s.rho, 2, d_e)
    assert discord_delta(s) == pytest.approx(delta, abs=1e-12)
    np.testing.assert_allclose(dephase_total(s).rho, deph, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d_e", [128, 256])
def test_pure_state_discord_is_the_marginal_impurity_at_large_environments(d_e):
    # block mu of a pure state has norm p_mu, so delta^2 = 1 - sum p_mu^2
    s = random_mixed(2, d_e, 1, RngHandle(2000 + d_e))
    rho_s = s.marginal_system()
    assert discord_delta(s) ** 2 == pytest.approx(1 - np.trace(rho_s @ rho_s).real, abs=1e-12)


def test_discord_against_qubit_geometric_discord():
    # D_G is the minimum of ||rho - Phi_V(rho)||^2 over every system basis V,
    # so delta^2 (the marginal's eigenbasis) lies on or above it; on pure
    # states the Schmidt basis attains the minimum
    rng = RngHandle(76)
    for i, (d_e, rank, _) in enumerate(itertools.product((2, 3, 4), (1, 2, 3, 4), range(3))):
        s = random_mixed(2, d_e, rank, rng.derive(i))
        d_g = geometric_discord_qubit_np(s.rho, d_e)
        delta_sq = discord_delta(s) ** 2
        if rank == 1:
            assert delta_sq == pytest.approx(d_g, abs=1e-12)
        else:
            assert delta_sq >= d_g


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
    _, degenerate = eigenbasis_of_marginal(s)
    assert not degenerate
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
# classicality


def test_classicality_reference_cases():
    assert discord_delta(classical_state(np.array([[0.6, 0.1], [0.1, 0.2]]))) <= CLASSICALITY_TOL
    assert discord_delta(from_pure(BELL, 2, 2)) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    maximally_mixed = BipartiteState(2, 2, np.eye(4, dtype=complex) / 4)
    assert discord_delta(maximally_mixed) <= CLASSICALITY_TOL


def test_degenerate_classical_table_stays_exactly_classical():
    # marginal {0.2, 0.2, 0.6}: the tied rows have different environment
    # conditionals, so of the bases in the degenerate eigenspace only the
    # computational one leaves the state fixed
    s = classical_state(np.array([[0.2, 0.0], [0.0, 0.2], [0.3, 0.3]]))
    assert eigenbasis_of_marginal(s)[1]
    assert discord_delta(s) == 0.0
    np.testing.assert_array_equal(dephase_total(s).rho, s.rho)


def test_ties_among_zero_marginal_eigenvalues_are_not_flagged():
    # rank 3 at 16 x 2: rho_S has 10 zero eigenvalues, and every basis of
    # its null space gives the same dephased state
    s = random_mixed(16, 2, 3, RngHandle(1).derive(0))
    w, v = eig_hermitian(s.marginal_system())
    null = w < dephasing.DEGENERACY_GAP
    assert null.sum() == 10 and np.diff(w[~null]).min() > 0.03
    assert not eigenbasis_of_marginal(s)[1]
    rotated = v.copy()
    rotated[:, null] = v[:, null] @ haar_unitary(10, RngHandle(2))
    delta = discord_delta(s)
    assert float(hs_norm(s.rho - dephase_total(s, rotated).rho)) == pytest.approx(delta, abs=1e-12)
    # zero rows of a table tie at zero and are not flagged; equal nonzero rows are
    assert not eigenbasis_of_marginal(classical_state(np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]])))[1]
    assert eigenbasis_of_marginal(classical_state(np.array([[0.0, 0.0], [0.25, 0.25], [0.25, 0.25]])))[1]
    # a tie far below the spectrum but above DEGENERACY_GAP is not a tie at zero
    tiny = np.array([[5e-7, 5e-7], [5e-7, 5e-7], [0.5 - 1e-6, 0.5 - 1e-6]])
    assert eigenbasis_of_marginal(classical_state(tiny))[1]
