import math

import numpy as np
import pytest

from dephwit.linalg import dagger
from dephwit.randmat import (
    RngHandle,
    _gue_tridiagonal,
    SpectrumEnsemble,
    ginibre,
    haar_unitary,
    sample_spectrum,
)
from dephwit import witness
from dephwit.states import random_mixed
from dephwit.witness import witness_trajectory
from helpers import gue_levels_np, np_rng


# ---------------------------------------------------------------------------
# RNG handle


def test_rng_reproducible_bit_for_bit():
    a = RngHandle(123456789)
    b = RngHandle(123456789)
    assert np.array_equal(a.normals(1000), b.normals(1000))
    assert np.array_equal(a.uniform(100), b.uniform(100))


def test_rng_builds_its_generator_on_the_first_draw(monkeypatch):
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda seed: built.append(seed) or philox(seed))
    root = RngHandle(7)
    child = root.derive(0)
    child.derive(1)
    assert built == []
    child.normals(2)
    child.uniform(2)
    assert len(built) == 1


def test_rng_derived_streams_differ():
    root = RngHandle(7)
    x = root.derive(0).normals(100)
    y = root.derive(1).normals(100)
    assert not np.allclose(x, y)
    # derivation is by value, not by call order
    assert np.array_equal(RngHandle(7).derive(0).normals(100), x)


def test_rng_rejects_bad_arguments():
    with pytest.raises(ValueError):
        RngHandle(-1)


@pytest.mark.parametrize(
    "seed, key", [(1.5, ()), (1.0, ()), (True, ()), (np.float64(3.0), ()), (1, (0.5,)), (1, (False,))]
)
def test_rng_rejects_non_integer_seeds_and_keys(seed, key):
    with pytest.raises(ValueError, match="integer"):
        RngHandle(seed, key)
    with pytest.raises(ValueError, match="integer"):
        RngHandle(1).derive(*key, seed)


def test_rng_accepts_numpy_integers():
    handle = RngHandle(np.uint64(2**64 - 1), (np.int64(3),))
    assert handle == RngHandle(2**64 - 1, (3,))
    assert np.array_equal(handle.normals(4), RngHandle(2**64 - 1).derive(3).normals(4))
    assert RngHandle(7).derive(np.int32(2)) == RngHandle(7, (2,))


@pytest.mark.parametrize(
    "seed, key, shape",
    [(0, (), 5), (123456789, (2, 0, 7), (3, 4)), (2**64 - 1, (1,), (2, 3, 5))],
)
def test_normals_are_numpys_standard_normal_on_the_philox_stream(seed, key, shape):
    handle = RngHandle(seed).derive(*key)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
    for _ in range(2):  # the second draw continues the same stream
        assert np.array_equal(handle.normals(shape), gen.standard_normal(shape))


@pytest.mark.parametrize(
    "seed, key, k, shape",
    [(0, (), 2.5, 5), (123456789, (2, 0, 7), [3.0, 2.0, 1.0], (4, 3)), (2**64 - 1, (1,), 1.0, (2, 3))],
)
def test_gamma_is_numpys_standard_gamma_on_the_philox_stream(seed, key, k, shape):
    handle = RngHandle(seed).derive(*key)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
    for _ in range(2):  # the second draw continues the same stream
        assert np.array_equal(handle.gamma(k, shape), gen.standard_gamma(k, shape))


def test_normals_moments():
    x = RngHandle(2024).normals(100_000)
    # mean: stderr 1/sqrt(n); variance: stderr ~ sqrt(2/n)
    assert abs(x.mean()) <= 4.0 / math.sqrt(x.size)
    assert abs(x.var() - 1.0) <= 4.0 * math.sqrt(2.0 / x.size)
    assert RngHandle(1).normals((3, 4)).shape == (3, 4)


# ---------------------------------------------------------------------------
# Ginibre


def test_ginibre_moments():
    g = ginibre(4, RngHandle(31), size=6000).reshape(-1)
    n = g.size
    assert abs(g.real.mean()) <= 4.0 / math.sqrt(n)
    assert abs(g.imag.mean()) <= 4.0 / math.sqrt(n)
    # |entry|^2 has mean 2 and variance 4 under this convention
    sq = np.abs(g) ** 2
    assert abs(sq.mean() - 2.0) <= 4.0 * 2.0 / math.sqrt(n)


@pytest.mark.parametrize(
    "seed, key, d, size, columns",
    [(0, (), 3, None, None), (31, (0, 4), 4, None, 2), (2**64 - 1, (1,), 3, 5, None), (7, (2, 1), 5, 6, 3)],
)
def test_ginibre_is_real_then_imaginary_normals_on_the_philox_stream(seed, key, d, size, columns):
    shape = (d, d if columns is None else columns)
    shape = shape if size is None else (size,) + shape
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    g = ginibre(d, RngHandle(seed, key), size, columns)
    assert g.shape == shape and g.dtype == complex
    assert np.array_equal(g, re + 1j * im)


def test_ginibre_reproducible():
    assert np.array_equal(ginibre(3, RngHandle(5)), ginibre(3, RngHandle(5)))


def test_ginibre_rejects_bad_dimension():
    with pytest.raises(ValueError):
        ginibre(0, RngHandle(1))
    for columns in (-1, 0, 4):
        with pytest.raises(ValueError, match="columns"):
            ginibre(3, RngHandle(1), columns=columns)
        with pytest.raises(ValueError, match="columns"):
            haar_unitary(3, RngHandle(1), size=2, columns=columns)


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda h: ginibre(2.5, h), "^dimension must be an integer, got 2.5$"),
        (lambda h: ginibre(3, h, size=2.5), "^size must be an integer, got 2.5$"),
        (lambda h: ginibre(3, h, size=-1), "^size must be at least 0$"),
        (lambda h: ginibre(3, h, columns=2.5), "^columns must be an integer, got 2.5$"),
        (lambda h: haar_unitary(np.float64(3.0), h), "^dimension must be an integer"),
        (lambda h: haar_unitary(3, h, size=2.5), "^size must be an integer, got 2.5$"),
        (lambda h: haar_unitary(3, h, columns=True), "^columns must be an integer, got True$"),
        (lambda h: sample_spectrum(SpectrumEnsemble("gue", 4), h, size=2.5), "^size must be an integer, got 2.5$"),
        (lambda h: sample_spectrum(SpectrumEnsemble("poisson", 4), h, size=-2), "^size must be at least 0$"),
    ],
    ids=["ginibre-dim", "ginibre-size", "ginibre-negative-size", "ginibre-columns", "haar-dim", "haar-size",
         "haar-bool-columns", "gue-size", "poisson-negative-size"],
)
def test_dimensions_and_sizes_must_be_integers_before_any_draw(draw, message):
    # int() drew 2 for a size of 2.5 and 1 column for True; a float dimension
    # or a negative size failed inside numpy
    handle = RngHandle(62)
    with pytest.raises(ValueError, match=message):
        draw(handle)
    np.testing.assert_array_equal(handle.uniform(4), RngHandle(62).uniform(4))


@pytest.mark.parametrize(
    "kind, dim, levels",
    [("gue", 4.0, None), ("poisson", True, None), ("gue", np.float64(4.0), None), ("explicit", 2.0, [0.0, 1.0])],
)
def test_ensemble_dimension_must_be_an_integer(kind, dim, levels):
    # accepted, a float dimension failed with a TypeError at the first draw
    with pytest.raises(ValueError, match="^ensemble dimension must be an integer"):
        SpectrumEnsemble(kind, dim, levels)


def test_full_columns_draw_what_the_default_draws():
    for fn in (ginibre, haar_unitary):
        assert np.array_equal(fn(4, RngHandle(8)), fn(4, RngHandle(8), columns=4))
        assert np.array_equal(fn(4, RngHandle(8), size=3), fn(4, RngHandle(8), size=3, columns=4))


# ---------------------------------------------------------------------------
# Haar unitaries


def test_haar_unitarity_residual():
    u = haar_unitary(4, RngHandle(41), size=500)
    eye = np.eye(4)
    residual = np.abs(dagger(u) @ u - eye).max()
    assert residual <= 1e-12


def test_haar_first_moments():
    n = 20_000
    d = 4
    u = haar_unitary(d, RngHandle(42), size=n)
    # |U_ij|^2 is Beta(1, d^2-1)-like with mean 1/d; Var = (d-1)/(d^2 (d+1))
    mean_sq = (np.abs(u) ** 2).mean(axis=0)
    sigma = math.sqrt((d - 1) / (d**2 * (d + 1)) / n)
    assert np.abs(mean_sq - 1.0 / d).max() <= 4.0 * sigma
    # plain entries average to zero
    mean_entry = u.mean(axis=0)
    entry_sigma = math.sqrt(1.0 / d / n)  # per complex component about 1/sqrt(d n)
    assert np.abs(mean_entry).max() <= 4.0 * entry_sigma


def test_haar_isometry_columns_and_first_moments():
    n, d, k = 20_000, 5, 2
    v = haar_unitary(d, RngHandle(45), size=n, columns=k)
    assert v.shape == (n, d, k)
    assert np.abs(dagger(v) @ v - np.eye(k)).max() <= 1e-12
    # each column is a Haar unit vector: |V_ij|^2 has mean 1/d, as for a unitary
    mean_sq = (np.abs(v) ** 2).mean(axis=0)
    sigma = math.sqrt((d - 1) / (d**2 * (d + 1)) / n)
    assert np.abs(mean_sq - 1.0 / d).max() <= 4.0 * sigma


def test_haar_left_invariance():
    # multiplying by a fixed unitary leaves the |entry|^2 table unchanged
    n = 10_000
    d = 3
    u = haar_unitary(d, RngHandle(43), size=n)
    v = haar_unitary(d, RngHandle(44))
    table_u = (np.abs(u) ** 2).mean(axis=0)
    table_vu = (np.abs(v @ u) ** 2).mean(axis=0)
    sigma = math.sqrt(2.0 * (d - 1) / (d**2 * (d + 1)) / n)
    assert np.abs(table_u - table_vu).max() <= 5.0 * sigma


def test_haar_reproducible():
    assert np.array_equal(haar_unitary(5, RngHandle(6)), haar_unitary(5, RngHandle(6)))


# ---------------------------------------------------------------------------
# spectra


def test_poisson_spacing_statistics():
    ens = SpectrumEnsemble("poisson", 1000)
    levels = sample_spectrum(ens, RngHandle(51))
    spacings = np.diff(levels)
    assert np.all(np.diff(levels) >= 0.0)
    mean = spacings.mean()
    # unit mean spacing, within five standard errors
    assert abs(mean - 1.0) <= 5.0 / math.sqrt(spacings.size)
    # exponential spacings: variance equals the squared mean
    assert 0.75 <= spacings.var() / mean**2 <= 1.3


def test_gue_levels_sorted_unit_bulk_spacing():
    ens = SpectrumEnsemble("gue", 400)
    levels = sample_spectrum(ens, RngHandle(52))
    assert levels.shape == (400,)
    assert np.all(np.diff(levels) >= 0.0)
    bulk = levels[40:360]
    assert np.diff(bulk).mean() == pytest.approx(1.0, rel=0.05)


def test_gue_small_spacing_suppression():
    # level repulsion: far fewer spacings below 0.1 than the Poisson value (~0.095)
    ens = SpectrumEnsemble("gue", 1000)
    levels = sample_spectrum(ens, RngHandle(53))
    spacings = np.diff(levels[100:900])
    fraction = float((spacings < 0.1).mean())
    assert fraction < 0.03
    poisson = sample_spectrum(SpectrumEnsemble("poisson", 1000), RngHandle(54))
    poisson_fraction = float((np.diff(poisson) < 0.1).mean())
    assert poisson_fraction > 0.06


@pytest.mark.parametrize("d", [2, 3, 8])
def test_gue_tridiagonal_model_has_the_gue_moments(d):
    # E Tr H^2 = d^2 and E Tr H^4 = 2 d^3 + d for GUE with E|H_ij|^2 = 1
    rng = RngHandle(56).derive(d)
    tr2, tr4 = [], []
    for _ in range(8):  # 200k draws, 25k at a time
        h = _gue_tridiagonal(d, rng, size=25_000)
        h2 = h @ h
        tr2.append(np.trace(h2, axis1=-2, axis2=-1))
        tr4.append(np.einsum("nij,nij->n", h2, h2))
    for samples, exact in ((np.concatenate(tr2), d**2), (np.concatenate(tr4), 2 * d**3 + d)):
        z = (samples.mean() - exact) / (samples.std(ddof=1) / math.sqrt(samples.size))
        assert abs(z) <= 4.0


@pytest.mark.parametrize("size", [None, 5])
@pytest.mark.parametrize("d", [1, 2, 8])
def test_gue_tridiagonal_is_the_fancy_index_construction_bit_for_bit(d, size):
    # the same normals and gammas, placed by index arrays on the three diagonals
    h = _gue_tridiagonal(d, RngHandle(59, (d,)), size)
    rng = RngHandle(59, (d,))
    shape = (d,) if size is None else (size, d)
    diag = rng.normals(shape)
    off = np.sqrt(rng.gamma(np.arange(d - 1, 0, -1), shape[:-1] + (d - 1,)))
    expected = np.zeros(shape + (d,))
    i = np.arange(d)
    expected[..., i, i] = diag
    expected[..., i[:-1], i[1:]] = off
    expected[..., i[1:], i[:-1]] = off
    assert h.shape == expected.shape
    assert np.array_equal(h, expected)


@pytest.mark.parametrize("d", [3, 8])
def test_gue_form_factors_match_the_dense_oracle(d):
    # two-sample z of E|f(t)|^2 and E|f(2t)|^2 against dense (G + G^dagger) / 2 spectra
    n = 20_000
    ours = sample_spectrum(SpectrumEnsemble("gue", d), RngHandle(57).derive(d), size=n)
    dense = gue_levels_np(np_rng(57 + d), d, n)
    for t in (0.5, 1.0, 1.5, 3.0):
        a = np.abs(np.exp(-1j * t * ours).mean(axis=-1)) ** 2
        b = np.abs(np.exp(-1j * t * dense).mean(axis=-1)) ** 2
        z = (a.mean() - b.mean()) / math.hypot(a.std(ddof=1), b.std(ddof=1)) * math.sqrt(n)
        assert abs(z) <= 4.0


@pytest.mark.parametrize("d", [1, 2])
def test_smallest_gue_spectra_keep_their_shapes(d):
    ens = SpectrumEnsemble("gue", d)
    one = sample_spectrum(ens, RngHandle(58))
    stack = sample_spectrum(ens, RngHandle(58), size=5)
    assert one.shape == (d,) and stack.shape == (5, d)
    assert np.all(np.isfinite(stack))
    if d == 2:  # two levels at unit spacing
        np.testing.assert_allclose(np.diff(stack, axis=-1), 1.0, rtol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_small_gue_spectra_have_the_requested_spacing_over_the_window(d):
    levels = sample_spectrum(SpectrumEnsemble("gue", d), RngHandle(59), size=6)
    window = levels[:, math.floor(0.1 * d) : math.ceil(0.9 * d)]
    np.testing.assert_allclose(np.diff(window, axis=-1).mean(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_explicit_spectrum_passthrough():
    ens = SpectrumEnsemble("explicit", 3, explicit_levels=[0.0, 1.0, 2.0])
    np.testing.assert_array_equal(sample_spectrum(ens, RngHandle(55)), [0.0, 1.0, 2.0])
    stacked = sample_spectrum(ens, RngHandle(55), size=4)
    assert stacked.shape == (4, 3)
    np.testing.assert_array_equal(stacked[2], [0.0, 1.0, 2.0])


def test_ensemble_validation():
    with pytest.raises(ValueError):
        SpectrumEnsemble("wigner", 4)
    with pytest.raises(ValueError):
        SpectrumEnsemble("explicit", 4)
    with pytest.raises(ValueError):
        SpectrumEnsemble("explicit", 4, explicit_levels=[1.0, 2.0])
    # levels for a sampled ensemble would never be used; a bare third argument is caught the same way
    for kind in ("poisson", "gue"):
        for levels in ([0.0, 1.0, 2.0, 3.0], 2.0):
            with pytest.raises(ValueError, match="^explicit_levels are only for the explicit ensemble$"):
                SpectrumEnsemble(kind, 4, levels)


# ---------------------------------------------------------------------------
# structured evolutions


@pytest.mark.parametrize("kind", ["gue", "poisson"])
def test_witness_trajectory_draws_eigenvectors_then_levels(monkeypatch, kind):
    # one Haar unitary, then one spectrum, both from the stream it is given
    drawn = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            drawn.append((name, out))
            return out

        monkeypatch.setattr(witness, name, wrapped)

    recording("haar_unitary", haar_unitary)
    recording("sample_spectrum", sample_spectrum)
    ensemble = SpectrumEnsemble(kind, 6)
    state = random_mixed(2, 3, 3, RngHandle(60))
    rng = RngHandle(61)
    witness_trajectory(state, state, ensemble, [1.0], rng)
    handle = RngHandle(61)
    assert [name for name, _ in drawn] == ["haar_unitary", "sample_spectrum"]
    np.testing.assert_array_equal(drawn[0][1], haar_unitary(6, handle))
    np.testing.assert_array_equal(drawn[1][1], sample_spectrum(ensemble, handle))
    # and nothing else: the two streams stand at the same place
    np.testing.assert_array_equal(rng.uniform(4), handle.uniform(4))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SpectrumEnsemble("explicit", 2, explicit_levels=[0, np.nan]), "explicit_levels must be finite"),
    ],
    ids=["explicit-nan-level"],
)
def test_non_finite_levels_are_rejected(build, message):
    # accepted, they made every structured-average row NaN
    with pytest.raises(ValueError, match=message):
        build()
