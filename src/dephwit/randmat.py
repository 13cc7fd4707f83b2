"""Random-matrix sampling.

Ginibre matrices, Haar-distributed unitaries via phase-corrected QR
(or their first k columns, a Haar isometry, from a d x k Ginibre block),
eigenvalue spectra with Poisson or GUE level statistics, structured
time evolutions W exp(-iDt) W^dagger, and the normalized Fourier
transform of the level density. GUE spectra come from the beta = 2
Hermite tridiagonal model of Dumitriu & Edelman (J. Math. Phys. 43, 5830,
2002): the eigenvalues of a real symmetric tridiagonal matrix built from
d normals and d - 1 gamma variates have the law of those of a dense GUE
matrix built from 2 d^2 normals.

All randomness flows through :class:`RngHandle`, a seeded counter-based
Philox stream with hierarchical derivation. Uniforms come from numpy's
``Generator.random``, normals from its ``standard_normal`` (a ziggurat) and
gamma variates from its ``standard_gamma`` on that stream, so a handle's
output is pinned entirely by (seed, spawn key) and the numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import dagger, require_unitary

ENSEMBLE_KINDS = ("poisson", "gue", "explicit")


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass
class RngHandle:
    """Deterministic PRNG stream identified by a 64-bit seed and a spawn key.

    numpy's ``Generator`` on ``Philox(SeedSequence(seed, spawn_key))``: equal
    (seed, spawn_key) pairs give equal ``random``, ``standard_normal`` and
    ``standard_gamma`` sequences bit for bit. ``derive`` returns independent
    child streams, which pin Monte Carlo results however the work is split
    across workers.
    """

    seed: int
    spawn_key: tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # int() would truncate 1.5 to the stream of 1 and take True for 1
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit nonnegative integer")
        key = tuple(self.spawn_key)
        if not all(_is_integer(k) and k >= 0 for k in key):
            raise ValueError("spawn_key entries must be nonnegative integers")
        self.seed = int(self.seed)
        self.spawn_key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, *indices: int) -> "RngHandle":
        """Independent child stream addressed by the given indices."""
        return RngHandle(self.seed, self.spawn_key + indices)

    def uniform(self, shape=None) -> np.ndarray:
        """Uniform doubles in [0, 1)."""
        return self._gen.random(shape)

    def normals(self, shape) -> np.ndarray:
        """Standard normal variates."""
        return self._gen.standard_normal(shape)

    def gamma(self, k, shape) -> np.ndarray:
        """Gamma(k, 1) variates; ``k`` broadcasts against ``shape``."""
        return self._gen.standard_gamma(k, shape)


def ginibre(d: int, rng: RngHandle, size: int | None = None, columns: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix: real and imaginary parts iid standard normal.

    With this convention E|entry|^2 = 2; the scale drops out of every
    downstream use (QR phases, normalized states).
    ``columns`` (default d, at most d) gives a d x columns block instead of a
    square matrix, drawn the same way: all real parts, then all imaginary
    parts. ``size`` stacks that many draws along a leading axis. A sized
    call consumes the stream differently from repeated unsized calls.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    k = d if columns is None else int(columns)
    if not 1 <= k <= d:
        raise ValueError(f"columns must lie in [1, {d}], got {columns}")
    shape = (d, k) if size is None else (int(size), d, k)
    # one call draws the real parts, then the imaginary parts, as two calls would
    parts = rng.normals((2,) + shape)
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = parts
    return z


def haar_unitary(d: int, rng: RngHandle, size: int | None = None, columns: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    Each column of Q is divided by the phase of the matching diagonal
    entry of R; plain QR alone is not Haar-distributed. ``columns`` = k
    (1 <= k <= d, default d) factors a d x k Ginibre block instead and
    returns a d x k Haar isometry: distributed as the first k columns of a
    Haar unitary, from 2 d k normals rather than 2 d^2 (Mezzadri, Notices
    AMS 54, 592, 2007).
    """
    # the Ginibre block dies with the QR call and Q takes the phases in place:
    # two fewer result-sized arrays alive, so long runs do not grow the heap
    q, r = np.linalg.qr(ginibre(d, rng, size=size, columns=columns))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    phase = np.where(mag > 0.0, diag / np.where(mag > 0.0, mag, 1.0), 1.0)
    q /= phase[..., None, :]
    return q


@dataclass(frozen=True)
class SpectrumEnsemble:
    """Rule for generating real spectra with prescribed level statistics.

    kind:
      poisson   iid exponential spacings (regular level statistics)
      gue       GUE eigenvalues, from the beta = 2 Hermite tridiagonal
                model (Dumitriu & Edelman 2002), rescaled to unit mean
                spacing over the middle 80% of levels (chaotic,
                level-repelling statistics)
      explicit  a fixed list of levels
    ``mean_spacing`` rescales poisson/gue output.
    """

    kind: str
    dim: int
    mean_spacing: float = 1.0
    explicit_levels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("ensemble dimension must be at least 1")
        if not (self.mean_spacing > 0.0):
            raise ValueError("mean_spacing must be positive")
        if self.kind == "explicit":
            if self.explicit_levels is None:
                raise ValueError("explicit ensemble requires explicit_levels")
            levels = np.asarray(self.explicit_levels, dtype=float)
            if levels.shape != (self.dim,):
                raise ValueError(
                    f"explicit_levels must have length {self.dim}, got {levels.shape}"
                )
            object.__setattr__(self, "explicit_levels", np.sort(levels))


def _rescale_bulk(levels: np.ndarray, mean_spacing: float) -> np.ndarray:
    # unit mean spacing measured over the middle 80% of each sorted spectrum
    d = levels.shape[-1]
    if d < 2:
        return levels
    lo = int(math.floor(0.1 * d))
    hi = int(math.ceil(0.9 * d))
    if hi - lo < 2:
        lo, hi = 0, d
    bulk = np.diff(levels[..., lo:hi], axis=-1).mean(axis=-1)
    return levels * (mean_spacing / bulk)[..., None]


def _gue_tridiagonal(d: int, rng: RngHandle, size: int | None = None) -> np.ndarray:
    """Unscaled beta = 2 Hermite matrix: real symmetric tridiagonal, with
    eigenvalues distributed as those of a GUE draw H = (G + G^dagger) / 2,
    E|H_ij|^2 = 1. Diagonal N(0, 1), k-th off-diagonal entry
    sqrt(Gamma(d - k, 1)), k = 1 .. d - 1. Shape (d, d), or (size, d, d).
    The three diagonals are strided slices of each matrix's d * d entries
    in row-major order: step d + 1 from 0 (diagonal), from 1 (above) and
    from d (below)."""
    shape = (d,) if size is None else (int(size), d)
    diag = rng.normals(shape)
    off = np.sqrt(rng.gamma(np.arange(d - 1, 0, -1), shape[:-1] + (d - 1,)))
    h = np.zeros(shape + (d,))
    flat = h.reshape(shape[:-1] + (d * d,))
    flat[..., :: d + 1] = diag
    flat[..., 1 :: d + 1] = off
    flat[..., d :: d + 1] = off
    return h


def sample_spectrum(
    ensemble: SpectrumEnsemble, rng: RngHandle, size: int | None = None
) -> np.ndarray:
    """Draw one spectrum (or a stack of ``size``), sorted ascending.

    GUE levels are the eigenvalues of the beta = 2 Hermite tridiagonal
    model (Dumitriu & Edelman, J. Math. Phys. 43, 5830, 2002), equal in law
    to those of a dense (G + G^dagger) / 2, by ``np.linalg.eigvalsh`` of the
    real matrix; then rescaled to unit bulk spacing.
    """
    d = ensemble.dim
    shape = (d,) if size is None else (int(size), d)
    if ensemble.kind == "explicit":
        levels = np.asarray(ensemble.explicit_levels, dtype=float)
        return levels.copy() if size is None else np.broadcast_to(levels, shape).copy()
    if ensemble.kind == "poisson":
        u = rng.uniform(shape)
        spacings = -ensemble.mean_spacing * np.log1p(-u)
        return np.cumsum(spacings, axis=-1)
    levels = np.linalg.eigvalsh(_gue_tridiagonal(d, rng, size))
    return _rescale_bulk(levels, ensemble.mean_spacing)


@dataclass(frozen=True)
class StructuredEvolution:
    """Unitary evolution with fixed random eigenvectors and levels.

    ``evolve(t)`` returns W diag(exp(-i E_j t)) W^dagger (hbar = 1).
    """

    eigvecs: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        w = require_unitary(self.eigvecs, "eigvecs")
        levels = np.asarray(self.levels, dtype=float)
        if levels.shape != (w.shape[0],):
            raise ValueError("levels length must match eigvecs dimension")
        object.__setattr__(self, "eigvecs", w)
        object.__setattr__(self, "levels", levels)

    def evolve(self, t: float) -> np.ndarray:
        phases = np.exp(-1j * float(t) * self.levels)
        w = self.eigvecs
        return (w * phases) @ dagger(w)


def structured_evolution(ensemble: SpectrumEnsemble, rng: RngHandle) -> StructuredEvolution:
    """Draw Haar eigenvectors, then a spectrum from the ensemble."""
    w = haar_unitary(ensemble.dim, rng)
    levels = sample_spectrum(ensemble, rng)
    return StructuredEvolution(eigvecs=w, levels=levels)


def level_transform_f(levels, t: float) -> complex | np.ndarray:
    """Normalized Fourier transform of the level density, (1/d) sum exp(-i E_j t).

    Equals 1 at t = 0 and is bounded by 1 in modulus. A stack of spectra,
    shape (n, d), gives an array of the n values.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim not in (1, 2) or levels.size == 0:
        raise ValueError("levels must be a nonempty 1-d array or an (n, d) stack")
    return np.mean(np.exp(-1j * float(t) * levels), axis=-1)
