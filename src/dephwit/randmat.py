"""Random-matrix sampling.

Ginibre matrices, Haar-distributed unitaries via phase-corrected QR
(or their first k columns, a Haar isometry, from a d x k Ginibre block),
and eigenvalue spectra with Poisson or GUE level statistics: the two
parts of a structured evolution W exp(-iEt) W^dagger, which
:mod:`dephwit.witness` draws itself. GUE spectra come from the beta = 2
Hermite tridiagonal model of Dumitriu & Edelman (J. Math. Phys. 43, 5830,
2002): d normals and d - 1 gamma variates in place of the 2 d^2 normals
of a dense draw.

All randomness flows through :class:`RngHandle`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _is_integer, _require_integer

ENSEMBLE_KINDS = ("poisson", "gue", "explicit")


@dataclass
class RngHandle:
    """Deterministic PRNG stream identified by a 64-bit seed and a spawn key.

    numpy's ``Generator`` on ``Philox(SeedSequence(seed, spawn_key))``: equal
    (seed, spawn_key) pairs give equal ``random``, ``standard_normal`` (a
    ziggurat) and ``standard_gamma`` sequences bit for bit under one numpy
    version. ``derive`` returns independent child streams, which pin Monte
    Carlo results however the work is split across workers.

    The seed and spawn key are checked at construction, but the generator
    is built on the first draw, so a handle that only derives children
    builds none; the streams are the same either way.
    """

    seed: int
    spawn_key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # int() would truncate 1.5 to the stream of 1 and take True for 1
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit nonnegative integer")
        key = tuple(self.spawn_key)
        if not all(_is_integer(k) and k >= 0 for k in key):
            raise ValueError("spawn_key entries must be nonnegative integers")
        self.seed = int(self.seed)
        self.spawn_key = tuple(int(k) for k in key)

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.Philox(ss))

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
    d = _require_integer(d, "dimension", 1)
    k = d if columns is None else _require_integer(columns, "columns", 1)
    if k > d:
        raise ValueError(f"columns must lie in [1, {d}], got {columns}")
    shape = (d, k) if size is None else (_require_integer(size, "size", 0), d, k)
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
      poisson   iid exponential spacings of unit mean (regular level
                statistics)
      gue       GUE eigenvalues, rescaled to unit mean spacing over the
                middle 80% of levels (chaotic, level-repelling statistics)
      explicit  a fixed list of levels, ``explicit_levels``
    The unit level spacing is the time unit: the witness sees the levels
    only through exp(-iEt), so levels mu E at time t act as E at time mu t.
    A quenched spectrum, drawn once and kept, is an explicit one.
    """

    kind: str
    dim: int
    explicit_levels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind: {self.kind!r}")
        _require_integer(self.dim, "ensemble dimension", 1)
        if self.kind != "explicit":
            if self.explicit_levels is not None:
                raise ValueError("explicit_levels are only for the explicit ensemble")
            return
        if self.explicit_levels is None:
            raise ValueError("explicit ensemble requires explicit_levels")
        levels = np.asarray(self.explicit_levels, dtype=float)
        if not np.isfinite(levels).all():
            raise ValueError("explicit_levels must be finite")
        if levels.shape != (self.dim,):
            raise ValueError(f"explicit_levels must have length {self.dim}, got {levels.shape}")
        object.__setattr__(self, "explicit_levels", np.sort(levels))


def _rescale_bulk(levels: np.ndarray) -> np.ndarray:
    # ceil(0.9 d) - floor(0.1 d) >= 2 for d >= 2, so the window holds a spacing
    d = levels.shape[-1]
    if d < 2:
        return levels
    lo = int(math.floor(0.1 * d))
    hi = int(math.ceil(0.9 * d))
    bulk = np.diff(levels[..., lo:hi], axis=-1).mean(axis=-1)
    return levels * (1.0 / bulk)[..., None]  # not levels / bulk, which rounds differently


def _gue_tridiagonal(d: int, rng: RngHandle, size: int | None = None) -> np.ndarray:
    """Unscaled beta = 2 Hermite matrix: real symmetric tridiagonal, with
    eigenvalues distributed as those of a GUE draw H = (G + G^dagger) / 2,
    E|H_ij|^2 = 1. Diagonal N(0, 1), k-th off-diagonal entry
    sqrt(Gamma(d - k, 1)), k = 1 .. d - 1. Shape (d, d), or (size, d, d)."""
    shape = (d,) if size is None else (size, d)
    diag = rng.normals(shape)
    off = np.sqrt(rng.gamma(np.arange(d - 1, 0, -1), shape[:-1] + (d - 1,)))
    h = np.zeros(shape + (d,))
    i = np.arange(d)
    h[..., i, i] = diag
    h[..., i[:-1], i[1:]] = off
    h[..., i[1:], i[:-1]] = off
    return h


def sample_spectrum(
    ensemble: SpectrumEnsemble, rng: RngHandle, size: int | None = None
) -> np.ndarray:
    """Draw one spectrum (or a stack of ``size``), sorted ascending.

    Poisson and GUE spectra have unit mean spacing (the GUE one over the
    middle 80% of levels), so the spacing is the unit of time. GUE levels
    are the eigenvalues of the real tridiagonal model, rescaled. An
    explicit ensemble returns copies of its levels and draws nothing.
    """
    d = ensemble.dim
    shape = (d,) if size is None else (_require_integer(size, "size", 0), d)
    if ensemble.kind == "explicit":
        levels = np.asarray(ensemble.explicit_levels, dtype=float)
        return levels.copy() if size is None else np.broadcast_to(levels, shape).copy()
    if ensemble.kind == "poisson":
        u = rng.uniform(shape)
        return np.cumsum(-np.log1p(-u), axis=-1)
    levels = np.linalg.eigvalsh(_gue_tridiagonal(d, rng, size))
    return _rescale_bulk(levels)

