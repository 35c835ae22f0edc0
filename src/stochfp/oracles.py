"""Unbiased randomized operator evaluations with reproducible streams.

Randomness comes from counter-based Philox generators keyed by a
(seed, stream id) pair; substreams derive by mixing indices into the stream id
with the SplitMix64 finalizer, so any (run, iteration) owns its own stream and
replays are bit-identical across platforms.

A stack of runs (one run per seed, every seed on the same stream) owns one
generator (StepGenerator). At each step the stack computes the step's stream
id once, as an int, and each row that draws re-keys the generator to the key
RngStream(seed_i, stream).substream(n).generator() would use, with a zero
counter and an empty buffer. So each (seed, step) draws exactly what a fresh
generator would, at a fraction of the cost of building one, and a row that
draws nothing does not re-key.

Gaussian draws use a fixed inverse-transform realization: u = (r + 0.5) * 2^-53
for a 53-bit integer r (so u is strictly inside (0, 1)), then z = ndtri(u).
r is the top 53 bits of a raw 64-bit Philox output, which is exactly what
Generator.integers(0, 2^53) returns (Lemire's method on a power-of-two range
keeps the high bits of the product and never rejects), without its per-call
argument handling.
scipy.special, which supplies ndtri, is most of the package's import time, so
it is imported when the first AdditiveGaussianIID is built (or at the first
standard_normal call), not with the package.

Each noise model samples for itself: batch_mean(tx, x, k, keyed, front) is,
row by row, the mean of k queries at each row of the (B, d) stack x given
tx = T(x), drawn from keyed's generator for that row (a single query is the
minibatch of one, a single point the stack of one; front, if not None, is
last_nonzero_index(x)), and moments(tx, x, m, rng) is empirical_moments'
(mean, second moment) at one point. Minibatch
means come from exact sufficient statistics rather than per-sample loops,
which keeps polynomially growing batch sizes runnable:

* iid Gaussian: the mean of k perturbations is Gaussian with std e/sqrt(k);
* the resistant coordinate: the mean of k iid (xi_i/p) * t values is
  t * Binomial(k, p) / (k p); the unveiling event {Binomial > 0} keeps exactly
  its probability 1 - (1-p)^k.

Both collapses are equalities in distribution, not approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_vector, last_nonzero_index
from .operators import Operator, ShiftProjection

__all__ = [
    "RngStream",
    "StepGenerator",
    "standard_normal",
    "NoNoise",
    "AdditiveGaussianIID",
    "ResistantBernoulli",
    "OracleDescriptor",
    "minibatch",
    "empirical_moments",
]

_MASK64 = (1 << 64) - 1
_TOP = 1 << 63


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _child(stream: int, index: int) -> int:
    """The stream id of substream(index) of the given stream id."""
    return _splitmix64((stream ^ (int(index) & _MASK64)) & _MASK64)


def _philox_key(seed: int, stream: int) -> tuple[int, int]:
    """The key words Philox(key=[seed, stream]) holds.

    numpy converts a list that mixes a word below 2^63 with one at or above
    it to float64, so both words are then rounded to 53 significant bits. A
    word that rounds to 2^64 has no defined conversion; it goes through
    numpy's own cast, as it does for a fresh generator.
    """
    if (seed < _TOP) == (stream < _TOP):
        return seed, stream
    a, b = float(seed), float(stream)
    if a < 2.0 ** 64 and b < 2.0 ** 64:
        return int(a), int(b)
    return tuple(np.asarray([seed, stream]).astype(np.uint64).tolist())


@dataclass(frozen=True)
class RngStream:
    """A named position in the Philox key space: (seed, stream id)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64 or not 0 <= self.stream <= _MASK64:
            raise ValueError("seed and stream must be unsigned 64-bit integers")

    def substream(self, *indices: int) -> "RngStream":
        """Derive a child stream; distinct index tuples give distinct streams."""
        s = self.stream
        for ix in indices:
            s = _child(s, ix)
        return RngStream(self.seed, s)

    def generator(self) -> np.random.Generator:
        """A fresh generator at this stream's origin (same draws on every call)."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


class StepGenerator:
    """One Philox generator shared by a stack of runs on one stream.

    seeds holds the seed of each row; stream is the id the rows draw from,
    the run's stream until step(n) selects its substream(n). generator(i)
    resets the shared Philox to RngStream(seeds[i], stream).generator()'s
    state (the same key, numpy's conversion of [seed, stream] included, a
    zero counter and an empty buffer) and returns the shared Generator. Each
    call resets it again, so a StepGenerator must only reach code that draws
    from one row at a time. The Generator is built on the first call.
    """

    def __init__(self, rngs):
        self.seeds = [r.seed for r in rngs]
        streams = {r.stream for r in rngs}
        if len(streams) != 1:
            raise ValueError("the runs of a stack must share one stream")
        self._root = self.stream = streams.pop()
        self._gen = None
        self._state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def step(self, n: int) -> "StepGenerator":
        """Select substream(n) of the run's stream for every row."""
        self.stream = _child(self._root, n)
        return self

    def generator(self, row: int = 0) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(0))
        self._state["state"]["key"] = _philox_key(self.seeds[row], self.stream)
        self._gen.bit_generator.state = self._state
        return self._gen


_ndtri = None


def _load_ndtri():
    """scipy.special.ndtri, imported on first use."""
    global _ndtri
    if _ndtri is None:
        from scipy.special import ndtri

        _ndtri = ndtri
    return _ndtri


def _uniform_open(raw: np.ndarray) -> np.ndarray:
    """u = (r + 0.5) * 2^-53 for r the top 53 bits of each raw Philox output (see module doc)."""
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Inverse-transform standard normals (fixed realization, see module doc)."""
    return _load_ndtri()(_uniform_open(gen.bit_generator.random_raw(size)))


@dataclass(frozen=True)
class NoNoise:
    """Exact evaluations: every query returns T(x)."""

    def batch_mean(self, tx, x, k, keyed, front=None):
        return tx

    def moments(self, tx, x, m, rng):
        return tx.copy(), 0.0


@dataclass(frozen=True)
class AdditiveGaussianIID:
    """Zero-mean iid Gaussian perturbation with per-coordinate std e."""

    e: float

    def __post_init__(self):
        if not self.e >= 0:
            raise ValueError("per-coordinate std e must be >= 0")
        _load_ndtri()  # before any worker pool forks, so workers inherit it

    def batch_mean(self, tx, x, k, keyed, front=None):
        if self.e == 0.0:
            return tx
        rows, d = x.shape
        raw = np.empty((rows, d), dtype=np.uint64)
        for i in range(rows):
            raw[i] = keyed.generator(i).bit_generator.random_raw(d)
        z = _load_ndtri()(_uniform_open(raw))
        return tx + self.e / np.sqrt(float(k)) * z

    def moments(self, tx, x, m, rng):
        draws = self.e * standard_normal(rng.generator(), (m, x.shape[0]))
        return tx + draws.mean(axis=0), float((draws ** 2).sum(axis=1).mean())


@dataclass(frozen=True)
class ResistantBernoulli:
    """Reveal-the-next-coordinate noise for the shift-projection operator.

    The coordinate one past the last nonzero coordinate of the query point is
    scaled by xi/p with xi ~ Bernoulli(p); all other coordinates are exact.
    """

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("success probability p must lie in (0, 1)")

    def batch_mean(self, tx, x, k, keyed, front=None):
        out = tx.copy()
        for i, j in enumerate((last_nonzero_index(x) if front is None else front).tolist()):
            if j < x.shape[1]:  # a row at full progress reveals nothing and draws nothing
                successes = int(keyed.generator(i).binomial(int(k), self.p))
                out[i, j] = (successes / (k * self.p)) * tx[i, j]
        return out

    def moments(self, tx, x, m, rng):
        j = last_nonzero_index(x)
        if j >= x.shape[0]:
            return tx.copy(), 0.0
        u = _uniform_open(rng.generator().bit_generator.random_raw(m))
        xi = (u < self.p).astype(np.float64)
        vals = (xi / self.p) * tx[j]
        mean = tx.copy()
        mean[j] = vals.mean()
        return mean, float(((vals - tx[j]) ** 2).mean())


NoiseModel = NoNoise | AdditiveGaussianIID | ResistantBernoulli


class OracleDescriptor:
    """An operator plus a noise model; oracle outputs are unbiased for apply()."""

    def __init__(self, base: Operator, noise: NoiseModel):
        if isinstance(noise, ResistantBernoulli) and not isinstance(base, ShiftProjection):
            raise ValueError("resistant noise attaches only to a shift-projection operator")
        self.base = base
        self.noise = noise

    @property
    def dim(self) -> int:
        return self.base.dim


def minibatch(o: OracleDescriptor, x, k: int, rng: RngStream) -> np.ndarray:
    """Arithmetic mean of k independent queries (sampled via exact sufficient statistics).

    A single oracle query is the minibatch with k = 1, and a single point the
    stack of one.
    """
    if k < 1:
        raise ValueError("minibatch size k must be >= 1")
    x = as_vector(x)[None]
    return o.noise.batch_mean(o.base.apply(x), x, k, StepGenerator([rng]))[0]


def empirical_moments(o: OracleDescriptor, x, m: int, rng: RngStream):
    """Sample mean of m queries and mean squared L2 error against the exact value.

    Returns (mean vector, scalar second moment E||query - Tx||_2^2 estimate).
    The m repetitions draw vectorized from this stream's generator, so results
    are deterministic in (stream, x, m).
    """
    if m < 2:
        raise ValueError("need m >= 2 repetitions")
    x = as_vector(x)
    return o.noise.moments(o.base.apply(x), x, m, rng)
