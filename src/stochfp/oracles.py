"""Unbiased randomized operator evaluations with reproducible streams.

Randomness comes from counter-based Philox generators keyed by a
(seed, stream id) pair; substreams derive by mixing indices into the stream id
with the SplitMix64 finalizer, so any (run, iteration) owns its own stream and
replays are bit-identical across platforms.

A run owns one generator (StepGenerator) and re-keys it at every step that
draws: it gets the key RngStream.generator() would use for the step's
substream, a zero counter and an empty buffer, so its draws are those of a
fresh generator at a quarter of the cost of building one.

Gaussian draws use a fixed inverse-transform realization: u = (r + 0.5) * 2^-53
for a 53-bit integer r (so u is strictly inside (0, 1)), then z = ndtri(u).
scipy.special, which supplies ndtri, is most of the package's import time, so
it is imported when the first AdditiveGaussianIID is built (or at the first
standard_normal call), not with the package.

Each noise model samples for itself: batch_mean(tx, x, k, rng) is the mean of
k queries at x given tx = T(x) (a single query is the minibatch of one), and
moments(tx, x, m, rng) is empirical_moments' (mean, second moment). Minibatch
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


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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
            s = _splitmix64((s ^ (int(ix) & _MASK64)) & _MASK64)
        return RngStream(self.seed, s)

    def generator(self) -> np.random.Generator:
        """A fresh generator at this stream's origin (same draws on every call)."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


class StepGenerator:
    """One run's Philox generator, re-keyed to the stream of each step that draws.

    at(stream) selects the stream; generator() then resets the shared Philox
    to stream.generator()'s state (the same key, numpy's conversion of
    [seed, stream] included, a zero counter and an empty buffer) and returns
    the shared Generator. Each call resets it again, so a StepGenerator must
    only reach code that draws from one stream at a time.
    """

    def __init__(self):
        self._gen = np.random.Generator(np.random.Philox(0))
        zeros = np.zeros(4, dtype=np.uint64)
        self._state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": zeros[:2]},
                       "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.stream = None

    def at(self, stream: RngStream) -> "StepGenerator":
        self.stream = stream
        return self

    def generator(self) -> np.random.Generator:
        # the key conversion Philox(key=[seed, stream]) applies to a list
        key = np.asarray([self.stream.seed, self.stream.stream]).astype(np.uint64)
        self._state["state"]["key"] = key
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


def _uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    r = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (r.astype(np.float64) + 0.5) * (2.0 ** -53)


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Inverse-transform standard normals (fixed realization, see module doc)."""
    return _load_ndtri()(_uniform_open(gen, size))


@dataclass(frozen=True)
class NoNoise:
    """Exact evaluations: every query returns T(x)."""

    def batch_mean(self, tx, x, k, rng):
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

    def batch_mean(self, tx, x, k, rng):
        if self.e == 0.0:
            return tx
        return tx + self.e / np.sqrt(float(k)) * standard_normal(rng.generator(), x.shape[0])

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

    def batch_mean(self, tx, x, k, rng):
        j = last_nonzero_index(x)
        if j >= x.shape[0]:
            return tx
        out = tx.copy()
        successes = int(rng.generator().binomial(int(k), self.p))
        out[j] = (successes / (k * self.p)) * tx[j]
        return out

    def moments(self, tx, x, m, rng):
        j = last_nonzero_index(x)
        if j >= x.shape[0]:
            return tx.copy(), 0.0
        xi = (_uniform_open(rng.generator(), m) < self.p).astype(np.float64)
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

    A single oracle query is the minibatch with k = 1.
    """
    if k < 1:
        raise ValueError("minibatch size k must be >= 1")
    x = as_vector(x)
    return o.noise.batch_mean(o.base.apply(x), x, k, rng)


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
