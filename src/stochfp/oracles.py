"""Unbiased randomized operator evaluations with reproducible streams.

Randomness comes from counter-based Philox generators keyed by a
(seed, stream id) pair; substreams derive by mixing indices into the stream id
with the SplitMix64 finalizer, so any (run, iteration) owns its own stream and
replays are bit-identical across platforms.

A stack of runs (one per seed, all on one stream) owns one generator
(StepGenerator). Raw words for every row come at once from _philox_words, a
numpy Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC'11) keyed as RngStream(seed_i, stream).substream(n).generator()
would be; they do not depend on the iterate, so a run that knows its horizon
draws them a block of steps per pass. A draw that needs numpy's own sampler
re-keys one shared Generator to the row's key, zero counter and empty buffer.

Resistant draws replay numpy's Generator.binomial inversion (min(p, 1 - p) k
<= 30) on one word per drawing row, stepping through _invert (_binomial).
Q-learning's batches of one replay Generator.multinomial(1, P) for a block
of steps and rows at once (_multinomial_one): each category and pair is a
binomial of one trial, whose inversion is one comparison of a raw word with
an integer threshold, and the result is each draw's next-state index. Only
numpy's BTPE regime, multinomial batches of k > 1 and an inversion that
restarts on the next word re-key per row or step.

Gaussian draws use a fixed inverse-transform realization: u = (r + 0.5) * 2^-53
for a 53-bit integer r, then z = ndtri(u). u lies in (0, 1) except for
r = 2^53 - 1, where r + 0.5 rounds to 2^53; that u is taken as 1 - 2^-53.
r is the top 53 bits of a raw 64-bit Philox output, which is exactly what
Generator.integers(0, 2^53) returns (Lemire's method on a power-of-two range
keeps the high bits of the product and never rejects), without its per-call
argument handling. ndtri is cephes' (the one scipy.special ships), ported to
numpy with its coefficients and operation order (see _ndtri), so the package
needs no scipy and draws the same bits as with it.

Each noise model samples for itself: batch_mean(tx, x, k, keyed, front) is
the mean of k queries at each row of the (B, d) stack x given tx = T(x),
drawn from keyed's generator for that row (front, if not None, is
last_nonzero_index(x)), and moments(tx, x, m, rng) is empirical_moments'
(mean, second moment) at one point. Minibatch means come from exact
sufficient statistics, which keeps polynomially growing batches runnable:

* iid Gaussian: the mean of k perturbations is Gaussian with std e/sqrt(k);
* the resistant coordinate: the mean of k iid (xi_i/p) * t values is
  t * Binomial(k, p) / (k p), so {Binomial > 0} keeps probability 1 - (1-p)^k.

Both collapses are equalities in distribution, not approximations.
"""

from __future__ import annotations

import functools
import math
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


_SPLITMIX_ADD, _SPLITMIX_M1, _SPLITMIX_M2 = (
    np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _children(stream: int, indices: np.ndarray) -> np.ndarray:
    """_child(stream, i) for each i of indices (integers in 0..2^64 - 1), as a uint64 array.

    numpy's uint64 array arithmetic wraps mod 2^64, as _splitmix64's masks do.
    """
    z = np.asarray(indices, dtype=np.uint64) ^ np.uint64(stream)
    z += _SPLITMIX_ADD
    z ^= z >> np.uint64(30)
    z *= _SPLITMIX_M1
    z ^= z >> np.uint64(27)
    z *= _SPLITMIX_M2
    z ^= z >> np.uint64(31)
    return z


def _philox_key(seed: int, stream: int, err=None) -> tuple[int, int]:
    """The key words Philox(key=[seed, stream]) holds.

    numpy converts a list that mixes a word below 2^63 with one at or above
    it to float64, so both words are then rounded to 53 significant bits. A
    word that rounds to 2^64 has no defined conversion; it goes through
    numpy's own cast, as it does for a fresh generator, under the numpy
    error state err (np.geterr()'s dict) if one is given.
    """
    if (seed < _TOP) == (stream < _TOP):
        return seed, stream
    a, b = float(seed), float(stream)
    if a < 2.0 ** 64 and b < 2.0 ** 64:
        return int(a), int(b)
    with np.errstate(**(err or {})):
        return tuple(np.asarray([seed, stream]).astype(np.uint64).tolist())


# Philox4x64-10's multipliers and key increments (Random123's PHILOX_M4x64_*, PHILOX_W64_*)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _philox_words(k0: np.ndarray, k1: np.ndarray, count: int) -> np.ndarray:
    """Raw words of Philox(key=[k0, k1]).random_raw(count) for each pair of key words.

    k0 and k1 are uint64 arrays of key words, of one shape S; the result has
    shape S + (count,). A fresh Philox increments its counter before its
    first block, so block b (b = 0, 1, ...) encrypts the counter
    (b + 1, 0, 0, 0). Every block of every key runs at once: the pair
    (c0, c2) that a round multiplies is one (2, keys * blocks) array, whose
    64x64 -> 128-bit products come from 32-bit halves; c holds (c3, c1), the
    words each product's high half meets, and key holds (k1, k0) to match.
    """
    blocks = -(-count // 4)
    n = k0.size * blocks

    def pair(first, second):
        out = np.empty((2, n), dtype=np.uint64)
        out[0], out[1] = first, second
        return out

    m, bump = pair(*_PHILOX_M), pair(_PHILOX_W[1], _PHILOX_W[0])
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    key = pair(np.repeat(k1, blocks), np.repeat(k0, blocks))
    a = pair(np.tile(np.arange(1, blocks + 1, dtype=np.uint64), k0.size) if blocks > 1 else 1, 0)
    c = np.zeros((2, n), dtype=np.uint64)
    for r in range(10):
        if r:
            key += bump
        a_lo, a_hi = a & _LOW32, a >> _SHIFT32
        t = a_lo * m_lo
        u = a_hi * m_lo
        u += t >> _SHIFT32
        v = a_lo * m_hi
        v += u & _LOW32
        hi = a_hi * m_hi
        hi += u >> _SHIFT32
        hi += v >> _SHIFT32
        hi ^= c
        hi ^= key
        # new c0 = hi(c2) ^ c1 ^ k0, c2 = hi(c0) ^ c3 ^ k1, c1 = lo(c2), c3 = lo(c0)
        a, c = hi[::-1], a * m
    width = min(count, 4)
    words = np.empty((n, width), dtype=np.uint64)
    for i, w in enumerate((a[0], c[1], a[1], c[0])[:width]):
        words[:, i] = w
    return words.reshape(k0.shape + (blocks * width,))[..., :count]


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


# A run with a horizon draws its raw words for as many upcoming steps as fit
# in one _philox_words pass of at most this many words (one step at least).
_PASS_WORDS = 1 << 14


class StepGenerator:
    """One Philox generator shared by a stack of runs on one stream.

    seeds holds the seed of each row; stream is the id the rows draw from,
    the run's stream until step(n) selects its substream(n). steps is the
    run's horizon, the last step it selects (0 if it is not known).

    raw(count) gives every row's first count raw words at the current
    stream, as RngStream(seeds[i], stream).generator() would. Within the
    horizon one _philox_words pass of at most _PASS_WORDS words draws them
    for the current step and the next ones, whose stream ids come from one
    vectorised SplitMix64 (_children); a change of seeds (a row that
    aborted) or of count drops that block. The run's own stream, which only
    a one-row oracles.minibatch reads, is drawn row by row through
    generator(i), whose random_raw gives the same words. block(count) hands
    back the whole block, (first step, (steps, rows, count) words). numpy's
    warning for a key word that rounds to 2^64 (see _keys) comes when the
    block holding the first step using it is drawn, under the error state
    the StepGenerator was made in.

    generator(i) resets the shared Philox to RngStream(seeds[i],
    stream).generator()'s state (numpy's conversion of [seed, stream], a
    zero counter and an empty buffer) and returns the shared Generator, so
    a StepGenerator must only reach code that draws one row at a time.
    """

    def __init__(self, rngs, steps: int = 0):
        streams = {r.stream for r in rngs}
        if len(streams) != 1:
            raise ValueError("the runs of a stack must share one stream")
        self.seeds = [r.seed for r in rngs]
        self._root = self.stream = streams.pop()
        self._steps = steps
        self._n = None  # the step selected, None for the run's own stream
        self._err = np.geterr()  # for key casts, whatever state a step runs in
        self._gen = None
        self._state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    @property
    def seeds(self) -> list[int]:
        return self._seeds

    @seeds.setter
    def seeds(self, seeds: list[int]):
        self._seeds = seeds
        self._seed_words = self._seed_low = None  # built by the first _keys() call
        self._mixed_words = {}  # _seed_key_words(), by whether the stream is below 2^63
        self._block = None  # (first step, (steps, rows, count) raw words)

    def step(self, n: int) -> "StepGenerator":
        """Select substream(n) of the run's stream for every row."""
        self.stream = _child(self._root, n)
        self._n = n
        return self

    def generator(self, row: int = 0) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(0))
        self._state["state"]["key"] = _philox_key(self.seeds[row], self.stream, self._err)
        self._gen.bit_generator.state = self._state
        return self._gen

    def raw(self, count: int) -> np.ndarray:
        """(rows, count): each row's first count raw Philox words at the current stream."""
        if self._n is None:  # the run's own stream, in no block: each row's own generator
            return np.array([self.generator(i).bit_generator.random_raw(count)
                             for i in range(len(self._seeds))], dtype=np.uint64)
        first, words = self.block(count)
        return words[self._n - first]

    def block(self, count: int) -> tuple[int, np.ndarray]:
        """(first step, (steps, rows, count) raw words) of the block that holds the current step.

        Row i of step first + j holds raw(count) at step first + j. A step
        outside the cached block (or a change of count or seeds) draws a new
        block that starts at the current step.
        """
        n, block = self._n, self._block
        if block is None or block[1].shape[2] != count or not 0 <= n - block[0] < len(block[1]):
            fit = _PASS_WORDS // max(1, len(self._seeds) * 4 * -(-count // 4))
            last = max(n, min(self._steps, n + fit - 1))
            streams = _children(self._root, np.arange(n, last + 1))
            block = self._block = n, _philox_words(*self._keys(streams), count)
        return block

    def keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's key words (_philox_key of its seed and the stream) as two uint64 arrays."""
        k0, k1 = self._keys([self.stream])
        return k0[0], k1[0]

    def _keys(self, streams) -> tuple[np.ndarray, np.ndarray]:
        """(steps, rows) key words, _philox_key of each row's seed and each of streams.

        A pair [seed, stream] mixes the halves of the range when one word is
        below 2^63 and the other is not (see _philox_key). The seed words of
        such rows are rounded by the first call that keys them with a stream
        in that half, so numpy warns of a word that rounds to 2^64 when a
        key of the call uses it (once per stack and half, where a fresh
        generator warns at each step).
        """
        if self._seed_words is None:
            self._seed_words = np.array(self._seeds, dtype=np.uint64)
            self._seed_low = self._seed_words < _TOP
        streams = np.asarray(streams, dtype=np.uint64)
        s = streams[:, None]
        s_low = s < _TOP
        mixed = self._seed_low != s_low
        if not mixed.any():
            k0, k1 = np.empty((2,) + mixed.shape, dtype=np.uint64)
            k0[:], k1[:] = self._seed_words, s
            return k0, k1
        halves = {low: self._seed_key_words(low) for low in set(s_low[:, 0].tolist())}
        # a stream word keyed with a seed in the other half is rounded as _philox_key rounds it
        rows = np.flatnonzero(mixed.any(axis=1))
        rounded = streams.copy()
        near = streams[rows].astype(np.float64)
        fits = near < 2.0 ** 64
        rounded[rows[fits]] = near[fits].astype(np.uint64)
        for i in rows[~fits].tolist():
            rounded[i] = _philox_key(0, int(streams[i]), self._err)[1]
        return (np.where(s_low, halves.get(True, 0), halves.get(False, 0)),
                np.where(mixed, rounded[:, None], s))

    def _seed_key_words(self, low: bool) -> np.ndarray:
        """Every row's first key word with a stream below 2^63 (low) or not."""
        k0 = self._mixed_words.get(low)
        if k0 is None:
            k0 = self._seed_words.copy()
            mixed = self._seed_low != low
            k0[mixed] = np.array([_philox_key(self._seeds[i], 0 if low else _TOP, self._err)[0]
                                  for i in np.flatnonzero(mixed).tolist()], dtype=np.uint64)
            self._mixed_words[low] = k0
        return k0


# cephes ndtri (as scipy.special ships it): sqrt(2 pi), exp(-2) and the
# rational approximations for |u - 1/2| <= 1/2 - exp(-2) (P0/Q0) and for
# z = sqrt(-2 log u) in [2, 8) (P1/Q1) and [8, 64] (P2/Q2); the Q
# polynomials have a leading 1, which _p1evl supplies
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(v: np.ndarray) -> np.ndarray:
    """math.log, the C library's log, of each element."""
    return np.fromiter(map(math.log, v.tolist()), np.float64, v.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """cephes ndtri at each element of u, all strictly inside (0, 1), bit for bit.

    Same coefficients and operation order as cephes; the tail branch's logs
    go through math.log, the libm log cephes calls (np.log's SIMD loop
    differs from it in the last bit).
    """
    y0 = u.ravel()
    out = np.empty_like(y0)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = x >= 8.0  # u below exp(-32)
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(u.shape)


_U_MAX = 1.0 - 2.0 ** -53


def _uniform_open(raw: np.ndarray) -> np.ndarray:
    """u = (r + 0.5) * 2^-53 for r the top 53 bits of each raw Philox output, at most 1 - 2^-53.

    Only r = 2^53 - 1 would give 1.0 (see module doc); every other r gives
    u <= 1 - 2^-52, so the cap moves no other draw.
    """
    return np.minimum(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53), _U_MAX)


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Inverse-transform standard normals (fixed realization, see module doc)."""
    return _ndtri(_uniform_open(gen.bit_generator.random_raw(size)))


@functools.lru_cache(maxsize=256)
def _inversion_table(k: int, p: float) -> tuple[float, ...]:
    """px_0, ..., px_bound of numpy's binomial inversion of k trials at p <= 1/2.

    As random_binomial_inversion computes them: px_0 = exp(k log1p(-p)),
    px_X = ((k - X + 1) p px_{X-1}) / (X q) with q = 1 - p, and
    bound = int(min(k, k p + 10 sqrt(k p q + 1))).
    """
    q = 1.0 - p
    kp = k * p
    bound = int(min(float(k), kp + 10.0 * math.sqrt(kp * q + 1)))
    px = [math.exp(k * math.log1p(-p))]
    for x in range(1, bound + 1):
        px.append(((k - x + 1) * p * px[-1]) / (x * q))
    return tuple(px)


def _inversion_count(u: float, table: tuple[float, ...]) -> int:
    """The X numpy's inversion reaches at uniform u; len(table) when it restarts."""
    for x, px in enumerate(table):
        if not u > px:
            return x
        u -= px
    return len(table)


def _invert(words: np.ndarray, table: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """numpy's inversion count X at each of words, and the mask of those that restart.

    Inversion reads one word: U = (word >> 11) 2^-53, and X steps up while
    U > px_X, taking U -= px_X, so one table serves every word. Rounding is
    monotone, so no word steps further than the one with the largest U, and
    all step together that many times. A word whose X would pass the table
    restarts in numpy on the next word; the mask is None when none does.
    """
    u = (words >> np.uint64(11)) * 2.0 ** -53
    top = _inversion_count(float(u.max()), table)
    x = np.zeros(u.size, dtype=np.int64)
    more = np.ones(u.size, dtype=bool)  # the words still stepping
    for px in table[:top]:
        np.greater(u, px, out=more, where=more)
        x += more
        np.subtract(u, px, out=u, where=more)
    return x, (more if top == len(table) else None)


def _binomial(keyed: StepGenerator, rows: np.ndarray, k: int, p: float) -> np.ndarray:
    """keyed.generator(i).binomial(k, p) for each i of rows, as numpy draws it.

    numpy inverts at q = min(p, 1 - p) while q k <= 30 (a draw at p > 1/2
    is k minus one at 1 - p), from each row's first word (_invert). The
    cases that read more words draw from the row's own generator: numpy's
    BTPE (q k > 30) and a row whose inversion restarts.
    """
    q = p if p <= 0.5 else 1.0 - p
    if q * k > 30.0:
        return np.array([keyed.generator(i).binomial(k, p) for i in rows.tolist()], dtype=np.int64)
    x, restart = _invert(keyed.raw(1)[rows, 0], _inversion_table(k, q))
    if q != p:
        x = k - x
    if restart is not None:
        for r in np.flatnonzero(restart).tolist():
            x[r] = keyed.generator(int(rows[r])).binomial(k, p)
    return x


def _multinomial_one(keyed: StepGenerator, n: int, p: np.ndarray) -> tuple[int, np.ndarray]:
    """(first step, indices): the category that keyed.step(m).generator(i).multinomial(1, p)
    draws in each distribution of p, for every row i at each step m of the block that
    holds step n, as numpy draws it.

    p is (..., S), each row a distribution in row-major order; indices[j, i] is
    an int64 array of p's shape without its last axis, holding i * S + s' for
    the category s' of each distribution at step first + j (its flat index in a
    (rows, S) array). numpy draws category c < S - 1 of a distribution by
    binomial(1, P_c / remaining) (remaining in doubles) until a count is 1, the
    last category taking the draw if none is; a zero probability reads no
    word. A binomial of one trial inverts one word: X = [U > px_0], which is a
    comparison of the raw word with an integer threshold (_above), flipped at
    p > 1/2, and it restarts on the next word when U - px_0 > px_1. Every draw
    of the block still live in a distribution goes at once, each with its own
    word pointer; one that restarts comes from its own generator. keyed is
    left at step n.
    """
    dists = p.reshape(-1, p.shape[-1])
    pairs, states = dists.shape
    first, words = keyed.step(n).block(pairs * (states - 1))
    steps, rows, count = words.shape
    draws = steps * rows
    flat = words.reshape(-1)
    top = float(flat.max() >> np.uint64(11)) * 2.0 ** -53 if flat.size else 0.0  # the largest U
    # at[i]: each draw's next word in flat before distribution i; live[i]: the draws
    # that took no category below S - 1 in it; picked[i, v]: the category whose word
    # distribution i reads v-th (S - 1 past the last)
    at = np.empty((pairs + 1, draws), dtype=np.int64)
    at[0] = np.arange(draws) * count
    live = np.ones((pairs, draws), dtype=bool)
    picked = np.full((pairs, states + 1), states - 1, dtype=np.int64)
    w, stay = np.empty(draws, dtype=np.uint64), np.empty(draws, dtype=bool)
    restart = np.zeros(draws, dtype=bool)
    for i, dist in enumerate(dists.tolist()):
        pos, open_ = at[i + 1], live[i]
        pos[:] = at[i]
        visited, remaining = 0, 1.0
        for c, pc in enumerate(dist[:-1]):
            p_cond = pc / remaining
            if p_cond != 0.0:
                q = p_cond if p_cond <= 0.5 else 1.0 - p_cond
                px0, px1 = _inversion_table(1, q)
                flat.take(pos, out=w, mode="clip")
                # a count of 0 (the draw stays live) is X = 0, or X = 1 flipped
                (np.less_equal if q == p_cond else np.greater)(w, _above(px0), out=stay)
                if top - px0 > px1:
                    u = (w >> np.uint64(11)) * 2.0 ** -53
                    restart |= (u - px0 > px1) & open_
                pos += open_
                open_ &= stay
                visited += 1
                picked[i, visited] = c
                if p_cond >= 1.0:  # every live draw takes c
                    break
            remaining -= pc
    # a draw that read v words took picked[i, v], or S - 1 (picked[i, v + 1]) if still live
    codes = at[1:] - at[:-1]
    codes += live
    codes += np.arange(0, pairs * (states + 1), states + 1)[:, None]
    indices = np.empty((steps, rows, pairs), dtype=np.int64)
    picked.take(codes, out=indices.reshape(draws, pairs).T, mode="clip")
    indices += np.arange(0, rows * states, states)[:, None]
    indices = indices.reshape((steps, rows) + p.shape[:-1])
    for j, i in zip(*np.divmod(np.flatnonzero(restart), rows)):
        counts = keyed.step(first + int(j)).generator(int(i)).multinomial(1, p)
        indices[j, i] = counts.argmax(axis=-1) + i * states
    keyed.step(n)
    return first, indices


def _above(px: float) -> np.uint64:
    """The largest raw word whose U = (word >> 11) 2^-53 is not above px (2^64 - 1 for px >= 1)."""
    return np.uint64(min((math.floor(px * 2.0 ** 53) << 11) | 0x7FF, _MASK64))


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

    def batch_mean(self, tx, x, k, keyed, front=None):
        if self.e == 0.0:
            return tx
        z = _ndtri(_uniform_open(keyed.raw(x.shape[1])))
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
        j = last_nonzero_index(x) if front is None else front
        # a row at full progress reveals nothing and draws nothing
        rows = np.flatnonzero(j < x.shape[1])
        if rows.size:
            cols = j[rows]
            successes = _binomial(keyed, rows, int(k), self.p)
            out[rows, cols] = (successes / (k * self.p)) * tx[rows, cols]
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
