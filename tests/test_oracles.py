import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochfp import mdp as sf_mdp
from stochfp import oracles
from stochfp.linalg import L1, norm, norm_equivalence_mu
from stochfp.operators import ConstantMap, PlaneRotation, ShiftProjection
from stochfp.oracles import (
    AdditiveGaussianIID,
    NoNoise,
    OracleDescriptor,
    ResistantBernoulli,
    RngStream,
    StepGenerator,
    empirical_moments,
    minibatch,
    standard_normal,
)


def _gaussian_oracle(dim=3, e=1.0):
    return OracleDescriptor(ConstantMap(np.zeros(dim)), AdditiveGaussianIID(e))


_U64 = st.integers(0, 2**64 - 1)
# the first draws a run takes: a multinomial step, Gaussian bits, resistant binomials
# (n = 1 by inversion, n = 10^6 by BTPE)
_FIRST_DRAWS = (
    lambda g: g.multinomial(1000, [[0.2, 0.3, 0.5], [0.9, 0.0, 0.1]]),
    lambda g: g.integers(0, 1 << 53, size=3, dtype=np.uint64),
    lambda g: g.binomial([1, 10**6], 0.04),
)


def _flat_state(gen):
    state = gen.bit_generator.state
    words = {k: np.asarray(v).tolist() for k, v in state["state"].items()}
    return dict(state, state=words, buffer=state["buffer"].tolist())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(seed=_U64, stream=_U64, previous=_U64)
@example(seed=3, stream=2**64 - 1, previous=0)
@example(seed=9223372036854775809, stream=RngStream(0).substream(3).stream, previous=1)
@example(seed=9223372036854775810, stream=RngStream(0).substream(3).stream, previous=1)
@example(seed=2**64 - 1, stream=2**64 - 1, previous=2**63)
@example(seed=2**63 - 1, stream=2**63 + 1, previous=2**64 - 1)
def test_step_generator_draws_as_a_fresh_generator(seed, stream, previous):
    target = RngStream(seed, stream)
    # row 0 is the seed under test; row 1 is another seed of the same stack
    keyed = StepGenerator([target, RngStream(previous, stream)])
    with warnings.catch_warnings():
        # numpy warns when it rounds a key word to 2^64; both paths must round alike
        warnings.simplefilter("ignore", RuntimeWarning)
        fresh = target.generator().bit_generator.state["state"]["key"]
        rekeyed = keyed.generator(0).bit_generator.state["state"]["key"]
        assert rekeyed.tolist() == fresh.tolist()
        for n, draw in enumerate(_FIRST_DRAWS, start=1):
            # the other row leaves the shared generator mid-buffer, with a spare uint32
            gen = keyed.step(n).generator(1)
            gen.random()
            gen.integers(0, 10, dtype=np.uint32)
            state = gen.bit_generator.state
            assert state["buffer_pos"] != 4 and state["has_uint32"] == 1
            got = keyed.generator(0)
            assert _flat_state(got) == _flat_state(target.substream(n).generator())
            assert np.array_equal(draw(got), draw(target.substream(n).generator()))


_EDGE_WORDS = [0, 1, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1025, 2**64 - 1024,
               2**64 - 2, 2**64 - 1]
_WORD = st.sampled_from(_EDGE_WORDS) | _U64


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seeds=st.lists(_WORD, min_size=1, max_size=6, unique=True), stream=_WORD,
       n=st.integers(0, 3), count=st.integers(1, 13))
@example(seeds=[5, 2**64 - 1], stream=0, n=0, count=13)
@example(seeds=[2**63 + 1, 2**63 + 2, 3], stream=5, n=0, count=4)
@example(seeds=[3, 2**63], stream=2**64 - 1, n=0, count=5)
def test_philox_words_equal_random_raw(seeds, stream, n, count):
    with warnings.catch_warnings():
        # numpy warns when it rounds a key word to 2^64
        warnings.simplefilter("ignore", RuntimeWarning)
        keyed = StepGenerator([RngStream(s, stream) for s in seeds])
        if n:
            keyed.step(n)
        k0, k1 = keyed.keys()
        assert k0.dtype == k1.dtype == np.uint64
        words = oracles._philox_words(k0, k1, count)
        assert words.shape == (len(seeds), count) and words.dtype == np.uint64
        assert np.array_equal(keyed.raw(count), words)
        for i, seed in enumerate(seeds):
            # the key words the stack derives, numpy's rounding of mixed pairs included
            fresh = RngStream(seed, keyed.stream).generator().bit_generator
            assert [int(k0[i]), int(k1[i])] == fresh.state["state"]["key"].tolist()
            assert np.array_equal(words[i], fresh.random_raw(count))
            # and the cipher itself on the exact words
            exact = np.random.Philox(key=np.array([seed, keyed.stream], dtype=np.uint64))
            assert np.array_equal(oracles._philox_words(np.array([seed], dtype=np.uint64),
                                                        np.array([keyed.stream], dtype=np.uint64),
                                                        count)[0], exact.random_raw(count))


def test_wide_stack_raw_words_equal_fresh_generators():
    gen = np.random.default_rng(21)
    seeds = _EDGE_WORDS + [int(v) for v in gen.integers(0, 2**64 - 1, 192, dtype=np.uint64,
                                                        endpoint=True)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for stream in (0, 2**63 - 1, 2**64 - 1):
            keyed = StepGenerator([RngStream(s, stream) for s in seeds])
            for n, count in ((0, 10), (1, 13), (2, 1), (3, 4)):
                if n == 2:  # rows leave the stack, as aborted seeds do
                    keyed.seeds = keyed.seeds[1::2]
                if n:
                    keyed.step(n)
                expected = [RngStream(s, keyed.stream).generator().bit_generator.random_raw(count)
                            for s in keyed.seeds]
                assert np.array_equal(keyed.raw(count), np.array(expected))


@pytest.mark.parametrize("width", [2, 200])
def test_key_word_rounding_to_two_to_the_64_warns_only_when_a_key_uses_it(width):
    # 2^64 - 1 rounds to 2^64 in a pair with a stream below 2^63, not with one above
    seeds = [2**64 - 1] + list(range(1, width))
    keyed = StepGenerator([RngStream(s, 2**63) for s in seeds])
    low = next(n for n in range(1, 64) if oracles._child(2**63, n) < 2**63)
    high = next(n for n in range(1, 64) if 2**63 <= oracles._child(2**63, n) < 2**64 - 2**11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keyed.raw(3)
        keyed.step(high).raw(3)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
        words = keyed.step(low).raw(3)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
        fresh = RngStream(seeds[0], keyed.stream).generator().bit_generator.random_raw(3)
    assert np.array_equal(words[0], fresh)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
        keyed.generator(0)  # the per-row re-key that resistant noise takes


def _fresh_raw(seeds, stream, count):
    return np.array([RngStream(s, stream).generator().bit_generator.random_raw(count)
                     for s in seeds]).reshape(len(seeds), count)


def test_block_raw_words_equal_fresh_generators():
    # 700 rows of 1 Philox block each fill a pass in 5 steps, of 3 blocks in 1
    gen = np.random.default_rng(22)
    seeds = _EDGE_WORDS + [int(v) for v in gen.integers(0, 2**64 - 1, 690, dtype=np.uint64,
                                                        endpoint=True)]
    plan = [(1, 1), (2, 1), (5, 1), (6, 1), (7, 1),  # across a block boundary
            (8, 1), (9, 1),  # rows dropped before step 8, mid-block
            (10, 10), (11, 10), (12, 3), (13, 3),  # count changes, then past the horizon 12
            (4, 3)]  # back to an earlier step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for stream in (0, 2**63 - 1, 2**64 - 1):
            keyed = StepGenerator([RngStream(s, stream) for s in seeds], 12)
            for n, count in plan:
                if n == 8:
                    keyed.seeds = keyed.seeds[1::3]
                words = keyed.step(n).raw(count)
                assert np.array_equal(words, _fresh_raw(keyed.seeds, keyed.stream, count))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seeds=st.lists(_WORD, min_size=1, max_size=6), stream=_WORD, horizon=st.integers(0, 6),
       plan=st.lists(st.tuples(st.integers(-1, 8), st.sampled_from([1, 3, 4, 5, 13]),
                               st.booleans()), min_size=1, max_size=10))
def test_raw_words_at_any_step_sequence_equal_fresh_generators(seeds, stream, horizon, plan):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        keyed = StepGenerator([RngStream(s, stream) for s in seeds], horizon)
        for n, count, drop in plan:
            if drop and len(keyed.seeds) > 1:
                keyed.seeds = keyed.seeds[1:]
            if n >= 0:  # -1 stays at the current step
                keyed.step(n)
            assert np.array_equal(keyed.raw(count), _fresh_raw(keyed.seeds, keyed.stream, count))


def _resistant_case(progress, d=6):
    """A shift projection and a stack whose row i has progress[i] nonzero leading coordinates."""
    op = ShiftProjection(0.5, d)
    x = np.zeros((len(progress), d))
    for i, j in enumerate(progress):
        x[i, :j] = 0.25 + 0.01 * np.arange(j)
    return op, x


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seeds=st.lists(_WORD, min_size=1, max_size=5), stream=_WORD,
       p=st.sampled_from([0.04, 0.2, 0.5, 0.7, 0.96]) | st.floats(1e-4, 1 - 1e-4),
       k=st.integers(1, 200) | st.sampled_from([59, 60, 61, 750, 751, 10**6]),
       progress=st.lists(st.integers(0, 6), min_size=5, max_size=5))
@example(seeds=[3, 2**64 - 1, 2**63 + 1], stream=5, p=0.5, k=60, progress=[0, 6, 2, 5, 1])
@example(seeds=[3, 2**64 - 1, 2**63 + 1], stream=2**64 - 1, p=0.5, k=61, progress=[0, 6, 2, 5, 1])
@example(seeds=[2**63 + 2, 7], stream=2**63 - 1, p=0.96, k=749, progress=[1, 1, 6, 0, 3])
@example(seeds=[2**63 + 2, 7], stream=0, p=0.96, k=751, progress=[1, 1, 6, 0, 3])
def test_resistant_stack_draws_numpy_binomial_per_row(seeds, stream, p, k, progress):
    # rows at full progress (6) draw nothing; min(p, 1 - p) k <= 30 inverts, above it is BTPE
    op, x = _resistant_case(progress[:len(seeds)])
    tx = op.apply(x)
    noise = ResistantBernoulli(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        keyed = StepGenerator([RngStream(s, stream) for s in seeds], 3)
        for n in (1, 2, 3):
            out = noise.batch_mean(tx, x, k, keyed.step(n))
            for i, seed in enumerate(seeds):
                expected = tx[i].copy()
                j = progress[i]
                if j < x.shape[1]:
                    gen = np.random.Generator(np.random.Philox(key=[seed, keyed.stream]))
                    expected[j] = (int(gen.binomial(k, p)) / (k * p)) * tx[i, j]
                assert _same_bits(out[i], expected)


def test_resistant_draws_at_a_tiny_p_take_numpy_log1p():
    # at k p = 30 with p = 1e-12, exp(k log(1 - p)) and exp(k log1p(-p)) differ by 0.3%,
    # which moves a few of these 400 counts
    seeds = list(range(400))
    keyed = StepGenerator([RngStream(s, 7) for s in seeds])
    got = oracles._binomial(keyed, np.arange(len(seeds)), 3 * 10**13, 1e-12)
    expected = [RngStream(s, 7).generator().binomial(3 * 10**13, 1e-12) for s in seeds]
    assert got.tolist() == expected


def _buffered_generator(words):
    """A Generator whose next raw words are the four given ones."""
    bitgen = np.random.Philox(0)
    state = bitgen.state
    state["buffer"], state["buffer_pos"] = np.array(words, dtype=np.uint64), 0
    bitgen.state = state
    return np.random.Generator(bitgen)


class _CraftedWords:
    """Stands in for a StepGenerator whose rows' first raw words are given."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.generated = []

    def raw(self, count):
        return self.words[:, :count]

    def generator(self, row):
        self.generated.append(row)
        return _buffered_generator(self.words[row])


# word 2^64 - 1 gives U = 1 - 2^-53, which passes numpy's whole inversion table at these
# (k, p), so numpy restarts on the next word; the other rows stop within the table
@pytest.mark.parametrize("k, p", [(1, 0.3809289644822412), (2, 0.5007654218072691)])
def test_binomial_restart_draws_from_the_row_generator(k, p):
    words = [[2**64 - 1, 0, 5, 6], [0, 1, 2, 3], [2**63, 0, 0, 0],
             [2**64 - 1, 2**64 - 1, 2**63, 7], [2**64 - 2**11, 0, 0, 0]]
    crafted = _CraftedWords(words)
    got = oracles._binomial(crafted, np.arange(len(words)), k, p)
    expected, restarted = [], []
    for i, w in enumerate(words):
        gen = _buffered_generator(w)
        expected.append(gen.binomial(k, p))
        if gen.bit_generator.state["buffer_pos"] > 1:  # numpy read past the first word
            restarted.append(i)
    assert got.tolist() == expected
    # only the restarted rows draw from their generator
    assert crafted.generated == restarted and restarted[:2] == [0, 3] and 1 not in restarted


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(stream=_WORD, indices=st.lists(st.integers(0, 50) | _WORD, min_size=1, max_size=20))
def test_vectorised_splitmix_equals_child(stream, indices):
    got = oracles._children(stream, np.array(indices, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [oracles._child(stream, i) for i in indices]


@st.composite
def _transition_models(draw):
    """Row-stochastic (S, A, S) arrays, some with zero categories or a first one above 1/2."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_count, a_count = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    p = gen.dirichlet(np.full(s_count, draw(st.sampled_from([0.1, 1.0, 10.0]))),
                      size=(s_count, a_count))
    if draw(st.booleans()):  # zero some categories, never a whole row
        p[gen.uniform(size=p.shape) < 0.4] = 0.0
        p[..., -1] += p.sum(axis=-1) == 0.0
    if draw(st.booleans()):
        p[..., 0] += 2.0 * p[..., 1:].sum(axis=-1)
    return sf_mdp.TabularMDP(p / p.sum(axis=-1, keepdims=True), np.zeros(p.shape[:2])).transitions


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(p=_transition_models(), seed=_WORD, stream=_WORD, pass_words=st.sampled_from([48, 96, 400]),
       length=st.sampled_from([None, -1, 0, 1]))
@example(p=np.array([[[0.7, 0.0, 0.3]], [[0.0, 0.0, 1.0]], [[0.25, 0.25, 0.5]]]),
         seed=3, stream=2**64 - 1, pass_words=48, length=1)
@example(p=np.array([[[0.5, 0.5]], [[1.0, 0.0]]]), seed=2**63 - 1, stream=2**63,
         pass_words=96, length=0)
def test_replayed_counts_equal_numpy_multinomial(p, seed, stream, pass_words, length):
    # a block is B steps, the most whose words fit a pass; the run's horizon N is 1, or B
    # plus length
    count = p.size // p.shape[-1] * (p.shape[-1] - 1)  # no words for a one-state model
    block = max(1, pass_words // max(1, 4 * -(-count // 4)))
    N = 1 if length is None else max(1, block + length)
    rng = RngStream(seed, stream)
    with warnings.catch_warnings(), mock.patch.object(oracles, "_PASS_WORDS", pass_words):
        warnings.simplefilter("ignore", RuntimeWarning)
        keyed = StepGenerator([rng], N)
        first, counts = 1, ()
        for n in range(1, N + 1):
            if not n - first < len(counts):
                first, counts = oracles._multinomial_one(keyed, n, p)
                assert first == n and keyed.stream == rng.substream(n).stream
                assert len(counts) == min(block, N - n + 1)
            expected = rng.substream(n).generator().multinomial(1, p)
            assert counts.dtype == expected.dtype and counts[n - first, 0].shape == p.shape
            assert np.array_equal(counts[n - first, 0], expected)


class _CraftedBlock:
    """Stands in for a one-row StepGenerator whose steps' first raw words are given."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.n, self.generated = None, []

    def step(self, n):
        self.n = n
        return self

    def block(self, count):
        return 1, self.words[:, None, :count]

    def generator(self, row):
        assert row == 0
        self.generated.append(self.n)
        return _buffered_generator(self.words[self.n - 1])


def test_multinomial_restart_draws_from_the_step_generator():
    # pair (0, 0) at P_0 = 0.38...: word 2^64 - 1 passes numpy's whole inversion table,
    # so numpy restarts on the next word; pair (1, 0) reads the step's second word
    p = np.array([[[0.3809289644822412, 0.6190710355177588]], [[0.5, 0.5]]])
    words = [[2**64 - 1, 0, 5, 6], [0, 2**64 - 1, 2, 3], [2**64 - 1, 2**64 - 1, 2**63, 7],
             [2**63, 2**64 - 2**11, 0, 0], [2**64 - 1, 2**62, 9, 9]]
    crafted = _CraftedBlock(words)
    first, counts = oracles._multinomial_one(crafted, 1, p)
    expected, restarted = [], []
    for n, w in enumerate(words, start=1):
        gen = _buffered_generator(w)
        expected.append(gen.multinomial(1, p))
        if gen.bit_generator.state["buffer_pos"] > 2:  # numpy read past the step's two words
            restarted.append(n)
    assert first == 1 and np.array_equal(counts[:, 0], np.array(expected))
    assert restarted == [1, 3, 5]
    # only the restarted steps draw from their generator, and the replay leaves step 1 selected
    assert crafted.generated == restarted and crafted.n == 1


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_ndtri_matches_scipy_bit_for_bit():
    words = (np.array([0, 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64) << np.uint64(11))
    u = [oracles._uniform_open(words)]
    for edge in (math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), oracles._EXP_M2,
                 1.0 - oracles._EXP_M2):
        # both sides of each branch switch; x = 8 is u = exp(-32)
        steps = np.arange(-64, 65)
        u.append(edge + steps * np.spacing(edge))
    x = 8.0 + np.arange(-64, 65) * np.spacing(8.0)
    u.append(np.exp(-x * x / 2.0))
    raw = np.random.Philox(key=np.array([11, 12], dtype=np.uint64)).random_raw(1_000_000)
    u.append(oracles._uniform_open(raw))
    u = np.concatenate(u)
    assert ((u > 0.0) & (u < 1.0)).all()
    expected = scipy.special.ndtri(u)
    assert _same_bits(oracles._ndtri(u), expected)
    for size in (0, 1, 10):  # as a small stack draws
        assert _same_bits(oracles._ndtri(u[:size]), expected[:size])
    assert _same_bits(oracles._ndtri(u[:12].reshape(3, 4)), expected[:12].reshape(3, 4))


def test_uniform_endpoint_stays_below_one():
    top = np.uint64(2**53 - 1) << np.uint64(11)
    raw = np.array([top, top | np.uint64(2**11 - 1), np.uint64(2**53 - 2) << np.uint64(11), 0],
                   dtype=np.uint64)
    u = oracles._uniform_open(raw)
    assert u.tolist() == [1.0 - 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 2.0**-54]
    z = oracles._ndtri(u)
    assert np.isfinite(z).all() and z[0] > z[2] > 8.0
    assert _same_bits(z, scipy.special.ndtri(u))


def test_step_generator_stack_shares_one_stream():
    with pytest.raises(ValueError, match="share one stream"):
        StepGenerator([RngStream(1, 5), RngStream(2, 6)])


def test_rng_stream_determinism_and_substreams():
    a = RngStream(42, 7).generator().random(8)
    b = RngStream(42, 7).generator().random(8)
    np.testing.assert_array_equal(a, b)
    c = RngStream(42, 8).generator().random(8)
    assert not np.array_equal(a, c)
    s1 = RngStream(42).substream(3).generator().random(4)
    s2 = RngStream(42).substream(3).generator().random(4)
    s3 = RngStream(42).substream(4).generator().random(4)
    np.testing.assert_array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    # nested substreams differ from flat ones
    assert not np.array_equal(
        RngStream(42).substream(1, 2).generator().random(4),
        RngStream(42).substream(1).generator().random(4),
    )


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2 ** 64)
    RngStream(2 ** 64 - 1, 2 ** 64 - 1)  # boundary values allowed


def test_noiseless_query_is_exact():
    op = PlaneRotation(0.3)
    o = OracleDescriptor(op, NoNoise())
    x = np.array([0.2, -1.0])
    for k in (1, 7):
        np.testing.assert_array_equal(minibatch(o, x, k, RngStream(1)), op.apply(x))
    mean, second = empirical_moments(o, x, 10, RngStream(1))
    np.testing.assert_array_equal(mean, op.apply(x))
    assert second == 0.0


def test_query_determinism_bit_identical():
    o = _gaussian_oracle(e=0.3)
    x = np.array([1.0, 2.0, 3.0])
    q1 = minibatch(o, x, 1, RngStream(5, 1))
    q2 = minibatch(o, x, 1, RngStream(5, 1))
    np.testing.assert_array_equal(q1, q2)
    # a single query is T(x) + e * z, bit for bit (here T(x) = 0)
    np.testing.assert_array_equal(q1, 0.3 * standard_normal(RngStream(5, 1).generator(), 3))
    m1 = minibatch(o, x, 16, RngStream(5, 2))
    m2 = minibatch(o, x, 16, RngStream(5, 2))
    np.testing.assert_array_equal(m1, m2)


def test_resistant_requires_shift_projection():
    with pytest.raises(ValueError):
        OracleDescriptor(PlaneRotation(1.0), ResistantBernoulli(0.5))
    with pytest.raises(ValueError):
        ResistantBernoulli(0.0)
    with pytest.raises(ValueError):
        ResistantBernoulli(1.0)


def test_resistant_query_structure():
    lam, d, p = 0.2, 4, 0.25
    op = ShiftProjection(lam, d)
    o = OracleDescriptor(op, ResistantBernoulli(p))
    x = np.array([0.1, 0.05, 0.0, 0.0])  # progress 2, next coordinate index 2 (0-based)
    tx = op.apply(x)
    seen = set()
    for seed in range(400):
        out = minibatch(o, x, 1, RngStream(seed))
        np.testing.assert_array_equal(np.delete(out, 2), np.delete(tx, 2))
        assert out[2] in (0.0, pytest.approx(tx[2] / p))
        seen.add(out[2] != 0.0)
    assert seen == {True, False}  # both Bernoulli outcomes occur


def test_resistant_full_progress_returns_exact_value():
    lam, d = 0.2, 3
    op = ShiftProjection(lam, d)
    o = OracleDescriptor(op, ResistantBernoulli(0.1))
    x = np.array([0.1, 0.2, 0.05])  # progress == d
    for seed in range(20):
        np.testing.assert_array_equal(minibatch(o, x, 1, RngStream(seed)), op.apply(x))


def test_minibatch_rejects_k_zero():
    with pytest.raises(ValueError):
        minibatch(_gaussian_oracle(), np.zeros(3), 0, RngStream(0))


def test_gaussian_minibatch_variance_scaling():
    # estimator variance per coordinate is e^2/k = 1e-4 at e=1, k=10^4
    o = _gaussian_oracle(dim=2, e=1.0)
    x = np.zeros(2)
    reps = np.array([minibatch(o, x, 10_000, RngStream(1000 + r)) for r in range(1000)])
    var = reps.var(axis=0, ddof=1)
    assert (var > 0.00007).all() and (var < 0.00013).all()


def test_resistant_minibatch_unbiased():
    lam, d, p = 0.5, 4, 0.25
    op = ShiftProjection(lam, d)
    o = OracleDescriptor(op, ResistantBernoulli(p))
    x = np.array([0.3, 0.0, 0.0, 0.0])
    tx = op.apply(x)
    j = 1  # next coordinate (0-based)
    k = 5
    reps = np.array([minibatch(o, x, k, RngStream(r))[j] for r in range(100_000)])
    se = math.sqrt(tx[j] ** 2 * (1 - p) / (p * k) / reps.shape[0])
    assert abs(reps.mean() - tx[j]) <= 3 * se


def test_empirical_moments_gaussian_second_moment():
    o = _gaussian_oracle(dim=5, e=1.0)
    _, second = empirical_moments(o, np.zeros(5), 100_000, RngStream(3))
    assert second == pytest.approx(5.0, rel=0.05)


def test_empirical_moments_resistant_second_moment_bound():
    # with p = lam^2 / sigma^2 the squared error stays below sigma^2
    lam, sigma = 0.2, 1.0
    p = lam * lam / (sigma * sigma)
    op = ShiftProjection(lam, 10)
    o = OracleDescriptor(op, ResistantBernoulli(p))
    x = np.zeros(10)  # progress 0: the revealed coordinate is exactly lam
    m = 100_000
    _, second = empirical_moments(o, x, m, RngStream(4))
    exact = lam * lam * (1 - p) / p
    se = exact / math.sqrt(m)  # loose scale for the Monte Carlo error
    assert second <= sigma * sigma + 3 * se
    assert second == pytest.approx(exact, rel=0.1)


def test_unbiasedness_all_models_four_standard_errors():
    rng = np.random.default_rng(55)
    m = 100_000
    # gaussian on a rotation
    op = PlaneRotation(0.7)
    o = OracleDescriptor(op, AdditiveGaussianIID(0.5))
    for i in range(20):
        x = rng.normal(size=2) * 2
        mean, _ = empirical_moments(o, x, m, RngStream(600 + i))
        se = 0.5 / math.sqrt(m)
        assert np.abs(mean - op.apply(x)).max() <= 4 * se
    # resistant on the shift projection
    lam, p = 0.4, 0.2
    sp = ShiftProjection(lam, 5)
    ro = OracleDescriptor(sp, ResistantBernoulli(p))
    for i in range(20):
        x = np.zeros(5)
        npos = int(rng.integers(0, 4))
        x[:npos] = rng.uniform(0.05, lam, size=npos)
        mean, _ = empirical_moments(ro, x, m, RngStream(700 + i))
        tx = sp.apply(x)
        j = npos
        se = np.zeros(5)
        if j < 5:
            se[j] = math.sqrt(max(tx[j] ** 2 * (1 - p) / p, 1e-30) / m)
        assert np.abs(mean - tx).max() <= 4 * max(se.max(), 1e-15) + 1e-15


def test_variance_reduction_mu_over_sqrt_k():
    # ambient L1 mean error of a k-batch stays below 1.1 * mu * e1 / sqrt(k)
    d, e = 6, 0.8
    op = ConstantMap(np.zeros(d))
    o = OracleDescriptor(op, AdditiveGaussianIID(e))
    x = np.zeros(d)
    _, second = empirical_moments(o, x, 50_000, RngStream(8))
    e1 = math.sqrt(second)  # single-query L2 error scale
    mu = norm_equivalence_mu(L1, d)
    for k in (1, 4, 16, 64):
        errs = [
            norm(minibatch(o, x, k, RngStream(10_000 + 100 * k + r)) - op.apply(x), L1)
            for r in range(2000)
        ]
        assert np.mean(errs) <= 1.1 * mu * e1 / math.sqrt(k)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        minibatch(_gaussian_oracle(dim=3), np.zeros(2), 1, RngStream(0))
