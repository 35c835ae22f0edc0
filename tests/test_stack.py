"""Seed-stacked runs against a per-seed reference loop, bit for bit.

halpern_run, km_run, run_adversarial and the Q-learning runners are stacks
of one of the code under test, so the reference here is written out
separately: one seed at a time, 1-D arithmetic, a fresh generator per step
built from RngStream(seed, stream).substream(n), numpy's own norms, and
Generator.integers for the Gaussian bits. Q-learning rows are held against
test_mdp's _ref_q_run.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from test_mdp import _assert_run_matches, _ref_q_run

import stochfp as sf
from stochfp import engine, mdp

_EDGE_SEEDS = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
_SEEDS = st.lists(st.sampled_from(_EDGE_SEEDS) | st.integers(0, 2**64 - 1), min_size=1, max_size=6)
_STREAMS = st.sampled_from(_EDGE_SEEDS) | st.integers(0, 2**64 - 1)
_NORMS = st.sampled_from([sf.L1, sf.L2, sf.LINF, sf.lp(1.5), sf.lp(2.0), sf.lp(3.7)])


def _ref_norm(v, kind) -> float:
    if not np.isfinite(v).all():
        return math.inf
    if kind.tag == "l1":
        return float(np.abs(v).sum())
    if kind.tag == "l2":
        return float(np.linalg.norm(v))
    if kind.tag == "linf":
        return float(np.abs(v).max())
    return float(np.linalg.norm(v, ord=kind.p))


def _ref_apply(op, x):
    if isinstance(op, sf.AffineContraction):
        return op.matrix @ x + op.offset
    if isinstance(op, sf.PlaneRotation):
        c, s = np.cos(op.theta), np.sin(op.theta)
        out = x.copy()
        out[0] = c * x[0] - s * x[1]
        out[1] = s * x[0] + c * x[1]
        return out
    if isinstance(op, sf.ShiftProjection):
        y = np.clip(x, 0.0, op.lam)
        out = np.empty_like(y)
        out[0] = op.lam - y[-1]
        out[1:] = y[:-1]
        return out
    return op.target.copy()


def _ref_draw(noise, tx, x, k, stream):
    if isinstance(noise, sf.AdditiveGaussianIID) and noise.e != 0.0:
        r = stream.generator().integers(0, 1 << 53, size=x.shape[0], dtype=np.uint64)
        z = ndtri((r.astype(np.float64) + 0.5) * (2.0 ** -53))
        return tx + noise.e / np.sqrt(float(k)) * z
    if isinstance(noise, sf.ResistantBernoulli):
        nz = np.flatnonzero(x)
        j = 0 if nz.size == 0 else int(nz[-1]) + 1
        if j < x.shape[0]:
            out = tx.copy()
            successes = int(stream.generator().binomial(int(k), noise.p))
            out[j] = (successes / (k * noise.p)) * tx[j]
            return out
    return tx


def _ref_vector_run(o, x0, weight, size, N, kind, rng, anchored):
    """(rows of (n, weight, k, cum, residual, dist, noise), final x, abort reason) of one seed."""
    target = o.base.fixed_point_info().point
    x, tx, cum, rows = x0.copy(), _ref_apply(o.base, x0), 0, []
    for n in range(1, N + 1):
        k, w = size(n), weight(n)
        y = _ref_draw(o.noise, tx, x, k, rng.substream(n))
        x_new = (1.0 - w) * (x0 if anchored else x) + w * y
        if not np.isfinite(x_new).all():
            return rows, x, f"non-finite iterate at step {n}"
        e = _ref_norm(y - tx, kind)
        tx = _ref_apply(o.base, x_new)
        res = _ref_norm(x_new - tx, kind)
        d = None if target is None else _ref_norm(x_new - target, kind)
        if not (math.isfinite(res) and math.isfinite(e) and (d is None or math.isfinite(d))):
            return rows, x, f"non-finite measurement at step {n}"
        cum += k
        rows.append((n, w, k, cum, res, d, e))
        x = x_new
    return rows, x, None


def _ref_adversarial(inst, algo, rng):
    """Columns n = 0.. of one seed's budget-stopped run, and its final x."""
    op, noise = inst.operator(), inst.oracle().noise
    schedule = algo.steps()
    x_star = np.full(inst.d, inst.lam / 2.0)
    x0 = np.zeros(inst.d)
    x, tx = x0.copy(), _ref_apply(op, x0)
    cols = [(0, 0, 0, _ref_norm(x - tx, sf.L1), 0.0, 0, 0.0, _ref_norm(x - x_star, sf.L1))]
    cum, n = 0, 0
    while True:
        n += 1
        k = algo.batches.size(n)
        if cum + k > inst.n_budget:
            break
        cum += k
        mb = _ref_draw(noise, tx, x, k, rng.substream(n))
        e = _ref_norm(mb - tx, sf.L1)
        w = schedule.weight(n)
        x = (1.0 - w) * (x0 if schedule.is_halpern else x) + w * mb
        x[np.abs(x) < 1e-300] = 0.0
        tx = _ref_apply(op, x)
        nz = np.flatnonzero(x)
        prog = 0 if nz.size == 0 else int(nz[-1]) + 1
        cols.append((n, prog, cum, _ref_norm(x - tx, sf.L1), w, k, e, _ref_norm(x - x_star, sf.L1)))
    return list(zip(*cols)), x


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_record_matches(rec, ref):
    rows, x, reason = ref
    n, w, k, cum, res, d, e = zip(*rows) if rows else ((),) * 7
    assert rec.n.tolist() == list(n)
    assert _bits(rec.weight) == _bits(w)
    assert rec.batch.tolist() == list(k) and rec.cum_queries.tolist() == list(cum)
    assert _bits(rec.residual) == _bits(res)
    assert _bits(rec.noise_norm) == _bits(e)
    if rec.dist_to_fp is None:
        assert all(v is None for v in d)
    else:
        assert _bits(rec.dist_to_fp) == _bits(d)
    assert _bits(rec.final_x) == _bits(x)
    assert rec.aborted == (reason is not None) and rec.abort_reason == reason


@st.composite
def _oracles(draw):
    """An operator of every kind with every noise kind it takes, including e = 0."""
    kind = draw(st.sampled_from(["affine", "rotation", "shift", "constant"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    dim = draw(st.integers(2, 12) | st.just(150))  # 150 > the 128-term block of numpy sums
    if kind == "affine":
        a = gen.standard_normal((dim, dim))
        a *= draw(st.sampled_from([0.5, 1.0])) / np.abs(a).sum(axis=0).max()
        op = sf.AffineContraction(a, gen.standard_normal(dim), 1.0, sf.L1)
    elif kind == "rotation":
        op = sf.PlaneRotation(draw(st.floats(-4.0, 4.0)), dim)
    elif kind == "shift":
        op = sf.ShiftProjection(draw(st.sampled_from([0.2, 1.0])), dim)
    else:
        op = sf.ConstantMap(gen.standard_normal(dim) * draw(st.sampled_from([1.0, 1e307])))
    noises = [sf.NoNoise(), sf.AdditiveGaussianIID(0.0), sf.AdditiveGaussianIID(0.3),
              sf.AdditiveGaussianIID(1e308)]
    if kind == "shift":
        noises.append(sf.ResistantBernoulli(draw(st.sampled_from([0.05, 0.5]))))
    x0 = gen.standard_normal(dim) * draw(st.sampled_from([0.1, 1.0, 1e307]))
    return sf.OracleDescriptor(op, draw(st.sampled_from(noises))), x0


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(oracle=_oracles(), norm=_NORMS, seeds=_SEEDS, stream=_STREAMS, N=st.integers(1, 8),
       method=st.sampled_from(["halpern-constant", "halpern-power", "km"]))
def test_stacked_vector_rows_equal_per_seed_runs(oracle, norm, seeds, stream, N, method):
    o, x0 = oracle
    rngs = [sf.RngStream(s, stream) for s in seeds]
    with np.errstate(all="ignore"):
        if method == "km":
            steps = sf.StepSchedule.km_constant(0.5)
            records = sf.km_runs(o, x0, steps, N, norm, rngs)
            size = sf.BatchSchedule.constant(1).size
        else:
            steps = sf.StepSchedule.halpern_classic()
            batches = sf.BatchSchedule.constant(3) if method == "halpern-constant" else \
                sf.BatchSchedule.power(2.5)
            records = sf.halpern_runs(o, x0, steps, batches, N, norm, rngs)
            size = batches.size
        refs = [_ref_vector_run(o, x0, steps.weight, size, N, norm, r, method != "km")
                for r in rngs]
    assert len(records) == len(rngs)
    for rec, ref in zip(records, refs):
        _assert_record_matches(rec, ref)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(eps_kappa=st.sampled_from([(0.1, 2.0), (0.2, 1.0), (0.15, 0.9), (0.1, 0.6)]),
       algo=st.sampled_from([
           sf.SpanAlgorithm("halpern-classic", sf.BatchSchedule.power(2)),
           sf.SpanAlgorithm("halpern-classic", sf.BatchSchedule.constant(1)),
           sf.SpanAlgorithm("km-constant", sf.BatchSchedule.constant(1), alpha=0.5),
           sf.SpanAlgorithm("km-constant", sf.BatchSchedule.constant(2), alpha=0.3),
       ]),
       seeds=_SEEDS, stream=_STREAMS)
@example(eps_kappa=(0.1, 2.0), algo=sf.SpanAlgorithm("halpern-classic", sf.BatchSchedule.power(4)),
         seeds=[2**64 - 1, 2**63, 5], stream=2**64 - 1)
def test_stacked_adversarial_rows_equal_per_seed_runs(eps_kappa, algo, seeds, stream):
    inst = sf.build_instance(*eps_kappa, 1.0)
    rngs = [sf.RngStream(s, stream) for s in seeds]
    traces = sf.adversarial_runs(inst, algo, rngs)
    assert len(traces) == len(rngs)
    for tr, rng in zip(traces, rngs):
        (n, prog, cum, res, w, k, e, d), x = _ref_adversarial(inst, algo, rng)
        assert tr.n.tolist() == list(n) and tr.prog.tolist() == list(prog)
        assert tr.cum_queries.tolist() == list(cum) and tr.batch.tolist() == list(k)
        assert _bits(tr.residual) == _bits(res) and _bits(tr.weight) == _bits(w)
        assert _bits(tr.noise_norm) == _bits(e) and _bits(tr.dist_to_fp) == _bits(d)
        assert _bits(tr.final_x) == _bits(x)


def test_an_aborting_seed_leaves_the_rest_of_its_stack_running():
    # T = 1e308 with noise of std 3e307 overflows seed 6's iterate at step 3 only
    o = sf.OracleDescriptor(sf.ConstantMap([1e308, 1e308]), sf.AdditiveGaussianIID(3e307))
    x0 = np.array([-1e308, 1e308])
    steps, batches = sf.StepSchedule.halpern_classic(), sf.BatchSchedule.constant(1)
    rngs = [sf.RngStream(s, 0) for s in range(1, 8)]
    with np.errstate(all="ignore"):
        records = sf.halpern_runs(o, x0, steps, batches, 6, sf.L1, rngs)
        refs = [_ref_vector_run(o, x0, steps.weight, batches.size, 6, sf.L1, r, True)
                for r in rngs]
    assert [r.steps() for r in records] == [6, 6, 6, 6, 6, 2, 6]
    assert records[5].abort_reason == "non-finite iterate at step 3"
    for rec, ref in zip(records, refs):
        _assert_record_matches(rec, ref)



_Q_RUNNERS = ["halpern_q_discounted", "vanilla_q_discounted", "halpern_q_average",
              "benchmark_q_average", "rvi_q_learning"]


def _q_specs(name, m, N, gamma, f, a, v_star):
    """(_q_runs' keywords, _ref_q_run's) of one of the five Q-learning runners: the
    stack gets the maps the runner passes, the reference its own per-table ones."""
    r = m.rewards
    halpern = sf.StepSchedule.halpern_classic().weight
    if name in ("halpern_q_discounted", "vanilla_q_discounted"):
        q_star = sf.solve_discounted_exact(m, gamma)
        stacked = mdp._maps(m, gamma=gamma, q_star=q_star)
        ref = dict(target=lambda q, est: r + gamma * est, residual=lambda pm: r + gamma * pm,
                   scale=gamma, q_star=q_star)
        if name == "halpern_q_discounted":
            steps = dict(weight=halpern, anchored=True,
                         size=sf.BatchSchedule.contractive_geometric(gamma, N).size)
        else:
            steps = dict(weight=sf.StepSchedule.km_polynomial(0.7).weight, size=lambda n: 1,
                         anchored=False)
    else:
        anchor = None if name == "benchmark_q_average" else f
        stacked = mdp._maps(m, v_star=v_star, anchor=anchor)
        ref = dict(residual=lambda pm: (r + pm) - v_star,
                   target=lambda q, est: r + est - (v_star if anchor is None else f.value(q)))
        if name == "rvi_q_learning":
            steps = dict(weight=sf.StepSchedule.km_polynomial(a).weight, size=lambda n: 1,
                         anchored=False)
        else:
            steps = dict(weight=halpern, size=lambda n: n ** 6, anchored=True)
    return dict(stacked, **steps), dict(ref, **steps)


@st.composite
def _q_models(draw):
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_count, a_count = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    p = gen.dirichlet(np.full(s_count, draw(st.sampled_from([0.1, 1.0, 10.0]))),
                      size=(s_count, a_count))
    m = sf.TabularMDP(p, gen.uniform(size=(s_count, a_count)))
    gamma = draw(st.sampled_from([0.5, 0.9]))
    kind = draw(st.sampled_from(["max", "min", "mean", "coordinate"]))
    f = sf.AnchorFunction(kind, draw(st.integers(0, s_count - 1)), draw(st.integers(0, a_count - 1)))
    q0 = gen.uniform(-1.0, 1.0, size=(s_count, a_count)) * (m.r_max / (1.0 - gamma))
    return m, q0, dict(gamma=gamma, f=f, a=draw(st.sampled_from([0.81, 1.0])),
                       v_star=float(gen.uniform(0.0, 1.0)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(model=_q_models(), name=st.sampled_from(_Q_RUNNERS), seeds=_SEEDS, stream=_STREAMS,
       N=st.integers(1, 12), block=st.sampled_from([1, 2, 5, engine._BLOCK]))
@example(model=(sf.TabularMDP(np.full((2, 1, 2), 0.5), np.ones((2, 1))), np.zeros((2, 1)),
                dict(gamma=0.9, f=sf.AnchorFunction("mean"), a=1.0, v_star=0.5)),
         name="rvi_q_learning", seeds=[2**64 - 1, 2**63 - 1, 2**63 + 1, 2**63, 0, 1],
         stream=2**64 - 1, N=12, block=5)
def test_stacked_q_rows_equal_per_seed_runs(model, name, seeds, stream, N, block):
    m, q0, kw = model
    stacked, ref = _q_specs(name, m, N, **kw)
    rngs = [sf.RngStream(s, stream) for s in seeds]
    with mock.patch.object(engine, "_BLOCK", block):
        runs = mdp._q_runs(m, q0, N, rngs, **stacked)
    assert len(runs) == len(rngs)
    for run, rng in zip(runs, rngs):
        _assert_run_matches(run, _ref_q_run(m, q0, N, rng, **ref))


def test_q_rows_abort_at_their_first_failure_in_a_block():
    # Q^n = 2 est - Q^{n-1} from (3e306, -3e306, 0), measured against T Q = 4 P max Q:
    # seed 10 fails its measurement at step 9, seed 20 its iterate check at step 9, and
    # seed 4 its measurement at step 9 and its iterate check at step 10; seeds 5, 9 and
    # 13 run to N = 12, and all 12 steps are one block
    p = np.array([[[0.5, 0.3, 0.2]], [[0.2, 0.5, 0.3]], [[0.3, 0.2, 0.5]]])
    m = sf.TabularMDP(p, np.zeros((3, 1)))
    q0 = np.array([[3e306], [-3e306], [0.0]])
    spec = dict(target=lambda q, est: est, residual=lambda pm: 4.0 * pm, weight=lambda n: 2.0,
                size=lambda n: 1, anchored=False)
    rngs = [sf.RngStream(s, 7) for s in (5, 10, 9, 20, 4, 13)]
    with np.errstate(all="ignore"):
        runs = mdp._q_runs(m, q0, 12, rngs, **spec)
        refs = [_ref_q_run(m, q0, 12, rng, **spec) for rng in rngs]
        # seed 4 measured against a map that cannot overflow meets its iterate check at 10
        alone = mdp._q_runs(m, q0, 12, [rngs[4]], **dict(spec, residual=lambda pm: 0.0 * pm))
    assert alone[0][1].abort_reason == "non-finite iterate at step 10"
    assert [rec.abort_reason for _, rec in runs] == [
        None, "non-finite measurement at step 9", None, "non-finite iterate at step 9",
        "non-finite measurement at step 9", None]
    assert [rec.steps() for _, rec in runs] == [12, 8, 12, 8, 8, 12]
    for run, ref in zip(runs, refs):
        _assert_run_matches(run, ref)


# Block edges: each stack's rows all fail between steps 6 and 11 of N = 20, row 0
# at step 9: the first step of a block of 4, the last of a block of 3, and with
# blocks of 16 every row fails inside the first block, which steps on to its end.
_EDGE_BLOCKS = [3, 4, 16]


def _failing_stack(kind):
    """(oracle, x0, step schedule, norm, seeds) of a stack whose rows all abort."""
    halpern = sf.StepSchedule.halpern_classic()
    if kind == "gaussian":  # T = 1e308 with noise of std 3e307
        o = sf.OracleDescriptor(sf.ConstantMap([1e308, 1e308]), sf.AdditiveGaussianIID(3e307))
        return o, np.array([-1e308, 1e308]), halpern, sf.L1, [26, 27, 9, 8]
    if kind == "resistant":  # the first increment of coordinate 0, at least 10 lam, overflows
        o = sf.OracleDescriptor(sf.ShiftProjection(1e308, 3), sf.ResistantBernoulli(0.1))
        return o, np.zeros(3), halpern, sf.LINF, [5, 7, 9, 8]
    # x^n = x^{n-1} + 5e306 and T x^n = x^n + 1e307: without noise T x^n overflows a
    # step before x^{n+1} does, so the residual is what fails
    o = sf.OracleDescriptor(sf.AffineContraction(np.eye(2), [1e307, 0.0], 1.0, sf.L1),
                            sf.NoNoise())
    x0 = np.array([np.finfo(np.float64).max - 10.5 * 0.5e307, 1.0])
    return o, x0, sf.StepSchedule.km_constant(0.5), sf.L1, [1, 2]


@pytest.mark.parametrize("block", _EDGE_BLOCKS)
@pytest.mark.parametrize("kind", ["gaussian", "resistant", "none"])
def test_vector_rows_abort_at_block_edges(kind, block):
    o, x0, steps, norm, seeds = _failing_stack(kind)
    one = sf.BatchSchedule.constant(1)
    rngs = [sf.RngStream(s, 0) for s in seeds]
    with np.errstate(all="ignore"), mock.patch.object(engine, "_BLOCK", block):
        if steps.is_halpern:
            records = sf.halpern_runs(o, x0, steps, one, 20, norm, rngs)
        else:
            records = sf.km_runs(o, x0, steps, 20, norm, rngs)
        refs = [_ref_vector_run(o, x0, steps.weight, one.size, 20, norm, r, steps.is_halpern)
                for r in rngs]
    what = "measurement" if kind == "none" else "iterate"
    assert records[0].abort_reason == f"non-finite {what} at step 9"
    assert all(6 <= rec.steps() + 1 <= 11 for rec in records)
    for rec, ref in zip(records, refs):
        _assert_record_matches(rec, ref)


@pytest.mark.parametrize("block", _EDGE_BLOCKS)
@pytest.mark.parametrize("tail", [False, True])
def test_q_rows_abort_at_block_edges(block, tail):
    # Q^n = 2 Q^{n-1} on the one-state self-loop first reaches 2^1024 at step 9, from
    # a batch of one or, in the geometric taper's tail, k_9 = ceil(81 * 0.75^11) = 4
    m = sf.TabularMDP(np.ones((1, 1, 1)), np.ones((1, 1)))
    size = sf.BatchSchedule.contractive_geometric(0.75, 20).size if tail else (lambda n: 1)
    spec = dict(target=lambda q, est: 2.0 * est, residual=lambda pm: 0.5 * pm,
                weight=lambda n: 1.0, size=size, anchored=False)
    q0 = np.array([[2.0 ** 1015]])
    rngs = [sf.RngStream(s, 5) for s in (3, 4)]
    with np.errstate(all="ignore"), mock.patch.object(engine, "_BLOCK", block):
        runs = mdp._q_runs(m, q0, 20, rngs, **spec)
        refs = [_ref_q_run(m, q0, 20, rng, **spec) for rng in rngs]
    assert (size(9) > 1) == tail
    assert [rec.abort_reason for _, rec in runs] == ["non-finite iterate at step 9"] * 2
    for run, ref in zip(runs, refs):
        _assert_run_matches(run, ref)


@pytest.mark.parametrize("block", [3, 4])
def test_q_rows_abort_at_their_first_failure_at_block_edges(block):
    # test_q_rows_abort_at_their_first_failure_in_a_block's stack, with its failures
    # at step 9 on the first step of a block of 4 and the last of a block of 3
    p = np.array([[[0.5, 0.3, 0.2]], [[0.2, 0.5, 0.3]], [[0.3, 0.2, 0.5]]])
    m = sf.TabularMDP(p, np.zeros((3, 1)))
    q0 = np.array([[3e306], [-3e306], [0.0]])
    spec = dict(target=lambda q, est: est, residual=lambda pm: 4.0 * pm, weight=lambda n: 2.0,
                size=lambda n: 1, anchored=False)
    rngs = [sf.RngStream(s, 7) for s in (5, 10, 9, 20, 4, 13)]
    with np.errstate(all="ignore"), mock.patch.object(engine, "_BLOCK", block):
        runs = mdp._q_runs(m, q0, 12, rngs, **spec)
        refs = [_ref_q_run(m, q0, 12, rng, **spec) for rng in rngs]
    assert [rec.steps() for _, rec in runs] == [12, 8, 12, 8, 8, 12]
    for run, ref in zip(runs, refs):
        _assert_run_matches(run, ref)


def test_runs_warn_of_a_key_word_that_rounds_to_two_to_the_64():
    # the seed 2^64 - 1 in a key with a stream below 2^63 rounds to 2^64, which
    # numpy's cast warns of, as for a fresh generator; a run's steps hide nothing of it
    m = sf.TabularMDP(np.full((2, 1, 2), 0.5), np.ones((2, 1)))
    o = sf.OracleDescriptor(sf.ShiftProjection(0.2, 4), sf.AdditiveGaussianIID(0.3))
    rng = sf.RngStream(2**64 - 1, 2**63)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
        sf.vanilla_q_discounted(m, 0.9, lambda n: 0.5, np.zeros((2, 1)), 20, rng)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
        sf.halpern_run(o, np.zeros(4), sf.StepSchedule.halpern_classic(),
                       sf.BatchSchedule.constant(1), 20, sf.L1, rng)
