"""Iteration engine: schedules, runs, error bounds, and query accounting."""

import math

import numpy as np
import pytest

import stochfp as sf


class TestStepSchedule:
    def test_classic_weights(self):
        s = sf.StepSchedule.halpern_classic()
        assert s.weight(0) == 0.0
        for n in range(1, 8):
            assert s.weight(n) == n / (n + 1)
        assert s.is_halpern

    def test_shifted_weights(self):
        s = sf.StepSchedule.halpern_shifted()
        for n in range(1, 8):
            assert s.weight(n) == n / (n + 2)
        assert s.is_halpern

    def test_weights_increase_to_one(self):
        s = sf.StepSchedule.halpern_classic()
        w = [s.weight(n) for n in range(1, 2001)]
        assert all(b > a for a, b in zip(w, w[1:]))
        assert w[-1] > 0.999

    def test_km_constant(self):
        s = sf.StepSchedule.km_constant(0.5)
        assert not s.is_halpern
        assert all(s.weight(n) == 0.5 for n in range(1, 5))

    def test_km_polynomial(self):
        s = sf.StepSchedule.km_polynomial(0.9)
        for n in (1, 2, 10):
            assert s.weight(n) == (n + 1.0) ** -0.9

    def test_km_constant_alpha_domain(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                sf.StepSchedule.km_constant(bad)

    def test_km_polynomial_exponent_domain(self):
        sf.StepSchedule.km_polynomial(1.0)  # boundary allowed
        for bad in (0.0, 1.2, -0.5):
            with pytest.raises(ValueError):
                sf.StepSchedule.km_polynomial(bad)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sf.StepSchedule.halpern_classic().weight(-1)


class TestBatchSchedule:
    def test_power_integer_exponent_exact(self):
        b = sf.BatchSchedule.power(4)
        for n in (1, 2, 3, 7, 1000):
            assert b.size(n) == n**4

    def test_power_fractional_exponent_ceiling(self):
        b = sf.BatchSchedule.power(1.5)
        assert b.size(2) == math.ceil(2.0**1.5) == 3
        assert b.size(1) == 1

    def test_power_zero_exponent_floor_one(self):
        b = sf.BatchSchedule.power(0)
        assert all(b.size(n) == 1 for n in (1, 5, 100))

    def test_constant(self):
        b = sf.BatchSchedule.constant(7)
        assert all(b.size(n) == 7 for n in (1, 2, 50))

    def test_power_six(self):
        b = sf.BatchSchedule.power_six()
        assert b.size(3) == 729
        assert b.size(10) == 10**6

    def test_geometric_taper(self):
        b = sf.BatchSchedule.contractive_geometric(0.5, 9)
        assert b.size(9) == 81  # full n^2 at the horizon
        assert b.size(5) == math.ceil(25 * 0.5**4) == 2
        assert b.size(1) == 1  # floored at one query

    def test_sizes_always_at_least_one(self):
        for b in (
            sf.BatchSchedule.power(0.1),
            sf.BatchSchedule.contractive_geometric(0.9, 300),
        ):
            assert min(b.size(n) for n in range(1, 60)) >= 1

    def test_sizes_beyond_the_float_range_are_value_errors(self):
        with pytest.raises(ValueError, match=r"n = 3 exceeds 2\^63 - 1"):
            sf.BatchSchedule.power(1000.5).size(3)
        with pytest.raises(ValueError, match=r"n = 2000 exceeds 2\^63 - 1"):
            sf.BatchSchedule.contractive_geometric(0.5, 1).size(2000)

    def test_integer_exponent_exact_only_below_two_to_the_64(self):
        assert sf.BatchSchedule.power(39).size(3) == 3**39  # above 2^53, below 2^63
        assert sf.BatchSchedule.power(63).size(2) == 2**63
        # 2^(10^18) would be a 10^18-bit integer; it is rejected without being built
        b = sf.BatchSchedule.power(1e18)
        assert b.size(1) == 1
        with pytest.raises(ValueError, match=r"n = 2 exceeds 2\^63 - 1"):
            b.size(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            sf.BatchSchedule.constant(0)
        with pytest.raises(ValueError):
            sf.BatchSchedule.power(-1.0)
        with pytest.raises(ValueError):
            sf.BatchSchedule.contractive_geometric(1.0, 10)
        with pytest.raises(ValueError):
            sf.BatchSchedule.contractive_geometric(0.5, 0)
        with pytest.raises(ValueError):
            sf.BatchSchedule.power(2).size(0)


class TestBounds:
    def test_nonexpansive_hand_values(self):
        # N=1: (1 + 1*(1/2) + 2*0) / 2
        assert sf.bound_nonexpansive(1.0, [0.0], 1) == 0.75
        # N=2, sigma_n = 1/n^2: (1 + (1/2 + 1/3) + 2*(1 + 2/4)) / 3
        got = sf.bound_nonexpansive(1.0, [1.0, 0.25], 2)
        assert got == pytest.approx((1 + 5 / 6 + 3) / 3, rel=1e-15)
        assert sf.bound_nonexpansive(0.0, np.zeros(10), 10) == 0.0

    def test_nonexpansive_validation(self):
        with pytest.raises(ValueError):
            sf.bound_nonexpansive(-1.0, [0.0], 1)
        with pytest.raises(ValueError):
            sf.bound_nonexpansive(1.0, [0.0], 2)  # sigma sequence too short
        with pytest.raises(ValueError):
            sf.bound_nonexpansive(1.0, [-0.1], 1)

    def test_contractive_hand_values(self):
        # (dist0 + 2 sigma) / ((1 - gamma) (N + 1))
        assert sf.bound_contractive(1.0, 1.0, 0.5, 9) == pytest.approx(0.6)
        assert sf.bound_contractive(0.0, 0.0, 0.9, 99) == 0.0
        assert sf.bound_contractive(2.0, 0.5, 0.9, 299) == pytest.approx(0.1)

    def test_contractive_validation(self):
        with pytest.raises(ValueError):
            sf.bound_contractive(-1.0, 0.0, 0.5, 9)
        with pytest.raises(ValueError):
            sf.bound_contractive(1.0, 0.0, 1.0, 9)

    def test_kappa_bar(self):
        assert sf.kappa_bar_bounded_range(2.0, np.zeros(3), sf.L2) == 2.0
        assert sf.kappa_bar_bounded_range(1.0, [3.0, 4.0], sf.L2) == 6.0
        with pytest.raises(ValueError):
            sf.kappa_bar_bounded_range(-0.5, np.zeros(2), sf.L2)

    def test_batch_exponent_h(self):
        assert sf.batch_exponent_h(4.0) == 5.0  # both branches agree at a=4
        assert sf.batch_exponent_h(3.0) == 8.0
        assert sf.batch_exponent_h(6.0) == 7.0
        assert sf.batch_exponent_h(2.5) == pytest.approx(14.0)
        for bad in (2.0, 1.0, -3.0):
            with pytest.raises(ValueError):
                sf.batch_exponent_h(bad)


def _noiseless(op):
    return sf.OracleDescriptor(op, sf.NoNoise())


class TestHalpernRun:
    def test_anchor_recursion_constant_map(self):
        # T == 0: x^n = (1 - beta_n) x^0 exactly, so the anchor never drifts.
        x0 = np.array([1.0, 0.0])
        o = _noiseless(sf.ConstantMap(np.zeros(2)))
        rec = sf.halpern_run(
            o, x0, sf.StepSchedule.halpern_classic(), sf.BatchSchedule.constant(1),
            40, sf.L2, sf.RngStream(0),
        )
        assert rec.steps() == 40
        for i, n in enumerate(rec.n):
            coef = 1.0 - n / (n + 1)
            assert rec.residual[i] == coef  # ||x - Tx|| = ||x||
        assert rec.final_x[0] == 1.0 - 40 / 41
        assert rec.final_x[1] == 0.0

    def test_first_step_halves_toward_target(self):
        o = _noiseless(sf.ConstantMap(np.zeros(2)))
        rec = sf.halpern_run(
            o, [1.0, 0.0], sf.StepSchedule.halpern_classic(),
            sf.BatchSchedule.constant(1), 1, sf.L2, sf.RngStream(3),
        )
        assert np.array_equal(rec.final_x, [0.5, 0.0])

    def test_identity_map_zero_residual(self):
        eye = np.eye(3)
        op = sf.AffineContraction(eye, np.zeros(3), 1.0)
        rec = sf.halpern_run(
            _noiseless(op), [0.3, -0.2, 0.9], sf.StepSchedule.halpern_classic(),
            sf.BatchSchedule.constant(2), 25, sf.L2, sf.RngStream(1),
        )
        assert np.all(rec.residual == 0.0)
        assert rec.dist_to_fp is None  # I - A singular: no declared fixed point

    def test_query_accounting_matches_schedule(self):
        o = _noiseless(sf.ShiftProjection(0.2, 4))
        rec = sf.halpern_run(
            o, np.zeros(4), sf.StepSchedule.halpern_classic(),
            sf.BatchSchedule.power(3), 40, sf.L1, sf.RngStream(5),
        )
        ks = np.arange(1, 41, dtype=np.int64) ** 3
        assert np.array_equal(rec.batch, ks)
        assert np.array_equal(rec.cum_queries, np.cumsum(ks))
        assert np.all(np.diff(rec.cum_queries) > 0)

    def test_query_count_beyond_int64_is_rejected_up_front(self):
        # sum of n^12 over n <= 60 is about 1.1e22 > 2^63 - 1
        o = _noiseless(sf.ShiftProjection(0.2, 4))
        with pytest.raises(ValueError, match="N = 60"):
            sf.halpern_run(
                o, np.zeros(4), sf.StepSchedule.halpern_classic(),
                sf.BatchSchedule.power(12), 60, sf.L1, sf.RngStream(0),
            )

    def test_noiseless_residual_beats_zero_noise_bound(self):
        op = sf.ShiftProjection(0.2, 10)
        rec = sf.halpern_run(
            _noiseless(op), np.zeros(10), sf.StepSchedule.halpern_classic(),
            sf.BatchSchedule.constant(1), 1000, sf.L1, sf.RngStream(7),
        )
        kb = sf.kappa_bar_bounded_range(op.range_bound(), np.zeros(10), sf.L1)
        cap = sf.bound_nonexpansive(kb, np.zeros(1000), 1000)
        assert rec.residual[-1] <= cap
        assert rec.residual[-1] <= 2.5e-4  # observed 2.0e-4

    def test_rotation_residual_has_log_over_n_shape(self):
        # Fit c on res ~ c log(n)/n over [100, 1000]; the endpoint obeys the
        # fitted curve within a factor of two.
        op = sf.PlaneRotation(math.pi / 2)
        rec = sf.halpern_run(
            _noiseless(op), [1.0, 0.0], sf.StepSchedule.halpern_classic(),
            sf.BatchSchedule.constant(1), 1000, sf.L2, sf.RngStream(0),
        )
        win = (rec.n >= 100) & (rec.n <= 1000)
        cs = rec.residual[win] * rec.n[win] / np.log(rec.n[win])
        c = float(np.median(cs))
        predicted = c * math.log(1000) / 1000
        assert predicted / 2 <= rec.residual[-1] <= predicted * 2

    def test_stochastic_decay_across_seeds(self):
        # Fourth-power batches make the noise term summable; later iterates
        # should beat early ones in nearly every run.
        op = sf.ShiftProjection(0.2, 10)
        o = sf.OracleDescriptor(op, sf.AdditiveGaussianIID(1.0 / math.sqrt(10)))
        wins = 0
        for seed in range(1, 51):
            rec = sf.halpern_run(
                o, np.zeros(10), sf.StepSchedule.halpern_classic(),
                sf.BatchSchedule.power(4), 2000, sf.L1, sf.RngStream(seed),
            )
            wins += rec.residual[1999] < rec.residual[199]
        assert wins >= 48

    def test_aborts_on_non_finite_minibatch(self):
        o = sf.OracleDescriptor(sf.ShiftProjection(0.2, 8), sf.AdditiveGaussianIID(1e308))
        with np.errstate(over="ignore"):
            rec = sf.halpern_run(
                o, np.zeros(8), sf.StepSchedule.halpern_classic(),
                sf.BatchSchedule.constant(1), 10, sf.L2, sf.RngStream(0),
            )
        assert rec.aborted
        assert "non-finite" in rec.abort_reason
        assert rec.steps() < 10
        assert np.isfinite(rec.final_x).all()  # last good iterate is returned

    def test_rejects_km_schedule_and_bad_inputs(self):
        o = _noiseless(sf.ShiftProjection(0.2, 4))
        with pytest.raises(ValueError):
            sf.halpern_run(
                o, np.zeros(4), sf.StepSchedule.km_constant(0.5),
                sf.BatchSchedule.constant(1), 5, sf.L1, sf.RngStream(0),
            )
        with pytest.raises(ValueError):
            sf.halpern_run(
                o, np.zeros(4), sf.StepSchedule.halpern_classic(),
                sf.BatchSchedule.constant(1), 0, sf.L1, sf.RngStream(0),
            )
        with pytest.raises(ValueError):
            sf.halpern_run(
                o, np.zeros(3), sf.StepSchedule.halpern_classic(),
                sf.BatchSchedule.constant(1), 5, sf.L1, sf.RngStream(0),
            )


class TestKMRun:
    def test_hand_recursion_constant_alpha(self):
        # T == 0, alpha = 1/2: x^n = x^{n-1}/2, exact in binary floats.
        o = _noiseless(sf.ConstantMap(np.zeros(1)))
        rec = sf.km_run(o, [1.0], sf.StepSchedule.km_constant(0.5), 3, sf.L2, sf.RngStream(0))
        assert rec.final_x[0] == 0.125
        assert np.array_equal(rec.residual, [0.5, 0.25, 0.125])

    def test_one_query_per_step(self):
        o = _noiseless(sf.ShiftProjection(0.2, 4))
        rec = sf.km_run(o, np.zeros(4), sf.StepSchedule.km_constant(0.5), 30, sf.L1, sf.RngStream(2))
        assert np.array_equal(rec.batch, np.ones(30, dtype=np.int64))
        assert np.array_equal(rec.cum_queries, np.arange(1, 31))

    def test_square_root_rate_on_nonexpansive_map(self):
        # The averaged baseline stalls at the square-root rate on a map where
        # the anchored iteration achieves nearly 1/n.
        d = 400
        op = sf.ShiftProjection(1.0, d)
        x0 = np.full(d, 0.5)
        x0[0] = 1.0
        rec = sf.km_run(
            _noiseless(op), x0, sf.StepSchedule.km_constant(0.5), 10_000, sf.L1,
            sf.RngStream(0),
        )
        fit = sf.fit_rate(rec.n, rec.residual, (100, 10_000))
        assert -0.6 <= fit.slope <= -0.4
        assert fit.r_squared >= 0.99

    def test_aborts_on_non_finite_query(self):
        o = sf.OracleDescriptor(sf.ShiftProjection(0.2, 8), sf.AdditiveGaussianIID(1e308))
        with np.errstate(over="ignore"):
            rec = sf.km_run(o, np.zeros(8), sf.StepSchedule.km_constant(0.5), 10,
                            sf.L2, sf.RngStream(0))
        assert rec.aborted
        assert "non-finite" in rec.abort_reason

    def test_rejects_halpern_schedule(self):
        o = _noiseless(sf.ShiftProjection(0.2, 4))
        with pytest.raises(ValueError):
            sf.km_run(o, np.zeros(4), sf.StepSchedule.halpern_classic(), 5, sf.L1,
                      sf.RngStream(0))


class TestReproducibility:
    def test_same_stream_same_trace(self):
        op = sf.ShiftProjection(0.2, 6)
        o = sf.OracleDescriptor(op, sf.AdditiveGaussianIID(0.3))
        args = (
            o, np.zeros(6), sf.StepSchedule.halpern_classic(),
            sf.BatchSchedule.power(2), 50, sf.L1,
        )
        a = sf.halpern_run(*args, sf.RngStream(11))
        b = sf.halpern_run(*args, sf.RngStream(11))
        c = sf.halpern_run(*args, sf.RngStream(12))
        assert np.array_equal(a.final_x, b.final_x)
        assert np.array_equal(a.residual, b.residual)
        assert not np.array_equal(a.final_x, c.final_x)


class _CountingShift(sf.ShiftProjection):
    """A shift-projection that counts its exact evaluations."""

    def __init__(self, lam, dim):
        super().__init__(lam, dim)
        self.calls = 0

    def apply(self, x):
        self.calls += 1
        return super().apply(x)


class TestExactEvaluations:
    """One exact T per step, plus one at x^0: the carried T(x^n) is never recomputed."""

    @pytest.mark.parametrize(
        "noise", [sf.NoNoise(), sf.AdditiveGaussianIID(0.3), sf.ResistantBernoulli(0.3)]
    )
    def test_halpern_and_km_runs_apply_n_plus_one_times(self, noise):
        for run in (
            lambda o: sf.halpern_run(o, np.zeros(6), sf.StepSchedule.halpern_classic(),
                                     sf.BatchSchedule.power(2), 40, sf.L1, sf.RngStream(3)),
            lambda o: sf.km_run(o, np.zeros(6), sf.StepSchedule.km_constant(0.5), 40, sf.L1,
                                sf.RngStream(3)),
        ):
            op = _CountingShift(0.2, 6)
            rec = run(sf.OracleDescriptor(op, noise))
            assert rec.steps() == 40
            assert op.calls == 41

    def test_aborted_run_applies_fewer_times(self, monkeypatch):
        # a row that aborts steps on to the end of its block of steps, then stops
        monkeypatch.setattr(sf.engine, "_BLOCK", 4)
        op = _CountingShift(0.2, 8)
        o = sf.OracleDescriptor(op, sf.AdditiveGaussianIID(1e308))
        with np.errstate(over="ignore"):
            rec = sf.km_run(o, np.zeros(8), sf.StepSchedule.km_constant(0.5), 10, sf.L2,
                            sf.RngStream(0))
        assert rec.aborted
        block_end = -(-(rec.steps() + 1) // 4) * 4  # the last step of the block that failed
        assert op.calls <= min(11, block_end + 1)

    @pytest.mark.parametrize("kind, batches, alpha", [
        ("halpern-classic", sf.BatchSchedule.power(4), 0.0),
        ("km-constant", sf.BatchSchedule.constant(1), 0.5),
    ])
    def test_run_adversarial_applies_steps_plus_one_times(self, monkeypatch, kind, batches, alpha):
        inst = sf.build_instance(0.1, 2.0, 1.0)
        op = _CountingShift(inst.lam, inst.d)
        monkeypatch.setattr(sf.AdversarialInstance, "operator", lambda self: op)
        tr = sf.run_adversarial(inst, sf.SpanAlgorithm(kind, batches, alpha=alpha),
                                sf.RngStream(1))
        assert tr.steps() > 1
        assert op.calls == tr.steps() + 1

    def test_run_adversarial_finds_each_iterates_front_once(self, monkeypatch):
        # the draw at x^{n-1} reads the prog column the stack already holds
        calls = []

        def counting(x):
            calls.append(1)
            return sf.linalg.last_nonzero_index(x)

        for module in (sf.engine, sf.oracles):
            monkeypatch.setattr(module, "last_nonzero_index", counting)
        tr = sf.run_adversarial(sf.build_instance(0.1, 2.0, 1.0),
                                sf.SpanAlgorithm("km-constant", sf.BatchSchedule.constant(1),
                                                 alpha=0.5), sf.RngStream(1))
        assert tr.steps() > 1
        assert len(calls) == tr.steps() + 1

    @pytest.mark.parametrize("noise", [sf.NoNoise(), sf.AdditiveGaussianIID(0.5)])
    def test_vector_runs_do_not_track_the_front(self, monkeypatch, noise):
        # only resistant noise reads prog, so other stacks neither compute nor keep it
        calls = []

        def counting(x):
            calls.append(1)
            return sf.linalg.last_nonzero_index(x)

        for module in (sf.engine, sf.oracles):
            monkeypatch.setattr(module, "last_nonzero_index", counting)
        o = sf.OracleDescriptor(sf.ShiftProjection(0.2, 6), noise)
        t = sf.iterate_stack(o, np.zeros(6), sf.StepSchedule.halpern_classic().weight,
                             sf.BatchSchedule.power(2).size, 8, sf.L1,
                             [sf.RngStream(seed, 3) for seed in range(4)], anchored=True)
        assert t.prog is None and t.steps == [8] * 4
        assert calls == []
