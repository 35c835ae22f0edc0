"""Adversarial lab: instance derivation, the residual witness, and traces."""

import numpy as np
import pytest
import scipy.stats

import stochfp as sf


class TestBuildInstance:
    def test_reference_instance(self):
        inst = sf.build_instance(0.1, 2.0, 1.0)
        assert inst.lam == 0.2
        assert inst.d == 10
        assert inst.p == pytest.approx(0.04)
        assert inst.n_budget == 124

    def test_tiny_instance(self):
        inst = sf.build_instance(0.25, 1.0, 1.0)
        assert (inst.lam, inst.d) == (0.5, 2)
        assert inst.p == 0.25
        assert inst.n_budget == 3  # d/(2p) = 4, so N = 3 < 4 <= 4

    def test_budget_brackets_query_ratio(self):
        for eps, kb, sig in [(0.1, 2.0, 1.0), (0.05, 3.0, 1.0), (0.02, 1.0, 0.5)]:
            inst = sf.build_instance(eps, kb, sig)
            q = inst.d / (2.0 * inst.p)
            assert inst.n_budget < q <= inst.n_budget + 1 + 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.build_instance(0.5, 2.0, 1.0)  # epsilon not below sigma/2
        with pytest.raises(ValueError):
            sf.build_instance(-0.1, 2.0, 1.0)
        with pytest.raises(ValueError):
            sf.build_instance(0.1, 0.1, 1.0)  # kappa_bar below 2 epsilon

    def test_overflowing_derivations_are_value_errors(self):
        with pytest.raises(ValueError, match="derived dimension"):
            sf.build_instance(1e-10, 1e308, 1.0)  # kappa_bar / lam is inf
        with pytest.raises(ValueError, match="derived query budget"):
            sf.build_instance(1e-100, 1e200, 1.0)  # d / (2p) is inf

    def test_dimension_beyond_the_cap_is_a_value_error(self):
        # kappa_bar / (2 epsilon) = 5e12 coordinates would need 36 TiB per vector
        with pytest.raises(ValueError, match=r"derived dimension d = 5000000000000 exceeds the cap"):
            sf.build_instance(0.1, 1e12, 1.0)
        assert sf.build_instance(0.1, 2e6, 1.0).d == 10**7  # the cap itself is allowed

    def test_instance_oracle_wiring(self):
        inst = sf.build_instance(0.1, 2.0, 1.0)
        op = inst.operator()
        assert isinstance(op, sf.ShiftProjection)
        assert (op.lam, op.dim) == (inst.lam, inst.d)
        assert isinstance(inst.oracle().noise, sf.ResistantBernoulli)


class TestProg:
    def test_examples(self):
        assert sf.prog(np.zeros(4)) == 0
        assert sf.prog([0.1, 0.0, 0.0]) == 1
        assert sf.prog([0.1, -0.3, 0.0]) == 2
        assert sf.prog([0.0, 0.0, 1e-200]) == 3


class TestPhi:
    def test_hand_values(self):
        assert sf.phi([0.5], 1, 1.0) == 1.0
        assert sf.phi([-1.0, 0.0], 1, 1.0) == 2.0
        assert sf.phi([0.5, 0.2], 2, 1.0) == pytest.approx(1.0)
        # overshoot above lam is clamped before the telescoping terms
        assert sf.phi([1.5, 0.2], 2, 1.0) == pytest.approx(0.5 + 0.8 + 0.2)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.phi([0.1, 0.2], 0, 1.0)
        with pytest.raises(ValueError):
            sf.phi([0.1, 0.2], 3, 1.0)
        with pytest.raises(ValueError):
            sf.phi([0.1], 1, 0.0)

    def test_floor_at_lam_mixed_regimes(self):
        # Mix of in-box, negative, and overshooting coordinates.
        lam, d = 0.2, 6
        gen = np.random.default_rng(42)
        blocks = [
            gen.uniform(0.0, lam, size=(2000, d)),
            gen.uniform(-2 * lam, 2 * lam, size=(2000, d)),
            gen.normal(0.0, 10.0, size=(1000, d)),
        ]
        for xs in blocks:
            for x in xs:
                for n in range(1, d + 1):
                    assert sf.phi(x, n, lam) >= lam - 1e-12

    def test_equals_l1_residual_below_full_progress(self):
        lam, d = 0.2, 8
        op = sf.ShiftProjection(lam, d)
        gen = np.random.default_rng(7)
        for _ in range(500):
            m = int(gen.integers(1, d))  # prog strictly below d
            x = np.zeros(d)
            x[:m] = gen.uniform(-2 * lam, 2 * lam, size=m)
            x[m - 1] = gen.uniform(1e-3, lam)  # keep the last coordinate nonzero
            assert sf.prog(x) == m
            exact = sf.norm(x - op.apply(x), sf.L1)
            assert sf.phi(x, m, lam) == pytest.approx(exact, abs=1e-12)

    @staticmethod
    def _phi_by_clip(x, n, lam):
        # the docstring's formula with np.clip and a numpy reduction
        c = np.clip(x[:n], 0.0, lam)
        return abs(lam - x[0]) + float(np.abs(c[:-1] - x[1:n]).sum()) + c[-1]

    def test_matches_clip_formula_to_a_few_ulps(self):
        lam, d = 0.2, 10
        gen = np.random.default_rng(11)
        regime = gen.integers(0, 4, size=(3000, d))
        xs = np.select(
            [regime == 0, regime == 1, regime == 2],
            [
                -gen.uniform(0.01, 2 * lam, size=regime.shape),
                gen.uniform(0.0, lam, size=regime.shape),
                gen.uniform(lam, 3 * lam, size=regime.shape),
            ],
            -0.0,
        )
        assert np.signbit(xs[xs == 0.0]).all() and (xs == 0.0).any()
        worst_ulps = 0.0
        for x in xs:
            for n in range(1, d + 1):
                ref = self._phi_by_clip(x, n, lam)
                worst_ulps = max(worst_ulps, abs(sf.phi(x, n, lam) - ref) / np.spacing(ref))
        assert worst_ulps <= 4

    def test_nan_in_head_gives_nan(self):
        lam, d = 0.2, 5
        for n in range(1, d + 1):
            for i in range(n):
                x = np.full(d, 0.1)
                x[i] = np.nan
                assert np.isnan(sf.phi(x, n, lam))
                assert np.isnan(self._phi_by_clip(x, n, lam))


class TestSpanAlgorithm:
    def test_validation(self):
        with pytest.raises(ValueError):
            sf.SpanAlgorithm("nonsense", sf.BatchSchedule.constant(1))
        with pytest.raises(ValueError):
            sf.SpanAlgorithm("km-constant", sf.BatchSchedule.constant(1), alpha=1.0)
        with pytest.raises(ValueError):
            sf.SpanAlgorithm("custom", sf.BatchSchedule.constant(1))


class TestRunAdversarial:
    def setup_method(self):
        self.inst = sf.build_instance(0.1, 2.0, 1.0)

    def test_initial_row(self):
        algo = sf.SpanAlgorithm("halpern-classic", sf.BatchSchedule.power(4))
        tr = sf.run_adversarial(self.inst, algo, sf.RngStream(1))
        assert tr.n[0] == 0
        assert tr.prog[0] == 0
        assert tr.cum_queries[0] == 0
        assert tr.batch[0] == 0
        assert tr.residual[0] == self.inst.lam  # ||0 - T0||_1 with T0 = lam e_1

    def test_budget_feasibility_and_stop(self):
        algo = sf.SpanAlgorithm("halpern-classic", sf.BatchSchedule.power(4))
        tr = sf.run_adversarial(self.inst, algo, sf.RngStream(1))
        # power(4) admits k = 1, 16, 81 (cum 98); the next 256 would overshoot
        assert np.array_equal(tr.batch[1:], [1, 16, 81])
        assert tr.cum_queries[-1] == 98 <= self.inst.n_budget
        assert tr.cum_queries[-1] + 4**4 > self.inst.n_budget
        assert np.array_equal(np.diff(tr.cum_queries), tr.batch[1:])

    def test_km_uses_full_budget(self):
        algo = sf.SpanAlgorithm("km-constant", sf.BatchSchedule.constant(1), alpha=0.5)
        tr = sf.run_adversarial(self.inst, algo, sf.RngStream(1))
        assert tr.steps() == self.inst.n_budget
        assert tr.cum_queries[-1] == self.inst.n_budget

    def test_progress_increments_are_zero_or_one(self):
        for kind, batches, alpha in [
            ("halpern-classic", sf.BatchSchedule.power(4), 0.0),
            ("km-constant", sf.BatchSchedule.constant(1), 0.5),
        ]:
            algo = sf.SpanAlgorithm(kind, batches, alpha=alpha)
            for seed in range(1, 40):
                tr = sf.run_adversarial(self.inst, algo, sf.RngStream(seed))
                steps = set(np.diff(tr.prog).tolist())
                assert steps <= {0, 1}

    def test_failed_query_reveals_nothing(self):
        # With p = 0.04 most single queries fail; a failure must return the
        # all-zero table when starting from the origin.
        oracle = self.inst.oracle()
        x0 = np.zeros(self.inst.d)
        master = sf.RngStream(5)
        outs = [sf.minibatch(oracle, x0, 1, master.substream(i)) for i in range(50)]
        failures = [o for o in outs if sf.prog(o) == 0]
        successes = [o for o in outs if sf.prog(o) == 1]
        assert failures and successes
        for o in failures:
            assert np.array_equal(o, x0)
        for o in successes:
            assert o[0] == pytest.approx(self.inst.lam / self.inst.p)

    def test_increment_frequency_matches_bernoulli_law(self):
        # P(progress advances with a k-query batch) = 1 - (1-p)^k.
        k = 5
        oracle = self.inst.oracle()
        x0 = np.zeros(self.inst.d)
        master = sf.RngStream(777)
        hits = sum(
            sf.prog(sf.minibatch(oracle, x0, k, master.substream(i))) > 0
            for i in range(10_000)
        )
        p_adv = 1.0 - (1.0 - self.inst.p) ** k
        assert scipy.stats.binomtest(hits, 10_000, p_adv).pvalue > 0.01

    def test_residual_stays_above_epsilon_in_mean(self):
        algo = sf.SpanAlgorithm("halpern-classic", sf.BatchSchedule.power(4))
        finals = []
        for seed in range(1, 101):
            tr = sf.run_adversarial(self.inst, algo, sf.RngStream(seed))
            finals.append(tr.residual[-1])
        assert np.mean(finals) > self.inst.epsilon  # observed mean 0.22

    def test_residual_rows_match_phi_when_progress_partial(self):
        algo = sf.SpanAlgorithm("km-constant", sf.BatchSchedule.constant(1), alpha=0.5)
        tr = sf.run_adversarial(self.inst, algo, sf.RngStream(3))
        # replay the trajectory to recover the iterates
        op = self.inst.operator()
        oracle = self.inst.oracle()
        rng = sf.RngStream(3)
        x = np.zeros(self.inst.d)
        for i, n in enumerate(tr.n[1:], start=1):
            mb = sf.minibatch(oracle, x, 1, rng.substream(int(n)))
            x = 0.5 * x + 0.5 * mb
            x[np.abs(x) < 1e-300] = 0.0
            m = sf.prog(x)
            assert m == tr.prog[i]
            if 1 <= m < self.inst.d:
                assert sf.phi(x, m, self.inst.lam) == pytest.approx(
                    tr.residual[i], abs=1e-12
                )

    def test_constant_batches_fill_the_budget(self):
        algo = sf.SpanAlgorithm("km-constant", sf.BatchSchedule.constant(2), alpha=0.5)
        tr = sf.run_adversarial(self.inst, algo, sf.RngStream(9))
        assert tr.steps() == self.inst.n_budget // 2
        assert np.all(tr.weight[1:] == 0.5)
