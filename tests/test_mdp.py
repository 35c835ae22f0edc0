"""Tabular MDPs: validation, Bellman operators, exact solvers, Q-learning runs."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochfp as sf
from stochfp import engine, mdp
from stochfp.mdp import _batch_mean_max


def _chain_mdp():
    # state 0 moves to the absorbing state 1; rewards (1, 0); single action
    p = np.zeros((2, 1, 2))
    p[0, 0, 1] = 1.0
    p[1, 0, 1] = 1.0
    r = np.array([[1.0], [0.0]])
    return sf.TabularMDP(p, r)


def _two_cycle_mdp():
    # deterministic 2-cycle with rewards 0 and 1, single action
    p = np.zeros((2, 1, 2))
    p[0, 0, 1] = 1.0
    p[1, 0, 0] = 1.0
    r = np.array([[0.0], [1.0]])
    return sf.TabularMDP(p, r)


def _disconnected_mdp():
    # action 0 keeps each state to itself: two absorbing singletons
    p = np.zeros((2, 1, 2))
    p[0, 0, 0] = 1.0
    p[1, 0, 1] = 1.0
    r = np.array([[0.0], [1.0]])
    return sf.TabularMDP(p, r)


def _det_mdp(nxt: np.ndarray, r: np.ndarray) -> sf.TabularMDP:
    s_count, a_count = r.shape
    p = np.zeros((s_count, a_count, s_count))
    for s in range(s_count):
        for a in range(a_count):
            p[s, a, nxt[s, a]] = 1.0
    return sf.TabularMDP(p, r)


class TestValidation:
    def test_row_sum_error_names_the_pair(self, mdp_3x2):
        p = np.array(mdp_3x2.transitions)
        p[1, 0, 0] += 0.5
        with pytest.raises(sf.MDPValidationError, match=r"transitions\[1\]\[0\] sums"):
            sf.TabularMDP(p, mdp_3x2.rewards)

    def test_negative_probability(self, mdp_3x2):
        p = np.array(mdp_3x2.transitions)
        p[2, 1, 0] -= 0.5
        p[2, 1, 1] += 0.5
        with pytest.raises(sf.MDPValidationError, match=r"transitions\[2\]\[1\]"):
            sf.TabularMDP(p, mdp_3x2.rewards)

    def test_reward_out_of_range(self, mdp_3x2):
        r = np.array(mdp_3x2.rewards)
        r[0, 1] = 1.5
        with pytest.raises(sf.MDPValidationError, match=r"rewards\[0\]\[1\]"):
            sf.TabularMDP(mdp_3x2.transitions, r)

    def test_non_finite_rejected(self, mdp_3x2):
        p = np.array(mdp_3x2.transitions)
        p[0, 0, 0] = np.nan
        with pytest.raises(sf.MDPValidationError, match="non-finite"):
            sf.TabularMDP(p, mdp_3x2.rewards)

    def test_arrays_frozen(self, mdp_3x2):
        with pytest.raises(ValueError):
            mdp_3x2.transitions[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            mdp_3x2.rewards[0, 0] = 0.5

    def test_dict_roundtrip(self, mdp_3x2):
        again = sf.mdp_from_dict(mdp_3x2.to_dict())
        assert np.array_equal(again.transitions, mdp_3x2.transitions)
        assert np.array_equal(again.rewards, mdp_3x2.rewards)

    def test_unknown_field(self, mdp_3x2):
        doc = mdp_3x2.to_dict()
        doc["discount"] = 0.9
        with pytest.raises(sf.MDPValidationError, match="unknown MDP field 'discount'"):
            sf.mdp_from_dict(doc)

    def test_missing_field(self, mdp_3x2):
        doc = mdp_3x2.to_dict()
        del doc["rewards"]
        with pytest.raises(sf.MDPValidationError, match="missing MDP field 'rewards'"):
            sf.mdp_from_dict(doc)

    def test_shape_mismatch(self, mdp_3x2):
        doc = mdp_3x2.to_dict()
        doc["num_actions"] = 3
        with pytest.raises(sf.MDPValidationError, match="transitions shape"):
            sf.mdp_from_dict(doc)

    def test_load_mdp_reports_json_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_states": 1,\n  "num_actions": }\n')
        with pytest.raises(sf.MDPValidationError, match="line 2"):
            sf.load_mdp(bad)

    def test_load_mdp_wraps_validation_with_path(self, tmp_path, mdp_3x2):
        doc = mdp_3x2.to_dict()
        doc["extra"] = 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(sf.MDPValidationError, match="m.json"):
            sf.load_mdp(path)


class TestAnchors:
    def test_values(self):
        q = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert sf.AnchorFunction("max").value(q) == 3.0
        assert sf.AnchorFunction("min").value(q) == -2.0
        assert sf.AnchorFunction("mean").value(q) == 0.625
        assert sf.AnchorFunction("coordinate", s=1, a=0).value(q) == 0.5

    def test_shift_equivariance_exact(self):
        # 2x2 table of dyadic entries: f(Q + c e) == f(Q) + c without rounding
        gen = np.random.default_rng(3)
        anchors = [
            sf.AnchorFunction("max"),
            sf.AnchorFunction("min"),
            sf.AnchorFunction("mean"),
            sf.AnchorFunction("coordinate", s=1, a=1),
        ]
        for _ in range(200):
            q = gen.integers(-2048, 2048, size=(2, 2)) / 1024.0
            for c in (1.5, -0.75, 42.0):
                for f in anchors:
                    assert f.value(q + c) == f.value(q) + c

    def test_validation(self):
        with pytest.raises(ValueError):
            sf.AnchorFunction("median")
        with pytest.raises(ValueError):
            sf.AnchorFunction("coordinate", s=-1)


class TestBellman:
    def test_discounted_hand_value(self, self_loop_mdp):
        q0 = np.zeros((1, 1))
        assert sf.bellman_discounted(self_loop_mdp, q0, 0.5)[0, 0] == 1.0

    def test_average_hand_value(self):
        # 1-state, 2-action, r = (0.3, 0.7): v* = 0.7 and H fixes (c - 0.4, c)
        p = np.ones((1, 2, 1))
        m = sf.TabularMDP(p, np.array([[0.3, 0.7]]))
        sol = sf.solve_average_exact(m)
        assert sol.v_star == pytest.approx(0.7, abs=1e-10)
        q = np.array([[0.6, 1.0]])
        hq = sf.bellman_average(m, q, 0.7)
        assert hq == pytest.approx(q)

    def test_average_shift_equivariant_on_single_state(self):
        # P max is exact for one state, so H(Q + 5e) == HQ + 5e holds exactly
        p = np.ones((1, 2, 1))
        m = sf.TabularMDP(p, np.array([[0.3, 0.7]]))
        q = np.array([[0.125, 0.5]])
        assert np.array_equal(
            sf.bellman_average(m, q + 5.0, 0.7),
            sf.bellman_average(m, q, 0.7) + 5.0,
        )

    def test_discounted_contraction_factor(self, mdp_3x2):
        gen = np.random.default_rng(11)
        gamma = 0.9
        for _ in range(1000):
            q1 = gen.normal(size=(3, 2)) * 5
            q2 = gen.normal(size=(3, 2)) * 5
            lhs = np.abs(
                sf.bellman_discounted(mdp_3x2, q1, gamma)
                - sf.bellman_discounted(mdp_3x2, q2, gamma)
            ).max()
            assert lhs <= gamma * np.abs(q1 - q2).max() + 1e-12

    def test_average_nonexpansive(self, mdp_3x2):
        gen = np.random.default_rng(12)
        for _ in range(1000):
            q1 = gen.normal(size=(3, 2)) * 5
            q2 = gen.normal(size=(3, 2)) * 5
            lhs = np.abs(
                sf.bellman_average(mdp_3x2, q1, 0.8)
                - sf.bellman_average(mdp_3x2, q2, 0.8)
            ).max()
            assert lhs <= np.abs(q1 - q2).max() + 1e-12

    def test_gamma_domain(self, mdp_3x2):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                sf.bellman_discounted(mdp_3x2, np.zeros((3, 2)), bad)

    def test_table_shape_checked(self, mdp_3x2):
        with pytest.raises(ValueError, match="Q-table shape"):
            sf.bellman_discounted(mdp_3x2, np.zeros((2, 3)), 0.9)


class TestSolvers:
    def test_discounted_self_loop(self, self_loop_mdp):
        q = sf.solve_discounted_exact(self_loop_mdp, 0.5)
        assert q[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_discounted_chain(self):
        q = sf.solve_discounted_exact(_chain_mdp(), 0.5)
        assert q[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert q[1, 0] == pytest.approx(0.0, abs=1e-10)

    def test_discounted_fixed_point_identity(self, mdp_3x2):
        tol = 1e-10
        q = sf.solve_discounted_exact(mdp_3x2, 0.9, tol=tol)
        assert np.abs(sf.bellman_discounted(mdp_3x2, q, 0.9) - q).max() <= 2 * tol

    def test_average_two_cycle(self):
        sol = sf.solve_average_exact(_two_cycle_mdp())
        assert sol.v_star == pytest.approx(0.5, abs=1e-10)

    def test_average_fixed_point_identity(self, mdp_3x2):
        tol = 1e-10
        sol = sf.solve_average_exact(mdp_3x2, tol=tol)
        hq = sf.bellman_average(mdp_3x2, sol.q_star, sol.v_star)
        assert np.abs(hq - sol.q_star).max() <= tol
        assert sol.q_star.max() == 0.0
        assert sol.iterations > 0

    def test_average_solution_frozen(self, mdp_3x2):
        sol = sf.solve_average_exact(mdp_3x2)
        with pytest.raises(ValueError):
            sol.q_star[0, 0] = 1.0

    def test_average_multichain_errors(self):
        with pytest.raises(RuntimeError, match="unichain"):
            sf.solve_average_exact(_disconnected_mdp(), max_iter=5000)

    def test_average_matches_best_mean_cycle(self):
        # deterministic instances: the optimal gain is the best mean-reward
        # cycle over all policies, found here by exhaustive enumeration
        gen = np.random.default_rng(2024)
        cases = 0
        while cases < 10:
            s_count = int(gen.integers(2, 7))
            a_count = int(gen.integers(1, 3))
            nxt = gen.integers(0, s_count, size=(s_count, a_count))
            r = np.round(gen.uniform(0.0, 1.0, size=(s_count, a_count)), 3)
            m = _det_mdp(nxt, r)
            if not sf.check_unichain(m):
                continue
            cases += 1
            best = -np.inf
            for policy in itertools.product(range(a_count), repeat=s_count):
                seen: dict[int, int] = {}
                path = []
                s = 0
                while s not in seen:
                    seen[s] = len(path)
                    path.append(s)
                    s = int(nxt[s, policy[s]])
                cycle = path[seen[s]:]
                best = max(best, float(np.mean([r[q, policy[q]] for q in cycle])))
            sol = sf.solve_average_exact(m)
            assert sol.v_star == pytest.approx(best, abs=1e-8)


class TestUnichain:
    def test_single_state(self, self_loop_mdp):
        assert sf.check_unichain(self_loop_mdp)

    def test_two_cycle(self):
        assert sf.check_unichain(_two_cycle_mdp())

    def test_disconnected(self):
        assert not sf.check_unichain(_disconnected_mdp())

    def test_positive_rows(self, mdp_3x2):
        assert sf.check_unichain(mdp_3x2)

    def test_size_guard(self):
        s_count, a_count = 10, 4  # S * A^S > 10^6
        p = np.full((s_count, a_count, s_count), 1.0 / s_count)
        m = sf.TabularMDP(p, np.zeros((s_count, a_count)))
        with pytest.raises(ValueError, match="too large"):
            sf.check_unichain(m)


def _per_pair_reference(m, maxv, k, gen):
    """The batch mean drawn pair by pair in row-major order."""
    out = np.empty((m.num_states, m.num_actions))
    for s in range(m.num_states):
        for a in range(m.num_actions):
            counts = gen.multinomial(k, m.transitions[s, a])
            out[s, a] = (counts @ maxv) / k
    return out


@st.composite
def _sampler_cases(draw):
    s_count = draw(st.integers(1, 16))
    a_count = draw(st.integers(1, 4))
    k = draw(st.integers(1, 10 ** 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    gen = np.random.default_rng(seed)
    p = gen.dirichlet(np.full(s_count, draw(st.sampled_from([0.1, 1.0, 10.0]))),
                      size=(s_count, a_count))
    m = sf.TabularMDP(p, gen.uniform(size=(s_count, a_count)))
    maxv = gen.normal(size=s_count) * draw(st.sampled_from([1e-3, 1.0, 1e6]))
    return m, maxv, k, seed


class TestSampling:
    def test_point_mass(self):
        # both pairs of the chain move to state 1 with probability one
        m = _chain_mdp()
        maxv = np.array([-3.0, 7.0])
        master = sf.RngStream(1)
        for i in range(20):
            est = _batch_mean_max(m, maxv, 1, master.substream(i).generator())
            assert est.tolist() == [[7.0], [7.0]]

    def test_uniform_frequencies(self):
        # with max-vector (0, 1, 2, 3) a batch of one returns the drawn state
        p = np.full((4, 1, 4), 0.25)
        m = sf.TabularMDP(p, np.zeros((4, 1)))
        maxv = np.arange(4.0)
        master = sf.RngStream(99)
        draws = np.concatenate([
            _batch_mean_max(m, maxv, 1, master.substream(i).generator()).ravel()
            for i in range(25_000)
        ]).astype(np.int64)
        freqs = np.bincount(draws, minlength=4) / draws.size
        assert np.all((freqs >= 0.24) & (freqs <= 0.26))

    def test_replay_determinism(self, mdp_3x2):
        def seq(seed):
            master = sf.RngStream(seed)
            maxv = np.arange(3.0)
            return [
                _batch_mean_max(mdp_3x2, maxv, 1, master.substream(i).generator()).tolist()
                for i in range(50)
            ]

        assert seq(5) == seq(5)
        assert seq(5) != seq(6)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_sampler_cases())
    def test_one_call_matches_per_pair_draws_bit_for_bit(self, case):
        m, maxv, k, seed = case
        est = _batch_mean_max(m, maxv, k, sf.RngStream(seed).generator())
        ref = _per_pair_reference(m, maxv, k, sf.RngStream(seed).generator())
        assert est.tobytes() == ref.tobytes()

    def test_greedy_ties_to_lowest_action(self):
        q = np.array([[0.5, 0.5], [0.2, 0.7]])
        assert sf.greedy_policy(q).tolist() == [0, 1]


class TestHalpernAverage:
    def test_single_state_recursion(self, self_loop_mdp):
        # update is exactly 1, so Q^n = (1 - beta_n) Q^0 + beta_n; residual
        # against the exact-gain operator vanishes (every constant is fixed)
        q0 = np.array([[5.0]])
        q, rec = sf.halpern_q_average(
            self_loop_mdp, sf.AnchorFunction("max"), q0, 30, sf.RngStream(0), v_star=1.0
        )
        assert np.all(rec.residual <= 1e-12)
        for n in (1, 7, 30):
            qn, _ = sf.halpern_q_average(
                self_loop_mdp, sf.AnchorFunction("max"), q0, n, sf.RngStream(0), v_star=1.0
            )
            beta = n / (n + 1)
            assert qn[0, 0] == pytest.approx((1 - beta) * 5.0 + beta * 1.0, rel=1e-12)
            # distance to the anchored fixed point Q = 1 shrinks like 1/(n+1)
            assert abs(qn[0, 0] - 1.0) == pytest.approx(4.0 / (n + 1), rel=1e-9)

    def test_schedule_and_query_accounting(self, mdp_3x2):
        _, rec = sf.halpern_q_average(
            mdp_3x2, sf.AnchorFunction("max"), np.zeros((3, 2)), 8, sf.RngStream(1)
        )
        ks = np.arange(1, 9, dtype=np.int64) ** 6
        assert np.array_equal(rec.batch, ks)
        assert np.array_equal(rec.cum_queries, np.cumsum(ks) * 6)
        assert np.array_equal(rec.weight, np.arange(1, 9) / np.arange(2, 10))

    def test_anchor_shift_coupling(self, mdp_3x2):
        # replaying the same stream from Q^0 and Q^0 + c e keeps the gap a
        # constant table: (1 - beta_n) c at step n
        f = sf.AnchorFunction("mean")
        c = 2.5
        for n in (1, 4, 9):
            qa, _ = sf.halpern_q_average(mdp_3x2, f, np.zeros((3, 2)), n, sf.RngStream(7))
            qb, _ = sf.halpern_q_average(
                mdp_3x2, f, np.full((3, 2), c), n, sf.RngStream(7)
            )
            gap = qb - qa
            expected = (1.0 - n / (n + 1)) * c
            assert gap.max() - gap.min() <= 1e-12
            assert gap[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_coupling_with_benchmark(self, mdp_3x2):
        # central reduction: the anchored run and the benchmark run coincide
        # up to a scalar multiple of the all-ones table at every step
        sol = sf.solve_average_exact(mdp_3x2)
        for n in (1, 5, 12, 30):
            qa, ra = sf.halpern_q_average(
                mdp_3x2, sf.AnchorFunction("max"), np.zeros((3, 2)), n,
                sf.RngStream(3), v_star=sol.v_star,
            )
            qv, rv = sf.benchmark_q_average(
                mdp_3x2, sol.v_star, np.zeros((3, 2)), n, sf.RngStream(3)
            )
            gap = qa - qv
            assert gap.max() - gap.min() <= 1e-12
            assert ra.residual[-1] == pytest.approx(rv.residual[-1], abs=1e-12)

    def test_benchmark_growth_guard(self, mdp_3x2):
        # ||Q_v^n|| <= ||Q^0|| + (n/2) max|r - v*|; tight at n = 1 from zero
        sol = sf.solve_average_exact(mdp_3x2)
        g = float(np.abs(mdp_3x2.rewards - sol.v_star).max())
        for n in range(1, 21):
            q, _ = sf.benchmark_q_average(
                mdp_3x2, sol.v_star, np.zeros((3, 2)), n, sf.RngStream(4)
            )
            assert np.abs(q).max() <= (n / 2.0) * g + 1e-12

    def test_residual_decreases(self, mdp_3x2):
        _, rec = sf.halpern_q_average(
            mdp_3x2, sf.AnchorFunction("max"), np.zeros((3, 2)), 25, sf.RngStream(2)
        )
        assert rec.residual[-1] < rec.residual[0]


class TestHalpernDiscounted:
    def test_precondition(self, mdp_3x2):
        big = np.full((3, 2), 20.0)  # above r_max/(1-gamma) = 9
        with pytest.raises(ValueError, match="r_max"):
            sf.halpern_q_discounted(mdp_3x2, 0.9, big, 5, sf.RngStream(0))

    def test_boundedness_and_noise_cap(self, mdp_3x2):
        gamma = 0.9
        cap = mdp_3x2.r_max / (1.0 - gamma)
        for n in (1, 3, 7, 15):
            q, rec = sf.halpern_q_discounted(
                mdp_3x2, gamma, np.zeros((3, 2)), n, sf.RngStream(5)
            )
            assert np.abs(q).max() <= cap + 1e-12
            assert np.all(rec.noise_norm <= 2 * gamma * cap + 1e-12)

    def test_batch_schedule_matches_geometric_taper(self, mdp_3x2):
        N = 12
        _, rec = sf.halpern_q_discounted(mdp_3x2, 0.8, np.zeros((3, 2)), N, sf.RngStream(6))
        sched = sf.BatchSchedule.contractive_geometric(0.8, N)
        assert rec.batch.tolist() == [sched.size(n) for n in range(1, N + 1)]

    def test_deterministic_mdp_is_noiseless(self):
        # point-mass transitions make the sampled operator exact, so the run
        # obeys the noiseless contraction bound
        nxt = np.array([[1, 2], [2, 0], [0, 1]])
        r = np.array([[0.9, 0.1], [0.4, 0.8], [0.2, 0.6]])
        m = _det_mdp(nxt, r)
        gamma = 0.5
        q_star = sf.solve_discounted_exact(m, gamma)
        N = 60
        q, rec = sf.halpern_q_discounted(m, gamma, np.zeros((3, 2)), N, sf.RngStream(1))
        # the batch mean (k x)/k can differ from x by one rounding step
        assert np.all(rec.noise_norm <= 1e-15)
        dist0 = float(np.abs(q_star).max())
        assert np.abs(q - q_star).max() <= sf.bound_contractive(dist0, 0.0, gamma, N)


class TestRviAndVanilla:
    def test_rvi_exponent_domain(self, mdp_3x2):
        q0 = np.zeros((3, 2))
        for bad in (0.8, 0.5, 1.1):
            with pytest.raises(ValueError, match="exponent"):
                sf.rvi_q_learning(mdp_3x2, sf.AnchorFunction("max"), bad, q0, 5, sf.RngStream(0))

    def test_rvi_query_accounting(self, mdp_3x2):
        _, rec = sf.rvi_q_learning(
            mdp_3x2, sf.AnchorFunction("max"), 1.0, np.zeros((3, 2)), 12, sf.RngStream(1)
        )
        assert np.array_equal(rec.cum_queries, np.arange(1, 13) * 6)
        assert np.array_equal(rec.batch, np.ones(12, dtype=np.int64))

    def test_rvi_single_state_recursion(self, self_loop_mdp):
        # alpha_n = 1/(n+1) telescopes: Q^n = n/(n+1) from zero
        q, _ = sf.rvi_q_learning(
            self_loop_mdp, sf.AnchorFunction("max"), 1.0, np.zeros((1, 1)), 10,
            sf.RngStream(0), v_star=1.0,
        )
        assert q[0, 0] == pytest.approx(10.0 / 11.0, rel=1e-12)

    def test_vanilla_full_step_is_value_iteration(self):
        nxt = np.array([[1, 2], [2, 0], [0, 1]])
        r = np.array([[0.9, 0.1], [0.4, 0.8], [0.2, 0.6]])
        m = _det_mdp(nxt, r)
        gamma = 0.5
        N = 8
        q, _ = sf.vanilla_q_discounted(
            m, gamma, lambda n: 1.0, np.zeros((3, 2)), N, sf.RngStream(2)
        )
        expected = np.zeros((3, 2))
        for _ in range(N):
            expected = sf.bellman_discounted(m, expected, gamma)
        assert np.allclose(q, expected, rtol=0, atol=1e-14)

    def test_vanilla_self_loop_geometric(self, self_loop_mdp):
        q, _ = sf.vanilla_q_discounted(
            self_loop_mdp, 0.5, lambda n: 1.0, np.zeros((1, 1)), 40, sf.RngStream(3)
        )
        assert q[0, 0] == pytest.approx(2.0, abs=1e-11)

    def test_vanilla_boundedness(self, mdp_3x2):
        gamma = 0.9
        cap = mdp_3x2.r_max / (1.0 - gamma)
        for n in (1, 5, 20):
            q, _ = sf.vanilla_q_discounted(
                mdp_3x2, gamma, sf.StepSchedule.km_polynomial(0.9).weight,
                np.zeros((3, 2)), n, sf.RngStream(4),
            )
            assert np.abs(q).max() <= cap + 1e-12

    def test_vanilla_alpha_domain(self, mdp_3x2):
        with pytest.raises(ValueError, match="alpha"):
            sf.vanilla_q_discounted(
                mdp_3x2, 0.9, lambda n: 1.5, np.zeros((3, 2)), 3, sf.RngStream(0)
            )

    def test_rvi_aborts_on_non_finite_table(self, mdp_3x2):
        # min anchor -1e308 and sampled max 1e308 overflow the first target
        q0 = np.tile([1e308, -1e308], (3, 1))
        with np.errstate(over="ignore"):
            q, rec = sf.rvi_q_learning(
                mdp_3x2, sf.AnchorFunction("min"), 1.0, q0, 5, sf.RngStream(0)
            )
        assert rec.aborted
        assert rec.abort_reason == "non-finite iterate at step 1"
        assert rec.steps() == 0
        assert np.array_equal(q, q0)
        assert np.array_equal(rec.final_x, q0.ravel())  # last good table, finite


def _ref_q_run(m, q0, N, rng, *, target, residual, weight, size, anchored, scale=1.0,
               q_star=None):
    """(rows of (n, w, k, cum, residual, dist, noise), final table, abort reason) of one run.

    The Q-learning loop measured step by step: a fresh generator per step from
    rng.substream(n), one multinomial call per step, each sup norm taken as
    its step is reached, and the lookahead P max Q^n of step n reused as
    step n+1's E est.
    """
    flat = m.transitions.reshape(-1, m.num_states)
    x, maxv = q0, q0.max(axis=1)
    pm = (flat @ maxv).reshape(q0.shape)
    cum, rows = 0, []
    for n in range(1, N + 1):
        k, w = size(n), weight(n)
        counts = rng.substream(n).generator().multinomial(k, m.transitions)
        est = np.vecdot(counts.astype(np.float64), maxv) / k
        x_new = (1.0 - w) * (q0 if anchored else x) + w * target(x, est)
        if not np.isfinite(x_new).all():
            return rows, x, f"non-finite iterate at step {n}"
        e = float(scale * np.abs(est - pm).max())
        maxv = x_new.max(axis=1)
        pm = (flat @ maxv).reshape(q0.shape)
        res = float(np.abs(residual(pm) - x_new).max())
        d = None if q_star is None else float(np.abs(x_new - q_star).max())
        if not (math.isfinite(res) and math.isfinite(e) and (d is None or math.isfinite(d))):
            return rows, x, f"non-finite measurement at step {n}"
        cum += k * q0.size
        rows.append((n, w, k, cum, res, d, e))
        x = x_new
    return rows, x, None


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_run_matches(run, ref):
    (q, rec), (rows, x, reason) = run, ref
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
    assert _bits(rec.final_x) == _bits(x) and _bits(q) == _bits(x) and q.shape == x.shape
    assert rec.aborted == (reason is not None) and rec.abort_reason == reason


def _run_both(name, m, q0, N, rng, *, gamma=0.9, f=None, a=1.0, v_star=0.5):
    """(the runner's (table, record), the reference's) of one of the five Q-learning runners."""
    r = m.rewards
    halpern = sf.StepSchedule.halpern_classic().weight
    if name in ("halpern_q_discounted", "vanilla_q_discounted"):
        q_star = sf.solve_discounted_exact(m, gamma)
        spec = dict(target=lambda q, est: r + gamma * est, residual=lambda pm: r + gamma * pm,
                    scale=gamma, q_star=q_star)
        if name == "halpern_q_discounted":
            run = sf.halpern_q_discounted(m, gamma, q0, N, rng, q_star=q_star)
            spec.update(weight=halpern, anchored=True,
                        size=sf.BatchSchedule.contractive_geometric(gamma, N).size)
        else:
            alpha = sf.StepSchedule.km_polynomial(0.7).weight
            run = sf.vanilla_q_discounted(m, gamma, alpha, q0, N, rng, q_star=q_star)
            spec.update(weight=alpha, size=lambda n: 1, anchored=False)
    else:
        spec = dict(residual=lambda pm: (r + pm) - v_star,
                    target=lambda q, est: r + est - f.value(q))
        if name == "halpern_q_average":
            run = sf.halpern_q_average(m, f, q0, N, rng, v_star=v_star)
            spec.update(weight=halpern, size=lambda n: n ** 6, anchored=True)
        elif name == "benchmark_q_average":
            run = sf.benchmark_q_average(m, v_star, q0, N, rng)
            spec.update(weight=halpern, size=lambda n: n ** 6, anchored=True,
                        target=lambda q, est: r + est - v_star)
        else:
            run = sf.rvi_q_learning(m, f, a, q0, N, rng, v_star=v_star)
            spec.update(weight=sf.StepSchedule.km_polynomial(a).weight, size=lambda n: 1,
                        anchored=False)
    return run, _ref_q_run(m, q0, N, rng, **spec)


_Q_RUNNERS = ["halpern_q_discounted", "vanilla_q_discounted", "halpern_q_average",
              "benchmark_q_average", "rvi_q_learning"]
_EDGE_KEYS = st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@st.composite
def _q_cases(draw):
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_count, a_count = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    p = gen.dirichlet(np.full(s_count, draw(st.sampled_from([0.1, 1.0, 10.0]))),
                      size=(s_count, a_count))
    m = sf.TabularMDP(p, gen.uniform(size=(s_count, a_count)))
    name = draw(st.sampled_from(_Q_RUNNERS))
    # the n^6 batches of the average-reward anchored runs pass 2^63 queries near n = 500
    blocks = [1, 2, 5, 16] + ([] if name.endswith("_average") else [engine._BLOCK])
    block = draw(st.sampled_from(blocks))
    N = draw(st.sampled_from([n for n in (1, block - 1, block, block + 1, 2 * block + 3) if n]))
    gamma = draw(st.sampled_from([0.5, 0.9, 0.99]))
    kind = draw(st.sampled_from(["max", "min", "mean", "coordinate"]))
    f = sf.AnchorFunction(kind, draw(st.integers(0, s_count - 1)), draw(st.integers(0, a_count - 1)))
    q0 = gen.uniform(-1.0, 1.0, size=(s_count, a_count)) * (m.r_max / (1.0 - gamma))
    rng = sf.RngStream(draw(_EDGE_KEYS), draw(_EDGE_KEYS))
    kw = dict(gamma=gamma, f=f, a=draw(st.sampled_from([0.81, 0.9, 1.0])),
              v_star=float(gen.uniform(0.0, 1.0)))
    return name, m, q0, N, rng, block, kw


class TestQLoop:
    """The block-measured Q-learning loop against _ref_q_run, bit for bit."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_q_cases())
    def test_every_runner_matches_the_per_step_reference(self, case):
        name, m, q0, N, rng, block, kw = case
        with mock.patch.object(engine, "_BLOCK", block):
            run, ref = _run_both(name, m, q0, N, rng, **kw)
        _assert_run_matches(run, ref)

    @staticmethod
    def _doubling(q0, N, residual_factor):
        """Q^n = 2 Q^{n-1} on the one-state self-loop, so Q^n = 2^n Q^0 exactly."""
        m = sf.TabularMDP(np.ones((1, 1, 1)), np.ones((1, 1)))
        spec = dict(target=lambda q, est: 2.0 * est, residual=lambda pm: residual_factor * pm,
                    weight=lambda n: 1.0, size=lambda n: 1, anchored=False)
        rng = sf.RngStream(3, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            return mdp._q_runs(m, q0, N, [rng], **spec)[0], _ref_q_run(m, q0, N, rng, **spec)

    @pytest.mark.parametrize("step", [engine._BLOCK + 1, engine._BLOCK + 476, 2 * engine._BLOCK + 3])
    def test_non_finite_iterate_past_the_first_block(self, step):
        # 2^n Q^0 first reaches 2^1024 at n = step; 0.5 Q^n - Q^n stays finite
        run, ref = self._doubling(np.array([[2.0 ** (1024 - step)]]), 3 * engine._BLOCK, 0.5)
        assert run[1].abort_reason == f"non-finite iterate at step {step}"
        assert run[1].steps() == step - 1 and run[0][0, 0] == 2.0 ** 1023
        _assert_run_matches(run, ref)

    @pytest.mark.parametrize("step", [engine._BLOCK + 1, engine._BLOCK + 476, 2 * engine._BLOCK + 3])
    def test_non_finite_measurement_past_the_first_block(self, step):
        # 4 P max Q^n first overflows at n = step, two steps before the iterate does
        run, ref = self._doubling(np.array([[2.0 ** (1022 - step)]]), 3 * engine._BLOCK, 4.0)
        assert run[1].abort_reason == f"non-finite measurement at step {step}"
        assert run[1].steps() == step - 1 and run[0][0, 0] == 2.0 ** 1021
        _assert_run_matches(run, ref)

    @pytest.mark.parametrize("block", [20, 44])
    def test_runner_aborts_past_the_first_block(self, monkeypatch, mdp_3x2, block):
        # k_n max Q^{n-1} ~ n^5 1e300 overflows the batch sum at step 45: the
        # third block of 20 steps, or the first step after a block of 44
        monkeypatch.setattr(engine, "_BLOCK", block)
        q0 = np.full((3, 2), 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            run, ref = _run_both("halpern_q_average", mdp_3x2, q0, 100, sf.RngStream(8),
                                 f=sf.AnchorFunction("mean"))
        assert run[1].abort_reason == "non-finite iterate at step 45"
        _assert_run_matches(run, ref)


class TestIterationCount:
    def test_reference_value(self, mdp_3x2):
        assert sf.discounted_iteration_count(mdp_3x2, 0.9, 0.05) == 41471

    def test_monotone_in_epsilon(self, mdp_3x2):
        n_tight = sf.discounted_iteration_count(mdp_3x2, 0.9, 0.02)
        n_loose = sf.discounted_iteration_count(mdp_3x2, 0.9, 0.2)
        assert n_tight > n_loose >= 1
