"""Desk-scale acceptance checks for the package's headline guarantees.

One test per numbered check. Each records a PASS/FAIL line that pytest
prints in the "acceptance checks" terminal section, and asserts the stated
tolerance and runtime budget.

Check 02 is expected to fail: with a constant averaging weight the
quarter-turn rotation becomes a strict contraction (per-step residual
factor cos(pi/4)), so the residual underflows long before the fit window
and no inverse-square-root slope exists. The test states the expectation
faithfully and reports the observed geometric decay instead of weakening
the band.
"""

import itertools
import math
import time

import numpy as np

import stochfp as sf


def _det_mdp(nxt: np.ndarray, rewards) -> sf.TabularMDP:
    s_count, a_count = nxt.shape
    p = np.zeros((s_count, a_count, s_count))
    for s in range(s_count):
        for a in range(a_count):
            p[s, a, int(nxt[s, a])] = 1.0
    return sf.TabularMDP(p, np.asarray(rewards, dtype=np.float64))


def _unit_reward_3x2() -> sf.TabularMDP:
    """3-state 2-action unichain model whose largest reward is exactly 1."""
    transitions = np.array(
        [
            [[0.1, 0.7, 0.2], [0.6, 0.2, 0.2]],
            [[0.3, 0.3, 0.4], [0.5, 0.25, 0.25]],
            [[0.2, 0.5, 0.3], [0.4, 0.4, 0.2]],
        ]
    )
    rewards = np.array([[0.05, 0.80], [1.00, 0.10], [0.70, 0.45]])
    return sf.TabularMDP(transitions, rewards)


def test_01_anchored_rate_on_plane_rotation(acceptance_report):
    t0 = time.perf_counter()
    o = sf.OracleDescriptor(sf.PlaneRotation(math.pi / 2), sf.NoNoise())
    rec = sf.halpern_run(
        o, [1.0, 0.0], sf.StepSchedule.halpern_classic(),
        sf.BatchSchedule.constant(1), 1000, sf.L2, sf.RngStream(1),
    )
    fit = sf.fit_rate(rec.n, rec.residual, (100, 1000))
    elapsed = time.perf_counter() - t0
    ok = -1.15 <= fit.slope <= -0.85 and elapsed < 1.0
    assert acceptance_report(
        1, ok,
        f"noiseless anchored residual slope {fit.slope:.3f} over n in [100, 1000], "
        f"band [-1.15, -0.85], {elapsed:.2f}s of 1s",
    )


def test_02_averaged_rate_on_plane_rotation(acceptance_report):
    o = sf.OracleDescriptor(sf.PlaneRotation(math.pi / 2), sf.NoNoise())
    rec = sf.km_run(
        o, [1.0, 0.0], sf.StepSchedule.km_constant(0.5), 10_000, sf.L2, sf.RngStream(1)
    )
    r = rec.residual
    try:
        fit = sf.fit_rate(rec.n, r, (100, 10_000))
        ok = -0.6 <= fit.slope <= -0.4
        detail = (
            f"averaged residual slope {fit.slope:.3f} over n in [100, 10000], "
            f"band [-0.6, -0.4]"
        )
    except ValueError as exc:
        step_factor = float((r[20:60] / r[19:59]).mean())
        ok = False
        detail = (
            "no inverse-square-root window: the averaged quarter-turn rotation "
            f"contracts geometrically (per-step residual factor {step_factor:.6f} "
            f"= cos(pi/4) = {math.cos(math.pi / 4):.6f}; residual {r[99]:.2e} at "
            f"n = 100 sits below the 1e-12 zero floor); fit error: {exc}"
        )
    assert acceptance_report(2, ok, detail), detail


def test_03_nonexpansive_residual_bound_dominates(acceptance_report):
    t0 = time.perf_counter()
    op = sf.ShiftProjection(0.2, 10)
    o = sf.OracleDescriptor(op, sf.AdditiveGaussianIID(1.0 / math.sqrt(10)))
    steps = sf.StepSchedule.halpern_classic()
    batches = sf.BatchSchedule.power(4)
    x0 = np.zeros(10)
    traces = [
        sf.halpern_run(o, x0, steps, batches, 60, sf.L1, sf.RngStream(seed)).residual
        for seed in range(1, 201)
    ]
    mean = np.mean(traces, axis=0)
    kappa = sf.kappa_bar_bounded_range(op.range_bound(), x0, sf.L1)
    mu = sf.norm_equivalence_mu(sf.L1, 10)
    rows = []
    for n in (10, 20, 40, 60):
        sigma_seq = [mu / (i * i) for i in range(1, n + 1)]
        bound = sf.bound_nonexpansive(kappa, sigma_seq, n)
        rows.append((n, float(mean[n - 1]), bound))
    elapsed = time.perf_counter() - t0
    ok = all(emp <= b for _, emp, b in rows) and elapsed < 300.0
    shown = "; ".join(f"n={n}: {emp:.4f} <= {b:.4f}" for n, emp, b in rows)
    assert acceptance_report(
        3, ok, f"200-seed mean residual under the anchored bound ({shown}), "
        f"{elapsed:.1f}s of 300s",
    )


def test_04_contractive_distance_bound_and_scaling(acceptance_report):
    t0 = time.perf_counter()
    theta = 1.0
    mat = 0.8 * np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    op = sf.AffineContraction(mat, [1.0, 0.0], 0.8, sf.L2)
    o = sf.OracleDescriptor(op, sf.AdditiveGaussianIID(1.0 / math.sqrt(2)))
    steps = sf.StepSchedule.halpern_classic()
    x0 = np.zeros(2)
    dist0 = sf.norm(x0 - op.fixed_point_info().point, sf.L2)
    finals = {}
    within = []
    for n_final in (9, 19, 49):
        batches = sf.BatchSchedule.contractive_geometric(0.8, n_final)
        vals = [
            sf.halpern_run(o, x0, steps, batches, n_final, sf.L2, sf.RngStream(s))
            .dist_to_fp[-1]
            for s in range(1, 201)
        ]
        finals[n_final] = float(np.mean(vals))
        within.append(finals[n_final] <= sf.bound_contractive(dist0, 1.0, 0.8, n_final))
    ratio = finals[9] / finals[49]
    elapsed = time.perf_counter() - t0
    ok = all(within) and 3.5 <= ratio <= 6.5 and elapsed < 120.0
    assert acceptance_report(
        4, ok,
        f"200-seed mean distance within (dist0 + 2 sigma)/((1 - gamma)(N + 1)) at "
        f"N in (9, 19, 49) = ({finals[9]:.4f}, {finals[19]:.4f}, {finals[49]:.4f}); "
        f"N=9 over N=49 ratio {ratio:.2f} in [3.5, 6.5], {elapsed:.1f}s of 120s",
    )


def test_05_query_budget_barrier(acceptance_report):
    t0 = time.perf_counter()
    inst = sf.build_instance(0.1, 2.0, 1.0)
    assert inst.n_budget == 124 and inst.d == 10
    algos = {
        "anchored n^4": sf.SpanAlgorithm("halpern-classic", sf.BatchSchedule.power(4)),
        "averaged k=1": sf.SpanAlgorithm(
            "km-constant", sf.BatchSchedule.constant(1), alpha=0.5
        ),
    }
    parts = []
    ok = True
    for name, algo in algos.items():
        residuals, final_prog = [], []
        for seed in range(1, 501):
            tr = sf.run_adversarial(inst, algo, sf.RngStream(seed))
            residuals.append(tr.residual)
            final_prog.append(tr.prog[-1])
        mean = np.mean(residuals, axis=0)
        frac_short = float(np.mean(np.array(final_prog) < inst.d))
        ok = ok and bool(mean[1:].min() > inst.epsilon) and frac_short > 0.5
        parts.append(
            f"{name}: min mean residual {mean[1:].min():.3f} > 0.1 over "
            f"{mean.size - 1} feasible steps, P(prog < d) {frac_short:.3f} > 0.5"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert acceptance_report(
        5, ok, f"500-seed barrier at budget {inst.n_budget} ({'; '.join(parts)}), "
        f"{elapsed:.1f}s of 60s",
    )


def test_06_residual_witness_floor_and_equality(acceptance_report):
    t0 = time.perf_counter()
    inst = sf.build_instance(0.1, 2.0, 1.0)
    lam, d = inst.lam, inst.d
    op = inst.operator()
    gen = np.random.default_rng(2024)
    n_pts = 100_000
    # coordinates mix the three clamp regimes (negative, inside [0, lam],
    # above lam), with the tail past a random cut zeroed so prog varies
    cuts = gen.integers(0, d + 1, size=n_pts)
    regime = gen.integers(0, 3, size=(n_pts, d))
    xs = np.where(
        regime == 0,
        -gen.uniform(0.01, 2 * lam, size=(n_pts, d)),
        np.where(
            regime == 1,
            gen.uniform(0.0, lam, size=(n_pts, d)),
            gen.uniform(lam, 3 * lam, size=(n_pts, d)),
        ),
    )
    for i in range(n_pts):
        xs[i, cuts[i]:] = 0.0
        if cuts[i] >= 1 and xs[i, cuts[i] - 1] == 0.0:
            xs[i, cuts[i] - 1] = 0.5 * lam
    min_phi = math.inf
    eq_checked = 0
    max_eq_err = 0.0
    for i in range(n_pts):
        x = xs[i]
        for n in range(1, d + 1):
            v = sf.phi(x, n, lam)
            if v < min_phi:
                min_phi = v
        pg = sf.prog(x)
        if 1 <= pg < d:
            eq_checked += 1
            err = abs(sf.phi(x, pg, lam) - sf.norm(x - op.apply(x), sf.L1))
            if err > max_eq_err:
                max_eq_err = err
    elapsed = time.perf_counter() - t0
    ok = min_phi >= lam - 1e-12 and max_eq_err <= 1e-12 and elapsed < 10.0
    assert acceptance_report(
        6, ok,
        f"witness floor min phi {min_phi:.15f} >= lam - 1e-12 over {n_pts} points x "
        f"{d} offsets; equals the L1 residual on {eq_checked} partial-progress points "
        f"(max gap {max_eq_err:.1e}), {elapsed:.1f}s of 10s",
    )


def test_07_anchored_q_coupling_identity(acceptance_report, mdp_3x2):
    t0 = time.perf_counter()
    v_star = sf.solve_average_exact(mdp_3x2).v_star
    f = sf.AnchorFunction("max")
    q0 = np.zeros((3, 2))
    worst = 0.0
    # reruns with a shared stream reproduce the prefix of a longer run, so
    # run lengths 1..200 expose every intermediate table of both loops
    for n in range(1, 201):
        rng = sf.RngStream(7)
        qa, _ = sf.halpern_q_average(mdp_3x2, f, q0, n, rng, v_star=v_star)
        qv, _ = sf.benchmark_q_average(mdp_3x2, v_star, q0, n, rng)
        diff = qa - qv
        worst = max(worst, float(diff.max() - diff.min()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    assert acceptance_report(
        7, ok,
        f"coupled anchored runs differ by a constant table at every n <= 200 "
        f"(worst entrywise spread {worst:.2e} <= 1e-9), {elapsed:.1f}s of 30s",
    )


def test_08_average_reward_residual_halves(acceptance_report, mdp_3x2):
    t0 = time.perf_counter()
    v_star = sf.solve_average_exact(mdp_3x2).v_star
    f = sf.AnchorFunction("max")
    q0 = np.zeros((3, 2))
    r10, r40 = [], []
    for seed in range(1, 51):
        _, rec = sf.halpern_q_average(mdp_3x2, f, q0, 40, sf.RngStream(seed), v_star=v_star)
        r10.append(rec.residual[9])
        r40.append(rec.residual[39])
    m10, m40 = float(np.mean(r10)), float(np.mean(r40))
    elapsed = time.perf_counter() - t0
    ok = m40 <= 0.5 * m10 and elapsed < 600.0
    assert acceptance_report(
        8, ok,
        f"50-seed mean sup-norm residual {m40:.4f} at n = 40 is "
        f"{m40 / m10:.2f} x the n = 10 value {m10:.4f} (needs <= 0.5), "
        f"{elapsed:.1f}s of 600s",
    )


def test_09_discounted_accuracy_at_target(acceptance_report):
    t0 = time.perf_counter()
    m = _unit_reward_3x2()
    gamma, epsilon = 0.9, 0.05
    n_iter = sf.discounted_iteration_count(m, gamma, epsilon)
    q_star = sf.solve_discounted_exact(m, gamma, 1e-10)
    q0 = np.zeros((3, 2))
    finals = [
        sf.halpern_q_discounted(m, gamma, q0, n_iter, sf.RngStream(seed), q_star=q_star)[1]
        .dist_to_fp[-1]
        for seed in range(1, 101)
    ]
    mean_final = float(np.mean(finals))
    elapsed = time.perf_counter() - t0
    ok = mean_final <= epsilon and elapsed < 600.0
    assert acceptance_report(
        9, ok,
        f"100-seed mean distance to the exact table {mean_final:.4f} <= {epsilon} "
        f"after the derived N = {n_iter} steps (gamma 0.9, unit top reward), "
        f"{elapsed:.0f}s of 600s",
    )


def test_10_oracle_unbiasedness_and_batch_scaling(acceptance_report):
    t0 = time.perf_counter()
    m = 100_000
    gen = np.random.default_rng(55)
    worst_se = 0.0
    rot = sf.PlaneRotation(0.7)
    gauss = sf.OracleDescriptor(rot, sf.AdditiveGaussianIID(0.5))
    for i in range(20):
        x = gen.normal(size=2) * 2
        mean, _ = sf.empirical_moments(gauss, x, m, sf.RngStream(600 + i))
        worst_se = max(
            worst_se, float(np.abs(mean - rot.apply(x)).max() / (0.5 / math.sqrt(m)))
        )
    lam, p = 0.4, 0.2
    sp = sf.ShiftProjection(lam, 5)
    resist = sf.OracleDescriptor(sp, sf.ResistantBernoulli(p))
    for i in range(20):
        x = np.zeros(5)
        npos = int(gen.integers(0, 4))
        x[:npos] = gen.uniform(0.05, lam, size=npos)
        mean, _ = sf.empirical_moments(resist, x, m, sf.RngStream(700 + i))
        tx = sp.apply(x)
        se = math.sqrt(tx[npos] ** 2 * (1 - p) / p / m)
        worst_se = max(worst_se, float(np.abs(mean - tx).max() / se))
    unbiased_ok = worst_se <= 4.0

    d, e = 6, 0.8
    flat = sf.OracleDescriptor(sf.ConstantMap(np.zeros(d)), sf.AdditiveGaussianIID(e))
    x = np.zeros(d)
    _, second = sf.empirical_moments(flat, x, 50_000, sf.RngStream(8))
    e1 = math.sqrt(second)
    mu = sf.norm_equivalence_mu(sf.L1, d)
    worst_ratio = 0.0
    for k in (1, 4, 16, 64):
        errs = [
            sf.norm(sf.minibatch(flat, x, k, sf.RngStream(10_000 + 100 * k + r)), sf.L1)
            for r in range(2000)
        ]
        worst_ratio = max(worst_ratio, float(np.mean(errs)) / (mu * e1 / math.sqrt(k)))
    elapsed = time.perf_counter() - t0
    ok = unbiased_ok and worst_ratio <= 1.1 and elapsed < 120.0
    assert acceptance_report(
        10, ok,
        f"40 query means within 4 standard errors (worst {worst_se:.2f}); batch error "
        f"over mu sigma / sqrt(k) at most {worst_ratio:.3f} <= 1.1 for k in "
        f"(1, 4, 16, 64), {elapsed:.1f}s of 120s",
    )


def test_11_exact_solver_identities(acceptance_report, mdp_3x2):
    t0 = time.perf_counter()
    tol = 1e-10
    q_star = sf.solve_discounted_exact(mdp_3x2, 0.9, tol)
    gap_disc = float(np.abs(sf.bellman_discounted(mdp_3x2, q_star, 0.9) - q_star).max())
    sol = sf.solve_average_exact(mdp_3x2, tol=tol)
    gap_avg = float(
        np.abs(sf.bellman_average(mdp_3x2, sol.q_star, sol.v_star) - sol.q_star).max()
    )
    gen = np.random.default_rng(2024)
    worst_gain_gap = 0.0
    cases = 0
    while cases < 10:
        s_count = int(gen.integers(2, 7))
        a_count = int(gen.integers(1, 3))
        nxt = gen.integers(0, s_count, size=(s_count, a_count))
        rewards = np.round(gen.uniform(0.0, 1.0, size=(s_count, a_count)), 3)
        det = _det_mdp(nxt, rewards)
        if not sf.check_unichain(det):
            continue
        cases += 1
        best = -math.inf
        for policy in itertools.product(range(a_count), repeat=s_count):
            seen: dict[int, int] = {}
            path = []
            s = 0
            while s not in seen:
                seen[s] = len(path)
                path.append(s)
                s = int(nxt[s, policy[s]])
            cycle = path[seen[s]:]
            best = max(best, float(np.mean([rewards[q, policy[q]] for q in cycle])))
        worst_gain_gap = max(
            worst_gain_gap, abs(sf.solve_average_exact(det).v_star - best)
        )
    elapsed = time.perf_counter() - t0
    ok = (
        gap_disc <= 2 * tol
        and gap_avg <= tol
        and worst_gain_gap <= 1e-8
        and elapsed < 10.0
    )
    assert acceptance_report(
        11, ok,
        f"discounted fixed-point gap {gap_disc:.1e} <= 2e-10, average-reward gap "
        f"{gap_avg:.1e} <= 1e-10, gain matches best-cycle enumeration on 10 "
        f"deterministic models within {worst_gain_gap:.1e}, {elapsed:.1f}s of 10s",
    )
