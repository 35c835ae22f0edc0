"""Per-call timings of single stochfp functions at the shapes the workloads use."""

from __future__ import annotations

import statistics
import time


def per_call_us(fn, repeats: int = 5, target_s: float = 0.04) -> float:
    """Median over repeats of the mean time of one call, in microseconds."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= target_s / 4 or loops >= 1 << 20:
            break
        loops *= 2
    loops = max(1, int(loops * target_s / max(elapsed, 1e-9)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return statistics.median(samples) * 1e6


def microtimings(root) -> dict[str, float]:
    """us per call, keyed by <module>.<function>.

    The rows are those of the per-call table in ROADMAP.md: the MDP is the
    shipped 3x2 model at gamma 0.9 (qlearn-disc); vectors have d = 10 and
    lam = 0.2, as in fixedpoint-wide and lowerbound-km; Gaussian minibatches
    use fixedpoint-wide's noise at a power(4) batch, resistant ones
    lowerbound-km's instance at k = 1 with progress 3.
    """
    import numpy as np

    from stochfp import linalg, lower_bound, mdp, operators, oracles

    stream = oracles.RngStream(12345, 0).substream(7)
    model = mdp.load_mdp(root / "configs" / "mdp_3x2.json")
    q = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    x = np.linspace(-0.1, 0.3, 10)
    shift = operators.ShiftProjection(0.2, 10)
    gaussian = oracles.OracleDescriptor(shift, oracles.AdditiveGaussianIID(0.31622776601683794))
    resistant = lower_bound.build_instance(0.1, 2.0, 1.0).oracle()
    x_prog3 = np.zeros(10)
    x_prog3[:3] = 0.1
    calls = {
        "oracles.RngStream.generator": stream.generator,
        "mdp.bellman_discounted": lambda: mdp.bellman_discounted(model, q, 0.9),
        "linalg.norm": lambda: linalg.norm(x, linalg.L1),
        "operators.ShiftProjection.apply": lambda: shift.apply(x),
        "lower_bound.phi": lambda: lower_bound.phi(x_prog3, 3, 0.2),
        "oracles.minibatch.gaussian": lambda: oracles.minibatch(gaussian, x, 30 ** 4, stream),
        "oracles.minibatch.resistant": lambda: oracles.minibatch(resistant, x_prog3, 1, stream),
    }
    return {name: per_call_us(fn) for name, fn in calls.items()}
