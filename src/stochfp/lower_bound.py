"""Adversarial query-complexity lab for span-constrained algorithms.

The hard instance is the shift-projection operator on (R^d, ||.||_1) paired
with an oracle that reveals the next coordinate only on a Bernoulli(p) success.
Algorithms whose iterates are linear combinations of past iterates and oracle
outputs cannot push the L1 residual below lam/2 in expectation until they have
spent on the order of d/(2p) queries, which yields the cubic blow-up of the
query budget as the tolerance shrinks.

Instance derivation from (epsilon, kappa_bar, sigma):
  lam = 2 epsilon, d = floor(kappa_bar / lam), p = lam^2 / sigma^2,
  and the budget N with N < d/(2p) <= N + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import BatchSchedule, StepSchedule, iterate_stack
from .linalg import L1, as_vector, last_nonzero_index
from .operators import ShiftProjection
from .oracles import OracleDescriptor, ResistantBernoulli, RngStream

__all__ = [
    "AdversarialInstance",
    "SpanAlgorithm",
    "AdversarialTrace",
    "build_instance",
    "prog",
    "phi",
    "run_adversarial",
    "adversarial_runs",
]

# denormal dust below this magnitude is flushed to exact zero so prog stays well defined
_FLUSH = 1e-300
# largest derived dimension d: a run keeps a few d-vectors of 8 bytes per coordinate
MAX_DIM = 10 ** 7


def prog(x):
    """Progress of x: the largest 1-based index with |x_i| > 0, or 0 at the origin.

    A (B, d) stack gives the progress of each row.
    """
    return last_nonzero_index(x)


@dataclass(frozen=True)
class AdversarialInstance:
    epsilon: float
    kappa_bar: float
    sigma: float
    lam: float
    d: int
    p: float
    n_budget: int

    def operator(self) -> ShiftProjection:
        return ShiftProjection(self.lam, self.d)

    def oracle(self) -> OracleDescriptor:
        return OracleDescriptor(self.operator(), ResistantBernoulli(self.p))


def build_instance(epsilon: float, kappa_bar: float, sigma: float) -> AdversarialInstance:
    """Derive the hard instance; requires 0 < epsilon < sigma/2, kappa_bar >= 2 epsilon
    and a derived dimension d of at most MAX_DIM coordinates."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not epsilon < sigma / 2.0:
        raise ValueError("epsilon must be strictly below sigma / 2")
    lam = 2.0 * epsilon
    if kappa_bar < lam:
        raise ValueError("kappa_bar must be at least 2 * epsilon")
    if not math.isfinite(kappa_bar / lam):
        raise ValueError("derived dimension d = kappa_bar / (2 epsilon) overflows")
    # epsilon guards absorb float rounding of the quotients (e.g. 2/0.2, d/(2p))
    d = int(math.floor(kappa_bar / lam + 1e-9))
    p = lam * lam / (sigma * sigma)
    if not 0.0 < p < 1.0:
        raise ValueError("derived success probability p must lie in (0, 1)")
    q = d / (2.0 * p)
    if not math.isfinite(q):
        raise ValueError("derived query budget d / (2p) overflows")
    if d > MAX_DIM:
        raise ValueError(f"derived dimension d = {d} exceeds the cap of {MAX_DIM} coordinates")
    n_budget = int(math.ceil(q - 1e-9)) - 1
    if not (n_budget < q <= n_budget + 1 + 1e-6):
        raise AssertionError("budget derivation violated N < d/(2p) <= N + 1")
    return AdversarialInstance(
        epsilon=float(epsilon),
        kappa_bar=float(kappa_bar),
        sigma=float(sigma),
        lam=lam,
        d=d,
        p=p,
        n_budget=n_budget,
    )


def phi(x, n: int, lam: float) -> float:
    """Residual witness |lam - x_1| + sum_{i=2}^{n} |clamp(x_{i-1}) - x_i| + clamp(x_n).

    Always >= lam, and equal to the exact L1 residual ||x - Tx||_1 whenever
    1 <= prog(x) = n < d; both statements hold to 1e-12.

    The terms are summed left to right over Python floats (small vectors make
    numpy's per-call overhead the whole cost), so the last bit can differ from
    a numpy pairwise reduction of the same terms. The clamp keeps -0.0 and
    NaN as np.clip does.
    """
    xs = as_vector(x).tolist()
    if not 1 <= n <= len(xs):
        raise ValueError("n must satisfy 1 <= n <= dim(x)")
    if not lam > 0:
        raise ValueError("lam must be positive")
    lam = float(lam)
    # lam plays clamp(x_0), so the first term |lam - x_1| joins the loop
    total = 0.0
    prev = lam
    for v in xs[:n]:
        total += abs(prev - v)
        prev = 0.0 if v < 0.0 else (lam if v > lam else v)
    return total + prev


@dataclass(frozen=True)
class SpanAlgorithm:
    """An update rule whose iterates stay in the span of past data.

    kinds: 'halpern-classic' (anchored at x^0 = 0) or 'km-constant' (averaged,
    weight alpha).
    """

    kind: str
    batches: BatchSchedule
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("halpern-classic", "km-constant"):
            raise ValueError(f"unknown span algorithm kind {self.kind!r}")
        if self.kind == "km-constant" and not 0.0 < self.alpha < 1.0:
            raise ValueError("km weight alpha must lie in (0, 1)")

    def steps(self) -> StepSchedule:
        if self.kind == "halpern-classic":
            return StepSchedule.halpern_classic()
        return StepSchedule.km_constant(self.alpha)


@dataclass
class AdversarialTrace:
    """Per-step trace starting at n = 0 (the initial point x^0 = 0)."""

    n: np.ndarray
    prog: np.ndarray
    cum_queries: np.ndarray
    residual: np.ndarray  # exact L1 residual
    weight: np.ndarray  # step weight used (0 at n = 0)
    batch: np.ndarray  # k_n (0 at n = 0)
    noise_norm: np.ndarray  # realized L1 noise (0 at n = 0)
    dist_to_fp: np.ndarray  # L1 distance to (lam/2, ..., lam/2)
    final_x: np.ndarray

    def steps(self) -> int:
        return int(self.n.shape[0]) - 1


def adversarial_runs(
    inst: AdversarialInstance, algo: SpanAlgorithm, rngs: list[RngStream]
) -> list[AdversarialTrace]:
    """run_adversarial for each of rngs (one stream, any seeds), stepped together.

    Trace i is what run_adversarial(inst, algo, rngs[i]) returns. The span
    algorithms' iterates stay finite; a seed that does not raises ValueError.
    """
    schedule = algo.steps()
    # every step spends at least one query, so the budget bounds the steps
    t = iterate_stack(inst.oracle(), np.zeros(inst.d), schedule.weight, algo.batches.size,
                      inst.n_budget, L1, rngs, anchored=schedule.is_halpern,
                      budget=inst.n_budget, flush=_FLUSH)
    for rng, reason in zip(rngs, t.abort_reason):
        if reason is not None:
            raise ValueError(f"seed {rng.seed}: {reason}")
    return [AdversarialTrace(n=t.n, prog=t.prog[i], cum_queries=t.cum_queries,
                             residual=t.residual[i], weight=t.weight, batch=t.batch,
                             noise_norm=t.noise_norm[i], dist_to_fp=t.dist_to_fp[i],
                             final_x=t.final_x[i]) for i in range(len(rngs))]


def run_adversarial(
    inst: AdversarialInstance, algo: SpanAlgorithm, rng: RngStream
) -> AdversarialTrace:
    """Run one seeded trajectory from x^0 = 0 until the query budget is exhausted.

    Steps whose batch would push cumulative queries past the budget are not
    taken; every recorded step is budget-feasible. Coordinates below _FLUSH
    in magnitude are set to 0 after each step, so prog stays well defined. T
    is applied steps + 1 times: T(x^n), measured for the residual, is reused
    for step n+1's draw.
    """
    return adversarial_runs(inst, algo, [rng])[0]
