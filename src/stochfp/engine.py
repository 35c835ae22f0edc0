"""Anchored (Halpern) and averaged (Krasnoselskii-Mann) stochastic iterations.

The anchored scheme is x^n = (1 - beta_n) x^0 + beta_n * minibatch(x^{n-1})
with the anchor fixed at the initial point and beta_0 = 0. The averaged
baseline is x^n = (1 - alpha_n) x^{n-1} + alpha_n * minibatch(x^{n-1}) with a
batch of one, i.e. one oracle query per step, no variance reduction.

Both, and the Q-learning runs in mdp, step through iterate(), the one loop
that produces a RunRecord. Residuals and distances in traces are measured
with the exact operator, not estimated from oracle output.

A run owns one generator (oracles.StepGenerator): each step that draws
re-keys it to the key RngStream.generator() would use for rng.substream(n),
so the draws are those of a fresh generator per step. The exact evaluation a
step's residual needs, T(x^n), is carried into step n+1's draw, so a vector
run applies T once per step plus once for x^0.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linalg import NormKind, as_vector, norm
from .oracles import OracleDescriptor, RngStream, StepGenerator

__all__ = [
    "StepSchedule",
    "BatchSchedule",
    "RunRecord",
    "iterate",
    "halpern_run",
    "km_run",
    "bound_nonexpansive",
    "bound_contractive",
    "kappa_bar_bounded_range",
    "batch_exponent_h",
]


@dataclass(frozen=True)
class StepSchedule:
    """Step weights: anchored kinds emit beta_n, averaged kinds emit alpha_n."""

    kind: str
    alpha: float = 0.0  # km-constant
    a: float = 0.0  # km-polynomial exponent

    _KINDS = ("halpern-classic", "halpern-shifted", "km-constant", "km-polynomial")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown step schedule kind {self.kind!r}")
        if self.kind == "km-constant" and not 0.0 < self.alpha < 1.0:
            raise ValueError("constant step alpha must lie in (0, 1)")
        if self.kind == "km-polynomial" and not 0.0 < self.a <= 1.0:
            raise ValueError("polynomial step exponent must lie in (0, 1]")

    @classmethod
    def halpern_classic(cls) -> "StepSchedule":
        """beta_n = n / (n + 1); beta_0 = 0."""
        return cls("halpern-classic")

    @classmethod
    def halpern_shifted(cls) -> "StepSchedule":
        """beta_n = n / (n + 2)."""
        return cls("halpern-shifted")

    @classmethod
    def km_constant(cls, alpha: float) -> "StepSchedule":
        return cls("km-constant", alpha=float(alpha))

    @classmethod
    def km_polynomial(cls, a: float) -> "StepSchedule":
        """alpha_n = (n + 1)^(-a) with a in (0, 1]."""
        return cls("km-polynomial", a=float(a))

    @property
    def is_halpern(self) -> bool:
        return self.kind.startswith("halpern")

    def weight(self, n: int) -> float:
        if n < 0:
            raise ValueError("step index must be >= 0")
        if self.kind == "halpern-classic":
            return n / (n + 1.0)
        if self.kind == "halpern-shifted":
            return n / (n + 2.0)
        if self.kind == "km-constant":
            return self.alpha
        return (n + 1.0) ** (-self.a)


@dataclass(frozen=True)
class BatchSchedule:
    """Minibatch sizes k_n >= 1 per iteration."""

    kind: str
    k: int = 1  # constant
    a: float = 0.0  # power exponent
    gamma: float = 0.0  # geometric-taper factor
    horizon: int = 0  # geometric-taper horizon

    _KINDS = ("constant", "power", "contractive-geometric", "power-six")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown batch schedule kind {self.kind!r}")
        if self.kind == "constant" and self.k < 1:
            raise ValueError("constant batch size must be >= 1")
        if self.kind == "power" and not self.a >= 0.0:
            raise ValueError("power batch exponent must be >= 0")
        if self.kind == "contractive-geometric":
            if not 0.0 < self.gamma < 1.0:
                raise ValueError("geometric batch factor must lie in (0, 1)")
            if self.horizon < 1:
                raise ValueError("geometric batch schedule needs a horizon N >= 1")

    @classmethod
    def constant(cls, k: int) -> "BatchSchedule":
        return cls("constant", k=int(k))

    @classmethod
    def power(cls, a: float) -> "BatchSchedule":
        """k_n = ceil(n^a)."""
        return cls("power", a=float(a))

    @classmethod
    def contractive_geometric(cls, gamma: float, horizon: int) -> "BatchSchedule":
        """k_n = ceil(n^2 gamma^(N - n)) for a fixed horizon N (clamped to >= 1)."""
        return cls("contractive-geometric", gamma=float(gamma), horizon=int(horizon))

    @classmethod
    def power_six(cls) -> "BatchSchedule":
        """k_n = n^6."""
        return cls("power-six")

    def size(self, n: int) -> int:
        """k_n, exact for integer powers below 2^64; beyond the float range a ValueError."""
        if n < 1:
            raise ValueError("batch sizes are defined for n >= 1")
        if self.kind == "constant":
            return self.k
        if self.kind == "power-six":
            return int(n) ** 6
        if self.kind == "power" and float(self.a).is_integer() and self.a * math.log2(n) < 64:
            return max(1, int(n) ** int(self.a))
        try:
            if self.kind == "power":
                return max(1, math.ceil(float(n) ** self.a))
            return max(1, math.ceil(float(n) * float(n) * self.gamma ** (self.horizon - n)))
        except OverflowError:
            raise ValueError(f"batch size k_n at n = {n} exceeds 2^63 - 1") from None


@dataclass
class RunRecord:
    """Per-iteration trace of one run (rows for n = 1..steps) plus the final iterate."""

    n: np.ndarray
    weight: np.ndarray  # beta_n or alpha_n actually used
    batch: np.ndarray  # k_n
    cum_queries: np.ndarray
    residual: np.ndarray  # exact ||x^n - T x^n|| under the run's norm
    dist_to_fp: np.ndarray | None  # exact ||x^n - x*||, absent without a known x*
    noise_norm: np.ndarray  # realized ||U_n||
    final_x: np.ndarray
    aborted: bool = False
    abort_reason: str | None = None

    def steps(self) -> int:
        return int(self.n.shape[0])


def iterate(
    draw: Callable,
    measure: Callable,
    x0: np.ndarray,
    weight: Callable[[int], float],
    size: Callable[[int], int],
    N: int,
    rng: RngStream,
    *,
    anchored: bool,
    with_dist: bool,
    per_query: int = 1,
) -> RunRecord:
    """The one per-step loop behind every RunRecord.

    Step n draws (y, aux) = draw(x^{n-1}, k_n, stream, carry) with
    k_n = size(n), sets x^n = (1 - w_n) b + w_n y with w_n = weight(n) > 0 and
    b = x^0 (anchored) or x^{n-1} (averaged), and traces (residual, dist,
    noise) from (residual, dist, noise, carry) = measure(x^{n-1}, x^n, y, aux).
    stream is the run's one StepGenerator, at rng.substream(n); carry is what
    step n-1's measure returned (None at step 1), so work done to measure x^n
    need not be redone to draw at it. A non-finite x^n, or a non-finite
    measured value (dist may be None), aborts the run with the partial trace
    and x^{n-1} as final iterate. cum_queries counts k_n * per_query; totals
    beyond 2^63 - 1 are rejected before step 1.
    """
    weights = list(map(weight, range(1, N + 1)))
    sizes = list(map(size, range(1, N + 1)))
    cum = list(accumulate(k * per_query for k in sizes))
    if cum[-1] > 2 ** 63 - 1:
        raise ValueError(f"cumulative query count {cum[-1]} exceeds 2^63 - 1 within N = {N} steps")
    residual, dist, noise = [], [], []

    def record(x, reason=None) -> RunRecord:
        steps = len(residual)
        return RunRecord(
            n=np.arange(1, steps + 1, dtype=np.int64),
            weight=np.array(weights[:steps]),
            batch=np.array(sizes[:steps], dtype=np.int64),
            cum_queries=np.array(cum[:steps], dtype=np.int64),
            residual=np.array(residual),
            dist_to_fp=np.array(dist) if with_dist else None,
            noise_norm=np.array(noise),
            final_x=np.array(x, dtype=np.float64).reshape(-1),
            aborted=reason is not None,
            abort_reason=reason,
        )

    keyed = StepGenerator()
    x, carry = x0, None
    for n in range(1, N + 1):
        w = weights[n - 1]
        y, aux = draw(x, sizes[n - 1], keyed.at(rng.substream(n)), carry)
        x_new = (1.0 - w) * (x0 if anchored else x) + w * y
        if not np.isfinite(x_new).all():
            return record(x, f"non-finite iterate at step {n}")
        res, d, e, carry = measure(x, x_new, y, aux)
        if not (math.isfinite(res) and math.isfinite(e) and (d is None or math.isfinite(d))):
            return record(x, f"non-finite measurement at step {n}")
        residual.append(res)
        dist.append(d)
        noise.append(e)
        x = x_new
    return record(x)


def _vector_run(o, x0, weight, size, N, norm_kind, rng, anchored) -> RunRecord:
    """iterate() on minibatches of an oracle, measured with the exact operator under norm_kind."""
    if N < 1:
        raise ValueError("N must be >= 1")
    start = as_vector(x0).copy()
    if start.shape[0] != o.dim:
        raise ValueError("x0 dimension does not match the operator")
    apply = o.base.apply
    target = o.base.fixed_point_info().point

    def length(v) -> float:
        try:
            return norm(v, norm_kind)
        except ValueError:  # v overflowed; iterate() aborts on the inf
            return math.inf

    def draw(x, k, stream, tx):
        if tx is None:
            tx = apply(x)
        return o.noise.batch_mean(tx, x, k, stream), tx

    def measure(x, x_new, y, tx):
        noise = length(y - tx)
        tx_new = apply(x_new)
        res = length(x_new - tx_new)
        dist = length(x_new - target) if target is not None else None
        return res, dist, noise, tx_new

    return iterate(draw, measure, start, weight, size, N, rng, anchored=anchored,
                   with_dist=target is not None)


def halpern_run(
    o: OracleDescriptor,
    x0,
    steps: StepSchedule,
    batches: BatchSchedule,
    N: int,
    norm_kind: NormKind,
    rng: RngStream,
) -> RunRecord:
    """Run the anchored iteration for N steps, tracing exact residuals.

    Iteration n consumes k_n = batches.size(n) oracle queries on the substream
    rng.substream(n). On a non-finite iterate the run aborts and returns the
    partial trace flagged as aborted.
    """
    if not steps.is_halpern:
        raise ValueError("halpern_run needs an anchored (halpern) step schedule")
    return _vector_run(o, x0, steps.weight, batches.size, N, norm_kind, rng, anchored=True)


def km_run(
    o: OracleDescriptor,
    x0,
    steps: StepSchedule,
    N: int,
    norm_kind: NormKind,
    rng: RngStream,
) -> RunRecord:
    """Run the averaged baseline for N steps (single query per step)."""
    if steps.is_halpern:
        raise ValueError("km_run needs an averaged (km) step schedule")
    return _vector_run(o, x0, steps.weight, BatchSchedule.constant(1).size, N, norm_kind, rng,
                       anchored=False)


def bound_nonexpansive(kappa_bar: float, sigma_seq, N: int) -> float:
    """Expected-residual curve for the anchored iteration on nonexpansive maps:

    (kappa + kappa * sum_{n=1}^{N} 1/(n+1) + 2 * sum_{n=1}^{N} n * sigma_n) / (N + 1).
    """
    if kappa_bar < 0:
        raise ValueError("kappa_bar must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    sig = np.asarray(sigma_seq, dtype=np.float64)
    if sig.shape[0] < N:
        raise ValueError(f"sigma sequence has {sig.shape[0]} entries, need >= {N}")
    if (sig < 0).any():
        raise ValueError("sigma entries must be >= 0")
    ns = np.arange(1, N + 1, dtype=np.float64)
    harm = float((1.0 / (ns + 1.0)).sum())
    weighted = float((ns * sig[:N]).sum())
    return (kappa_bar + kappa_bar * harm + 2.0 * weighted) / (N + 1.0)


def bound_contractive(dist0: float, sigma: float, gamma: float, N: int) -> float:
    """Final-iterate distance bound for contractions with geometric-taper batches:

    (dist0 + 2 sigma) / ((1 - gamma)(N + 1)).
    """
    if dist0 < 0 or sigma < 0:
        raise ValueError("dist0 and sigma must be >= 0")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    return (dist0 + 2.0 * sigma) / ((1.0 - gamma) * (N + 1.0))


def kappa_bar_bounded_range(M: float, x0, norm_kind: NormKind) -> float:
    """Residual-curve constant for bounded-range operators: M + ||x0||."""
    if M < 0:
        raise ValueError("range bound M must be >= 0")
    return M + norm(as_vector(x0), norm_kind)


def batch_exponent_h(a: float) -> float:
    """Oracle-complexity exponent of the power batch schedule k_n = ceil(n^a):

    h(a) = 2(a + 1)/(a - 2) on (2, 4], h(a) = 1 + a on [4, inf); minimized at a = 4.
    """
    if not a > 2.0:
        raise ValueError("the exponent is defined for a > 2")
    if a <= 4.0:
        return 2.0 * (a + 1.0) / (a - 2.0)
    return 1.0 + a
