"""Anchored (Halpern) and averaged (Krasnoselskii-Mann) stochastic iterations.

The anchored scheme is x^n = (1 - beta_n) x^0 + beta_n * minibatch(x^{n-1})
with the anchor fixed at the initial point and beta_0 = 0. The averaged
baseline is x^n = (1 - alpha_n) x^{n-1} + alpha_n * minibatch(x^{n-1}) with a
batch of one, i.e. one oracle query per step, no variance reduction.

Every run steps through iterate_stack(): the seeds of a run advance together
as one (B, d) array, and halpern_run, km_run, lower_bound.run_adversarial and
the Q-learning runners of mdp (this iteration on a Bellman operator over
flattened (s, a) tables, with a sampled oracle) are stacks of one. A block
of steps at a time is checked for non-finite iterates, once, and measured
with the exact operator (residuals and distances). A stack owns one
generator (oracles.StepGenerator), so every (seed, step) draws what
RngStream(seed, stream).substream(n).generator() would.
T(x^n), measured for the residual, is carried into step n+1's draw when the
noise reads it; Q-learning's draws do not, and its runs apply T per block.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import NormKind, as_vector, last_nonzero_index, norm
from .oracles import NoiseModel, OracleDescriptor, ResistantBernoulli, RngStream, StepGenerator

__all__ = [
    "StepSchedule",
    "BatchSchedule",
    "RunRecord",
    "StackTrace",
    "iterate_stack",
    "halpern_run",
    "halpern_runs",
    "km_run",
    "km_runs",
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


class StackTrace(NamedTuple):
    """Columns n = 0..steps of a stack of runs that share a schedule; row i is seed i.

    Column 0 measures x^0 (weight, batch, cumulative queries and noise 0).
    Row i holds steps[i] steps: a seed that aborted at step n keeps columns
    0..n-1, its abort_reason, and x^{n-1} as final_x. The schedule columns
    n, weight, batch and cum_queries are read-only, since the record of
    every row shares them.
    """

    n: np.ndarray
    weight: np.ndarray
    batch: np.ndarray
    cum_queries: np.ndarray
    residual: np.ndarray  # (B, steps + 1)
    dist_to_fp: np.ndarray | None  # (B, steps + 1), absent without a known x*
    noise_norm: np.ndarray  # (B, steps + 1)
    prog: np.ndarray | None  # (B, steps + 1) last nonzero coordinate, as lower_bound.prog
    final_x: np.ndarray  # (B, d)
    steps: list[int]
    abort_reason: list[str | None]


def _schedule(weight, size, N: int, per_query: int = 1, budget: int | None = None):
    """(n, weight, batch, cum_queries) of steps 0..steps as read-only arrays; step 0 is zeros.

    Step n takes k_n = size(n) queries of per_query samples each. steps is N,
    or with a budget the steps before the first whose cumulative count would
    pass it; without one, a count past 2^63 - 1 is a ValueError as soon as
    the next step's size is known. Runs whose weight and size are bound
    methods of equal frozen dataclasses share one set of arrays; other
    callables are not cached.
    """
    key = _by_value(weight), _by_value(size)
    key = None if None in key else key + (N, per_query, budget)
    columns = _SCHEDULES.get(key)
    if columns is None:
        sizes, cum, total = [0], [0], 0
        for n in range(1, N + 1):
            k = size(n)  # a size error of the step after the count passes comes first
            if total > 2 ** 63 - 1:
                break
            total += k * per_query
            if budget is not None and total > budget:
                break
            sizes.append(k)
            cum.append(total)
        if budget is None and total > 2 ** 63 - 1:
            raise ValueError(f"cumulative query count {total} exceeds 2^63 - 1 at step "
                             f"{len(sizes) - 1} of N = {N}")
        weights = [0.0] + [weight(n) for n in range(1, len(sizes))]
        columns = (np.arange(len(sizes), dtype=np.int64), np.array(weights, dtype=np.float64),
                   np.array(sizes, dtype=np.int64), np.array(cum, dtype=np.int64))
        for c in columns:
            c.setflags(write=False)  # every row's record holds these
        if key is not None:
            if len(_SCHEDULES) >= _SCHEDULES_KEPT:
                del _SCHEDULES[next(iter(_SCHEDULES))]
            _SCHEDULES[key] = columns
    return columns


def _by_value(f):
    """f's cache key if f is a bound method of a frozen dataclass, which gives equal
    schedules for equal instances; None for any other callable."""
    owner = getattr(f, "__self__", None)
    params = getattr(owner, "__dataclass_params__", None)
    return (f.__func__, owner) if params is not None and params.frozen else None


# the schedule columns of the last few (weight, size, N, per_query, budget) that _by_value keys
_SCHEDULES: dict = {}
_SCHEDULES_KEPT = 4

# A block holds at most _BLOCK steps, and more than one only while each of its
# (steps, B, d) buffers stays within _BLOCK_COORDS coordinates. A stack of at most
# _TILED_COORDS coordinates tiles its step weights to its shape (no broadcasting).
_BLOCK = 1024
_BLOCK_COORDS = 1 << 14
_TILED_COORDS = 1 << 8


def iterate_stack(
    o: OracleDescriptor,
    x0: np.ndarray,
    weight: Callable[[int], float],
    size: Callable[[int], int],
    N: int,
    norm_kind: NormKind,
    rngs: list[RngStream],
    *,
    anchored: bool,
    budget: int | None = None,
    flush: float = 0.0,
) -> StackTrace:
    """The per-step loop of every run: the seeds of a stack step together.

    Row i runs rngs[i] (the rows share a stream) from x0 on the schedule
    k_n = size(n), w_n = weight(n) of steps 1..N, cut with a budget before
    the first step whose cumulative queries would pass it. Step n draws each
    row's minibatch mean y of k_n queries at x^{n-1} from substream(n), sets
    x^n = (1 - w_n) b + w_n y with b = x^0 (anchored) or x^{n-1} and zeroes
    the coordinates below flush in magnitude; it applies T(x^n) only for a
    noise that reads it (every noise model of oracles does). Each block of
    steps is then checked by one isfinite over its iterates and measured in
    one norm call: noise, exact residual and distance to the operator's
    known fixed point. prog(x^n) is recorded for resistant noise, which
    reads it; otherwise prog is None. Q-learning's sampler (mdp) draws from
    the iterate alone: steps(xs, ests, keyed) gives step(j, n, k), every
    row's y at step n from its iterate xs[j], writing its estimate into
    ests[j]; measure(xs, ests) gives a block's exact T and realized noise
    from the iterate before the block and the block's iterates; and a query
    draws pairs samples. Each step writes x^n (and the estimate) straight
    into the block's buffers. A row aborts at its first step with a
    non-finite x^n or measured value (the iterate check first at equal n),
    though it steps on to its block's end; the others go on.
    """
    sampled = not isinstance(o.noise, NoiseModel)
    schedule = _schedule(weight, size, N, o.noise.pairs if sampled else 1, budget)
    sizes = schedule[2].tolist()
    cols, rows, d = len(sizes), len(rngs), x0.shape[0]
    apply, draw = o.base.apply, None if sampled else o.noise.batch_mean
    target = o.base.fixed_point_info().point
    keyed = StepGenerator(rngs, cols - 1)
    height = max(1, min(_BLOCK, cols - 1, _BLOCK_COORDS // (rows * d)))

    def lengths(v):
        try:
            return norm(v, norm_kind)
        except ValueError:  # rows that overflowed measure inf, so they abort
            ok = np.isfinite(v).all(axis=1)
            out = np.full(v.shape[0], math.inf)
            out[ok] = norm(v[ok], norm_kind)
            return out

    x = np.tile(x0, (rows, 1))  # the live rows' iterate before a block
    tx = apply(x)
    # column-major, so a block writes contiguous rows of steps
    residual, noise = np.zeros((cols, rows)), np.zeros((cols, rows))
    dist = None if target is None else np.zeros((cols, rows))
    prog = np.zeros((cols, rows), dtype=np.int64) if isinstance(o.noise, ResistantBernoulli) else None
    residual[0] = lengths(x - tx)
    if dist is not None:
        dist[0] = lengths(x - target)
    front = None  # last_nonzero_index of the live rows of x, for the next draw
    if prog is not None:
        front = prog[0] = last_nonzero_index(x)
    final_x = x.copy()
    steps, reasons = [cols - 1] * rows, [None] * rows
    live = np.arange(rows)  # the stack's rows that have not aborted, in seed order

    def close(j, start):
        """Measure the block's steps start..start + j - 1 of the live rows, xs[1:j + 1]
        after x^{start-1} in xs[0], and abort each row at its first non-finite iterate
        or measured value (the iterate first). Returns the mask of the rows kept."""
        finite, fail = np.isfinite(xs[1:j + 1]), np.full(live.size, j)
        if not finite.all():
            bad = ~finite.all(axis=2)
            fail = np.where(bad.any(axis=0), bad.argmax(axis=0), j)
            for r in np.flatnonzero(fail < j).tolist():
                xs[fail[r] + 1:j + 1, r] = xs[fail[r], r]  # measured in place of the failed steps
        if sampled:
            txs, diffs[0, :j] = o.noise.measure(xs[:j + 1], ests[:j])
            np.subtract(xs[1:j + 1], txs, out=diffs[1, :j])
        if target is not None:
            np.subtract(xs[1:j + 1], target, out=diffs[2, :j])
        m = lengths(diffs[:, :j].reshape(-1, d)).reshape(len(diffs), j, live.size)
        bad = ~(m.max(axis=0) < math.inf)  # norms are >= 0, never NaN
        first = np.where(bad.any(axis=0), bad.argmax(axis=0), j)
        cut = np.minimum(first, fail)
        for r in np.flatnonzero(cut < j).tolist():
            c, i = int(cut[r]), int(live[r])
            m[:, c:, r] = 0.0
            final_x[i], steps[i] = xs[c, r], start + c - 1
            what = "iterate" if fail[r] <= first[r] else "measurement"
            reasons[i] = f"non-finite {what} at step {start + c}"
            if prog is not None:
                prog[start + c:, i] = 0
        span = slice(start, start + j)
        noise[span, live], residual[span, live] = m[0], m[1]
        if dist is not None:
            dist[span, live] = m[2]
        return cut == j

    start, xs, multiply, add = 1, None, np.multiply, np.add  # xs: no buffers yet
    while start < cols and live.size:
        stop = min(start + height, cols)
        if xs is None:
            # the live rows' buffers, which steps write into: x^{start-1} and a block's
            # iterates, its measured differences, estimates, w_m, (1 - w_m) x^0 or 1 - w_m,
            # and a step's w_n y and (1 - w_n) x^{n-1}; block rows are listed, faster to index
            xs = np.empty((height + 1, live.size, d))
            diffs = np.empty((2 if target is None else 3, height, live.size, d))
            ests = np.empty((height, live.size, d)) if sampled else None
            ws, bs = np.empty((2, height, live.size if live.size * d <= _TILED_COORDS else 1, d))
            wy, bx = np.empty((2, live.size, d))
            xrows, wrows, brows = list(xs), list(ws), list(bs)
            step = o.noise.steps(xs, ests, keyed) if sampled else None
            xs[0] = x
            x = xs[0]
        ws[:stop - start] = schedule[1][start:stop, None, None]
        np.multiply(np.subtract(1.0, ws, out=bs), x0 if anchored else 1.0, out=bs)
        # a row steps on past a non-finite iterate, and its inf - inf warns of nothing
        with np.errstate(invalid="ignore"):
            for n in range(start, stop):
                j = n - start
                if sampled:  # selects step n of keyed when it draws from it
                    y = step(j, n, sizes[n])
                else:
                    y = draw(tx, xrows[j], sizes[n], keyed.step(n), front)
                multiply(y, wrows[j], wy)
                add(brows[j] if anchored else multiply(xrows[j], brows[j], bx), wy, xrows[j + 1])
                if not sampled:
                    x_new = xrows[j + 1]
                    if flush:
                        x_new[np.abs(x_new) < flush] = 0.0
                    np.subtract(y, tx, out=diffs[0, j])
                    tx = apply(x_new)
                    np.subtract(x_new, tx, out=diffs[1, j])
                    if prog is not None:
                        front = prog[n][live] = last_nonzero_index(x_new)
        keep = close(stop - start, start)
        x[:] = xs[stop - start]  # the next block's x^{start-1}
        if not keep.all():
            live, x, xs = live[keep], x[keep], None
            if not sampled:
                tx = tx[keep]
            if front is not None:
                front = front[keep]
            keyed.seeds = [s for s, kept in zip(keyed.seeds, keep.tolist()) if kept]
        start = stop
    final_x[live] = x
    return StackTrace(
        *schedule,
        residual=residual.T,
        dist_to_fp=None if dist is None else dist.T,
        noise_norm=noise.T,
        prog=None if prog is None else prog.T,
        final_x=final_x,
        steps=steps,
        abort_reason=reasons,
    )


def _records(t: StackTrace) -> list[RunRecord]:
    """One RunRecord per row of a stack's trace: its columns 1..steps."""
    records = []
    for i, steps in enumerate(t.steps):
        cut = slice(1, steps + 1)
        records.append(RunRecord(
            t.n[cut], t.weight[cut], t.batch[cut], t.cum_queries[cut],
            residual=t.residual[i, cut],
            dist_to_fp=None if t.dist_to_fp is None else t.dist_to_fp[i, cut],
            noise_norm=t.noise_norm[i, cut],
            final_x=t.final_x[i],
            aborted=t.abort_reason[i] is not None,
            abort_reason=t.abort_reason[i],
        ))
    return records


def _vector_runs(o, x0, weight, size, N, norm_kind, rngs, anchored) -> list[RunRecord]:
    """One RunRecord per seed of iterate_stack on minibatches of an oracle."""
    if N < 1:
        raise ValueError("N must be >= 1")
    start = as_vector(x0).copy()
    if start.shape[0] != o.dim:
        raise ValueError("x0 dimension does not match the operator")
    return _records(iterate_stack(o, start, weight, size, N, norm_kind, rngs, anchored=anchored))


def halpern_runs(
    o: OracleDescriptor,
    x0,
    steps: StepSchedule,
    batches: BatchSchedule,
    N: int,
    norm_kind: NormKind,
    rngs: list[RngStream],
) -> list[RunRecord]:
    """halpern_run for each of rngs (one stream, any seeds), stepped together.

    Record i is what halpern_run(..., rngs[i]) returns.
    """
    if not steps.is_halpern:
        raise ValueError("halpern_run needs an anchored (halpern) step schedule")
    return _vector_runs(o, x0, steps.weight, batches.size, N, norm_kind, rngs, anchored=True)


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
    return halpern_runs(o, x0, steps, batches, N, norm_kind, [rng])[0]


def km_runs(
    o: OracleDescriptor,
    x0,
    steps: StepSchedule,
    N: int,
    norm_kind: NormKind,
    rngs: list[RngStream],
) -> list[RunRecord]:
    """km_run for each of rngs (one stream, any seeds), stepped together.

    Record i is what km_run(..., rngs[i]) returns.
    """
    if steps.is_halpern:
        raise ValueError("km_run needs an averaged (km) step schedule")
    return _vector_runs(o, x0, steps.weight, BatchSchedule.constant(1).size, N, norm_kind, rngs,
                        anchored=False)


def km_run(
    o: OracleDescriptor,
    x0,
    steps: StepSchedule,
    N: int,
    norm_kind: NormKind,
    rng: RngStream,
) -> RunRecord:
    """Run the averaged baseline for N steps (single query per step)."""
    return km_runs(o, x0, steps, N, norm_kind, [rng])[0]


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
