"""Tabular MDPs: generative sampling, exact solvers, and synchronous Q-learning.

Average-reward fixed points solve Q = r + P max Q - v* (nonexpansive in the
sup norm under the unichain assumption); discounted fixed points solve
Q = r + gamma P max Q (a gamma-contraction). Every learning algorithm is
engine.iterate_stack on flattened (s, a) tables, its Bellman map an Operator
and its sampler a noise model, so the seeds of a run step together.

Each step of all five runners draws the next-state counts of every (s, a)
pair as one Generator.multinomial(k, P) call on the step's fresh generator
would, in row-major (s, a) order: the exact sufficient statistic for the
batch mean of max_a' Q(s', a'). A batch of one (rvi, vanilla, and the
geometric taper's early steps) is replayed from raw Philox words drawn for
a block of steps and every seed at once (oracles._multinomial_one); k > 1
re-keys a generator per seed. Coupled replays (same seed and stream)
consume identical counts sample-for-sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .engine import BatchSchedule, StepSchedule, _records, iterate_stack
from .linalg import LINF
from .operators import FixedPointInfo, Operator
from .oracles import OracleDescriptor, RngStream, _multinomial_one

__all__ = [
    "MDPValidationError",
    "TabularMDP",
    "AnchorFunction",
    "AverageSolution",
    "mdp_from_dict",
    "load_mdp",
    "bellman_discounted",
    "bellman_average",
    "solve_discounted_exact",
    "solve_average_exact",
    "check_unichain",
    "greedy_policy",
    "halpern_q_average",
    "benchmark_q_average",
    "halpern_q_discounted",
    "rvi_q_learning",
    "vanilla_q_discounted",
    "discounted_iteration_count",
]

_ROW_TOL = 1e-12
_POLICY_ENUM_CAP = 10 ** 6


class MDPValidationError(ValueError):
    """Raised when an MDP description violates the model invariants."""


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP: transitions (S, A, S) row-stochastic, rewards (S, A) in [0, 1]."""

    transitions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.transitions, dtype=np.float64)
        r = np.asarray(self.rewards, dtype=np.float64)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise MDPValidationError(
                f"transitions must have shape (S, A, S), got {p.shape}"
            )
        if r.shape != p.shape[:2]:
            raise MDPValidationError(
                f"rewards shape {r.shape} does not match transitions {p.shape[:2]}"
            )
        if not np.isfinite(p).all():
            raise MDPValidationError("transitions contain non-finite entries")
        if not np.isfinite(r).all():
            raise MDPValidationError("rewards contain non-finite entries")
        s_bad, a_bad = np.where(p.min(axis=2) < 0)
        if s_bad.size:
            raise MDPValidationError(
                f"transitions[{s_bad[0]}][{a_bad[0]}] has a negative probability"
            )
        sums = p.sum(axis=2)
        s_bad, a_bad = np.where(np.abs(sums - 1.0) > _ROW_TOL)
        if s_bad.size:
            raise MDPValidationError(
                f"transitions[{s_bad[0]}][{a_bad[0]}] sums to {float(sums[s_bad[0], a_bad[0]])!r}, not 1"
            )
        if (r < 0).any() or (r > 1).any():
            s_bad, a_bad = np.where((r < 0) | (r > 1))
            raise MDPValidationError(
                f"rewards[{s_bad[0]}][{a_bad[0]}] = {r[s_bad[0], a_bad[0]]!r} lies outside [0, 1]"
            )
        p = p.copy()
        r = r.copy()
        p.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "rewards", r)

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def r_max(self) -> float:
        return float(self.rewards.max())

    def to_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "num_actions": self.num_actions,
            "transitions": self.transitions.tolist(),
            "rewards": self.rewards.tolist(),
        }


def mdp_from_dict(doc: dict) -> TabularMDP:
    """Build a TabularMDP from the JSON document structure, with field-path errors."""
    if not isinstance(doc, dict):
        raise MDPValidationError("MDP document must be a JSON object")
    required = {"num_states", "num_actions", "transitions", "rewards"}
    unknown = set(doc) - required
    if unknown:
        raise MDPValidationError(f"unknown MDP field {sorted(unknown)[0]!r}")
    missing = required - set(doc)
    if missing:
        raise MDPValidationError(f"missing MDP field {sorted(missing)[0]!r}")
    ns, na = doc["num_states"], doc["num_actions"]
    if not isinstance(ns, int) or ns < 1:
        raise MDPValidationError(f"num_states must be a positive integer, got {ns!r}")
    if not isinstance(na, int) or na < 1:
        raise MDPValidationError(f"num_actions must be a positive integer, got {na!r}")
    try:
        p = np.array(doc["transitions"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MDPValidationError(f"transitions is not a numeric S x A x S array: {exc}")
    try:
        r = np.array(doc["rewards"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MDPValidationError(f"rewards is not a numeric S x A array: {exc}")
    if p.shape != (ns, na, ns):
        raise MDPValidationError(
            f"transitions shape {p.shape} does not match (num_states, num_actions, num_states) = {(ns, na, ns)}"
        )
    if r.shape != (ns, na):
        raise MDPValidationError(
            f"rewards shape {r.shape} does not match (num_states, num_actions) = {(ns, na)}"
        )
    return TabularMDP(p, r)


def load_mdp(path) -> TabularMDP:
    """Load and validate an MDP JSON file (num_states, num_actions, transitions, rewards)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MDPValidationError(f"{path}: cannot read the model: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MDPValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    try:
        return mdp_from_dict(doc)
    except MDPValidationError as exc:
        raise MDPValidationError(f"{path}: {exc}")


@dataclass(frozen=True)
class AnchorFunction:
    """A shift-equivariant table functional: f(Q + c) = f(Q) + c.

    kinds: 'max', 'min', 'mean', 'coordinate' (value at a fixed (s, a)).
    """

    kind: str
    s: int = 0
    a: int = 0

    def __post_init__(self):
        if self.kind not in ("max", "min", "mean", "coordinate"):
            raise ValueError(f"unknown anchor kind {self.kind!r}")
        if self.kind == "coordinate" and (self.s < 0 or self.a < 0):
            raise ValueError("coordinate anchor indices must be >= 0")

    def value(self, q: np.ndarray) -> float:
        return float(self._of_rows(q.reshape(1, -1), q.shape[1])[0])

    def _of_rows(self, x: np.ndarray, num_actions: int) -> np.ndarray:
        """value() of each row of a (B, S * A) stack of flattened tables."""
        if self.kind == "coordinate":
            return x[:, self.s * num_actions + self.a]
        return getattr(x, self.kind)(axis=1)  # x.max, x.min or x.mean


@dataclass(frozen=True)
class AverageSolution:
    """Optimal average reward and a Max-normalized solution table."""

    v_star: float
    q_star: np.ndarray
    iterations: int


def _check_table(m: TabularMDP, q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (m.num_states, m.num_actions):
        raise ValueError(
            f"Q-table shape {q.shape} does not match the model {(m.num_states, m.num_actions)}"
        )
    return q


def bellman_discounted(m: TabularMDP, q, gamma: float) -> np.ndarray:
    """(TQ)(s,a) = r(s,a) + gamma * E max_a' Q(s',a'); a gamma-contraction in sup norm."""
    q = _check_table(m, q)
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return _tables(m, gamma=gamma)(q)


def bellman_average(m: TabularMDP, q, v_star: float) -> np.ndarray:
    """(HQ)(s,a) = r(s,a) + E max_a' Q(s',a') - v*; nonexpansive in sup norm."""
    return _tables(m, v_star=v_star)(_check_table(m, q))


def solve_discounted_exact(m: TabularMDP, gamma: float, tol: float = 1e-10) -> np.ndarray:
    """Value iteration to ||Q - Q*||_inf <= tol (stopping rule tol (1-gamma)/(2 gamma))."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not tol > 0:
        raise ValueError("tol must be positive")
    stop = tol * (1.0 - gamma) / (2.0 * gamma)
    q, bellman = np.zeros((m.num_states, m.num_actions)), _tables(m, gamma=gamma)
    while True:
        nxt = bellman(q)
        if np.abs(nxt - q).max() <= stop:
            q = nxt
            break
        q = nxt
    cap = m.r_max / (1.0 - gamma)
    if np.abs(q).max() > cap + 1e-9 + tol:
        raise RuntimeError("solved table exceeds the r_max/(1-gamma) magnitude cap")
    return q


def solve_average_exact(
    m: TabularMDP, tol: float = 1e-10, max_iter: int = 10 ** 6
) -> AverageSolution:
    """Damped relative value iteration for the optimal average reward.

    Sweeps Q <- (Q + L Q)/2 with L Q = r + P max Q, renormalizing to Max = 0,
    until the span of L Q - Q is <= tol. The damping is an aperiodicity
    transform: undamped sweeps oscillate on periodic chains (e.g. deterministic
    cycles). v* is the midpoint of the final difference range (error <= tol/2)
    and the returned table satisfies the fixed-point identity within tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    q, lookahead = np.zeros((m.num_states, m.num_actions)), _tables(m, v_star=0.0)
    for it in range(max_iter):
        lq = lookahead(q)  # r + P max Q, as x - 0.0 == x
        diff = lq - q
        span = float(diff.max() - diff.min())
        if span <= tol:
            v_star = float((diff.max() + diff.min()) / 2.0)
            q_star = q - q.max()
            q_star.setflags(write=False)
            return AverageSolution(v_star, q_star, it)
        q = 0.5 * q + 0.5 * lq
        q -= q.max()
    raise RuntimeError(
        f"relative value iteration did not reach span {tol:g} within {max_iter} sweeps; "
        "the model likely violates the unichain assumption"
    )


def check_unichain(m: TabularMDP) -> bool:
    """True iff every deterministic stationary policy induces a single recurrent class.

    Enumerates all A^S policies; refuses instances with S * A^S > 10^6.
    """
    import networkx as nx

    s_count, a_count = m.num_states, m.num_actions
    work = s_count * a_count ** s_count
    if work > _POLICY_ENUM_CAP:
        raise ValueError(
            f"policy enumeration needs S * A^S = {work} > {_POLICY_ENUM_CAP}; instance too large"
        )
    support = m.transitions > 0.0
    for policy in product(range(a_count), repeat=s_count):
        g = nx.DiGraph()
        g.add_nodes_from(range(s_count))
        for s in range(s_count):
            for s2 in np.flatnonzero(support[s, policy[s]]):
                g.add_edge(s, int(s2))
        cond = nx.condensation(g)
        recurrent = sum(1 for node in cond.nodes if cond.out_degree(node) == 0)
        if recurrent != 1:
            return False
    return True


def greedy_policy(q: np.ndarray) -> np.ndarray:
    """Greedy action per state; ties go to the lowest action index."""
    return np.argmax(q, axis=1)


def _batch_mean_max(m: TabularMDP, maxv: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """(1/k) sum over k generative draws of max_a' Q(s',a'), per (s, a).

    One multinomial call on gen draws every pair's count vector in
    row-major order; _Sampled takes this path only for steps with k > 1, and
    replays batches of one from block Philox words. The row-wise vecdot
    keeps the bits of a per-pair counts @ maxv, which a 2-D matmul does not.
    """
    return np.vecdot(gen.multinomial(k, m.transitions), maxv) / k


def _check_discounted(m: TabularMDP, gamma: float, q0, N: int) -> np.ndarray:
    q0 = _check_table(m, q0)
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    if np.abs(q0).max() > m.r_max / (1.0 - gamma):
        raise ValueError("||Q0||_inf must not exceed r_max / (1 - gamma)")
    return q0


class _Bellman(Operator):
    """T(Q) = residual(P max Q) of a vector or each row of a (B, S * A) stack of
    flattened tables; gamma is the discounted factor (1 for average reward)."""

    def __init__(self, m: TabularMDP, residual, gamma: float, q_star=None):
        self.m, self.residual = m, residual
        self.dim = m.num_states * m.num_actions
        self.flat = m.transitions.reshape(self.dim, m.num_states)
        self.declared_norm = LINF
        self.gamma = float(gamma)
        self.q_star = None if q_star is None else np.asarray(q_star, dtype=np.float64).reshape(-1)

    def lookahead(self, x: np.ndarray) -> np.ndarray:
        """P max Q of each row: one gemv per row, with the bits of one table's product."""
        # the max over actions of an actions-first copy: numpy reduces short rows slowly
        maxv = np.moveaxis(x.reshape(len(x), self.m.num_states, -1), 2, 0).copy().max(axis=0)
        return (self.flat @ maxv[:, :, None])[:, :, 0]

    def apply(self, x) -> np.ndarray:
        x = self._points(x)
        return self.residual(self.lookahead(x.reshape(-1, self.dim))).reshape(x.shape)

    def fixed_point_info(self) -> FixedPointInfo:
        return FixedPointInfo(self.q_star)


class _Sampled:
    """The sampled oracle of op, built per run: a noise model that reads no T(x).

    A query draws one next state s' of every pair, and est is the k-sample
    batch mean of max_a' Q(s', a'); a step gives target(Q, est) (op.residual(est)
    by default). The realized noise is op.gamma (est - E est) with E est =
    P max Q, (r + gamma est) - (r + gamma E est) in exact arithmetic. A batch
    of one reads counts replayed a block at a time (oracles._multinomial_one,
    kept here); k > 1 re-keys the stack's generator per row (_batch_mean_max).
    """

    def __init__(self, op: _Bellman, target=None):
        self.op, self.target = op, target
        self.pairs = op.dim

    def steps(self, xs, ests, keyed):
        """step(j, n, k): every row's y at a block's step n, from its (B, S * A) iterate
        xs[j] and k samples of keyed's step n; it writes the estimates into ests[j]."""
        m, op, target, rows = self.op.m, self.op, self.target, ests.shape[1]
        maxv = np.empty((rows, 1, m.num_states))  # max_a' Q(s', a') of each row and state
        maxs, reduce, vecdot = maxv.reshape(-1), np.maximum.reduce, np.vecdot
        states = list(xs.reshape(len(xs), -1, m.num_actions))  # each step's (B * S, A) tables
        erows, y = list(ests), np.empty(ests.shape[1:])
        if target is None:  # a map of _maps, its rewards and factor tiled to y's shape
            residual = op.residual.func
            rewards, c = (np.broadcast_to(a, y.shape).copy() for a in op.residual.args)
        first, end, counts = 0, 0, []  # steps first..end - 1 of a replay, a list of steps

        def step(j, n, k):
            nonlocal first, end, counts
            e = erows[j]
            reduce(states[j], 1, None, maxs)
            if k > 1:
                keyed.step(n)
                for i, v in enumerate(maxv[:, 0]):
                    e[i] = _batch_mean_max(m, v, k, keyed.generator(i)).reshape(-1)
            else:
                if n >= end:  # past the replay: the next block of steps
                    first, counts = _multinomial_one(keyed, n, op.flat)
                    counts = list(counts.astype(np.float64))  # exact, so vecdot casts nothing
                    end = first + len(counts)
                vecdot(counts[n - first], maxv, e)  # the batch mean, as x / 1 == x
            return residual(rewards, c, e, y) if target is None else target(xs[j], e)
        return step

    def measure(self, xs, ests):
        """(T of each iterate, realized noise of each step) of a block: xs is
        (steps + 1, B, S * A), the iterate each row held before the block and then
        the block's, and ests is (steps, B, S * A)."""
        steps, rows, d = ests.shape
        pm = self.op.lookahead(xs.reshape(-1, d)).reshape(steps + 1, rows, d)
        return self.op.residual(pm[1:]), self.op.gamma * (ests - pm[:-1])


# the discounted and average-reward maps of a lookahead pm = P max Q (into out, if
# given) and the anchored average-reward target; module functions, so a plan pickles
def _discounted(rewards, gamma, pm, out=None):
    return np.add(rewards, np.multiply(pm, gamma, out), out)


def _average(rewards, v_star, pm, out=None):
    return np.subtract(np.add(rewards, pm, out), v_star, out)


def _anchored(rewards, f, num_actions, x, est):
    return (rewards + est) - f._of_rows(x, num_actions)[:, None]


def _maps(m: TabularMDP, *, gamma=None, v_star=None, anchor=None, q_star=None) -> dict:
    """_q_oracle's maps: discounted with gamma and q_star, or average-reward with v*,
    whose target subtracts the anchor f(Q) in place of v* when one is given."""
    r = m.rewards.reshape(1, -1)  # a row's shape, so a stack of one does not broadcast
    if gamma is not None:
        return dict(residual=partial(_discounted, r, gamma), scale=gamma, q_star=q_star)
    maps = dict(residual=partial(_average, r, float(v_star)))
    if anchor is not None:
        maps["target"] = partial(_anchored, r, anchor, m.num_actions)
    return maps


def _tables(m: TabularMDP, **maps):
    """Q -> residual(P max Q) on (S, A) tables, through one _Bellman of a _maps map."""
    op = _Bellman(m, _maps(m, **maps)["residual"], 1.0)
    return lambda q: op.apply(q.reshape(-1)).reshape(q.shape)


def _q_oracle(m: TabularMDP, *, residual, target=None, scale=1.0, q_star=None):
    """The Bellman operator and sampled oracle of Q-learning on m, for iterate_stack:
    target and residual act on (..., S * A) arrays (without a target, residual is
    a map of _maps), and the realized noise is scaled by scale."""
    op = _Bellman(m, residual, scale, q_star)
    return OracleDescriptor(op, _Sampled(op, target))


def _q_runs(m, q0, N, rngs, *, weight, size, anchored, **maps):
    """(final table, RunRecord) of synchronous Q-learning from Q^0 = q0 for each of
    rngs (one stream), stepped together by engine.iterate_stack on _q_oracle(m, **maps).

    Step n sets Q^n = (1 - w_n) B + w_n target(Q^{n-1}, est), with est the
    k_n-sample batch mean of max_a' Q^{n-1} per pair, w_n = weight(n), k_n =
    size(n) and B = Q^0 (anchored) or Q^{n-1}. The trace holds the sup norms
    of scale (est - P max Q^{n-1}), residual(P max Q^n) - Q^n and Q^n - q_star,
    and cum_queries counts k_n per pair.
    """
    t = iterate_stack(_q_oracle(m, **maps), q0.reshape(-1), weight, size, N, LINF, rngs,
                      anchored=anchored)
    return [(r.final_x.reshape(q0.shape).copy(), r) for r in _records(t)]


def halpern_q_average(m: TabularMDP, f: AnchorFunction, q0, N: int, rng: RngStream,
                      v_star: float | None = None):
    """Anchored synchronous Q-learning for average reward (batch size n^6).

    Q^n = (1 - beta_n) Q^0 + beta_n (r + batch-mean max Q^{n-1} - f(Q^{n-1})),
    beta_n = n/(n+1). The residual trace measures ||H Q^n - Q^n||_inf where H
    uses the exact v* (computed here if not supplied); v* enters measurement
    only, never the update.
    """
    q0 = _check_table(m, q0)
    if f.kind == "coordinate" and (f.s >= m.num_states or f.a >= m.num_actions):
        raise ValueError("coordinate anchor out of range for this model")
    if N < 1:
        raise ValueError("N must be >= 1")
    if v_star is None:
        v_star = solve_average_exact(m).v_star
    return _q_runs(m, q0, N, [rng], **_maps(m, v_star=v_star, anchor=f),
                   weight=StepSchedule.halpern_classic().weight,
                   size=BatchSchedule.power_six().size, anchored=True)[0]


def benchmark_q_average(m: TabularMDP, v_star: float, q0, N: int, rng: RngStream):
    """Average-reward anchored Q-learning that subtracts the exact v* each step.

    Identical sampling layout to halpern_q_average, so running both on equal
    (seed, stream) pairs consumes identical draws and the two tables differ by
    a constant table at every step.
    """
    q0 = _check_table(m, q0)
    if N < 1:
        raise ValueError("N must be >= 1")
    return _q_runs(m, q0, N, [rng], **_maps(m, v_star=v_star),
                   weight=StepSchedule.halpern_classic().weight,
                   size=BatchSchedule.power_six().size, anchored=True)[0]


def halpern_q_discounted(m: TabularMDP, gamma: float, q0, N: int, rng: RngStream,
                         q_star: np.ndarray | None = None, solver_tol: float = 1e-10):
    """Anchored synchronous Q-learning, discounted case (batch n^2 gamma^(N-n)).

    Requires ||Q^0||_inf <= r_max/(1-gamma); iterates then stay within that cap.
    The trace records both the Bellman residual and ||Q^n - Q*||_inf against
    the exact solution.
    """
    q0 = _check_discounted(m, gamma, q0, N)
    if q_star is None:
        q_star = solve_discounted_exact(m, gamma, solver_tol)
    return _q_runs(m, q0, N, [rng], **_maps(m, gamma=gamma, q_star=q_star),
                   weight=StepSchedule.halpern_classic().weight,
                   size=BatchSchedule.contractive_geometric(gamma, N).size, anchored=True)[0]


def rvi_q_learning(m: TabularMDP, f: AnchorFunction, a_exponent: float, q0, N: int,
                   rng: RngStream, v_star: float | None = None):
    """Relative-value-iteration Q-learning baseline (a batch of one per pair per step).

    Q^n(s,a) = (1 - alpha_n) Q^{n-1}(s,a)
             + alpha_n (r(s,a) + max_a' Q^{n-1}(s_n(s,a), a') - f(Q^{n-1})),
    alpha_n = 1/(n+1)^a with a in (4/5, 1].
    """
    q0 = _check_table(m, q0)
    if not 0.8 < a_exponent <= 1.0:
        raise ValueError("step exponent must lie in (4/5, 1]")
    if f.kind == "coordinate" and (f.s >= m.num_states or f.a >= m.num_actions):
        raise ValueError("coordinate anchor out of range for this model")
    if N < 1:
        raise ValueError("N must be >= 1")
    if v_star is None:
        v_star = solve_average_exact(m).v_star
    return _q_runs(m, q0, N, [rng], **_maps(m, v_star=v_star, anchor=f),
                   weight=StepSchedule.km_polynomial(a_exponent).weight,
                   size=BatchSchedule.constant(1).size, anchored=False)[0]


def vanilla_q_discounted(m: TabularMDP, gamma: float, alpha_schedule, q0, N: int,
                         rng: RngStream, q_star: np.ndarray | None = None,
                         solver_tol: float = 1e-10):
    """Synchronous Q-learning baseline, a batch of one per pair per step.

    alpha_schedule is a callable n -> alpha in (0, 1]; alpha = 1 gives exact
    value iteration on deterministic models.
    """
    q0 = _check_discounted(m, gamma, q0, N)

    def alpha(n: int) -> float:
        value = float(alpha_schedule(n))
        if not 0.0 < value <= 1.0:
            raise ValueError(f"alpha_{n} = {value} outside (0, 1]")
        return value

    if q_star is None:
        q_star = solve_discounted_exact(m, gamma, solver_tol)
    return _q_runs(m, q0, N, [rng], **_maps(m, gamma=gamma, q_star=q_star), weight=alpha,
                   size=BatchSchedule.constant(1).size, anchored=False)[0]


def discounted_iteration_count(
    m: TabularMDP, gamma: float, epsilon: float, q0_norm: float = 0.0
) -> int:
    """Iteration count N meeting ||Q^N - Q*||_inf <= epsilon in expectation.

    Solves N >= (dist0 + 2 sigma_eff(N)) / (epsilon (1 - gamma)) by fixed-point
    iteration, where dist0 = ||Q0||_inf + r_max/(1-gamma) bounds the initial
    distance a priori and sigma_eff is a Hoeffding estimate of the sup-norm
    noise scale at unit batch size, with the union-bound confidence tied to
    the largest batch of the n^2 gamma^(N-n) schedule (about N^2 at n = N):

      sigma_eff(N) = gamma r_max (sqrt(8 log(2 S A sqrt(N^2 + 1))) + 2) / (1 - gamma).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if q0_norm < 0:
        raise ValueError("q0_norm must be >= 0")
    rmax = m.r_max
    sa = m.num_states * m.num_actions
    dist0 = q0_norm + rmax / (1.0 - gamma)

    def sigma_eff(n_val: int) -> float:
        k_max = math.sqrt(float(n_val) ** 2 + 1.0)
        return (
            gamma * rmax * (math.sqrt(8.0 * math.log(2.0 * sa * k_max)) + 2.0) / (1.0 - gamma)
        )

    n_iter = 1
    for _ in range(64):
        target = (dist0 + 2.0 * sigma_eff(n_iter)) / (epsilon * (1.0 - gamma))
        new_n = max(1, math.ceil(target))
        if new_n == n_iter:
            break
        n_iter = new_n
    return n_iter
