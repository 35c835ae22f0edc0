"""Experiment harness: JSON configs to seeded runs, CSV traces, and rate fits.

Config documents are strict JSON: every field is consumed exactly once and an
unknown or missing field is a hard error naming the offending path (silent
defaults would undermine the bit-for-bit reproducibility contract). Outputs
per experiment directory:

  seed_<seed>.csv   one row per iteration, columns
                    n,beta_or_alpha,k_n,cum_queries,residual,dist_to_fp,noise_norm
  aggregate.csv     per-n mean and standard error across seeds
  progress.csv      per-n progress statistics, for a kind whose runs track prog
  summary.json      config echo, rate fits, bound overlays, check results

Each run kind is one entry of _KINDS: how it reads its fields, builds its loop (with
any exact solve) and summarizes its run; no other code branches on the kind.

Every float in a CSV is exactly Python's '%.17g' of the value: 17 significant
digits, which read back as the same double, with trailing zeros dropped. The
writers format floats in numpy a block of lines at a time (_g17) and write
each block with one os.write, so the files are byte-identical across reruns
with the same config and seeds, and no float column is held whole as text.

A run streams: each process steps its seeds' stacks a window of _BLOCK
columns at a time (_Plan.windows), writes that window of their CSVs, and
drops it once it is reduced over the seeds (_Aggregate) or sent to the CLI
process (_work), so no process holds a whole trace.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import linalg, mdp as mdp_mod
from .engine import (
    BatchSchedule,
    StepSchedule,
    _Loop,
    _Stack,
    _vector_loop,
    bound_contractive,
    bound_nonexpansive,
    kappa_bar_bounded_range,
)
from .linalg import NormKind, norm, norm_equivalence_mu
from .lower_bound import MAX_DIM, SpanAlgorithm, _adversarial_loop, build_instance
from .operators import AffineContraction, ConstantMap, PlaneRotation, ShiftProjection
from .oracles import (
    AdditiveGaussianIID,
    NoNoise,
    OracleDescriptor,
    ResistantBernoulli,
    RngStream,
)

__all__ = [
    "ConfigError",
    "RateFit",
    "parse_seed_spec",
    "validate_config",
    "load_config",
    "run_experiment",
    "fit_rate",
    "evaluate_bounds",
    "read_aggregate_csv",
]


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field path."""


class _OutputError(Exception):
    """An output file that could not be written, as "<path>: <reason>"."""


@contextmanager
def _writing(path):
    """Raise an OSError of the block as the _OutputError of path."""
    try:
        yield
    except OSError as exc:
        raise _OutputError(f"{path}: {exc.strerror or exc}") from None


class _Fields:
    """Tracks field consumption of one JSON object so leftovers become errors."""

    def __init__(self, doc, path: str):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        self.doc = doc
        self.path = path
        self.seen: set[str] = set()

    def take(self, name: str, required: bool = True):
        if name not in self.doc:
            if required:
                raise ConfigError(f"{self.path}.{name}: missing required field")
            return None
        self.seen.add(name)
        return self.doc[name]

    def done(self):
        unknown = sorted(set(self.doc) - self.seen)
        if unknown:
            raise ConfigError(f"{self.path}.{unknown[0]}: unknown field")

    def sub(self, name: str, required: bool = True) -> "_Fields | None":
        val = self.take(name, required=required)
        if val is None and not required:  # null stands for an absent optional block
            return None
        return _Fields(val, f"{self.path}.{name}")


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):  # json.load accepts NaN and Infinity
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return x


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _dim(value, path: str) -> int:
    """An operator's dimension, at most lower_bound.MAX_DIM coordinates."""
    if _integer(value, path) > MAX_DIM:
        raise ConfigError(f"{path}: {value} coordinates, more than the cap of {MAX_DIM}")
    return value


def _uint64(value, path: str) -> int:
    """An integer a Philox key word holds: 0 <= value <= 2^64 - 1."""
    if not 0 <= _integer(value, path) < 2 ** 64:
        raise ConfigError(f"{path}: expected an integer in 0..2^64 - 1, got {value!r}")
    return value


_MAX_SEEDS = 1_000_000
# A run takes at most this many steps; a longer one is refused before --out is made.
_MAX_STEPS = 10_000_000


def _steps(value, path: str) -> int:
    """An iteration count N: 1 <= N <= _MAX_STEPS."""
    N = _integer(value, path)
    if N < 1:
        raise ConfigError(f"{path}: must be >= 1")
    if N > _MAX_STEPS:
        raise ConfigError(f"{path}: {N} steps, more than the {_MAX_STEPS} a run may take")
    return N


def parse_seed_spec(spec) -> list[int]:
    """Seeds as a JSON list of ints or an inclusive range string 'A..B', each in 0..2^64 - 1.

    A range names at most _MAX_SEEDS seeds; a longer one is refused before
    its list is built.
    """
    if isinstance(spec, str):
        parts = spec.split("..")
        if len(parts) != 2:
            raise ConfigError(f"seeds: range string must look like 'A..B', got {spec!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"seeds: range endpoints must be integers, got {spec!r}")
        if hi < lo:
            raise ConfigError(f"seeds: empty range {spec!r}")
        lo, hi = _uint64(lo, "seeds"), _uint64(hi, "seeds")
        if hi - lo >= _MAX_SEEDS:
            raise ConfigError(f"seeds: range {spec!r} names {hi - lo + 1} seeds, "
                              f"more than the {_MAX_SEEDS} a range may name")
        seeds = list(range(lo, hi + 1))
    elif isinstance(spec, list):
        seeds = [_uint64(s, "seeds[]") for s in spec]
    else:
        raise ConfigError("seeds: expected a list of integers or a range string 'A..B'")
    if not seeds:
        raise ConfigError("seeds: must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: duplicates are not allowed")
    return seeds


class _Family(NamedTuple):
    """Tagged specs {"kind": k, <fields>}: kinds maps k to (fields, constructor).

    A field is (name, reader), or (name, reader, default) when optional; a None
    reader passes the JSON value through. unknown is the %-format of the
    unknown-kind error; construction errors name the spec's path plus blame.
    """

    kinds: dict
    unknown: str
    blame: str = ""


_NORMS = _Family({"lp": ((("p", _real),), linalg.lp)},
                 "only 'lp' norm objects are supported, got %r", ".p")
_OPERATORS = _Family({
    "plane-rotation": ((("theta", _real), ("dim", _dim, 2)), PlaneRotation),
    "affine-contraction": ((("matrix", None), ("offset", None), ("gamma", _real)),
                           AffineContraction),
    "shift-projection": ((("lam", _real), ("dim", _dim)),
                         lambda lam, dim, _: ShiftProjection(lam, dim)),
    "constant": ((("target", None),), lambda target, nk: ConstantMap(target, declared_norm=nk)),
}, "unknown operator kind %r")
_NOISES = _Family({
    "none": ((), NoNoise),
    "gaussian": ((("e", _real),), AdditiveGaussianIID),
    "resistant": ((("p", _real),), ResistantBernoulli),
}, "unknown noise kind %r")
_STEPS = _Family({
    "halpern-classic": ((), StepSchedule.halpern_classic),
    "halpern-shifted": ((), StepSchedule.halpern_shifted),
    "km-constant": ((("alpha", _real),), StepSchedule.km_constant),
    "km-polynomial": ((("a", _real),), StepSchedule.km_polynomial),
}, "unknown step-schedule kind %r")
_BATCHES = _Family({
    "constant": ((("k", _integer),), BatchSchedule.constant),
    "power": ((("a", _real),), BatchSchedule.power),
    "contractive-geometric": ((("gamma", _real), ("horizon", _integer)),
                              BatchSchedule.contractive_geometric),
    "power-six": ((), BatchSchedule.power_six),
}, "unknown batch-schedule kind %r")
# the lower bound's span algorithms, as the step schedule they follow
_ALGORITHMS = _Family({k: _STEPS.kinds[k] for k in ("halpern-classic", "km-constant")},
                      "expected 'halpern-classic' or 'km-constant', got %r", ".alpha")


def _build(spec, path: str, family: _Family, *context):
    """Build one tagged spec: read every field, reject leftovers, then construct.

    The constructor gets the field values followed by context; a ValueError
    or TypeError it raises becomes a ConfigError.
    """
    f = _Fields(spec, path)
    kind = f.take("kind")
    if not isinstance(kind, str) or kind not in family.kinds:
        raise ConfigError(f"{path}.kind: " + family.unknown % (kind,))
    fields, construct = family.kinds[kind]
    values = []
    for name, read, *default in fields:
        raw = f.take(name, required=not default)
        if raw is None and default:
            values.append(default[0])
        else:
            values.append(raw if read is None else read(raw, f"{path}.{name}"))
    f.done()
    try:
        return construct(*values, *context)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}{family.blame}: {exc}")


def _build_norm(spec, path: str) -> NormKind:
    if not isinstance(spec, str):
        return _build(spec, path, _NORMS)
    table = {"l1": linalg.L1, "l2": linalg.L2, "linf": linalg.LINF}
    if spec not in table:
        raise ConfigError(f"{path}: unknown norm {spec!r} (use l1, l2, linf, or an lp object)")
    return table[spec]


def _build_mdp(spec, path: str) -> mdp_mod.TabularMDP:
    """An inline MDP object or a file path, as a validated model."""
    if isinstance(spec, str) and not os.path.exists(spec):
        raise ConfigError(f"{path}: file {spec!r} does not exist")
    try:
        return mdp_mod.load_mdp(spec) if isinstance(spec, str) else mdp_mod.mdp_from_dict(spec)
    except mdp_mod.MDPValidationError as exc:
        raise ConfigError(f"{path}: {exc}")


def _normalize_vector(spec, path: str, dim: int) -> list[float]:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return [_real(spec, path)] * dim
    if not isinstance(spec, list):
        raise ConfigError(f"{path}: expected a number or a list of numbers")
    vec = [_real(v, f"{path}[]") for v in spec]
    if len(vec) != dim:
        raise ConfigError(f"{path}: length {len(vec)} does not match dimension {dim}")
    return vec


def _validate_fit_block(f: _Fields | None) -> dict | None:
    if f is None:
        return None
    window = f.take("window")
    if (
        not isinstance(window, list)
        or len(window) != 2
        or any(isinstance(w, bool) or not isinstance(w, int) for w in window)
    ):
        raise ConfigError(f"{f.path}.window: expected [lo, hi] integers")
    lo, hi = window
    if not 1 <= lo < hi:
        raise ConfigError(f"{f.path}.window: need 1 <= lo < hi, got {window}")
    if hi > sys.float_info.max:
        raise ConfigError(f"{f.path}.window: hi lies beyond the float range")
    out = {"window": [lo, hi]}
    floor = f.take("noise_floor", required=False)
    if floor is not None:
        out["noise_floor"] = _real(floor, f"{f.path}.noise_floor")
    expect = f.take("expect_slope", required=False)
    if expect is not None:
        if not isinstance(expect, list) or len(expect) != 2:
            raise ConfigError(f"{f.path}.expect_slope: expected [lo, hi]")
        out["expect_slope"] = [
            _real(expect[0], f"{f.path}.expect_slope[0]"),
            _real(expect[1], f"{f.path}.expect_slope[1]"),
        ]
        if out["expect_slope"][0] > out["expect_slope"][1]:
            raise ConfigError(f"{f.path}.expect_slope: need lo <= hi, got {expect}")
    f.done()
    return out


def _bounds(f: _Fields | None, op, norm_kind: NormKind, x0: np.ndarray) -> tuple:
    """A bounds block, normalized, and its parameters resolved for the built operator,
    or (None, None) without one; a parameter it cannot resolve is a ConfigError."""
    if f is None:
        return None, None
    family = f.take("family")
    if family not in ("nonexpansive", "contractive"):
        raise ConfigError(f"{f.path}.family: expected 'nonexpansive' or 'contractive'")
    out = {"family": family, "sigma": _real(f.take("sigma"), f"{f.path}.sigma")}
    if out["sigma"] < 0:
        raise ConfigError(f"{f.path}.sigma: must be >= 0")
    m_val = f.take("range_bound", required=False) if family == "nonexpansive" else None
    if m_val is not None:
        out["range_bound"] = _real(m_val, f"{f.path}.range_bound")
    f.done()
    if family == "nonexpansive":
        if m_val is None:
            if not isinstance(op, ShiftProjection):
                raise ConfigError("config.bounds.range_bound: required unless the operator is a "
                                  "shift-projection (whose range bound is d * lam)")
            m_val = op.range_bound()
        kappa = kappa_bar_bounded_range(float(m_val), x0, norm_kind)
        mu = norm_equivalence_mu(norm_kind, op.dim)
        return out, {"family": family, "kappa_bar": kappa, "mu": mu, "sigma": out["sigma"]}
    info = op.fixed_point_info()
    if info.point is None:
        raise ConfigError("config.bounds: the contractive bound needs the operator's fixed "
                          f"point ({info.description})")
    if not op.gamma < 1.0:
        raise ConfigError("config.bounds: the contractive bound needs a contraction factor < 1")
    dist0 = norm(x0 - info.point, norm_kind)
    return out, {"family": family, "dist0": dist0, "gamma": op.gamma, "sigma": out["sigma"]}


def validate_config(doc) -> dict:
    """Validate and normalize an experiment config document.

    Returns a plain JSON-safe dict (MDP files are inlined, seeds expanded) so
    worker processes read no input files.
    """
    f = _Fields(doc, "config")
    kind = f.take("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"config.kind: expected one of {list(_KINDS)}, got {kind!r}")
    out: dict = {"kind": kind, "seeds": parse_seed_spec(f.take("seeds"))}
    stream = f.take("stream", required=False)
    out["stream"] = 0 if stream is None else _uint64(stream, "config.stream")
    _KINDS[kind].read(f, out)
    f.done()
    return out


def _read_vector(f: _Fields, out: dict) -> tuple:
    """Read an operator run's fields into out, in the order their errors are raised,
    and build its (norm kind, oracle, step schedule, batch schedule, x0, bound
    parameters or None): for the document, the plan and evaluate_bounds alike."""
    norm_kind = _build_norm(f.take("norm"), "config.norm")
    op = _build(f.take("operator"), "config.operator", _OPERATORS, norm_kind)
    noise = _build(f.take("noise"), "config.noise", _NOISES)
    method = _build(f.take("method"), "config.method", _STEPS)
    out.update({name: f.doc[name] for name in ("norm", "operator", "noise", "method")})
    try:
        oracle = OracleDescriptor(op, noise)
    except ValueError as exc:
        raise ConfigError(f"config.noise: {exc}")
    batches_spec = f.take("batches", required=False)
    batches = None if batches_spec is None else _build(batches_spec, "config.batches", _BATCHES)
    if method.is_halpern:
        if batches is None:
            raise ConfigError("config.batches: missing required field (halpern methods batch)")
        out["batches"] = batches_spec
    else:
        if batches is not None and (batches.kind != "constant" or batches.k != 1):
            raise ConfigError("config.batches: averaged (km) methods use one query per step; "
                              "omit batches or set constant k = 1")
        out["batches"] = {"kind": "constant", "k": 1}
        batches = BatchSchedule.constant(1)
    out["x0"] = _normalize_vector(f.take("x0"), "config.x0", op.dim)
    x0 = np.asarray(out["x0"], dtype=np.float64)
    out["N"] = _steps(f.take("N"), "config.N")
    out["bounds"], bounds = _bounds(f.sub("bounds", required=False), op, norm_kind, x0)
    out["fit"] = _validate_fit_block(f.sub("fit", required=False))
    return norm_kind, oracle, method, batches, x0, bounds


def _read_adversarial(f: _Fields, out: dict) -> tuple:
    """A lower-bound run's fields, into out, and its (instance, algorithm), as _read_vector."""
    eps = _real(f.take("epsilon"), "config.epsilon")
    kb = _real(f.take("kappa_bar"), "config.kappa_bar")
    sg = _real(f.take("sigma"), "config.sigma")
    try:
        inst = build_instance(eps, kb, sg)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}")
    out.update({"epsilon": eps, "kappa_bar": kb, "sigma": sg})
    _build(f.take("algorithm"), "config.algorithm", _ALGORITHMS)
    out["algorithm"] = f.doc["algorithm"]
    batches = _build(f.take("batches"), "config.batches", _BATCHES)
    out["batches"] = f.doc["batches"]
    return inst, SpanAlgorithm(batches=batches, **out["algorithm"])


def _read_q(f: _Fields, out: dict) -> tuple:
    """The fields both Q-learning kinds share, into out: (model, algorithm as given)."""
    model = _build_mdp(f.take("mdp"), "config.mdp")
    out["mdp"] = model.to_dict()
    shape = (model.num_states, model.num_actions)
    algorithm = f.take("algorithm")
    solver_tol = f.take("solver_tol", required=False)
    out["solver_tol"] = 1e-10 if solver_tol is None else _real(solver_tol, "config.solver_tol")
    if out["solver_tol"] <= 0:
        raise ConfigError("config.solver_tol: must be positive")
    q0 = f.take("q0", required=False)
    if q0 is None:
        out["q0"] = [[0.0] * shape[1] for _ in range(shape[0])]
    else:
        if not (isinstance(q0, list) and len(q0) == shape[0]
                and all(isinstance(row, list) and len(row) == shape[1] for row in q0)):
            raise ConfigError(f"config.q0: expected an {shape[0]}x{shape[1]} nested list")

        def entry(v) -> float:
            try:
                return _real(v, "config.q0")
            except ConfigError:
                raise ConfigError(f"config.q0: entries must be finite numbers, got {v!r}") from None

        out["q0"] = [[entry(v) for v in row] for row in q0]
    return model, algorithm


def _read_average(f: _Fields, out: dict):
    model, algorithm = _read_q(f, out)
    if algorithm not in ("halpern", "benchmark", "rvi"):
        raise ConfigError("config.algorithm: expected 'halpern', 'benchmark', or 'rvi', "
                          f"got {algorithm!r}")
    out["algorithm"] = algorithm
    anchor = f.sub("anchor", required=algorithm in ("halpern", "rvi"))
    if algorithm == "benchmark":
        if anchor is not None:
            raise ConfigError("config.anchor: the benchmark run subtracts v*, not an anchor")
        out["anchor"] = None
    else:
        out["anchor"] = _validate_anchor(anchor, model)
    a_exp = f.take("a_exponent", required=False)
    if algorithm == "rvi":
        if a_exp is None:
            raise ConfigError("config.a_exponent: missing required field for the rvi baseline")
        out["a_exponent"] = _real(a_exp, "config.a_exponent")
        if not 0.8 < out["a_exponent"] <= 1.0:
            raise ConfigError("config.a_exponent: must lie in (4/5, 1]")
    elif a_exp is not None:
        raise ConfigError("config.a_exponent: only the rvi baseline takes a step exponent")
    out["N"] = _steps(f.take("N"), "config.N")
    ratio = f.sub("residual_ratio_check", required=False)
    out["residual_ratio_check"] = None
    if ratio is not None:
        early = _integer(ratio.take("early_n"), f"{ratio.path}.early_n")
        late = _integer(ratio.take("late_n"), f"{ratio.path}.late_n")
        max_ratio = _real(ratio.take("max_ratio"), f"{ratio.path}.max_ratio")
        ratio.done()
        if not 1 <= early < late <= out["N"]:
            raise ConfigError(f"{ratio.path}: need 1 <= early_n < late_n <= N")
        out["residual_ratio_check"] = {"early_n": early, "late_n": late, "max_ratio": max_ratio}


def _read_discounted(f: _Fields, out: dict):
    model, algorithm = _read_q(f, out)
    if algorithm not in ("halpern", "vanilla"):
        raise ConfigError(f"config.algorithm: expected 'halpern' or 'vanilla', got {algorithm!r}")
    out["algorithm"] = algorithm
    out["gamma"] = _real(f.take("gamma"), "config.gamma")
    if not 0.0 < out["gamma"] < 1.0:
        raise ConfigError("config.gamma: must lie in (0, 1)")
    alpha_spec = f.take("alpha", required=False)
    if algorithm == "vanilla":
        if alpha_spec is None:
            raise ConfigError("config.alpha: missing required field for the vanilla baseline")
        if _build(alpha_spec, "config.alpha", _STEPS).is_halpern:
            raise ConfigError("config.alpha: the vanilla baseline takes an averaged (km) schedule")
        out["alpha"] = alpha_spec
    elif alpha_spec is not None:
        raise ConfigError("config.alpha: only the vanilla baseline takes a step schedule")
    q0_norm = float(np.abs(np.asarray(out["q0"])).max())
    n_spec = f.take("N", required=False)
    target_eps = f.take("target_epsilon", required=False)
    if (n_spec is None) == (target_eps is None):
        raise ConfigError("config: provide exactly one of N or target_epsilon")
    if n_spec is not None:
        out["N"] = _steps(n_spec, "config.N")
        out["target_epsilon"] = None
    else:
        out["target_epsilon"] = _real(target_eps, "config.target_epsilon")
        if out["target_epsilon"] <= 0:
            raise ConfigError("config.target_epsilon: must be positive")
        try:
            out["N"] = mdp_mod.discounted_iteration_count(
                model, out["gamma"], out["target_epsilon"], q0_norm
            )
        except OverflowError:
            raise ConfigError(f"config.target_epsilon: {out['target_epsilon']!r} derives N "
                              f"beyond the float range, more than the {_MAX_STEPS} steps "
                              "a run may take") from None
        if out["N"] > _MAX_STEPS:
            raise ConfigError(f"config.target_epsilon: {out['target_epsilon']!r} derives "
                              f"N = {out['N']} steps, more than the {_MAX_STEPS} a run may take")
    if q0_norm > model.r_max / (1.0 - out["gamma"]):
        raise ConfigError("config.q0: sup norm must not exceed r_max / (1 - gamma)")


def _validate_anchor(f: _Fields, model) -> dict:
    kind = f.take("kind")
    if kind in ("max", "min", "mean"):
        f.done()
        return {"kind": kind}
    if kind == "coordinate":
        s = _integer(f.take("s"), f"{f.path}.s")
        a = _integer(f.take("a"), f"{f.path}.a")
        f.done()
        if not (0 <= s < model.num_states and 0 <= a < model.num_actions):
            raise ConfigError(f"{f.path}: coordinate ({s}, {a}) out of range for the MDP")
        return {"kind": "coordinate", "s": s, "a": a}
    raise ConfigError(f"{f.path}.kind: unknown anchor kind {kind!r}")


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return validate_config(doc)


# ---------------------------------------------------------------------------
# The run plan: built once from the validated config by each process that runs seeds


# The seeds a runner steps together hold at most this many iterate
# coordinates (2 MiB per array of a step), so wide runs go in shorter stacks.
_STACK_COORDS = 1 << 18


@dataclass(frozen=True)
class _Plan:
    """A validated config's run objects, shared by every seed of a process.

    loop holds iterate_stack's inputs but the seeds, its schedule among them,
    which the writers and the aggregate read beside the stacks' measured
    columns. first is the first column that a seed file holds: 0 when the
    files include n = 0, 1 otherwise. summary(agg, last) returns the kind's
    block of summary.json and its checks, (name, passed) pairs, from the
    aggregate's columns and last rows (_Aggregate); it closes over what the
    kind's plan built beside the loop, such as an exact solution.
    """

    loop: _Loop
    stream: int
    first: int
    summary: Callable

    def stacks(self, seeds: list[int]) -> list[_Stack]:
        """The seeds in stacks of at most _STACK_COORDS iterate coordinates, in seed order."""
        height = max(1, _STACK_COORDS // self.loop.x0.size)
        return [_Stack(self.loop, [RngStream(seed, self.stream) for seed in seeds[i:i + height]])
                for i in range(0, len(seeds), height)]

    def windows(self, stacks: list[_Stack], out_dir):
        """Step the stacks round-robin a window at a time, writing each window's lines of
        their seeds' CSVs. Yields (a, b, parts) for each window [a, b) of _windows: parts
        holds (end, columns) per stack, its measured columns a..b - 1 as (rows, b - a)
        arrays and end, the first column below b that one of its seeds lacks (b if none),
        or a if that is below a."""
        paths = [[os.path.join(out_dir, f"seed_{r.seed}.csv") for r in stack.rngs]
                 for stack in stacks]
        park = len(stacks) > 1  # a stack waiting for the others frees its step buffers
        for windows in zip(*(_windows(stack, self.first, park) for stack in stacks)):
            parts = []
            for files, (a, b, ends, columns) in zip(paths, windows):
                _write_seed_csvs(files, self.loop.schedule, a, columns, ends, self.first)
                parts.append((max(min(ends), a), columns))
            yield a, b, parts


def _plan(cfg: dict) -> _Plan:
    """Build the run objects of a validated config by its kind's plan, solving an MDP
    exactly once. The loop comes from the helper its library runs call too
    (engine._vector_loop, lower_bound._adversarial_loop, mdp._q_loop), so a schedule
    whose query count passes 2^63 - 1 is a ConfigError before any output exists."""
    kind = _KINDS[cfg["kind"]]
    loop, summary = kind.plan(cfg)
    try:
        return _Plan(loop(), cfg["stream"], kind.first, summary)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None


def _plan_vector(cfg: dict) -> tuple:
    norm_kind, oracle, method, batches, x0, bounds = _read_vector(_Fields(cfg, "config"), {})
    fit = cfg.get("fit")

    def summary(agg: dict, last: dict) -> tuple:
        block, checks = {}, []
        if bounds is not None:
            overlay = block["bounds"] = _overlay_bounds(bounds, agg)
            if overlay["family"] == "nonexpansive":
                checks.append(("bounds_hold", overlay["all_within"]))
            else:
                checks.append(("final_bound_holds", overlay["final_within"]))
        if fit is not None:
            try:
                rate = fit_rate(agg["n"], agg["residual_mean"], fit["window"],
                                fit.get("noise_floor", 1e-12))
            except ValueError as exc:
                block["rate_fit"] = {"error": str(exc)}
                checks.append(("rate_fit", False))
            else:
                block["rate_fit"] = dict(asdict(rate), window=list(rate.window))
                if "expect_slope" in fit:
                    lo, hi = fit["expect_slope"]
                    block["rate_fit"]["expect_slope"] = [lo, hi]
                    block["rate_fit"]["slope_in_range"] = bool(lo <= rate.slope <= hi)
                    checks.append(("slope_in_range", block["rate_fit"]["slope_in_range"]))
        return block, checks

    return partial(_vector_loop, oracle, x0, method, batches, cfg["N"], norm_kind), summary


def _plan_adversarial(cfg: dict) -> tuple:
    inst, algo = _read_adversarial(_Fields(cfg, "config"), {})

    def summary(agg: dict, last: dict) -> tuple:
        means = agg["residual_mean"]
        block = {"instance": asdict(inst), "barrier_held": bool((means > cfg["epsilon"]).all()),
                 "final_frac_prog_lt_d": float(last["frac_prog_lt_d"]),
                 "final_mean_residual": float(means[-1])}
        return block, [("barrier_held", block["barrier_held"]),
                       ("final_frac_prog_lt_d_gt_half", block["final_frac_prog_lt_d"] > 0.5)]

    return partial(_adversarial_loop, inst, algo), summary


def _q_plan(model, cfg: dict, steps: StepSchedule, batches: BatchSchedule, **maps):
    """A Q-learning run's loop: anchored steps take batches, averaged ones one query."""
    batches = batches if steps.is_halpern else BatchSchedule.constant(1)
    return partial(mdp_mod._q_loop, model, np.asarray(cfg["q0"], dtype=np.float64), cfg["N"],
                   steps.weight, batches.size, steps.is_halpern, **maps)


def _plan_average(cfg: dict) -> tuple:
    model = mdp_mod.mdp_from_dict(cfg["mdp"])
    algorithm, ratio = cfg["algorithm"], cfg.get("residual_ratio_check")
    try:
        v_star = mdp_mod.solve_average_exact(model, cfg["solver_tol"]).v_star
    except RuntimeError as exc:  # relative value iteration missed solver_tol
        raise ConfigError(f"config.mdp: {exc}") from None
    anchor = None if algorithm == "benchmark" else mdp_mod.AnchorFunction(**cfg["anchor"])
    steps = (StepSchedule.km_polynomial(cfg["a_exponent"]) if algorithm == "rvi"
             else StepSchedule.halpern_classic())

    def summary(agg: dict, last: dict) -> tuple:
        if ratio is None:
            return {"v_star": v_star}, []
        ns = agg["n"].tolist()
        try:
            early = agg["residual_mean"][ns.index(ratio["early_n"])]
            late = agg["residual_mean"][ns.index(ratio["late_n"])]
        except ValueError:  # the aggregate ends before it, as when a seed aborts
            result = {"error": f"requested n not in the trace of {len(ns)} aggregated rows"}
        else:
            result = {**ratio, "early_mean": float(early), "late_mean": float(late),
                      "ratio": float(late / early) if early > 0 else math.inf,
                      "held": bool(late <= ratio["max_ratio"] * early)}
        return ({"v_star": v_star, "residual_ratio": result},
                [("residual_ratio", result.get("held", False))])

    maps = mdp_mod._maps(model, v_star=v_star, anchor=anchor)
    return _q_plan(model, cfg, steps, BatchSchedule.power_six(), **maps), summary


def _plan_discounted(cfg: dict) -> tuple:
    model = mdp_mod.mdp_from_dict(cfg["mdp"])
    q_star = mdp_mod.solve_discounted_exact(model, cfg["gamma"], cfg["solver_tol"])
    steps = (_build(cfg["alpha"], "config.alpha", _STEPS) if cfg["algorithm"] == "vanilla"
             else StepSchedule.halpern_classic())

    def summary(agg: dict, last: dict) -> tuple:
        block = {"N": cfg["N"], "final_mean_dist": float(agg["dist_to_fp_mean"][-1])}
        if cfg.get("target_epsilon") is None:
            return block, []
        block["target_epsilon"] = cfg["target_epsilon"]
        block["target_met"] = bool(block["final_mean_dist"] <= cfg["target_epsilon"])
        return block, [("target_met", block["target_met"])]

    maps = mdp_mod._maps(model, gamma=cfg["gamma"], q_star=q_star)
    return _q_plan(model, cfg, steps, BatchSchedule.contractive_geometric(cfg["gamma"], cfg["N"]),
                   **maps), summary


class _Kind(NamedTuple):
    """A run kind: its CLI help; read(f, out), which reads its fields of the config object
    f into the normalized config out; plan(cfg), which returns (a callable that builds
    the run's _Loop, _Plan.summary); _Plan.first; whether it writes progress.csv."""

    help: str
    read: Callable
    plan: Callable
    first: int = 1
    progress: bool = False


_KINDS = {
    "fixedpoint": _Kind("anchored/averaged iteration on a configured operator",
                        _read_vector, _plan_vector),
    "lowerbound": _Kind("span algorithms against the adversarial instance",
                        _read_adversarial, _plan_adversarial, first=0, progress=True),
    "mdp-avg": _Kind("average-reward synchronous Q-learning", _read_average, _plan_average),
    "mdp-disc": _Kind("discounted synchronous Q-learning", _read_discounted, _plan_discounted),
}


# ---------------------------------------------------------------------------
# Output writers


_SEED_HEADER = b"n,beta_or_alpha,k_n,cum_queries,residual,dist_to_fp,noise_norm\n"
# lines formatted together: their floats in one _g17 call, their text by one %-template
_BLOCK = 1024
# floats _fixed17 formats at once: a block of seed-file lines (three measured columns)
# in one call, an aggregate block (six) in two
_CHUNK = 3 * _BLOCK

# _g17's tables: 10^p, exact in float64 for p <= 22, split into Dekker halves
_SPLITTER = 134217729.0  # 2^27 + 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low exactly, each half with at most 26 significant bits."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


_TEN = np.cumprod(np.full(23, 10.0)) / 10.0
_TEN_HIGH, _TEN_LOW = _halves(_TEN)
# the ASCII digits of each x < 10^4, zero-padded to four, as the low half of a
# little-endian uint64; _ZEROS4[x] counts the trailing zeros among them
_DIGITS4 = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
            % 10 + 48).astype(np.uint8).view(np.uint32).reshape(-1).astype(np.uint64)
_ZEROS4 = (np.arange(10000)[:, None] % np.array([10, 100, 1000, 10000]) == 0).sum(axis=1)
# "0000000d" of a leading digit d, as a little-endian uint64
_LEAD = _DIGITS4[:10] << np.uint64(32) | _DIGITS4[0]
# over a line's three output words, byte b of word k is byte 8k + b of the line:
# _BELOW[k, m] keeps the bytes before byte m, _FROM[k, m] those from byte m on, and
# _POINT[k, m] is "." at byte m
_AT = np.arange(24, dtype=np.uint64).reshape(3, 8, 1)
_BELOW = ((_AT < np.arange(25)) * np.uint64(0xFF) << _AT % 8 * 8).sum(axis=1, dtype=np.uint64)
_FROM = ~_BELOW
_POINT = ((_AT == np.arange(25)) * np.uint64(0x2E) << _AT % 8 * 8).sum(axis=1, dtype=np.uint64)


def _g17(v: np.ndarray) -> list[bytes]:
    """b'%.17g' % x of each x of the float64 array v, byte for byte.

    Values 1e-4 <= x < 1e16 print in fixed notation, and _fixed17 formats them
    _CHUNK at a time. Every other value goes through Python's %: zeros,
    negatives, subnormals, very small and very large values, infinities and
    nans.
    """
    out = np.empty(v.shape, "S24")
    fast = (v >= 1e-4) & (v < 1e16)
    for a in range(0, len(v), _CHUNK):
        chunk = out[a:a + _CHUNK]
        chunk[fast[a:a + _CHUNK]] = _fixed17(v[a:a + _CHUNK][fast[a:a + _CHUNK]])
    rest = np.flatnonzero(~fast)
    if rest.size:
        out[rest] = [b"%.17g" % x for x in v[rest].tolist()]
    return out.tolist()


def _fixed17(x: np.ndarray) -> np.ndarray:
    """'%.17g' of each x, 1e-4 <= x < 1e16, as an S24 array.

    The 17 significant digits of x are D = x * 10^p rounded half to even, p =
    16 - e for x's decimal exponent e (log10's guess, corrected when D falls
    outside [10^16, 10^17)). Dekker's two-product gives x * 10^p = hi + lo
    exactly, hi an integer, so D = hi + rint(lo). "0000000", D's digits and
    "00000000" fill four little-endian uint64 words per value, looked up four
    digits at a time. The text starts at that string's byte a = 7 + min(e, 0)
    ("0.000..." for e < 0), puts a point after its first 1 + max(e, 0) bytes
    and ends at D's last nonzero digit or at the point; the S dtype drops the
    zero bytes after it. Each temporary is dropped once read, so a value costs
    about 170 bytes at the peak.
    """
    p = 16 - np.floor(np.log10(x)).astype(np.int64)
    digits = _round_scaled(x, p)
    off = (digits >= 10 ** 17).astype(np.int64) - (digits < 10 ** 16)
    if off.any():
        p -= off
        digits = _round_scaled(x, p)
    e = 16 - p
    del p, off
    words = np.empty((4, x.size), np.uint64)  # the string, eight bytes a row
    words[3] = _DIGITS4[0] * np.uint64(0x100000001)
    zeros = 0  # trailing zero digits of D
    for i in range(4):  # D's four-digit groups, the last first: words 2 and 1, high half first
        high = digits // 10000
        group = digits - high * 10000
        digits = high
        zeros = zeros + (zeros == 4 * i) * _ZEROS4[group]
        if i % 2:
            words[2 - i // 2] |= _DIGITS4[group]
        else:
            words[2 - i // 2] = _DIGITS4[group] << np.uint64(32)
    words[0] = _LEAD[digits]
    del group, high, digits
    last = 23 - zeros  # the byte of D's last nonzero digit
    start = (56 + 8 * np.minimum(e, 0)).astype(np.uint64)  # 8 a
    point = 1 + np.maximum(e, 0)
    last -= 7 + e  # fraction digits through the last nonzero one
    end = np.take(_BELOW, np.where(last > 0, point + 1 + last, point), axis=1)
    del e, last, zeros
    line = _shifted(words, start)
    line &= np.take(_BELOW, point, axis=1)
    start -= np.uint64(8)
    after = _shifted(words, start)
    after &= np.take(_FROM, point + 1, axis=1)
    line |= after
    del after, words
    line |= np.take(_POINT, point, axis=1)
    line &= end
    return np.ascontiguousarray(line.T, dtype="<u8").view("S24").reshape(-1)


def _shifted(words: np.ndarray, start: np.ndarray) -> np.ndarray:
    """(3, n): the 24 bytes from bit start on of each value's 32-byte string, whose
    little-endian words are the columns of words (4, n)."""
    out = words[:3] >> start
    out |= words[1:] << (np.uint64(64) - start)
    return out


def _round_scaled(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * 10^p rounded half to even, as int64, for x * 10^p below 2^63."""
    hi = x * _TEN[p]
    xh, xl = _halves(x)
    th, tl = _TEN_HIGH[p], _TEN_LOW[p]
    lo = ((xh * th - hi) + xh * tl + xl * th) + xl * tl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _write_csvs(files):
    """Write each (path, header, row, columns) of files: header, then line i as the
    bytes template row filled by item i of each column, an equal-length float64
    array (%b of its _g17 text), integer array (%d) or list of bytes (%b).

    Lines go in blocks of at most _BLOCK, of one long file or of several short
    ones, whose floats are formatted by one _g17 call and whose lines are
    joined by one %-template per file, so no float column is held whole as text.
    """
    pending, lines = [], 0
    for path, header, row, columns in files:
        for a in range(0, max(len(columns[0]), 1), _BLOCK):
            block = [c[a:a + _BLOCK] for c in columns]
            if lines + len(block[0]) > _BLOCK:
                _write_blocks(pending)
                pending, lines = [], 0
            pending.append((path, header if a == 0 else b"", row, block))
            lines += len(block[0])
    _write_blocks(pending)


def _write_blocks(pending: list):
    """Format and write each (path, header, row, block) of pending: a nonempty header
    starts the file, an empty one appends to it."""
    floats = [c for *_, block in pending for c in block if _is_float(c)]
    text = _g17(np.concatenate(floats)) if floats else []
    at = 0
    for path, header, row, block in pending:
        args = [None] * (len(block) * len(block[0]))  # the block's cells, line by line
        for j, col in enumerate(block):
            if _is_float(col):
                args[j::len(block)], at = text[at:at + len(col)], at + len(col)
            else:
                args[j::len(block)] = col.tolist() if isinstance(col, np.ndarray) else col
        data = memoryview(header + row * len(block[0]) % tuple(args))
        flags = os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if header else os.O_APPEND)
        with _writing(path):
            fd = os.open(path, flags, 0o666)
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)


def _is_float(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


def _write_seed_csvs(paths: list, schedule: tuple, a: int, columns: list, ends: list[int],
                     first: int):
    """Write the lines a..b - 1 of the CSVs of a stack's seeds, seed_<seed>.csv at
    paths[i]: the columns a..ends[i] - 1 of the run's schedule and of row i of
    the window's measured columns (a window [a, b) of _windows). The prefix
    "n,weight,k_n,cum_queries," of the lines is formatted once for the stack,
    and a window of every file is written before the next is formatted, so no
    column is held whole as text. The window at first starts every file,
    header-only for a seed without rows."""
    measured = [c for c in columns[:3] if c is not None]
    row = b"%b%b,,%b\n" if columns[1] is None else b"%b%b,%b,%b\n"
    stops = [min(end, a + measured[0].shape[1]) for end in ends]
    n, weight, batch, cum = (c[a:max(stops)] for c in schedule)
    prefix = list(map(b"%d,%b,%d,%d,".__mod__,
                      zip(n.tolist(), _g17(weight), batch.tolist(), cum.tolist())))
    _write_csvs((path, _SEED_HEADER if a == first else b"", row,
                 [prefix[:stop - a]] + [c[i, :stop - a] for c in measured])
                for i, (path, stop) in enumerate(zip(paths, stops)) if a == first or stop > a)


def _windows(stack: _Stack, first: int, park: bool = False):
    """(a, b, ends, columns) for each window [a, b) of a stack's trace: _BLOCK
    columns from first on, the last up to the schedule's end. The stack's
    blocks are read only as far as a window needs, and to their end with the
    last window, so the stack's buffers are freed before it is yielded; with
    park, its step buffers are freed before each window is (_Stack.blocks with
    a window). Each block is copied into the window's (b - a, rows) buffers,
    whose (rows, b - a) transposes are the columns yielded, None where the
    blocks' are; ends[i] is min(steps + 1, b) of row i, the end of its columns
    in the window."""
    cols = len(stack.loop.schedule[0])
    blocks = stack.blocks(_BLOCK if park else None, first)
    pending = None  # a block that reaches past the last window
    for a in range(first, max(cols, first + 1), _BLOCK):
        b, window = min(a + _BLOCK, cols), None
        while True:
            start, columns = pending or next(blocks)
            stop, pending = start + len(columns[0]), None
            if window is None:
                window = [None if c is None else np.empty((b - a, c.shape[1]), c.dtype)
                          for c in columns]
            lo, hi = max(start, a), min(stop, b)
            for w, c in zip(window, columns):
                if c is not None:
                    w[lo - a:hi - a] = c[lo - start:hi - start]
            if stop >= b:
                pending = (start, columns) if stop > b else None
                break
        if b == cols:
            next(blocks, None)
        yield a, b, [min(steps + 1, b) for steps in stack.steps], [None if w is None else w.T
                                                                   for w in window]


def _by_seed(stacks, first: int, end: int, out=None) -> np.ndarray:
    """Columns first..end - 1 of every row of stacks, (B, steps + 1) arrays, as one
    C-ordered (seeds, n) array, or into out. Its reductions over seeds add row by
    row, each column alone, whenever n >= 2; a single column is one contiguous
    run, which numpy sums pairwise."""
    if out is None:
        out = np.empty((sum(len(c) for c in stacks), end - first), stacks[0].dtype)
    return np.concatenate([c[:, first:end] for c in stacks], out=out)


def _mean_sem(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = values.mean(axis=0)
    if values.shape[0] < 2:
        sem = np.zeros_like(mean)
    else:
        sem = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    return mean, sem


_AGG_HEADER = (
    "n,k_n,cum_queries,residual_mean,residual_sem,"
    "dist_to_fp_mean,dist_to_fp_sem,noise_norm_mean,noise_norm_sem"
)
_AGG_INTS = ("n", "k_n", "cum_queries")


def _write_aggregate_csv(path: str, agg: dict, header: bool = True):
    """Write agg's rows to aggregate.csv: after its header, or after the rows already there."""
    names = _AGG_HEADER.split(",")
    row = ",".join("" if agg[c] is None else "%d" if c in _AGG_INTS else "%b" for c in names)
    _write_csvs([(path, f"{_AGG_HEADER}\n".encode() if header else b"", f"{row}\n".encode(),
                  [agg[c] for c in names if agg[c] is not None])])


def read_aggregate_csv(path) -> dict:
    """Read an aggregate.csv back into column arrays (empty dist columns -> None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != _AGG_HEADER:
                raise ConfigError(f"{path}: unexpected aggregate header {header!r}")
            cols = {name: [] for name in header.split(",")}
            for line in fh:
                parts = line.rstrip("\n").split(",")
                if len(parts) != 9:
                    raise ConfigError(f"{path}: malformed row {line!r}")
                for name, val in zip(cols, parts):
                    cols[name].append(val)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the aggregate: {exc}") from None
    out = {}
    for name, vals in cols.items():
        try:
            out[name] = (None if name.startswith("dist") and not any(vals)
                         else np.array(list(map(int if name in _AGG_INTS else float, vals))))
        except ValueError as exc:
            raise ConfigError(f"{path}: column {name}: {exc}") from None
    return out


_PROG_HEADER = "n,cum_queries,prog_mean,prog_min,prog_max,frac_prog_lt_d"


def _prog_stats(progs: np.ndarray, d: int) -> tuple:
    """Per-n mean, min, max and fraction below d over the seeds (rows) of progs,
    whose integer sums are exact."""
    return progs.mean(axis=0), progs.min(axis=0), progs.max(axis=0), (progs < d).mean(axis=0)


def _write_progress_csv(path: str, agg: dict, stats, header: bool = True):
    """progress.csv rows of the aggregate's schedule and the _prog_stats columns stats:
    after its header, or after the rows already there."""
    _write_csvs([(path, f"{_PROG_HEADER}\n".encode() if header else b"",
                  b"%d,%d,%b,%d,%d,%b\n", [agg["n"], agg["cum_queries"], *stats])])


class _Aggregate:
    """aggregate.csv, and progress.csv unless d is None, written as a run's windows close.

    add() takes each window's measured columns of every seed, in seed order,
    and reduces them over the seeds up to the first column that some seed
    lacks, the aggregate's end. It reduces a block of columns at a time and
    holds back the last two it has until the end is known, so the last
    block, which takes the rest, is never a lone column of a longer run:
    every column's reduction adds the seeds row by row and has the bits of
    the whole (seeds, n) array's (_by_seed). Of the statistics it keeps every
    row of residual_mean and dist_to_fp_mean (_WHOLE), which summaries read
    whole, and the last row of the others in last.
    """

    _WHOLE = ("residual_mean", "dist_to_fp_mean")

    def __init__(self, schedule: tuple, first: int, d: int | None, out_dir):
        self.schedule, self.first, self.d = schedule, first, d
        self.files = ["aggregate.csv"] + ([] if d is None else ["progress.csv"])
        self.paths = [os.path.join(out_dir, name) for name in self.files]
        # next: the first column not reduced; held: the columns next.. of every seed
        self.next, self.final, self.held = first, False, None
        self.kept, self.last = {}, {}

    def add(self, a: int, b: int, parts):
        """Take the window [a, b): parts holds (end, columns) per stack of seeds, in
        seed order, as _Plan.windows gives them; a worker's chunk is one part, its
        columns cut at its end. Each column list is emptied as it is read. Windows
        after the aggregate's end are ignored."""
        if self.final:
            return
        end = min(e for e, _ in parts)
        self.final = end < b or b == len(self.schedule[0])
        width = end - self.next
        cut = width if self.final else width - 2 if width >= 4 else 0
        stats, held = {}, []
        for k, name in enumerate(("residual", "dist_to_fp", "noise_norm", "prog")):
            if parts[0][1][k] is None or k == 3 and self.d is None:
                held.append(None)
                if k < 3:
                    stats[f"{name}_mean"] = stats[f"{name}_sem"] = None
                continue
            # the held columns and the window's as one C-ordered (seeds, width) array
            c = np.empty((sum(len(p[k]) for _, p in parts), width), parts[0][1][k].dtype)
            h = width - (end - a)
            if h:
                c[:, :h] = self.held[k]
            _by_seed([p[k] for _, p in parts], 0, end - a, c[:, h:])
            for _, p in parts:
                p[k] = None  # read, so freed before the next column is
            held.append(c[:, cut:].copy())
            if k < 3:
                stats[f"{name}_mean"], stats[f"{name}_sem"] = _mean_sem(c[:, :cut])
            else:
                stats.update(zip(_PROG_HEADER.split(",")[2:], _prog_stats(c[:, :cut], self.d)))
        self.held = held
        if cut or self.final and self.next == self.first:  # an empty aggregate has a header
            self._write(cut, stats)

    def _write(self, width: int, stats: dict):
        """Write the rows self.next.. of stats, width of them, and keep their statistics."""
        a = self.next
        self.next = b = a + width
        n, _, batch, cum = (c[a:b] for c in self.schedule)
        rows = {"n": n, "k_n": batch, "cum_queries": cum}
        _write_aggregate_csv(self.paths[0], {**rows, **stats}, a == self.first)
        if self.d is not None:
            _write_progress_csv(self.paths[1], rows, [stats[name] for name in
                                                      _PROG_HEADER.split(",")[2:]], a == self.first)
        for name, c in stats.items():
            if name in self._WHOLE:
                self.kept.setdefault(name, []).append(c)
            elif c is not None and len(c):
                self.last[name] = c[-1]

    def columns(self) -> dict:
        """The aggregate's n, k_n, cum_queries and _WHOLE columns (None for a column the
        run lacks)."""
        n, _, batch, cum = (c[self.first:self.next] for c in self.schedule)
        return {"n": n, "k_n": batch, "cum_queries": cum,
                **{name: None if blocks[0] is None else np.concatenate(blocks)
                   for name, blocks in self.kept.items()}}


# ---------------------------------------------------------------------------
# Rate fits and bound overlays


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit of mean residuals: log y = slope log n + intercept."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]
    n_points: int


def fit_rate(ns, means, window, noise_floor: float | None = 1e-12) -> RateFit:
    """Fit log(mean) against log(n) over n in [window[0], window[1]].

    Means at or below noise_floor are treated as numerically zero and
    excluded (a residual that underflows to the arithmetic floor carries no
    rate information); pass noise_floor=None to require strict positivity.
    Negative means, an all-excluded window, or fewer than 5 surviving points
    raise ValueError.
    """
    ns = np.asarray(ns, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    lo, hi = int(window[0]), int(window[1])
    if not 1 <= lo < hi:
        raise ValueError(f"fit window must satisfy 1 <= lo < hi, got {(lo, hi)}")
    if hi > sys.float_info.max:
        raise ValueError("fit window hi lies beyond the float range")
    mask = (ns >= lo) & (ns <= hi)
    if not mask.any():
        raise ValueError(f"no trace rows fall in the fit window [{lo}, {hi}]")
    ys = means[mask]
    xs = ns[mask]
    if (ys < 0).any():
        raise ValueError("mean residuals in the fit window must be nonnegative")
    if noise_floor is None:
        if (ys <= 0).any():
            raise ValueError("nonpositive mean residual in the fit window")
    else:
        keep = ys > noise_floor
        xs, ys = xs[keep], ys[keep]
    if xs.shape[0] < 5:
        raise ValueError(
            f"fit window [{lo}, {hi}] keeps {xs.shape[0]} usable points; need at least 5"
        )
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    if ss_tot <= 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return RateFit(float(slope), float(intercept), r2, (lo, hi), int(xs.shape[0]))


def evaluate_bounds(cfg: dict, agg: dict) -> dict:
    """Theoretical curve next to the empirical means, with per-n within_bound flags.

    Nonexpansive: the residual-mean column against the anchored-iteration
    curve with sigma_n = mu sigma / sqrt(k_n) from the actual batch sizes;
    this is a per-n guarantee, so the check gates on all_within.
    Contractive: the distance-mean column against (dist0 + 2 sigma) /
    ((1 - gamma)(n + 1)) per recorded n. That guarantee covers the final
    iterate of a run whose geometric-taper batches target horizon N; interior
    rows are informational only (their batches are still small), so the check
    gates on final_within. Only the bound parameters are resolved; a config
    without a bounds block is a ConfigError.
    """
    if cfg.get("bounds") is None:
        raise ConfigError("config.bounds: this config has no bounds block to evaluate")
    return _overlay_bounds(_read_vector(_Fields(cfg, "config"), {})[-1], agg)


def _overlay_bounds(params: dict, agg: dict) -> dict:
    if params["family"] == "nonexpansive":
        ks = np.asarray(agg["k_n"], dtype=np.float64)
        sigma_seq = params["mu"] * params["sigma"] / np.sqrt(ks)
        empirical = agg["residual_mean"]

        def bound(i: int, n: int) -> float:
            return bound_nonexpansive(params["kappa_bar"], sigma_seq[: i + 1], n)
    else:
        empirical = agg.get("dist_to_fp_mean")
        if empirical is None:
            raise ConfigError(
                "config.bounds: the contractive bound compares dist_to_fp, "
                "which this run did not record"
            )

        def bound(i: int, n: int) -> float:
            return bound_contractive(params["dist0"], params["sigma"], params["gamma"], n)
    empirical = np.asarray(empirical, dtype=np.float64)
    rows = []
    for i, n in enumerate(np.asarray(agg["n"], dtype=np.int64)):
        if n < 1:
            continue
        b = bound(i, int(n))
        rows.append(
            {
                "n": int(n),
                "empirical": float(empirical[i]),
                "bound": float(b),
                "within_bound": bool(empirical[i] <= b),
            }
        )
    return {
        "family": params["family"],
        "params": {k: v for k, v in params.items() if k != "family"},
        "rows": rows,
        "all_within": all(r["within_bound"] for r in rows),
        "final_within": bool(rows and rows[-1]["within_bound"]),
    }


# ---------------------------------------------------------------------------
# Experiment driver


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(seeds: list[int], jobs: int) -> list[list[int]]:
    """min(jobs, len(seeds), usable CPUs) contiguous chunks of seeds, sizes within one."""
    count = min(jobs, len(seeds), _usable_cpus())
    return [seeds[i * len(seeds) // count:(i + 1) * len(seeds) // count] for i in range(count)]


def _prepare(cfg: dict, out_dir) -> _Plan:
    """The plan of a validated config, with out_dir made (or found) to write into."""
    plan = _plan(cfg)  # config errors found here leave no --out behind
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file where the directory, or one of its parents, should be
        raise ConfigError(f"--out: {exc}") from None
    return plan


def _work(cfg: dict, seeds: list[int], out_dir, conn):
    """Run a chunk of seeds in a worker process, from a plan of its own.

    It writes the seeds' CSVs and sends on conn, for each window [a, b), the
    chunk's end in it (see _Plan.windows) and then each measured column from a
    to that end, as the raw buffer of a C-ordered (seeds, end - a) array. Then
    it sends ("done", abort reasons), or ("error", exception, traceback) in
    place of whatever was left.
    """
    with conn:
        try:
            plan = _prepare(cfg, out_dir)
            stacks = plan.stacks(seeds)
            for a, b, parts in plan.windows(stacks, out_dir):
                end, data = min(e for e, _ in parts), []
                for k in range(4):
                    if parts[0][1][k] is not None:
                        column = _by_seed([p[k] for _, p in parts], 0, end - a)
                        data.append(column.reshape(-1).view(np.uint8))  # bytes, if empty too
                        for _, p in parts:
                            p[k] = None  # read, so freed before the next column is
                conn.send(end)
                for buffer in data:
                    conn.send_bytes(buffer)
            conn.send(("done", [r for stack in stacks for r in stack.abort_reason]))
        except Exception as exc:  # the CLI process reports it
            import traceback

            conn.send(("error", exc, traceback.format_exc()))


class _WorkerTraceback(Exception):
    """The traceback of an exception that a worker process sent, as its cause."""


def _message(conn):
    """A worker's next message other than raw columns; an exception it sent is raised."""
    msg = conn.recv()
    if isinstance(msg, tuple) and msg[0] == "error":
        raise msg[1] from _WorkerTraceback(msg[2])
    return msg


@contextmanager
def _workers(cfg: dict, chunks: list[list[int]], out_dir):
    """Start a worker process (_work) for each chunk of seeds and yield the read end of
    each one's pipe. Each is started before this process builds its plan, so it
    holds only what it builds itself. On leaving, every worker is reaped, and
    stopped first when an exception leaves."""
    if not chunks:
        yield []
        return
    import multiprocessing  # only pooled runs pay its import

    procs, conns = [], []
    try:
        for chunk in chunks:
            conn, sender = multiprocessing.Pipe(duplex=False)
            conns.append(conn)
            with sender:
                proc = multiprocessing.Process(target=_work, args=(cfg, chunk, out_dir, sender),
                                               daemon=True)
                proc.start()
            procs.append(proc)
        yield conns
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def run_experiment(cfg: dict, out_dir, jobs: int = 1) -> dict:
    """Run all seeds of a validated config and write the output files.

    Returns the summary dict (also written to summary.json). The seeds run in
    contiguous chunks, at most one per seed and per usable CPU: this process
    runs the first, a worker process each other (_work). Each process builds
    the run objects, and any exact MDP solution, once from the config for all
    of its seeds, steps them in stacks a window of columns at a time and
    writes each window of their CSVs. This process reduces each window over
    every seed, in seed order, into aggregate.csv and progress.csv
    (_Aggregate), so no process holds a whole trace and no output byte
    depends on jobs.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    seeds = cfg["seeds"]
    chunks = _chunks(seeds, jobs)
    with _workers(cfg, chunks[1:], out_dir) as conns:
        plan = _prepare(cfg, out_dir)
        stacks = plan.stacks(chunks[0])
        d = plan.loop.x0.size if _KINDS[cfg["kind"]].progress else None
        aggregate = _Aggregate(plan.loop.schedule, plan.first, d, out_dir)
        for a, b, parts in plan.windows(stacks, out_dir):
            dtypes = [None if c is None else c.dtype for c in parts[0][1]]
            for conn, rows in zip(conns, map(len, chunks[1:])):
                end = _message(conn)
                parts.append((end, [None if t is None else
                                    np.frombuffer(conn.recv_bytes(), t).reshape(rows, end - a)
                                    for t in dtypes]))
            aggregate.add(a, b, parts)
        reasons = [r for stack in stacks for r in stack.abort_reason]
        reasons += [r for conn in conns for r in _message(conn)[1]]

    agg = aggregate.columns()
    summary: dict = {
        "kind": cfg["kind"],
        "config": cfg,
        "n_seeds": len(seeds),
        "rows_aggregated": len(agg["n"]),
        "aborted_seeds": [{"seed": s, "reason": r}
                          for s, r in zip(seeds, reasons) if r is not None],
        "files": sorted([f"seed_{seed}.csv" for seed in seeds] + aggregate.files
                        + ["summary.json"]),
    }
    block, checks = plan.summary(agg, aggregate.last)
    summary.update(block)
    if summary["aborted_seeds"]:
        checks.insert(0, ("no_aborts", False))
    # pass/fail conditions the --check flag enforces via exit code 3
    details = [{"name": name, "passed": bool(passed)} for name, passed in checks]
    summary["checks"] = {"passed": all(c["passed"] for c in details), "details": details}
    path = os.path.join(out_dir, "summary.json")
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
