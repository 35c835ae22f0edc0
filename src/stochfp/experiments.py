"""Experiment harness: JSON configs to seeded runs, CSV traces, and rate fits.

Config documents are strict JSON: every field is consumed exactly once and an
unknown or missing field is a hard error naming the offending path (silent
defaults would undermine the bit-for-bit reproducibility contract). Outputs
per experiment directory:

  seed_<seed>.csv   one row per iteration, columns
                    n,beta_or_alpha,k_n,cum_queries,residual,dist_to_fp,noise_norm
  aggregate.csv     per-n mean and standard error across seeds
  progress.csv      lower-bound runs only: per-n progress statistics
  summary.json      config echo, rate fits, bound overlays, check results

Every float in a CSV is exactly Python's '%.17g' of the value: 17 significant
digits, which read back as the same double, with trailing zeros dropped. The
writers format floats in numpy a block of lines at a time (_g17) and write
each block with one os.write, so the files are byte-identical across reruns
with the same config and seeds, and no float column is held whole as text.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import linalg, mdp as mdp_mod
from .engine import (
    BatchSchedule,
    StackTrace,
    StepSchedule,
    _Loop,
    _vector_loop,
    bound_contractive,
    bound_nonexpansive,
    iterate_stack,
    kappa_bar_bounded_range,
)
from .linalg import NormKind, norm, norm_equivalence_mu
from .lower_bound import (MAX_DIM, AdversarialInstance, SpanAlgorithm, _adversarial_loop,
                          build_instance)
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

_KINDS = ("fixedpoint", "lowerbound", "mdp-avg", "mdp-disc")


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
    f.done()
    return out


def _validate_bounds_block(f: _Fields | None) -> dict | None:
    if f is None:
        return None
    family = f.take("family")
    if family not in ("nonexpansive", "contractive"):
        raise ConfigError(f"{f.path}.family: expected 'nonexpansive' or 'contractive'")
    out = {"family": family, "sigma": _real(f.take("sigma"), f"{f.path}.sigma")}
    if out["sigma"] < 0:
        raise ConfigError(f"{f.path}.sigma: must be >= 0")
    if family == "nonexpansive":
        m_val = f.take("range_bound", required=False)
        if m_val is not None:
            out["range_bound"] = _real(m_val, f"{f.path}.range_bound")
    f.done()
    return out


def validate_config(doc) -> dict:
    """Validate and normalize an experiment config document.

    Returns a plain JSON-safe dict (MDP files are inlined, seeds expanded) so
    worker processes read no input files.
    """
    f = _Fields(doc, "config")
    kind = f.take("kind")
    if kind not in _KINDS:
        raise ConfigError(f"config.kind: expected one of {list(_KINDS)}, got {kind!r}")
    out: dict = {"kind": kind}
    out["seeds"] = parse_seed_spec(f.take("seeds"))
    stream = f.take("stream", required=False)
    out["stream"] = 0 if stream is None else _uint64(stream, "config.stream")

    if kind == "fixedpoint":
        norm_kind = _build_norm(f.take("norm"), "config.norm")
        op = _build(f.take("operator"), "config.operator", _OPERATORS, norm_kind)
        noise = _build(f.take("noise"), "config.noise", _NOISES)
        method = _build(f.take("method"), "config.method", _STEPS)
        out.update({name: doc[name] for name in ("norm", "operator", "noise", "method")})
        try:
            OracleDescriptor(op, noise)
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
                raise ConfigError(
                    "config.batches: averaged (km) methods use one query per step; "
                    "omit batches or set constant k = 1"
                )
            out["batches"] = {"kind": "constant", "k": 1}
        out["x0"] = _normalize_vector(f.take("x0"), "config.x0", op.dim)
        out["N"] = _steps(f.take("N"), "config.N")
        out["bounds"] = _validate_bounds_block(f.sub("bounds", required=False))
        if out["bounds"] is not None:  # fail fast on missing parameters
            _bound_params(out["bounds"], op, norm_kind, np.asarray(out["x0"]))
        out["fit"] = _validate_fit_block(f.sub("fit", required=False))
        f.done()
        return out

    if kind == "lowerbound":
        eps = _real(f.take("epsilon"), "config.epsilon")
        kb = _real(f.take("kappa_bar"), "config.kappa_bar")
        sg = _real(f.take("sigma"), "config.sigma")
        try:
            build_instance(eps, kb, sg)
        except ValueError as exc:
            raise ConfigError(f"config: {exc}")
        out.update({"epsilon": eps, "kappa_bar": kb, "sigma": sg})
        _build(f.take("algorithm"), "config.algorithm", _ALGORITHMS)
        out["algorithm"] = doc["algorithm"]
        _build(f.take("batches"), "config.batches", _BATCHES)
        out["batches"] = doc["batches"]
        f.done()
        return out

    # mdp-avg and mdp-disc
    model = _build_mdp(f.take("mdp"), "config.mdp")
    out["mdp"] = model.to_dict()
    shape = (model.num_states, model.num_actions)
    out["N"] = None
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

    if kind == "mdp-avg":
        if algorithm not in ("halpern", "benchmark", "rvi"):
            raise ConfigError(
                f"config.algorithm: expected 'halpern', 'benchmark', or 'rvi', got {algorithm!r}"
            )
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
        if ratio is not None:
            early = _integer(ratio.take("early_n"), f"{ratio.path}.early_n")
            late = _integer(ratio.take("late_n"), f"{ratio.path}.late_n")
            max_ratio = _real(ratio.take("max_ratio"), f"{ratio.path}.max_ratio")
            ratio.done()
            if not 1 <= early < late <= out["N"]:
                raise ConfigError(f"{ratio.path}: need 1 <= early_n < late_n <= N")
            out["residual_ratio_check"] = {
                "early_n": early,
                "late_n": late,
                "max_ratio": max_ratio,
            }
        else:
            out["residual_ratio_check"] = None
        f.done()
        return out

    # mdp-disc
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
    f.done()
    return out


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
    return validate_config(doc)


# ---------------------------------------------------------------------------
# The run plan: built once per experiment, pickled into the process pool


# The seeds a runner steps together hold at most this many iterate
# coordinates (2 MiB per array of a step), so wide runs go in shorter stacks.
_STACK_COORDS = 1 << 18


@dataclass(frozen=True)
class _Plan:
    """A validated config's run objects, shared by every seed.

    loop holds iterate_stack's inputs but the seeds, its schedule among them,
    which the writers and the aggregate read beside each stack's trace of
    measured columns. first is the first column that a seed file holds: 0
    for lowerbound, whose files include n = 0, and 1 otherwise. instance
    (lowerbound), v_star (mdp-avg) and bounds (fixedpoint with a bounds
    block) feed the summary.
    """

    loop: _Loop
    stream: int
    first: int
    instance: AdversarialInstance | None = None
    v_star: float | None = None
    bounds: dict | None = None

    def run(self, seeds: list[int], out_dir) -> list[StackTrace]:
        """Run and write the seeds' CSVs in stacks of at most _STACK_COORDS coordinates;
        returns each stack's trace, in seed order. iterate_stack is looked up here,
        so that rebinding it (as a call tracer does) reaches every seed."""
        height = max(1, _STACK_COORDS // self.loop.x0.size)
        traces = []
        for i in range(0, len(seeds), height):
            stack = seeds[i:i + height]
            traces.append(self.loop.run([RngStream(seed, self.stream) for seed in stack],
                                        iterate_stack))
            _write_seed_csvs(out_dir, stack, self.loop.schedule, traces[-1], self.first)
        return traces


def _plan(cfg: dict) -> _Plan:
    """Build the run objects of a validated config, solving an MDP exactly once.

    The loop's inputs and schedule come from the helper of the config's kind
    that the library runs call too (engine._vector_loop,
    lower_bound._adversarial_loop, mdp._q_loop), so a schedule whose query
    count passes 2^63 - 1 is a ConfigError before any output exists.
    """
    kind, first, extra = cfg["kind"], 1, {}
    if kind == "fixedpoint":
        norm_kind = _build_norm(cfg["norm"], "config.norm")
        op = _build(cfg["operator"], "config.operator", _OPERATORS, norm_kind)
        oracle = OracleDescriptor(op, _build(cfg["noise"], "config.noise", _NOISES))
        x0 = np.asarray(cfg["x0"], dtype=np.float64)
        if cfg["bounds"] is not None:
            extra["bounds"] = _bound_params(cfg["bounds"], op, norm_kind, x0)
        # averaged methods take one query a step, as validate_config writes their batches
        loop = partial(_vector_loop, oracle, x0, _build(cfg["method"], "config.method", _STEPS),
                       _build(cfg["batches"], "config.batches", _BATCHES), cfg["N"], norm_kind)
    elif kind == "lowerbound":
        inst = extra["instance"] = build_instance(cfg["epsilon"], cfg["kappa_bar"], cfg["sigma"])
        algo = SpanAlgorithm(batches=_build(cfg["batches"], "config.batches", _BATCHES),
                             **cfg["algorithm"])
        loop, first = partial(_adversarial_loop, inst, algo), 0
    else:
        model = mdp_mod.mdp_from_dict(cfg["mdp"])
        algorithm, N = cfg["algorithm"], cfg["N"]
        halpern = StepSchedule.halpern_classic()
        if kind == "mdp-avg":
            try:
                v_star = mdp_mod.solve_average_exact(model, cfg["solver_tol"]).v_star
            except RuntimeError as exc:  # relative value iteration missed solver_tol
                raise ConfigError(f"config.mdp: {exc}") from None
            anchor = None if algorithm == "benchmark" else mdp_mod.AnchorFunction(**cfg["anchor"])
            maps = mdp_mod._maps(model, v_star=v_star, anchor=anchor)
            steps = StepSchedule.km_polynomial(cfg["a_exponent"]) if algorithm == "rvi" else halpern
            batches = BatchSchedule.power_six()
            extra["v_star"] = v_star
        else:
            q_star = mdp_mod.solve_discounted_exact(model, cfg["gamma"], cfg["solver_tol"])
            maps = mdp_mod._maps(model, gamma=cfg["gamma"], q_star=q_star)
            steps = _build(cfg["alpha"], "config.alpha", _STEPS) if algorithm == "vanilla" else halpern
            batches = BatchSchedule.contractive_geometric(cfg["gamma"], N)
        # halpern and benchmark are anchored and batch; rvi and vanilla take one query a step
        batches = batches if steps.is_halpern else BatchSchedule.constant(1)
        loop = partial(mdp_mod._q_loop, model, np.asarray(cfg["q0"], dtype=np.float64), N,
                       steps.weight, batches.size, steps.is_halpern, **maps)
    try:
        return _Plan(loop(), cfg["stream"], first, **extra)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None


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


def _write_seed_csvs(out_dir, seeds: list[int], schedule: tuple, t: StackTrace, first: int):
    """Write seed_<seed>.csv of each seed of a stack: the columns first..steps of
    the run's schedule and of the seed's row of t, block-major. The prefix
    "n,weight,k_n,cum_queries," of a _BLOCK of lines is formatted once for the
    stack, and that block of every file that reaches it is written before the
    next is formatted, so no column is held whole as text. Block 0 starts
    every file, header-only for a seed without rows."""
    ends = [steps + 1 for steps in t.steps]  # past each seed's last column
    measured = [c for c in (t.residual, t.dist_to_fp, t.noise_norm) if c is not None]
    row = b"%b%b,,%b\n" if t.dist_to_fp is None else b"%b%b,%b,%b\n"
    paths = [os.path.join(out_dir, f"seed_{seed}.csv") for seed in seeds]
    last = max(ends)
    for a in range(first, max(last, first + 1), _BLOCK):
        b = min(a + _BLOCK, last)
        n, weight, batch, cum = (c[a:b] for c in schedule)
        prefix = list(map(b"%d,%b,%d,%d,".__mod__,
                          zip(n.tolist(), _g17(weight), batch.tolist(), cum.tolist())))
        _write_csvs((path, _SEED_HEADER if a == first else b"", row,
                     [prefix[:stop - a]] + [c[i, a:stop] for c in measured])
                    for i, (path, stop) in enumerate(zip(paths, (min(e, b) for e in ends)))
                    if a == first or stop > a)


def _by_seed(stacks, first: int, end: int) -> np.ndarray:
    """Columns first..end - 1 of every row of stacks, (B, steps + 1) arrays, as one
    C-ordered (seeds, n) array. Its reductions over seeds add row by row, each
    column alone, whenever n >= 2; a single column is one contiguous run, which
    numpy sums pairwise."""
    out = np.empty((sum(len(c) for c in stacks), end - first), stacks[0].dtype)
    return np.concatenate([c[:, first:end] for c in stacks], out=out)


def _over_seeds(stacks, first: int, end: int, reduce) -> list[np.ndarray]:
    """reduce's columns of the _by_seed array of columns first..end - 1 of stacks,
    computed a block of columns at a time and joined.

    The blocks are _BLOCK columns wide and the last takes the rest, so it
    holds 2 to _BLOCK + 1 columns unless all of them are fewer: no block is a
    lone column of a wider run, and each column's reduction has the bits of
    the whole array's. An empty range gives empty columns.
    """
    starts = range(first, max(end - 1, first + 1), _BLOCK)
    parts = [reduce(_by_seed(stacks, a, b)) for a, b in zip(starts, [*starts[1:], end])]
    return [np.concatenate(column) for column in zip(*parts)]


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


def _aggregate(schedule: tuple, traces: list[StackTrace], first: int) -> dict:
    """Per-n mean and standard error over the columns first.. that all seeds share,
    keyed by the aggregate.csv columns (dist_to_fp_* are None without a known x*).
    n, k_n and cum_queries are views of the run's schedule; each measured
    column is reduced over seeds a block of columns at a time (_over_seeds), so
    the work arrays beside the result hold one block."""
    stacks = StackTrace(*zip(*traces))  # each field, one item per stack
    end = min(min(steps) for steps in stacks.steps) + 1
    n, _, batch, cum = (c[first:end] for c in schedule)
    agg = {"n": n, "k_n": batch, "cum_queries": cum}
    for col, columns in zip(("residual", "dist_to_fp", "noise_norm"),
                            (stacks.residual, stacks.dist_to_fp, stacks.noise_norm)):
        if columns[0] is None:
            agg[f"{col}_mean"] = agg[f"{col}_sem"] = None
        else:
            agg[f"{col}_mean"], agg[f"{col}_sem"] = _over_seeds(columns, first, end, _mean_sem)
    return agg


def _write_aggregate_csv(path: str, agg: dict):
    names = _AGG_HEADER.split(",")
    row = ",".join("" if agg[c] is None else "%d" if c in _AGG_INTS else "%b" for c in names)
    _write_csvs([(path, f"{_AGG_HEADER}\n".encode(), f"{row}\n".encode(),
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


def _prog_stats(progs: np.ndarray, d: int) -> tuple:
    """Per-n mean, min, max and fraction below d over the seeds (rows) of progs,
    whose integer sums are exact."""
    return progs.mean(axis=0), progs.min(axis=0), progs.max(axis=0), (progs < d).mean(axis=0)


def _write_progress_csv(path: str, agg: dict, stats):
    """progress.csv of the aggregate's schedule and the _prog_stats columns stats."""
    _write_csvs([(path, b"n,cum_queries,prog_mean,prog_min,prog_max,frac_prog_lt_d\n",
                  b"%d,%d,%b,%d,%d,%b\n", [agg["n"], agg["cum_queries"], *stats])])


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


def _bound_params(spec: dict, op, norm_kind: NormKind, x0: np.ndarray) -> dict:
    """Resolve a bounds block's parameters for the built operator; raise on gaps."""
    if spec["family"] == "nonexpansive":
        m_val = spec.get("range_bound")
        if m_val is None:
            if isinstance(op, ShiftProjection):
                m_val = op.range_bound()
            else:
                raise ConfigError(
                    "config.bounds.range_bound: required unless the operator is a "
                    "shift-projection (whose range bound is d * lam)"
                )
        kappa = kappa_bar_bounded_range(float(m_val), x0, norm_kind)
        mu = norm_equivalence_mu(norm_kind, op.dim)
        return {"family": "nonexpansive", "kappa_bar": kappa, "mu": mu, "sigma": spec["sigma"]}
    info = op.fixed_point_info()
    if info.point is None:
        raise ConfigError(
            "config.bounds: the contractive bound needs the operator's fixed point "
            f"({info.description})"
        )
    if not op.gamma < 1.0:
        raise ConfigError("config.bounds: the contractive bound needs a contraction factor < 1")
    dist0 = norm(x0 - info.point, norm_kind)
    return {
        "family": "contractive",
        "dist0": dist0,
        "gamma": op.gamma,
        "sigma": spec["sigma"],
    }


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
    norm_kind = _build_norm(cfg["norm"], "config.norm")
    op = _build(cfg["operator"], "config.operator", _OPERATORS, norm_kind)
    x0 = np.asarray(cfg["x0"], dtype=np.float64)
    return _overlay_bounds(_bound_params(cfg["bounds"], op, norm_kind, x0), agg)


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


def run_experiment(cfg: dict, out_dir, jobs: int = 1) -> dict:
    """Run all seeds of a validated config and write the output files.

    Returns the summary dict (also written to summary.json). The run objects
    and any exact MDP solution are built once and shared by every seed. The
    seeds run in contiguous chunks, at most one per seed and per usable CPU:
    this process runs the first, a worker process each other. A seed's CSV is
    written where it ran, the other outputs here in seed order, so the bytes
    do not depend on jobs.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    plan = _plan(cfg)  # config errors found here leave no --out behind
    try:  # once, before any seed runs, since each seed's CSV is written where it ran
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file where the directory, or one of its parents, should be
        raise ConfigError(f"--out: {exc}") from None
    seeds = cfg["seeds"]
    chunks = _chunks(seeds, jobs)
    if len(chunks) == 1:
        traces = plan.run(seeds, out_dir)
    else:
        # imported here: multiprocessing is a sixth of the package's import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks) - 1) as pool:
            # map submits every chunk at once, so the workers run beside this process
            rest = pool.map(plan.run, chunks[1:], [out_dir] * (len(chunks) - 1))
            traces = plan.run(chunks[0], out_dir) + [t for chunk in rest for t in chunk]

    files = [f"seed_{seed}.csv" for seed in seeds]
    agg = _aggregate(plan.loop.schedule, traces, plan.first)
    _write_aggregate_csv(os.path.join(out_dir, "aggregate.csv"), agg)
    files.append("aggregate.csv")

    reasons = [r for t in traces for r in t.abort_reason]
    summary: dict = {
        "kind": cfg["kind"],
        "config": cfg,
        "n_seeds": len(seeds),
        "rows_aggregated": len(agg["n"]),
        "aborted_seeds": [{"seed": s, "reason": r}
                          for s, r in zip(seeds, reasons) if r is not None],
    }
    # pass/fail conditions the --check flag enforces via exit code 3
    checks = []

    def check(name: str, passed):
        checks.append({"name": name, "passed": bool(passed)})

    if summary["aborted_seeds"]:
        check("no_aborts", False)

    if cfg["kind"] == "lowerbound":
        inst = plan.instance
        stats = _over_seeds([t.prog for t in traces], plan.first, plan.first + len(agg["n"]),
                            partial(_prog_stats, d=inst.d))
        _write_progress_csv(os.path.join(out_dir, "progress.csv"), agg, stats)
        files.append("progress.csv")
        means = agg["residual_mean"]
        summary["instance"] = asdict(inst)
        summary["barrier_held"] = bool((means > cfg["epsilon"]).all())
        summary["final_frac_prog_lt_d"] = float(stats[3][-1])
        summary["final_mean_residual"] = float(means[-1])
        check("barrier_held", summary["barrier_held"])
        check("final_frac_prog_lt_d_gt_half", summary["final_frac_prog_lt_d"] > 0.5)

    if cfg["kind"] == "mdp-avg":
        summary["v_star"] = plan.v_star
        ratio = cfg.get("residual_ratio_check")
        if ratio is not None:
            res_mean = agg["residual_mean"]
            ns = agg["n"].tolist()
            try:
                early = res_mean[ns.index(ratio["early_n"])]
                late = res_mean[ns.index(ratio["late_n"])]
            except ValueError:
                raise ConfigError("config.residual_ratio_check: requested n not in the trace")
            summary["residual_ratio"] = {
                "early_n": ratio["early_n"],
                "late_n": ratio["late_n"],
                "early_mean": float(early),
                "late_mean": float(late),
                "ratio": float(late / early) if early > 0 else math.inf,
                "max_ratio": ratio["max_ratio"],
                "held": bool(late <= ratio["max_ratio"] * early),
            }
            check("residual_ratio", summary["residual_ratio"]["held"])

    if cfg["kind"] == "mdp-disc":
        summary["N"] = cfg["N"]
        if agg["dist_to_fp_mean"] is not None:
            summary["final_mean_dist"] = float(agg["dist_to_fp_mean"][-1])
            if cfg.get("target_epsilon") is not None:
                summary["target_epsilon"] = cfg["target_epsilon"]
                summary["target_met"] = bool(
                    summary["final_mean_dist"] <= cfg["target_epsilon"]
                )
                check("target_met", summary["target_met"])

    if cfg["kind"] == "fixedpoint":
        if plan.bounds is not None:
            bounds = summary["bounds"] = _overlay_bounds(plan.bounds, agg)
            if bounds["family"] == "nonexpansive":
                check("bounds_hold", bounds["all_within"])
            else:
                check("final_bound_holds", bounds["final_within"])
        if cfg.get("fit") is not None:
            fit_cfg = cfg["fit"]
            floor = fit_cfg.get("noise_floor", 1e-12)
            try:
                fit = fit_rate(agg["n"], agg["residual_mean"], fit_cfg["window"], floor)
            except ValueError as exc:
                summary["rate_fit"] = {"error": str(exc)}
                check("rate_fit", False)
            else:
                summary["rate_fit"] = dict(asdict(fit), window=list(fit.window))
                if "expect_slope" in fit_cfg:
                    lo, hi = fit_cfg["expect_slope"]
                    summary["rate_fit"]["expect_slope"] = [lo, hi]
                    summary["rate_fit"]["slope_in_range"] = bool(lo <= fit.slope <= hi)
                    check("slope_in_range", summary["rate_fit"]["slope_in_range"])

    summary["checks"] = {"passed": all(c["passed"] for c in checks), "details": checks}
    files.append("summary.json")
    summary["files"] = sorted(files)
    path = os.path.join(out_dir, "summary.json")
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
