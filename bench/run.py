"""End-to-end and per-layer benchmark of the stochfp CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a stochfp checkout; the package is imported from its
src/ directory. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; a JSON line with the per-metric
samples and an environment record comes before it.

--trace 0 drives the CLI from this process in a closed loop (one client; each
invocation starts when the previous one has ended) for S seconds, after one
untimed set-up probe as warm-up. Each --jobs 1 invocation runs a newly
generated config; the --jobs 2 invocations after it run the same config.
Each invocation is timed as a whole process, interpreter start and import
included. The next invocation is at the --jobs with less measured time so
far, or at the other if only that one is forecast to end within S seconds,
so both throughputs get about half of the run whatever their invocations
cost. Every run makes at least one invocation at each --jobs.
steps_per_s is the steps of all --jobs 1 invocations over their summed wall
time (likewise at --jobs 2); set-up probes run between invocations and report
their median. An invocation fails when it exits non-zero, when its files
differ from their reference (for --jobs 2, the --jobs 1 output of the same
config; at the default seed, the first --jobs 1 output is checked against
pins.json), or when a seed CSV does not hold the workload's step count. A
failed invocation is left out of the timings. This process imports only the
standard library, so the peak RSS that wait4 reports for a CLI process is the CLI's
own (or one of its pool workers').

--trace 1 runs the generated config twice in this process through
stochfp.cli.main at --jobs 1: once plain, once with every public function of
the stochfp modules wrapped in a span recorder (see spans.py), and reports
calls, self time and per-trajectory kernel percentiles, the difference of
the two wall times, and per-call microtimings. It does a fixed amount of work
and ignores --seconds, so its counts repeat exactly from run to run. Layers a
workload never calls report 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import inspect
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from digests import digest_dir, digest_mismatches, seed_steps
from workloads import DEFAULT_SEED, WORKLOADS, Workload, make_config, write_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
PINS = BENCH_DIR / "pins.json"

CLI_TIMEOUT_S = 150.0
LOOP_CAP_S = 120.0  # no new invocation starts after this, whatever --seconds says
JOBS2 = 2
SETUP_REPEATS = 5

# (name, unit, better); the end-to-end list of BENCHMARK.json.
END_TO_END = [
    ("steps_per_s", "steps/s", "higher"),
    ("steps_per_s_jobs2", "steps/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Functions whose calls and self time are reported; the names are
# <module>.<function> as the tracer records them.
LAYERS = [
    "oracles.RngStream.generator",
    "oracles.RngStream.substream",
    "oracles.minibatch",
    "oracles.standard_normal",
    "mdp.halpern_q_discounted",
    "mdp.bellman_discounted",
    "mdp.solve_discounted_exact",
    "engine.halpern_run",
    "operators.apply",
    "linalg.norm",
    "linalg.as_vector",
    "linalg.last_nonzero_index",
    "lower_bound.run_adversarial",
    "lower_bound.prog",
    "lower_bound.build_instance",
    "experiments.run_experiment",
    "experiments.validate_config",
    "experiments.evaluate_bounds",
]
# One call per trajectory: also report per-call percentiles.
KERNELS = ["engine.halpern_run", "lower_bound.run_adversarial", "mdp.halpern_q_discounted"]
MICRO = [
    "oracles.RngStream.generator",
    "mdp.bellman_discounted",
    "linalg.norm",
    "operators.ShiftProjection.apply",
    "lower_bound.phi",
    "oracles.minibatch.gaussian",
    "oracles.minibatch.resistant",
]
TRACED_MODULES = ["linalg", "oracles", "operators", "engine", "lower_bound", "mdp", "experiments"]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric; the per_layer list of BENCHMARK.json."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
        if layer in KERNELS:
            specs.append((f"{layer}.p50_ms", "ms", "lower"))
            specs.append((f"{layer}.p99_ms", "ms", "lower"))
    specs.append(("operators.apply.per_step", "calls/step", "lower"))
    specs.append(("stochfp.import_s", "s", "lower"))
    specs.append(("trace_overhead_s", "s", "lower"))
    specs.extend((f"{name}.us_per_call", "us", "lower") for name in MICRO)
    return specs


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def check_checkout():
    if not (ROOT / "src" / "stochfp" / "__init__.py").is_file():
        raise BenchError(f"no stochfp sources under {ROOT / 'src'}; run from a stochfp checkout")
    for w in WORKLOADS.values():
        if not w.shipped_path(ROOT).is_file():
            raise BenchError(f"shipped config {w.shipped_path(ROOT)} is missing")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg_start": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median_and_tail(values: list[float], better: str) -> dict:
    """Median, and the highest percentile with at least ten samples on its worse side."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals), "tail": None}
    if n >= 11:
        value = vals[n - 11] if better == "lower" else vals[10]
        out["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": value}
    return out


# ---------------------------------------------------------------------------
# --trace 0: the CLI as a user runs it


@dataclass
class CliRun:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stderr: str


def run_cli(w: Workload, config: Path, out: Path, jobs: int) -> CliRun:
    """One CLI process, timed from spawn to reap.

    wait4 gives the peak RSS of the process and of the largest of the pool
    workers it reaped.
    """
    shutil.rmtree(out, ignore_errors=True)
    argv = [
        sys.executable, "-m", "stochfp.cli", w.command,
        "--config", str(config), "--out", str(out), "--jobs", str(jobs),
    ]
    err_path = out.with_suffix(".stderr")
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        reaped = threading.Event()

        def kill_on_timeout():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(CLI_TIMEOUT_S, kill_on_timeout)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return CliRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)


SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import stochfp
from stochfp.experiments import load_config
load_config(sys.argv[1])
print(json.dumps([time.perf_counter() - t0, stochfp.__file__]))
"""


def measure_setup(config: Path) -> float:
    """A fresh interpreter's `import stochfp` plus load_config of the config, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    elapsed, origin = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(origin).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"stochfp imported from {origin}, not from {ROOT / 'src'}")
    return elapsed


def check_output(w: Workload, returncode: int, log: str, out: Path, reference: dict | None) -> list[str]:
    """Reasons an invocation failed; empty when it passed."""
    if returncode != 0:
        return [f"exit {returncode}: {log.strip()[-300:]}"]
    problems = []
    steps = seed_steps(out)
    if len(steps) != w.seeds_per_run or set(steps.values()) != {w.steps_per_seed}:
        problems.append(f"seed CSV steps {sorted(set(steps.values()))}, expected {w.steps_per_seed}")
    if reference is not None:
        bad = digest_mismatches(reference, digest_dir(out))
        if bad:
            problems.append(f"bytes differ from the reference in {bad[:5]}")
    return problems


def load_pins(w: Workload) -> dict:
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if w.name not in pins:
        raise BenchError(f"{PINS} has no digests for {w.name}")
    return pins[w.name]


def end_to_end(w: Workload, seed: int, seconds: int, work: Path) -> tuple[dict, dict]:
    if nproc() < JOBS2:
        raise BenchError(f"steps_per_s_jobs2 needs {JOBS2} CPUs; this process may use {nproc()}")
    pins = load_pins(w) if seed == DEFAULT_SEED else None
    steps = w.seeds_per_run * w.steps_per_seed
    failures = []
    attempted = 0
    walls = {1: [], JOBS2: []}  # wall time of each passing invocation
    busy = {1: 0.0, JOBS2: 0.0}  # wall time of all invocations
    last = {}  # wall time of the latest invocation at each --jobs: the forecast of the next
    rss, setup = [], []
    probe_s = 0.0
    iteration = -1
    reference = None

    cfg = write_config(work / "config-0.json", make_config(ROOT, w, seed, 0))
    measure_setup(cfg)  # warm-up: the file cache holds the interpreter, numpy, scipy and stochfp
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        # the --jobs with less measured time so far first; --jobs 1 on a tie, so
        # the first --jobs 2 invocation has a --jobs 1 output to compare with
        order = [1, JOBS2] if busy[1] <= busy[JOBS2] else [JOBS2, 1]
        probes_left = (SETUP_REPEATS - len(setup)) * probe_s
        limit = min(seconds, LOOP_CAP_S)
        fits = [j for j in order if elapsed + last.get(j, last.get(1, 0.0)) + probes_left <= limit]
        if fits:
            jobs = fits[0]
        elif not busy[JOBS2]:
            jobs = JOBS2  # every run measures both, whatever --seconds says
        else:
            break
        if jobs == 1:
            iteration += 1
            cfg = write_config(work / f"config-{iteration}.json", make_config(ROOT, w, seed, iteration))
        out = work / f"jobs{jobs}"
        run = run_cli(w, cfg, out, jobs)
        attempted += 1
        busy[jobs] += run.wall_s
        last[jobs] = run.wall_s
        if jobs == 1:
            problems = check_output(w, run.returncode, run.stderr, out, pins if iteration == 0 else None)
            reference = None if problems else digest_dir(out)
        else:
            problems = check_output(w, run.returncode, run.stderr, out, reference)
            if reference is None:
                problems.append("no --jobs 1 output of this config to compare with")
        if problems:
            failures.append(f"config {iteration} --jobs {jobs}: " + "; ".join(problems))
        else:
            walls[jobs].append(run.wall_s)
        if run.returncode == 0:
            rss.append(run.maxrss_mb)
        # set-up probes are spread over the run, so they see the same machine as the CLI
        if len(setup) < SETUP_REPEATS:
            t0 = time.perf_counter()
            setup.append(measure_setup(cfg))
            probe_s = time.perf_counter() - t0
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(cfg))

    if not (walls[1] and walls[JOBS2]):
        raise BenchError("no invocation succeeded at some --jobs; failures: " + "; ".join(failures[:5]))
    per_invocation = {
        "steps_per_s": [steps / t for t in walls[1]],
        "steps_per_s_jobs2": [steps / t for t in walls[JOBS2]],
        "setup_s": setup,
        "peak_rss_mb": rss,
    }
    # Throughput over everything the run measured at each --jobs: total steps
    # over total wall time. Per-invocation medians and tails are in the detail
    # line; with a handful of invocations the total is the steadier figure.
    values = {
        "steps_per_s": steps * len(walls[1]) / sum(walls[1]),
        "steps_per_s_jobs2": steps * len(walls[JOBS2]) / sum(walls[JOBS2]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    detail = {
        "configs": iteration + 1,
        "measured_s": {f"jobs{j}": t for j, t in busy.items()},
        "seeds_per_invocation": w.seeds_per_run,
        "steps_per_invocation": steps,
        "pins_checked": pins is not None,
        "samples": {
            name: dict(median_and_tail(per_invocation[name], better), values=per_invocation[name])
            for name, _, better in END_TO_END
        },
        "failures": failures,
    }
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}, detail


# ---------------------------------------------------------------------------
# --trace 1: per-layer numbers from wrapped functions


def install_tracer(tracer):
    """Wrap every public function of the traced modules, RngStream's stream
    methods and each operator class's apply."""
    modules = [m for name, m in sys.modules.items() if name == "stochfp" or name.startswith("stochfp.")]
    for short in TRACED_MODULES:
        mod = sys.modules[f"stochfp.{short}"]
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                tracer.patch_function(obj, f"{short}.{attr}", modules)
    oracles = sys.modules["stochfp.oracles"]
    for method in ("generator", "substream"):
        tracer.patch_method(oracles.RngStream, method, f"oracles.RngStream.{method}")
    operators = sys.modules["stochfp.operators"]
    for obj in list(vars(operators).values()):
        if (isinstance(obj, type) and issubclass(obj, operators.Operator)
                and obj is not operators.Operator and "apply" in obj.__dict__):
            tracer.patch_method(obj, "apply", "operators.apply")


def run_in_process(cli, w: Workload, config: Path, out: Path) -> tuple[int, float, str]:
    shutil.rmtree(out, ignore_errors=True)
    argv = [w.command, "--config", str(config), "--out", str(out), "--jobs", "1"]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, wall, captured.getvalue()


def traced(w: Workload, seed: int, work: Path) -> tuple[dict, dict]:
    # stochfp is imported first, before anything here pulls in numpy, so
    # import_s covers the whole import as a user pays it.
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import stochfp
    from stochfp import cli
    import_s = time.perf_counter() - t0
    if not Path(stochfp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"stochfp imported from {stochfp.__file__}, not from {ROOT / 'src'}")

    from microtime import microtimings
    from spans import Tracer, layer_stats

    micro = microtimings(ROOT)
    cfg = write_config(work / "config.json", make_config(ROOT, w, seed))
    failures = []

    pins = load_pins(w) if seed == DEFAULT_SEED else None
    rc, plain_s, log = run_in_process(cli, w, cfg, work / "plain")
    failures += [f"untraced: {p}" for p in check_output(w, rc, log, work / "plain", pins)]
    tracer = Tracer()
    install_tracer(tracer)
    try:
        rc, traced_s, log = run_in_process(cli, w, cfg, work / "traced")
    finally:
        tracer.restore()
    reference = digest_dir(work / "plain")
    failures += [f"traced: {p}" for p in check_output(w, rc, log, work / "traced", reference)]

    stats = layer_stats(tracer, KERNELS)
    steps = w.seeds_per_run * w.steps_per_seed
    values = {}
    for layer in LAYERS:
        st = stats.get(layer)
        values[f"{layer}.calls"] = st.calls if st else 0
        values[f"{layer}.self_s"] = st.self_s if st else 0.0
        if layer in KERNELS:
            durations = sorted(st.durations_s) if st else []
            values[f"{layer}.p50_ms"] = percentile(durations, 50) * 1e3
            values[f"{layer}.p99_ms"] = percentile(durations, 99) * 1e3
    values["operators.apply.per_step"] = values["operators.apply.calls"] / steps
    values["stochfp.import_s"] = import_s
    values["trace_overhead_s"] = traced_s - plain_s
    values.update({f"{name}.us_per_call": us for name, us in micro.items()})

    spans_path = WORK / f"spans-{w.name}.npz"
    tracer.save(spans_path)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_specs()}
    detail = {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "steps": steps,
        "other_spans": {
            name: {"calls": st.calls, "self_s": st.self_s}
            for name, st in sorted(stats.items()) if name not in LAYERS and st.calls
        },
        "failures": failures,
    }
    return {"attempted": 2, "failed": len(failures), "metrics": metrics}, detail


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for an empty list (the layer was not called)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    env = environment()
    work = WORK / f"{w.name}-{os.getpid()}"
    try:
        check_checkout()
        work.mkdir(parents=True, exist_ok=True)
        if args.trace:
            result, detail = traced(w, args.seed, work)
        else:
            result, detail = end_to_end(w, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"detail": dict(detail, workload=w.name, seed=args.seed, trace=args.trace,
                                     environment=env)}))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
