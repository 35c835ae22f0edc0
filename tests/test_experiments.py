"""Experiment harness: config validation, rate fits, runs, CSV outputs, CLI."""

import concurrent.futures
import json
import math
import os
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochfp as sf
from stochfp import engine, experiments
from stochfp.cli import main as cli_main
from stochfp.experiments import _MAX_SEEDS, parse_seed_spec

REPO = Path(__file__).resolve().parents[1]


def _fixedpoint_doc(**overrides):
    doc = {
        "kind": "fixedpoint",
        "norm": "l1",
        "operator": {"kind": "shift-projection", "lam": 0.2, "dim": 6},
        "noise": {"kind": "gaussian", "e": 0.2},
        "method": {"kind": "halpern-classic"},
        "batches": {"kind": "power", "a": 2},
        "x0": 0.0,
        "N": 12,
        "seeds": [1, 2, 3],
    }
    doc.update(overrides)
    return doc


def _write_mdp(tmp_path, m: sf.TabularMDP, name="model.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(m.to_dict()))
    return str(path)


class TestSeedSpec:
    def test_range_string(self):
        assert parse_seed_spec("3..6") == [3, 4, 5, 6]
        assert parse_seed_spec("7..7") == [7]
        assert len(parse_seed_spec(f"{2**64 - _MAX_SEEDS}..{2**64 - 1}")) == _MAX_SEEDS

    def test_list_preserved(self):
        assert parse_seed_spec([5, 1, 9]) == [5, 1, 9]

    def test_errors(self):
        for bad in ("6..3", "a..b", "5", [], [1, 1], [-2], [1.5], [2**64], "-1..2",
                    f"{2**64 - 2}..{2**64}", f"0..{_MAX_SEEDS}"):
            with pytest.raises(sf.ConfigError):
                parse_seed_spec(bad)


class TestValidateConfig:
    def test_fixedpoint_normalization(self):
        cfg = sf.validate_config(_fixedpoint_doc(seeds="1..4", x0=0.5))
        assert cfg["seeds"] == [1, 2, 3, 4]
        assert cfg["stream"] == 0
        assert cfg["x0"] == [0.5] * 6  # scalar broadcast to the operator dim
        assert cfg["batches"] == {"kind": "power", "a": 2}

    @pytest.mark.parametrize("kind, extra", [
        ("fixedpoint", {}),
        ("mdp-avg", {"algorithm": "benchmark"}),
        ("mdp-disc", {"algorithm": "halpern", "gamma": 0.9}),
    ])
    def test_n_is_capped_at_the_step_cap(self, kind, extra):
        if kind == "fixedpoint":
            doc = _fixedpoint_doc()
        else:
            model = json.loads((REPO / "configs" / "mdp_3x2.json").read_text())
            doc = dict(extra, kind=kind, mdp=model, seeds=[1])
        cap = experiments._MAX_STEPS
        assert sf.validate_config(dict(doc, N=cap))["N"] == cap
        with pytest.raises(sf.ConfigError, match=rf"^config\.N: {cap + 1} steps, more than "
                                                 rf"the {cap} a run may take$"):
            sf.validate_config(dict(doc, N=cap + 1))

    def test_unknown_top_level_field(self):
        with pytest.raises(sf.ConfigError, match=r"config\.typo: unknown field"):
            sf.validate_config(_fixedpoint_doc(typo=1))

    def test_unknown_nested_field(self):
        doc = _fixedpoint_doc()
        doc["operator"]["spin"] = 3
        with pytest.raises(sf.ConfigError, match=r"config\.operator\.spin"):
            sf.validate_config(doc)

    def test_missing_field(self):
        doc = _fixedpoint_doc()
        del doc["norm"]
        with pytest.raises(sf.ConfigError, match=r"config\.norm: missing"):
            sf.validate_config(doc)

    def test_km_forces_single_query_batches(self):
        doc = _fixedpoint_doc(method={"kind": "km-constant", "alpha": 0.5})
        del doc["batches"]
        cfg = sf.validate_config(doc)
        assert cfg["batches"] == {"kind": "constant", "k": 1}
        doc = _fixedpoint_doc(
            method={"kind": "km-constant", "alpha": 0.5},
            batches={"kind": "constant", "k": 4},
        )
        with pytest.raises(sf.ConfigError, match="one query per step"):
            sf.validate_config(doc)

    def test_halpern_requires_batches(self):
        doc = _fixedpoint_doc()
        del doc["batches"]
        with pytest.raises(sf.ConfigError, match=r"config\.batches"):
            sf.validate_config(doc)

    def test_x0_length_checked(self, tmp_path):
        with pytest.raises(sf.ConfigError, match=r"config\.x0"):
            sf.validate_config(_fixedpoint_doc(x0=[0.0, 0.0]))
        # every config number must be finite; json.load accepts NaN and Infinity
        nan = float("nan")
        for overrides, field in [
            ({"x0": nan}, r"config\.x0"),
            ({"x0": [0.0] * 5 + [-math.inf]}, r"config\.x0\[\]"),
            ({"operator": {"kind": "plane-rotation", "theta": nan}, "x0": [0.0, 0.0]},
             r"config\.operator\.theta"),
            ({"bounds": {"family": "nonexpansive", "sigma": nan}}, r"config\.bounds\.sigma"),
            ({"noise": {"kind": "gaussian", "e": 10 ** 400}}, r"config\.noise\.e"),
        ]:
            with pytest.raises(sf.ConfigError, match=field + ": expected a finite number"):
                sf.validate_config(_fixedpoint_doc(**overrides))
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(_fixedpoint_doc(x0=nan)))  # writes the bare literal NaN
        with pytest.raises(sf.ConfigError, match=r"config\.x0: expected a finite number, got nan"):
            sf.load_config(path)

    def test_contractive_bounds_need_contraction(self):
        doc = _fixedpoint_doc(
            operator={"kind": "plane-rotation", "theta": 1.0},
            norm="l2",
            x0=[1.0, 0.0],
            bounds={"family": "contractive", "sigma": 1.0},
        )
        with pytest.raises(sf.ConfigError, match="contraction factor"):
            sf.validate_config(doc)

    def test_fit_window_checked(self):
        doc = _fixedpoint_doc(fit={"window": [9, 3]})
        with pytest.raises(sf.ConfigError, match="window"):
            sf.validate_config(doc)

    def test_unknown_kind(self):
        with pytest.raises(sf.ConfigError, match=r"config\.kind"):
            sf.validate_config({"kind": "turbo", "seeds": [1]})

    def test_mdp_avg_anchor_rules(self, tmp_path, mdp_3x2):
        path = _write_mdp(tmp_path, mdp_3x2)
        base = {
            "kind": "mdp-avg",
            "mdp": path,
            "algorithm": "benchmark",
            "N": 5,
            "seeds": [1],
        }
        cfg = sf.validate_config(base)
        assert cfg["anchor"] is None
        assert cfg["mdp"]["num_states"] == 3  # file inlined

        bad = dict(base, anchor={"kind": "max"})
        with pytest.raises(sf.ConfigError, match=r"config\.anchor"):
            sf.validate_config(bad)

        with pytest.raises(sf.ConfigError, match=r"config\.anchor"):
            sf.validate_config(dict(base, algorithm="halpern"))
        with pytest.raises(sf.ConfigError, match=r"config\.anchor: expected a JSON object"):
            sf.validate_config(dict(base, algorithm="halpern", anchor=None))

        with pytest.raises(sf.ConfigError, match="a_exponent"):
            sf.validate_config(dict(base, algorithm="rvi", anchor={"kind": "max"}))

        with pytest.raises(sf.ConfigError, match="a_exponent"):
            sf.validate_config(
                dict(base, algorithm="halpern", anchor={"kind": "max"}, a_exponent=0.9)
            )

    def test_mdp_avg_ratio_check_ordering(self, tmp_path, mdp_3x2):
        path = _write_mdp(tmp_path, mdp_3x2)
        doc = {
            "kind": "mdp-avg",
            "mdp": path,
            "algorithm": "halpern",
            "anchor": {"kind": "max"},
            "N": 10,
            "seeds": [1],
            "residual_ratio_check": {"early_n": 8, "late_n": 4, "max_ratio": 0.5},
        }
        with pytest.raises(sf.ConfigError, match="early_n < late_n"):
            sf.validate_config(doc)

    def test_mdp_disc_n_xor_target(self, tmp_path, mdp_3x2):
        path = _write_mdp(tmp_path, mdp_3x2)
        base = {
            "kind": "mdp-disc",
            "mdp": path,
            "algorithm": "halpern",
            "gamma": 0.9,
            "seeds": [1],
        }
        with pytest.raises(sf.ConfigError, match="exactly one"):
            sf.validate_config(base)
        with pytest.raises(sf.ConfigError, match="exactly one"):
            sf.validate_config(dict(base, N=5, target_epsilon=0.1))
        cfg = sf.validate_config(dict(base, target_epsilon=0.05))
        assert cfg["N"] == 41471  # resolved from the iteration-count guidance

    def test_mdp_disc_q0_cap(self, tmp_path, mdp_3x2):
        path = _write_mdp(tmp_path, mdp_3x2)
        doc = {
            "kind": "mdp-disc",
            "mdp": path,
            "algorithm": "halpern",
            "gamma": 0.9,
            "N": 5,
            "seeds": [1],
            "q0": [[10.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
        with pytest.raises(sf.ConfigError, match=r"config\.q0"):
            sf.validate_config(doc)
        doc["q0"][0][0] = float("nan")
        with pytest.raises(sf.ConfigError, match=r"config\.q0: entries must be finite"):
            sf.validate_config(doc)
        for bad in ("a", [0.0], True):
            doc["q0"][0][0] = bad
            with pytest.raises(sf.ConfigError, match=r"config\.q0: entries must be finite"):
                sf.validate_config(doc)
        doc["q0"] = [[0.0, 0.0], [0.0], [0.0, 0.0]]
        with pytest.raises(sf.ConfigError, match=r"config\.q0: expected an 3x2 nested list"):
            sf.validate_config(doc)

    def test_mdp_disc_alpha_rules(self, tmp_path, mdp_3x2):
        path = _write_mdp(tmp_path, mdp_3x2)
        base = {
            "kind": "mdp-disc",
            "mdp": path,
            "algorithm": "vanilla",
            "gamma": 0.9,
            "N": 5,
            "seeds": [1],
        }
        with pytest.raises(sf.ConfigError, match=r"config\.alpha"):
            sf.validate_config(base)
        cfg = sf.validate_config(dict(base, alpha={"kind": "km-polynomial", "a": 0.9}))
        assert cfg["alpha"]["kind"] == "km-polynomial"
        with pytest.raises(sf.ConfigError, match=r"config\.alpha"):
            sf.validate_config(
                dict(base, algorithm="halpern", alpha={"kind": "km-constant", "alpha": 0.5})
            )

    def test_missing_mdp_file(self):
        doc = {
            "kind": "mdp-avg",
            "mdp": "/nonexistent/model.json",
            "algorithm": "benchmark",
            "N": 5,
            "seeds": [1],
        }
        with pytest.raises(sf.ConfigError, match="does not exist"):
            sf.validate_config(doc)


class TestFitRate:
    def test_exact_inverse_law(self):
        ns = np.arange(10, 101)
        fit = sf.fit_rate(ns, 3.0 / ns, (10, 100))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
        assert fit.n_points == 91

    def test_exact_square_root_law(self):
        ns = np.arange(20, 200)
        fit = sf.fit_rate(ns, 2.0 / np.sqrt(ns), (20, 199))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_noise_floor_excludes_dust(self):
        ns = np.arange(1, 21)
        means = 1.0 / ns
        means[10:] = 1e-16  # underflow plateau carries no rate information
        fit = sf.fit_rate(ns, means, (1, 20))
        assert fit.n_points == 10
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_strict_mode_rejects_nonpositive(self):
        ns = np.arange(1, 21)
        means = np.full(20, 1e-16)
        with pytest.raises(ValueError, match="nonpositive"):
            sf.fit_rate(ns, np.zeros(20), (1, 20), noise_floor=None)
        with pytest.raises(ValueError, match="usable points"):
            sf.fit_rate(ns, means, (1, 20))  # everything below the floor

    def test_too_few_points(self):
        ns = np.arange(1, 5)
        with pytest.raises(ValueError, match="at least 5"):
            sf.fit_rate(ns, 1.0 / ns, (1, 4))

    def test_negative_rejected(self):
        ns = np.arange(1, 11)
        means = 1.0 / ns
        means[3] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            sf.fit_rate(ns, means, (1, 10))

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            sf.fit_rate([1, 2, 3], [1, 1, 1], (5, 5))


class TestRunExperiment:
    def test_noiseless_fixed_start_reports_zero(self, tmp_path):
        doc = _fixedpoint_doc(
            operator={"kind": "constant", "target": [0.25, 0.5]},
            noise={"kind": "none"},
            x0=[0.25, 0.5],
            N=6,
            seeds=[1, 2],
        )
        cfg = sf.validate_config(doc)
        summary = sf.run_experiment(cfg, tmp_path / "out")
        agg = sf.read_aggregate_csv(tmp_path / "out" / "aggregate.csv")
        assert np.all(agg["residual_mean"] == 0.0)
        assert np.all(agg["dist_to_fp_mean"] == 0.0)
        assert summary["n_seeds"] == 2
        assert summary["aborted_seeds"] == []

    @pytest.mark.parametrize("kind", [
        "fixedpoint", "lowerbound", "mdp-avg", "mdp-disc",
        "fixedpoint-7-seeds", "lowerbound-7-seeds", "mdp-disc-7-seeds", "fixedpoint-abort",
    ])
    def test_outputs_are_bytewise_reproducible(self, tmp_path, mdp_3x2, kind, monkeypatch):
        # jobs = 3 sends the shared run plan through the process pool; 7 seeds split
        # into chunks of 3 + 4 at jobs 2 and 2 + 2 + 3 at jobs 3
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        path = _write_mdp(tmp_path, mdp_3x2)
        doc = {
            "fixedpoint": _fixedpoint_doc(),
            "lowerbound": {
                "kind": "lowerbound", "epsilon": 0.25, "kappa_bar": 1.0, "sigma": 1.0,
                "algorithm": {"kind": "km-constant", "alpha": 0.5},
                "batches": {"kind": "constant", "k": 1},
            },
            "mdp-avg": {"kind": "mdp-avg", "mdp": path, "algorithm": "halpern",
                        "anchor": {"kind": "max"}, "N": 8},
            "mdp-disc": {"kind": "mdp-disc", "mdp": path, "algorithm": "halpern",
                         "gamma": 0.9, "N": 20},
            # T = 1e308 with noise of std 3e307 overflows seed 6's iterate at step 3 only
            "fixedpoint-abort": _fixedpoint_doc(
                operator={"kind": "constant", "target": [1e308, 1e308]},
                noise={"kind": "gaussian", "e": 3e307}, batches={"kind": "constant", "k": 1},
                x0=[-1e308, 1e308], N=6),
        }[kind.removesuffix("-7-seeds")]
        if kind in ("fixedpoint", "lowerbound", "mdp-avg", "mdp-disc"):
            seeds, jobs = [1, 2, 3, 4], (1, 1, 3)
        else:
            seeds, jobs = list(range(1, 8)), (1, 2, 3)
        cfg = sf.validate_config(dict(doc, seeds=seeds))
        with np.errstate(over="ignore"):
            summaries = [sf.run_experiment(cfg, tmp_path / f"{i}", jobs=j)
                         for i, j in enumerate(jobs)]
        if kind == "fixedpoint-abort":
            assert [s["aborted_seeds"] for s in summaries] == [
                [{"seed": 6, "reason": "non-finite iterate at step 3"}]] * 3
        names = sorted(os.listdir(tmp_path / "0"))
        assert names == sorted(os.listdir(tmp_path / "1")) == sorted(os.listdir(tmp_path / "2"))
        for name in names:
            a = (tmp_path / "0" / name).read_bytes()
            assert a == (tmp_path / "1" / name).read_bytes()
            assert a == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("kind", ["fixedpoint", "lowerbound"])
    def test_wide_runs_step_in_shorter_stacks(self, tmp_path, monkeypatch, kind):
        doc = _fixedpoint_doc() if kind == "fixedpoint" else {
            "kind": "lowerbound", "epsilon": 0.25, "kappa_bar": 2.0, "sigma": 1.0,
            "algorithm": {"kind": "halpern-classic"}, "batches": {"kind": "constant", "k": 1}}
        cfg = sf.validate_config(dict(doc, seeds=list(range(1, 8))))
        sf.run_experiment(cfg, tmp_path / "one", jobs=1)
        calls = []

        def recording(*args, **kwargs):
            calls.append(len(args[-1]))  # the stack's rngs
            return engine.iterate_stack(*args, **kwargs)

        monkeypatch.setattr(experiments, "iterate_stack", recording)
        monkeypatch.setattr(experiments, "_STACK_COORDS", 13)  # 2 rows of d = 6, 3 of d = 4
        sf.run_experiment(cfg, tmp_path / "short", jobs=1)
        assert calls == ([2, 2, 2, 1] if kind == "fixedpoint" else [3, 3, 1])
        for name in os.listdir(tmp_path / "one"):
            ref = (tmp_path / "one" / name).read_bytes()
            assert (tmp_path / "short" / name).read_bytes() == ref

    def test_aggregate_adds_the_seeds_row_by_row(self, tmp_path, monkeypatch):
        # 40 seeds in stacks of 3: the means and standard errors have the bits of a
        # C-ordered (seeds, n) array of the seed files' rows, whose reductions add
        # seed after seed (a transposed trace's pairwise sums differ in the last bits)
        monkeypatch.setattr(experiments, "_STACK_COORDS", 18)
        seeds = list(range(1, 41))
        sf.run_experiment(sf.validate_config(_fixedpoint_doc(seeds=seeds)), tmp_path)
        agg = sf.read_aggregate_csv(tmp_path / "aggregate.csv")
        rows = np.array([[[float(v) for v in line.split(",")[4:]] for line in
                          (tmp_path / f"seed_{s}.csv").read_text().splitlines()[1:]]
                         for s in seeds])
        for j, col in enumerate(("residual", "dist_to_fp", "noise_norm")):
            mean, sem = experiments._mean_sem(np.ascontiguousarray(rows[:, :, j]))
            assert np.array_equal(agg[f"{col}_mean"], mean)
            assert np.array_equal(agg[f"{col}_sem"], sem)

    def test_pool_has_at_most_one_worker_per_usable_cpu_and_seed(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool:
            """Runs the workers' chunks in this process and records the pool it was asked for."""

            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks, *rest):
                chunks = list(chunks)
                pools.append((self.max_workers, [len(c) for c in chunks]))
                return map(fn, chunks, *rest)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        cfg = sf.validate_config(_fixedpoint_doc(seeds=list(range(1, 8)), N=3))
        sf.run_experiment(cfg, tmp_path / "ref", jobs=1)
        for jobs in (2, 500):
            sf.run_experiment(cfg, tmp_path / f"jobs{jobs}", jobs=jobs)
            for name in os.listdir(tmp_path / "ref"):
                ref = (tmp_path / "ref" / name).read_bytes()
                assert (tmp_path / f"jobs{jobs}" / name).read_bytes() == ref
        two_seeds = sf.validate_config(_fixedpoint_doc(seeds=[5, 6], N=3))
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 64)
        sf.run_experiment(two_seeds, tmp_path / "two", jobs=500)
        # jobs 1 runs in this process; otherwise this process runs the first chunk
        # (3 seeds of 7, 1 of 2) and the pool one worker per other chunk, so the
        # processes never outnumber the CPUs (2, then 64) or the seeds (7, then 2)
        assert pools == [(1, [4]), (1, [4]), (1, [1])]

    def test_csv_headers_and_roundtrip(self, tmp_path):
        cfg = sf.validate_config(_fixedpoint_doc(seeds=[1, 2]))
        sf.run_experiment(cfg, tmp_path / "out")
        seed_head = (tmp_path / "out" / "seed_1.csv").read_text().splitlines()[0]
        assert seed_head == "n,beta_or_alpha,k_n,cum_queries,residual,dist_to_fp,noise_norm"
        agg_lines = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert agg_lines[0] == (
            "n,k_n,cum_queries,residual_mean,residual_sem,"
            "dist_to_fp_mean,dist_to_fp_sem,noise_norm_mean,noise_norm_sem"
        )
        assert len(agg_lines) == 1 + 12
        agg = sf.read_aggregate_csv(tmp_path / "out" / "aggregate.csv")
        assert agg["n"].tolist() == list(range(1, 13))
        assert agg["k_n"].tolist() == [n * n for n in range(1, 13)]
        # %.17g serialization round-trips doubles exactly
        reread = sf.read_aggregate_csv(tmp_path / "out" / "aggregate.csv")
        assert np.array_equal(agg["residual_mean"], reread["residual_mean"])

    def test_summary_json_matches_return_value(self, tmp_path):
        cfg = sf.validate_config(_fixedpoint_doc(seeds=[1]))
        summary = sf.run_experiment(cfg, tmp_path / "out")
        on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert on_disk == json.loads(json.dumps(summary))
        assert on_disk["files"] == sorted(on_disk["files"])
        assert {"kind", "config", "n_seeds", "checks"} <= set(on_disk)

    def test_lowerbound_summary(self, tmp_path):
        doc = {
            "kind": "lowerbound",
            "epsilon": 0.25,
            "kappa_bar": 1.0,
            "sigma": 1.0,
            "algorithm": {"kind": "km-constant", "alpha": 0.5},
            "batches": {"kind": "constant", "k": 1},
            "seeds": "1..20",
        }
        cfg = sf.validate_config(doc)
        summary = sf.run_experiment(cfg, tmp_path / "lb")
        assert summary["instance"]["d"] == 2
        assert summary["instance"]["n_budget"] == 3
        assert isinstance(summary["barrier_held"], bool)
        prog_lines = (tmp_path / "lb" / "progress.csv").read_text().splitlines()
        assert prog_lines[0] == "n,cum_queries,prog_mean,prog_min,prog_max,frac_prog_lt_d"
        assert len(prog_lines) == 1 + 4  # rows n = 0..3

    def test_mdp_disc_dist_tracking(self, tmp_path, self_loop_mdp):
        path = _write_mdp(tmp_path, self_loop_mdp)
        doc = {
            "kind": "mdp-disc",
            "mdp": path,
            "algorithm": "halpern",
            "gamma": 0.5,
            "N": 30,
            "seeds": [1, 2, 3],
        }
        cfg = sf.validate_config(doc)
        summary = sf.run_experiment(cfg, tmp_path / "disc")
        # deterministic self-loop: Q* = 2 and the run is noiseless, so the
        # final distance obeys the contraction bound dist0/((1-gamma)(N+1))
        assert summary["final_mean_dist"] <= 2.0 / (0.5 * 31) + 1e-12

    def test_mdp_avg_ratio_summary(self, tmp_path, mdp_3x2):
        path = _write_mdp(tmp_path, mdp_3x2)
        doc = {
            "kind": "mdp-avg",
            "mdp": path,
            "algorithm": "halpern",
            "anchor": {"kind": "max"},
            "N": 12,
            "seeds": "1..5",
            "residual_ratio_check": {"early_n": 3, "late_n": 12, "max_ratio": 0.9},
        }
        cfg = sf.validate_config(doc)
        summary = sf.run_experiment(cfg, tmp_path / "avg")
        assert summary["v_star"] == pytest.approx(0.80266666, abs=1e-6)
        block = summary["residual_ratio"]
        assert block["early_n"] == 3 and block["late_n"] == 12
        assert block["ratio"] == pytest.approx(
            block["late_mean"] / block["early_mean"], rel=1e-12
        )


def _reference_seed_csv(t, i: int, first: int) -> str:
    """Row i of the stack trace t as the per-row f-string writer wrote a seed CSV
    before block formatting: the row's columns first..steps."""

    def fmt(x):
        return f"{float(x):.17g}"

    cut = slice(first, t.steps[i] + 1)
    n, w, k, cum = (c[cut].tolist() for c in (t.n, t.weight, t.batch, t.cum_queries))
    res, noise = t.residual[i, cut].tolist(), t.noise_norm[i, cut].tolist()
    dist = None if t.dist_to_fp is None else t.dist_to_fp[i, cut].tolist()
    lines = ["n,beta_or_alpha,k_n,cum_queries,residual,dist_to_fp,noise_norm\n"]
    for j in range(len(n)):
        dist_s = "" if dist is None else fmt(dist[j])
        lines.append(f"{n[j]},{fmt(w[j])},{k[j]},{cum[j]},{fmt(res[j])},{dist_s},{fmt(noise[j])}\n")
    return "".join(lines)


# -0.0, the smallest and the largest subnormal, the largest finite doubles, and
# values that need all 17 digits
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 2 / 3,
                0.30000000000000004, 1e16 + 2, 123456789.12345679]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_INTS = st.sampled_from([0, 1, 2**53 + 1, 2**63 - 1]) | st.integers(0, 2**63 - 1)


class TestSeedCsvWriter:
    @settings(max_examples=60, deadline=None)
    @given(floats=st.lists(_FLOATS, min_size=1, max_size=8),
           ints=st.lists(_INTS, min_size=1, max_size=4),
           length=st.sampled_from([(0, 0), (0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (2, 1)]),
           first=st.sampled_from([0, 1]), with_dist=st.booleans(), seeds=st.integers(1, 3),
           shared=st.booleans(),
           stops=st.none() | st.lists(st.integers(0, 2 * experiments._BLOCK + 1), min_size=3,
                                      max_size=3))
    @example(floats=[0.1], ints=[2**63 - 1], length=(1, 0), first=0, with_dist=True, seeds=1,
             shared=True, stops=None)
    @example(floats=[0.1, 1 / 3], ints=[7], length=(1, 1), first=1, with_dist=False, seeds=3,
             shared=True, stops=[1025, 0, 1023])
    def test_block_writer_matches_the_per_row_writer(self, floats, ints, length, first,
                                                     with_dist, seeds, shared, stops):
        # traces of steps 0, 1, B - 2, B - 1, B, B + 1 and 2B + 1 for the block size B,
        # whose files hold the columns first..steps of a row; with stops, row i stops at
        # step min(stops[i], steps), as a row that aborted at the step after does
        steps = length[0] * experiments._BLOCK + length[1]
        pool, whole = np.array(floats), np.array(ints, dtype=np.int64)

        def col(shift, values=pool):  # the pool, cycled from a column's own offset
            return np.resize(np.roll(values, shift), steps + 1)

        def stack(rows):  # seeds i in rows; measured columns transposed, as iterate_stack's
            def measured(k):
                return np.stack([col(3 * i + k) for i in rows], axis=1).T

            return sf.StackTrace(
                np.arange(steps + 1, dtype=np.int64), col(rows.start), col(rows.start, whole),
                col(rows.start + 1, whole), residual=measured(1),
                dist_to_fp=measured(2) if with_dist else None, noise_norm=measured(3), prog=None,
                final_x=np.zeros((len(rows), 1)),
                steps=[steps if stops is None else min(stops[i], steps) for i in rows],
                abort_reason=[None] * len(rows))

        # one stack of every seed, or a stack of one per seed with its own schedule
        traces = [stack(range(seeds))] if shared else [stack(range(i, i + 1)) for i in range(seeds)]
        with tempfile.TemporaryDirectory() as out:
            for i, t in enumerate(traces):
                experiments._write_seed_csvs(out, list(range(seeds)) if shared else [i], t, first)
            for i in range(seeds):
                t, row = (traces[0], i) if shared else (traces[i], 0)
                with open(os.path.join(out, f"seed_{i}.csv"), encoding="utf-8", newline="") as fh:
                    got = fh.read().splitlines(keepends=True)
                assert got == _reference_seed_csv(t, row, first).splitlines(keepends=True)


def _bits(x: float) -> int:
    return int(np.array(x).view(np.uint64))


def _near(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# The window _g17 formats in numpy is [1e-4, 1e16); positive doubles are ordered by
# their bits, so st.integers over this range draws every double in the window.
_WINDOW = (_bits(1e-4), _bits(1e16) - 1)
# Values whose 17-digit rounding carries through trailing nines. No rounding at 17
# digits carries into a new power of ten, since every double prints to a string that
# reads back as itself; the doubles beside each power of ten, where log10's exponent
# guess is off, are test_window_edges_and_powers_of_ten's.
_CARRIES = [0.263243853932078, 0.000405917605451219, 4164132.78000616, 38046273670.8246,
            9525671708619750.0, 1404786758974240.0]
# dyadic ties: x = m 2^(e - 17) with m odd in the decade [10^e, 10^(e + 1)) has
# x * 10^(16 - e) = m 5^(16 - e) / 2, an odd multiple of 1/2
_TIES = [x for e in range(-4, 16) for c in (Fraction(3, 2), Fraction(33, 10), Fraction(19, 2))
         for m in [int(c * Fraction(10) ** e * 2 ** (17 - e)) | 1] if m < 2 ** 53
         for x in [m * 2.0 ** (e - 17)]]


class TestG17:
    """experiments._g17 against Python's b'%.17g' % x, byte for byte."""

    @staticmethod
    def _check(values):
        v = np.array(values, dtype=np.float64)
        assert experiments._g17(v) == [b"%.17g" % x for x in v.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1) | st.integers(*_WINDOW), max_size=300))
    def test_every_bit_pattern_formats_as_python_does(self, bits):
        self._check(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_window_edges_and_powers_of_ten(self):
        edges = [x for e in range(-6, 18) for x in _near(float(f"1e{e}"))]
        self._check(edges + _near(9999999999999998.0) + _near(5e-324) + [math.inf, -math.inf,
                    math.nan, -0.0, 0.0] + _EDGE_FLOATS)

    def test_carries_and_dyadic_ties(self):
        assert all(1e-4 <= x < 1e16 for x in _CARRIES + _TIES)
        self._check([y for x in _CARRIES + _TIES for y in _near(x)])
        # every tie in [1, 2): x * 10^16 is an odd multiple of 1/2
        self._check(1.0 + np.arange(1, 2 ** 17, 2) * 2.0 ** -17)

    def test_nan_payloads_and_chunk_boundaries(self):
        payloads = np.array([0x7FF0000000000001, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF],
                            dtype=np.uint64).view(np.float64)
        rng = np.random.default_rng(15)
        values = 10.0 ** rng.uniform(-6, 18, 2 * experiments._CHUNK + 3)
        values[::7] *= -1
        self._check(np.concatenate([values, payloads]))


def _agg(rows: int, floats: list[float], ints: list[int], with_dist: bool) -> dict:
    """An aggregate dict of rows rows, its columns cycled from floats and ints."""
    pool, whole = np.array(floats), np.array(ints, dtype=np.int64)
    names = experiments._AGG_HEADER.split(",")
    agg = {}
    for i, name in enumerate(names):
        values = whole if name in experiments._AGG_INTS else pool
        agg[name] = np.resize(np.roll(values, i), rows)
    if not with_dist:
        agg["dist_to_fp_mean"] = agg["dist_to_fp_sem"] = None
    return agg


class TestAggregateAndProgressWriters:
    """The block writers of aggregate.csv and progress.csv against per-row writers."""

    _LENGTHS = st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)])

    @settings(max_examples=40, deadline=None)
    @given(floats=st.lists(_FLOATS, min_size=1, max_size=8),
           ints=st.lists(_INTS, min_size=1, max_size=4), length=_LENGTHS, with_dist=st.booleans())
    @example(floats=_EDGE_FLOATS, ints=[0, 2**63 - 1], length=(1, 1), with_dist=True)
    def test_aggregate_block_writer_matches_the_per_row_writer(self, floats, ints, length,
                                                               with_dist):
        # lengths 0, 1, B - 1, B and B + 1 for the block size B
        agg = _agg(length[0] * experiments._BLOCK + length[1], floats, ints, with_dist)
        names = experiments._AGG_HEADER.split(",")
        lines = [experiments._AGG_HEADER + "\n"]
        for i in range(len(agg["n"])):
            lines.append(",".join("" if agg[c] is None else str(int(agg[c][i])) if c in
                                  experiments._AGG_INTS else f"{float(agg[c][i]):.17g}"
                                  for c in names) + "\n")
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "aggregate.csv")
            experiments._write_aggregate_csv(path, agg)
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read().splitlines(keepends=True) == lines

    @settings(max_examples=40, deadline=None)
    @given(progs=st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
           ints=st.lists(_INTS, min_size=1, max_size=4), length=_LENGTHS,
           seeds=st.integers(1, 4), d=st.integers(1, 2**40))
    def test_progress_block_writer_matches_the_per_row_writer(self, progs, ints, length,
                                                              seeds, d):
        rows = length[0] * experiments._BLOCK + length[1]
        agg = _agg(rows, [0.5], ints, False)
        table = np.array([np.resize(np.roll(progs, i), rows) for i in range(seeds)],
                         dtype=np.int64).reshape(seeds, rows)
        lines = ["n,cum_queries,prog_mean,prog_min,prog_max,frac_prog_lt_d\n"]
        for i in range(rows):
            col = table[:, i].tolist()
            lines.append(f"{int(agg['n'][i])},{int(agg['cum_queries'][i])},"
                         f"{float(np.mean(table[:, i])):.17g},{min(col)},{max(col)},"
                         f"{float(np.mean(table[:, i] < d)):.17g}\n")
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "progress.csv")
            experiments._write_progress_csv(path, agg, table, d)
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read().splitlines(keepends=True) == lines


def test_writers_hold_no_whole_column_as_text(tmp_path):
    """Peak traced memory of writing mdp_disc_target's two-seed stack of seed CSVs
    (41 471 rows each) and its aggregate.csv: blocks, not whole columns, as text."""
    N = 41471
    schedule = engine._schedule(sf.StepSchedule.halpern_classic().weight,
                                sf.BatchSchedule.contractive_geometric(0.9, N).size, N, 6)
    rng = np.random.default_rng(41471)

    def column():
        return 10.0 ** rng.uniform(-4, 1, N + 1)

    trace = sf.StackTrace(*schedule, residual=np.array([column(), column()]),
                          dist_to_fp=np.array([column(), column()]),
                          noise_norm=np.array([column(), column()]), prog=None,
                          final_x=np.zeros((2, 6)), steps=[N, N], abort_reason=[None, None])
    agg = {"n": schedule[0][1:], "k_n": schedule[2][1:], "cum_queries": schedule[3][1:]}
    for name in experiments._AGG_HEADER.split(",")[3:]:
        agg[name] = column()[1:]
    peaks = []
    for write in (lambda: experiments._write_seed_csvs(str(tmp_path), [1, 2], trace, 1),
                  lambda: experiments._write_aggregate_csv(str(tmp_path / "aggregate.csv"), agg)):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "seed_2.csv").read_text().count("\n") == N + 1
    assert peaks[0] < 9e6 and peaks[1] < 1e6, peaks


class TestEvaluateBounds:
    def test_nonexpansive_gates_on_all_rows(self):
        cfg = sf.validate_config(
            _fixedpoint_doc(bounds={"family": "nonexpansive", "sigma": 1.0})
        )
        agg = {
            "n": [1, 2],
            "k_n": [1, 4],
            "residual_mean": [0.1, 0.05],
            "dist_to_fp_mean": None,
        }
        frag = sf.evaluate_bounds(cfg, agg)
        assert frag["family"] == "nonexpansive"
        assert [r["within_bound"] for r in frag["rows"]] == [True, True]
        assert frag["all_within"] and frag["final_within"]
        # kappa_bar = d lam + ||x0||_1 = 1.2; sigma_1 = mu sigma / 1
        mu = math.sqrt(6)
        expect_b1 = sf.bound_nonexpansive(1.2, [mu], 1)
        assert frag["rows"][0]["bound"] == pytest.approx(expect_b1)

    def test_contractive_gates_on_final_row(self):
        theta = 1.0
        mat = (0.8 * np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )).tolist()
        doc = _fixedpoint_doc(
            norm="l2",
            operator={"kind": "affine-contraction", "matrix": mat,
                      "offset": [1.0, 0.0], "gamma": 0.8},
            batches={"kind": "contractive-geometric", "gamma": 0.8, "horizon": 9},
            x0=[0.0, 0.0],
            N=9,
            bounds={"family": "contractive", "sigma": 1.0},
        )
        cfg = sf.validate_config(doc)
        point = sf.AffineContraction(mat, [1.0, 0.0], 0.8).fixed_point_info().point
        ns = list(range(1, 10))
        bound_at = [sf.bound_contractive(
            sf.norm(np.array(cfg["x0"]) - point, sf.L2), 1.0, 0.8, n
        ) for n in ns]
        dist = [b * 2 for b in bound_at]  # interior rows violate
        dist[-1] = bound_at[-1] / 2  # the horizon row is inside
        agg = {"n": ns, "k_n": [1] * 9, "residual_mean": [0.0] * 9, "dist_to_fp_mean": dist}
        frag = sf.evaluate_bounds(cfg, agg)
        assert not frag["all_within"]
        assert frag["final_within"]


    def test_a_config_without_bounds_is_a_config_error(self, monkeypatch):
        doc = json.loads((REPO / "configs" / "fixedpoint_halpern_rotation.json").read_text())
        agg = {"n": [1], "k_n": [1], "residual_mean": [0.1], "dist_to_fp_mean": None}
        with pytest.raises(sf.ConfigError, match="^config.bounds: "):
            sf.evaluate_bounds(sf.validate_config(dict(doc, bounds=None)), agg)
        # an mdp config has no bounds either, and its model is not solved to find that out
        mdp_doc = json.loads((REPO / "configs" / "mdp_disc_target.json").read_text())
        cfg = sf.validate_config(dict(mdp_doc, mdp=str(REPO / "configs" / "mdp_3x2.json")))

        def no_solve(*args, **kwargs):
            raise AssertionError("evaluate_bounds solved the model")

        monkeypatch.setattr(sf.mdp, "solve_discounted_exact", no_solve)
        with pytest.raises(sf.ConfigError, match="^config.bounds: "):
            sf.evaluate_bounds(cfg, agg)


class TestCli:
    def _write(self, tmp_path, doc, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_run_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, _fixedpoint_doc(seeds=[1, 2]))
        out = str(tmp_path / "out")
        assert cli_main(["fixedpoint", "--config", path, "--out", out]) == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert "fixedpoint" in capsys.readouterr().out

    def test_config_error_exits_one(self, tmp_path):
        path = self._write(tmp_path, _fixedpoint_doc(typo=1))
        code = cli_main(["fixedpoint", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1

    def test_kind_mismatch_exits_one(self, tmp_path):
        path = self._write(tmp_path, _fixedpoint_doc())
        code = cli_main(["mdp-avg", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1

    def test_aborted_seed_exits_two(self, tmp_path, capsys):
        doc = _fixedpoint_doc(
            noise={"kind": "gaussian", "e": 1e308},
            batches={"kind": "constant", "k": 1},
            N=5,
            seeds=[0],
        )
        path = self._write(tmp_path, doc)
        with np.errstate(over="ignore"):
            code = cli_main(["fixedpoint", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_aborting_run_prints_no_new_warning(self, tmp_path):
        # an averaged rotation under noise of std 1e308 overflows; a seed that failed
        # steps on in inf and nan to the end of its block of steps, which prints no
        # "invalid value" warning: the messages are those of a per-step check
        import subprocess
        import sys

        doc = _fixedpoint_doc(norm="l2", operator={"kind": "plane-rotation", "theta": 1.0,
                                                   "dim": 3},
                              noise={"kind": "gaussian", "e": 1e308},
                              method={"kind": "km-constant", "alpha": 0.5}, x0=0.0, N=20,
                              batches={"kind": "constant", "k": 1}, seeds="1..20")
        path = self._write(tmp_path, doc)
        done = subprocess.run(
            [sys.executable, "-m", "stochfp.cli", "fixedpoint", "--config", path, "--out",
             str(tmp_path / "o")], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONWARNINGS="default"))
        assert done.returncode == 2
        warned = {line.split("RuntimeWarning: ")[1] for line in done.stderr.splitlines()
                  if "RuntimeWarning: " in line}
        assert "overflow encountered in add" in warned
        assert warned <= {"overflow encountered in add", "overflow encountered in multiply",
                          "overflow encountered in vecdot"}

    def test_overflowing_residual_aborts_with_exit_two(self, tmp_path, capsys):
        # the iterate stays finite, but its noise and residual norms overflow
        doc = _fixedpoint_doc(
            norm="l2",
            operator={"kind": "plane-rotation", "theta": math.pi / 2},
            noise={"kind": "gaussian", "e": 1e308},
            batches={"kind": "constant", "k": 1},
            x0=[0.0, 0.0],
            N=5,
            seeds=[4],
        )
        path = self._write(tmp_path, doc)
        out = tmp_path / "o"
        with np.errstate(over="ignore"):
            code = cli_main(["fixedpoint", "--config", path, "--out", str(out)])
        assert code == 2
        assert "aborted seed 4: non-finite measurement at step 1" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted_seeds"] == [
            {"seed": 4, "reason": "non-finite measurement at step 1"}
        ]

    def test_lowerbound_seed_that_aborts_exits_two(self, tmp_path, monkeypatch, capsys):
        # resistant noise whose draws for seed 3 go non-finite from step 5 on; the
        # other seeds' files are written, and seed 3's holds its columns 0..4
        draw, select, steps = sf.ResistantBernoulli.batch_mean, sf.StepGenerator.step, []

        def stepping(self, n):
            steps.append(n)
            return select(self, n)

        def poisoned(self, tx, x, k, keyed, front=None):
            y = draw(self, tx, x, k, keyed, front)
            if steps[-1] >= 5 and 3 in keyed.seeds:
                y[keyed.seeds.index(3)] = np.nan
            return y

        monkeypatch.setattr(sf.StepGenerator, "step", stepping)
        monkeypatch.setattr(sf.ResistantBernoulli, "batch_mean", poisoned)
        out = tmp_path / "o"
        code = cli_main(["lowerbound", "--config", str(REPO / "configs" / "lowerbound_km.json"),
                         "--out", str(out), "--seeds", "1..4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "aborted seed 3: non-finite iterate at step 5\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted_seeds"] == [{"seed": 3, "reason": "non-finite iterate at step 5"}]
        assert summary["rows_aggregated"] == 5  # n = 0..4, which every seed has
        for seed in (1, 2, 4):
            assert (out / f"seed_{seed}.csv").read_text().count("\n") == 1 + 125  # n = 0..124
        lines = (out / "seed_3.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]

    def test_multichain_average_reward_model_exits_one(self, tmp_path, monkeypatch, capsys):
        # relative value iteration raises this after its sweep cap on a multichain model
        def no_gain(*args, **kwargs):
            raise RuntimeError("relative value iteration did not reach span 1e-10")

        monkeypatch.setattr(sf.mdp, "solve_average_exact", no_gain)
        doc = {
            "kind": "mdp-avg",
            "mdp": {"num_states": 2, "num_actions": 1, "transitions": [[[1, 0]], [[0, 1]]],
                    "rewards": [[1], [0]]},
            "algorithm": "halpern",
            "anchor": {"kind": "max"},
            "N": 4,
            "seeds": [1],
        }
        with pytest.raises(sf.ConfigError, match="^config.mdp: relative value iteration"):
            sf.run_experiment(sf.validate_config(doc), tmp_path / "run")
        path = self._write(tmp_path, doc)
        code = cli_main(["mdp-avg", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: config.mdp: relative value")

    def test_query_count_beyond_int64_exits_one(self, tmp_path, mdp_3x2, capsys):
        # 6 * sum of n^6 over n <= 600 is about 2.4e19 > 2^63 - 1
        doc = {
            "kind": "mdp-avg",
            "mdp": mdp_3x2.to_dict(),
            "algorithm": "halpern",
            "anchor": {"kind": "max"},
            "N": 600,
            "seeds": [0],
        }
        path = self._write(tmp_path, doc)
        code = cli_main(["mdp-avg", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "N = 600" in err

    def test_overflowing_lowerbound_dimension_exits_one(self, tmp_path, capsys):
        # the shipped lowerbound_km with kappa_bar / (2 epsilon) beyond the float range
        doc = json.loads((REPO / "configs" / "lowerbound_km.json").read_text())
        doc.update(epsilon=1e-10, kappa_bar=1e308)
        path = self._write(tmp_path, doc)
        code = cli_main(["lowerbound", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config: derived dimension")
        assert "Traceback" not in err

    def test_lowerbound_dimension_beyond_the_cap_exits_one(self, tmp_path, capsys):
        # the shipped lowerbound_km with d = 5e12 coordinates: finite, but no memory holds it
        doc = json.loads((REPO / "configs" / "lowerbound_km.json").read_text())
        doc.update(kappa_bar=1e12)
        path = self._write(tmp_path, doc)
        code = cli_main(["lowerbound", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config: derived dimension d = 5000000000000")
        assert "Traceback" not in err

    def test_batch_size_beyond_the_float_range_exits_one(self, tmp_path, capsys):
        doc = _fixedpoint_doc(batches={"kind": "power", "a": 1000.5}, N=3, seeds=[0])
        path = self._write(tmp_path, doc)
        code = cli_main(["fixedpoint", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "n = 3 exceeds 2^63 - 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_unusable_out_exits_one_before_any_seed_runs(self, tmp_path, capsys, monkeypatch,
                                                         where):
        def no_runs(*args, **kwargs):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(experiments, "iterate_stack", no_runs)
        path = str(REPO / "configs" / "lowerbound_km.json")
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" if where == "a file" else tmp_path / "taken" / "out"
        code = cli_main(["lowerbound", "--config", path, "--out", str(out), "--jobs", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ")
        assert ("File exists" if where == "a file" else "Not a directory") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("field, value, blame", [
        ("seeds", [0, 2**64], "seeds[]"),
        ("seeds", f"{2**64 - 1}..{2**64}", "seeds"),
        ("stream", -5, "config.stream"),
        ("stream", 2**64, "config.stream"),
    ])
    def test_key_word_outside_uint64_exits_one_before_out_is_made(self, tmp_path, capsys,
                                                                   field, value, blame, jobs):
        # the shipped mdp_disc_target with a seed or stream no Philox key word holds
        doc = json.loads((REPO / "configs" / "mdp_disc_target.json").read_text())
        doc.update({"mdp": str(REPO / "configs" / "mdp_3x2.json"), field: value})
        path = self._write(tmp_path, doc)
        out = tmp_path / "o"
        code = cli_main(["mdp-disc", "--config", path, "--out", str(out), "--jobs", jobs])
        assert code == 1
        bad = value[-1] if isinstance(value, list) else 2**64 if field == "seeds" else value
        assert capsys.readouterr().err == (
            f"config error: {blame}: expected an integer in 0..2^64 - 1, got {bad}\n")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("spec, count", [
        (f"0..{2**64 - 1}", 2**64),
        ("0..100000000000", 100000000001),
        (f"5..{5 + _MAX_SEEDS}", _MAX_SEEDS + 1),
    ])
    def test_seed_range_past_the_cap_exits_one_before_out_is_made(self, tmp_path, capsys,
                                                                  spec, count, jobs):
        doc = json.loads((REPO / "configs" / "mdp_disc_target.json").read_text())
        doc.update({"mdp": str(REPO / "configs" / "mdp_3x2.json"), "seeds": spec})
        path = self._write(tmp_path, doc)
        out = tmp_path / "o"
        code = cli_main(["mdp-disc", "--config", path, "--out", str(out), "--jobs", jobs])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: seeds: range {spec!r} names {count} seeds, "
            f"more than the {_MAX_SEEDS} a range may name\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, shipped, field, value, message", [
        ("mdp-disc", "mdp_disc_target.json", "target_epsilon", 1e-9,
         "config.target_epsilon: 1e-09 derives N = 2973629156171 steps"),
        ("fixedpoint", "fixedpoint_shift_bound.json", "N", 10**12,
         "config.N: 1000000000000 steps"),
    ])
    def test_n_past_the_step_cap_exits_one_before_out_is_made(self, tmp_path, command, shipped,
                                                              field, value, message):
        # without the cap the first hangs in the schedule loop and the second
        # dies of a MemoryError; the run gets 1.5 GB of address space and 60 s
        import resource
        import subprocess
        import sys

        doc = json.loads((REPO / "configs" / shipped).read_text())
        doc[field] = value
        if "mdp" in doc:
            doc["mdp"] = str(REPO / "configs" / doc["mdp"].split("/")[-1])
        path = self._write(tmp_path, doc)
        out = tmp_path / "o"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)

        done = subprocess.run(
            [sys.executable, "-m", "stochfp.cli", command, "--config", path, "--out", str(out)],
            capture_output=True, text=True, timeout=60, preexec_fn=limit,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert done.returncode == 1
        assert done.stderr == (f"config error: {message}, "
                               f"more than the {experiments._MAX_STEPS} a run may take\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, shipped, overrides, step", [
        ("fixedpoint", "fixedpoint_shift_bound.json", {"batches": {"kind": "power-six"}, "N": 10**6},
         676),
        ("mdp-avg", "mdp_avg_halpern.json", {"N": 600}, 523),
    ])
    def test_query_count_past_int64_exits_one_before_out_is_made(self, tmp_path, capsys, command,
                                                                 shipped, overrides, step):
        # sum of n^6 first passes 2^63 - 1 at n = 676, and 6 sum of n^6 at n = 523; the
        # schedule stops there, not at N
        doc = dict(json.loads((REPO / "configs" / shipped).read_text()), **overrides)
        if "mdp" in doc:
            doc["mdp"] = str(REPO / "configs" / doc["mdp"].split("/")[-1])
        out = tmp_path / "o"
        code = cli_main([command, "--config", self._write(tmp_path, doc), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config: cumulative query count ")
        assert err.endswith(f" exceeds 2^63 - 1 at step {step} of N = {doc['N']}\n")
        assert not out.exists()

    def test_seed_override_outside_uint64_exits_one_before_out_is_made(self, tmp_path, capsys):
        doc = json.loads((REPO / "configs" / "mdp_disc_target.json").read_text())
        path = self._write(tmp_path, dict(doc, mdp=str(REPO / "configs" / "mdp_3x2.json")))
        out = tmp_path / "o"
        code = cli_main(["mdp-disc", "--config", path, "--out", str(out), "--seeds",
                         f"1,{2**64}"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: seeds[]: expected an integer")
        assert not out.exists()

    def test_failed_check_exits_three(self, tmp_path, capsys):
        doc = _fixedpoint_doc(
            noise={"kind": "none"},
            N=40,
            seeds=[1],
            fit={"window": [5, 40], "expect_slope": [5.0, 6.0]},  # impossible band
        )
        path = self._write(tmp_path, doc)
        code = cli_main(["fixedpoint", "--config", path, "--out", str(tmp_path / "o"),
                         "--check"])
        assert code == 3
        assert "slope_in_range" in capsys.readouterr().err

    def test_checks_not_enforced_without_flag(self, tmp_path):
        doc = _fixedpoint_doc(
            noise={"kind": "none"},
            N=40,
            seeds=[1],
            fit={"window": [5, 40], "expect_slope": [5.0, 6.0]},
        )
        path = self._write(tmp_path, doc)
        code = cli_main(["fixedpoint", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 0

    def test_seed_override(self, tmp_path):
        path = self._write(tmp_path, _fixedpoint_doc(seeds=[1, 2, 3]))
        out = tmp_path / "o"
        assert cli_main(["fixedpoint", "--config", path, "--out", str(out),
                         "--seeds", "7..8"]) == 0
        names = sorted(p for p in os.listdir(out) if p.startswith("seed_"))
        assert names == ["seed_7.csv", "seed_8.csv"]

    def test_fit_subcommand(self, tmp_path, capsys):
        path = self._write(tmp_path, _fixedpoint_doc(
            noise={"kind": "none"},
            operator={"kind": "plane-rotation", "theta": 1.5707963267948966},
            norm="l2",
            x0=[1.0, 0.0],
            batches={"kind": "constant", "k": 1},
            N=200,
            seeds=[1],
        ))
        out = tmp_path / "o"
        assert cli_main(["fixedpoint", "--config", path, "--out", str(out)]) == 0
        fit_json = tmp_path / "fit.json"
        code = cli_main(["fit", "--input", str(out / "aggregate.csv"),
                         "--window", "20", "200", "--out", str(fit_json)])
        assert code == 0
        doc = json.loads(fit_json.read_text())
        assert -1.2 <= doc["slope"] <= -0.8
        assert 0.0 <= doc["r_squared"] <= 1.0

    def test_fit_bad_window_exits_one(self, tmp_path):
        path = self._write(tmp_path, _fixedpoint_doc(seeds=[1]))
        out = tmp_path / "o"
        cli_main(["fixedpoint", "--config", path, "--out", str(out)])
        code = cli_main(["fit", "--input", str(out / "aggregate.csv"),
                         "--window", "9", "3"])
        assert code == 1

    def test_validate_mdp(self, tmp_path, mdp_3x2, capsys):
        path = _write_mdp(tmp_path, mdp_3x2)
        assert cli_main(["validate-mdp", path, "--unichain"]) == 0
        out = capsys.readouterr().out
        assert "unichain" in out

    def test_internal_fault_exits_four_with_its_traceback(self, tmp_path, capsys):
        path = self._write(tmp_path, _fixedpoint_doc(seeds=[1]))

        def broken(*args):
            raise ValueError("could not broadcast input array from shape (125,16)")

        with mock.patch.object(experiments, "_write_seed_csvs", broken):
            code = cli_main(["fixedpoint", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("internal error: ValueError: could not broadcast")
        assert "Traceback (most recent call last)" in err and "config error" not in err

    @pytest.mark.parametrize("name, jobs", [("seed_2.csv", 1), ("seed_2.csv", 2),
                                            ("aggregate.csv", 1), ("summary.json", 1)])
    def test_unwritable_output_exits_five(self, tmp_path, monkeypatch, capfd, name, jobs):
        # a directory where an output file goes; at --jobs 2, seed 2 runs in the worker
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        path = self._write(tmp_path, _fixedpoint_doc(seeds=[1, 2]))
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        code = cli_main(["fixedpoint", "--config", path, "--out", str(out), "--jobs", str(jobs)])
        err = capfd.readouterr().err
        assert code == 5
        assert err == f"output error: {out / name}: Is a directory\n"

    def test_unreadable_inputs_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "binary.json"
        bad.write_bytes(b"\xff\xfe")
        out = str(tmp_path / "o")
        runs = [["fixedpoint", "--config", str(tmp_path / "missing.json"), "--out", out],
                ["fixedpoint", "--config", str(bad), "--out", out],
                ["validate-mdp", str(tmp_path)],  # a directory
                ["fit", "--input", str(bad), "--window", "1", "3"]]
        for argv in runs:
            assert cli_main(argv) == 1, argv
            assert capsys.readouterr().err.startswith("config error: "), argv

    def test_malformed_aggregate_value_exits_one(self, tmp_path, capsys):
        p = tmp_path / "aggregate.csv"
        p.write_text(experiments._AGG_HEADER + "\n1,1,1,x,0,,,0,0\n")
        assert cli_main(["fit", "--input", str(p), "--window", "1", "3"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {p}: column residual_mean")

    def test_validate_mdp_bad_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli_main(["validate-mdp", str(p)]) == 1
