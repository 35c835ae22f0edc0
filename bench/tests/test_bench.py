"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from digests import digest_dir, digest_mismatches, seed_steps  # noqa: E402
from run import END_TO_END, per_layer_specs  # noqa: E402
from spans import ROOT as NO_PARENT, Tracer, layer_stats, self_times  # noqa: E402
from workloads import WORKLOADS, make_config, seed_list  # noqa: E402


def test_self_time_subtracts_the_union_of_clipped_children():
    # a [0, 10] has children b [1, 4] and c [3, 6], which overlap, and d [8, 12],
    # which runs past a's end; e [2, 3] is b's child.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [NO_PARENT, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    # a: 10 - |[1, 6] u [8, 10]| = 10 - 7; b: 3 - 1; c, d, e have no children
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_time_does_not_depend_on_span_order():
    start = [2.0, 0.0, 1.0]
    end = [3.0, 10.0, 5.0]
    parent = [2, NO_PARENT, 1]  # span 0 is nested in 2, which is nested in 1
    assert self_times(start, end, parent) == pytest.approx([1.0, 6.0, 3.0])


def test_tracer_patches_every_binding_and_restores_them():
    home = types.ModuleType("home")
    user = types.ModuleType("user")

    def inner(x):
        return x + 1

    def outer(x):
        return home.inner(x) * 2

    home.inner = inner
    user.inner_alias = inner  # bound by name in a second module
    user.outer = outer

    class Stream:
        def draw(self):
            return user.inner_alias(1)

    tracer = Tracer()
    assert tracer.patch_function(inner, "home.inner", [home, user]) == 2
    tracer.patch_function(outer, "user.outer", [home, user])
    tracer.patch_method(Stream, "draw", "Stream.draw")
    assert user.outer(1) == 4
    assert Stream().draw() == 2
    tracer.restore()
    assert home.inner is inner and user.inner_alias is inner and user.outer is outer
    assert Stream.__dict__["draw"].__name__ == "draw" and not hasattr(Stream.draw, "__wrapped__")

    stats = layer_stats(tracer, kernels=["user.outer"])
    assert {name: s.calls for name, s in stats.items()} == {
        "home.inner": 2, "user.outer": 1, "Stream.draw": 1,
    }
    assert len(stats["user.outer"].durations_s) == 1
    assert stats["home.inner"].durations_s == []
    # outer's one child is inner; draw's is the other call of inner
    assert list(tracer.parent) == [NO_PARENT, 0, NO_PARENT, 2]


def test_digest_check_flags_a_one_byte_corruption(tmp_path):
    (tmp_path / "seed_1.csv").write_bytes(b"n,x\n1,0.5\n2,0.25\n")
    (tmp_path / "summary.json").write_bytes(b"{}\n")
    pinned = digest_dir(tmp_path)
    assert digest_mismatches(pinned, digest_dir(tmp_path)) == []

    data = bytearray((tmp_path / "seed_1.csv").read_bytes())
    data[-2] ^= 0x01
    (tmp_path / "seed_1.csv").write_bytes(bytes(data))
    assert digest_mismatches(pinned, digest_dir(tmp_path)) == ["seed_1.csv"]

    (tmp_path / "extra.csv").write_bytes(b"")
    (tmp_path / "summary.json").unlink()
    assert digest_mismatches(pinned, digest_dir(tmp_path)) == [
        "extra.csv", "seed_1.csv", "summary.json",
    ]


def test_steps_count_rows_with_n_at_least_one(tmp_path):
    (tmp_path / "seed_3.csv").write_bytes(b"n,x\n0,1\n1,2\n2,3\n")
    (tmp_path / "seed_4.csv").write_bytes(b"n,x\n1,2\n")
    (tmp_path / "aggregate.csv").write_bytes(b"n,x\n1,2\n")
    assert seed_steps(tmp_path) == {"seed_3.csv": 2, "seed_4.csv": 1}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_seed_lists_and_nothing_else(name):
    w = WORKLOADS[name]
    a, b = make_config(ROOT, w, 1), make_config(ROOT, w, 2)
    assert a["seeds"] != b["seeds"]
    assert {k: v for k, v in a.items() if k != "seeds"} == {k: v for k, v in b.items() if k != "seeds"}
    assert make_config(ROOT, w, 1) == a
    for seed in (0, 1, 2):
        for iteration in (0, 1):
            seeds = seed_list(w, seed, iteration)
            assert len(seeds) == len(set(seeds)) == w.seeds_per_run
            assert seeds == sorted(seeds) and all(s >= 0 for s in seeds)
    assert seed_list(w, 1, 0) != seed_list(w, 1, 1)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_layer_map_cites_only_defined_metrics_and_workloads():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    per_layer = {name for name, _, _ in per_layer_specs()}
    end_to_end = {name for name, _, _ in END_TO_END}
    assert set(layer_map["workloads"]) == set(WORKLOADS)
    for row in layer_map["layers"]:
        assert set(row["per_layer"]) <= per_layer
        for metric, workloads in row["moves"].items():
            assert metric in end_to_end and set(workloads) <= set(WORKLOADS)
        for metric, by_workload in row.get("also_moves", {}).items():
            assert metric in end_to_end and set(by_workload) <= set(WORKLOADS)
            assert all(set(names) <= set(row["per_layer"]) for names in by_workload.values())
        assert set(row["no_change"]) <= set(WORKLOADS)
