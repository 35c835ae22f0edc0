"""The benchmark's workloads: which shipped config each starts from and how its
inputs are generated from the benchmark's seed argument.

Only the seed list depends on the seed; every other field of a generated
config is the shipped config's, so the work per run is the same for every
seed (fixed N or a fixed query budget per trajectory).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# Seeds are drawn from [0, SEED_SPACE); any value in it is a valid stochfp seed.
SEED_SPACE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # stochfp subcommand
    shipped: str  # config file under configs/
    seeds_per_run: int  # seeds in one CLI invocation
    steps_per_seed: int  # rows with n >= 1 in each seed CSV

    def shipped_path(self, root: Path) -> Path:
        return root / "configs" / self.shipped


WORKLOADS = {
    w.name: w
    for w in (
        # 3x2 MDP at gamma 0.9, target 0.05, so N = 41471: few long trajectories
        # through mdp; two seeds is the fewest that gives both --jobs 2 workers work.
        Workload("qlearn-disc", "mdp-disc", "mdp_disc_target.json", 2, 41471),
        # d = 10 L1 shift-projection, Gaussian noise, power(4) batches, N = 60:
        # many short trajectories through engine, operators, linalg and the writers.
        Workload("fixedpoint-wide", "fixedpoint", "fixedpoint_shift_bound.json", 600, 60),
        # the shipped config as is: 500 seeds, k = 1, budget-stopped after 124 steps
        # with resistant-Bernoulli noise.
        Workload("lowerbound-km", "lowerbound", "lowerbound_km.json", 500, 124),
    )
}


def seed_list(workload: Workload, seed: int, iteration: int = 0) -> list[int]:
    """Distinct sorted stochfp seeds for one CLI invocation of a run."""
    rng = random.Random(f"{workload.name}/{seed}/{iteration}")
    return sorted(rng.sample(range(SEED_SPACE), workload.seeds_per_run))


def make_config(root: Path, workload: Workload, seed: int, iteration: int = 0) -> dict:
    """The shipped config with its seed list replaced by one derived from seed.

    A relative MDP path is made absolute so the config runs from any working
    directory; stochfp inlines the model, so the outputs do not change.
    """
    with open(workload.shipped_path(root), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["seeds"] = seed_list(workload, seed, iteration)
    if isinstance(cfg.get("mdp"), str):
        cfg["mdp"] = str(root / cfg["mdp"])
    return cfg


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path
