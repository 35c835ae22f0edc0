"""Golden digests: SHA-256 of every output file of every shipped run config.

Each case runs through the CLI at seeds 0,1. mdp_disc_target runs from an
inline copy with N = 2000 in place of target_epsilon (the target gives
N = 41471). Three inline mdp configs cover the loops no shipped config runs:
the average-reward benchmark, the rvi baseline and the discounted vanilla
baseline, and an inline fixedpoint config covers a km method with resistant
noise. A deliberate change of the random realization re-pins with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from stochfp.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "golden" / "digests.json"
SEEDS = "0,1"


def _shipped(name: str) -> dict:
    return json.loads((REPO / "configs" / f"{name}.json").read_text())


def _inline_docs() -> dict:
    disc = _shipped("mdp_disc_target")
    del disc["target_epsilon"]
    disc["N"] = 2000
    avg = _shipped("mdp_avg_halpern")
    benchmark = {k: v for k, v in avg.items() if k != "anchor"}
    benchmark["algorithm"] = "benchmark"
    rvi = dict(avg, algorithm="rvi", a_exponent=0.9)
    vanilla = dict(disc, algorithm="vanilla", alpha={"kind": "km-polynomial", "a": 0.9})
    km_resistant = {
        "kind": "fixedpoint",
        "norm": "l1",
        "operator": {"kind": "shift-projection", "lam": 0.2, "dim": 10},
        "noise": {"kind": "resistant", "p": 0.04},
        "method": {"kind": "km-constant", "alpha": 0.5},
        "x0": 0.0,
        "N": 200,
        "seeds": [0],
    }
    return {
        "fixedpoint_km_resistant": km_resistant,
        "mdp_disc_target_N2000": disc,
        "mdp_avg_benchmark": benchmark,
        "mdp_avg_rvi": rvi,
        "mdp_disc_vanilla": vanilla,
    }


SHIPPED = sorted(
    p.stem for p in (REPO / "configs").glob("*.json") if "kind" in json.loads(p.read_text())
)
CASES = [name for name in SHIPPED if name != "mdp_disc_target"] + sorted(_inline_docs())


def _digests(name: str, work: Path) -> dict:
    """Run one case through the CLI (cwd = repo root) and hash its outputs."""
    inline = _inline_docs()
    if name in inline:
        cfg = work / f"{name}.json"
        cfg.write_text(json.dumps(inline[name]))
        doc = inline[name]
    else:
        cfg = REPO / "configs" / f"{name}.json"
        doc = _shipped(name)
    out = work / name
    code = cli_main([doc["kind"], "--config", str(cfg), "--out", str(out), "--seeds", SEEDS])
    assert code == 0, f"{name}: exit {code}"
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def test_cases_cover_every_shipped_run_config():
    assert len(SHIPPED) == 8
    assert set(json.loads(PINS.read_text())) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_output_digests_match_pins(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO)  # shipped mdp configs name their model relative to the repo
    actual = _digests(name, tmp_path)
    capsys.readouterr()
    expected = json.loads(PINS.read_text())[name]
    if actual != expected:
        print(json.dumps({name: actual}, indent=2, sort_keys=True))
    assert actual == expected


if __name__ == "__main__":
    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: _digests(name, Path(tmp)) for name in CASES}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in pins.values())} digests for {len(pins)} cases to {PINS}")
