import numpy as np
import pytest

from stochfp import TabularMDP

# one line per acceptance check, shown verbatim in the terminal summary
acceptance_lines: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance checks")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_report():
    """Record one PASS/FAIL line per acceptance check for the end-of-run section."""

    def _report(num: int, ok: bool, detail: str) -> bool:
        line = f"[check {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
        acceptance_lines.append(line)
        print(line)
        return ok

    return _report


@pytest.fixture(scope="session")
def mdp_3x2() -> TabularMDP:
    """Strictly positive transition rows, so every policy's chain is unichain."""
    transitions = np.array(
        [
            [[0.1, 0.7, 0.2], [0.6, 0.2, 0.2]],
            [[0.3, 0.3, 0.4], [0.5, 0.25, 0.25]],
            [[0.2, 0.5, 0.3], [0.4, 0.4, 0.2]],
        ]
    )
    rewards = np.array([[0.05, 0.80], [0.90, 0.10], [0.70, 0.45]])
    return TabularMDP(transitions, rewards)


@pytest.fixture(scope="session")
def self_loop_mdp() -> TabularMDP:
    """One state, one action, reward 1."""
    return TabularMDP(np.ones((1, 1, 1)), np.ones((1, 1)))


@pytest.fixture
def poisoned_seed_3(monkeypatch):
    """Resistant noise whose draws for seed 3 go non-finite from step 5 on."""
    import stochfp as sf

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
