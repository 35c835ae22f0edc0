"""Import hygiene: every imported name is used and every private name is read
(the project depends on no linter), and the package re-exports its
submodules' public names."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stochfp

ROOT = Path(__file__).resolve().parents[1]

# The package's public names, spelled out so that a name dropped from a
# submodule's __all__ fails here rather than in a user's import.
PACKAGE_NAMES = """
AdditiveGaussianIID AdversarialInstance AdversarialTrace AffineContraction AnchorFunction
AverageSolution BatchSchedule ConfigError ConstantMap FixedPointInfo L1 L2 LINF
MDPValidationError NoNoise NormKind Operator OracleDescriptor PlaneRotation RateFit
ResistantBernoulli RngStream RunRecord ShiftProjection SpanAlgorithm StackTrace StepGenerator
StepSchedule TabularMDP
adversarial_runs batch_exponent_h bellman_average bellman_discounted benchmark_q_average
bound_contractive bound_nonexpansive build_instance check_unichain discounted_iteration_count
empirical_moments evaluate_bounds fit_rate greedy_policy
halpern_q_average halpern_q_discounted halpern_run halpern_runs iterate_stack
kappa_bar_bounded_range km_run km_runs
load_config load_mdp lp mdp_from_dict minibatch norm norm_equivalence_mu phi prog
project_box read_aggregate_csv run_adversarial run_experiment rvi_q_learning shift_map
solve_average_exact solve_discounted_exact validate_config vanilla_q_discounted
""".split()
SUBMODULES = ("engine", "experiments", "linalg", "lower_bound", "mdp", "operators", "oracles")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def unread_private_names(sources: list[str]) -> list[str]:
    """Private top-level functions, classes and constants, and private methods, that
    the given modules define and none of them reads (an import counts as a read)."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            names = []
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    elts = target.elts if isinstance(target, ast.Tuple) else [target]
                    names += [t.id for t in elts if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
            defined.update(n for n in names if n.startswith("_") and not n.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(defined - read)


def test_detector_on_a_snippet():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom x import a, b as c, d\n"
        "__all__ = ['d']\nprint(np.pi, a)\n"
    )
    assert unused_imports(source) == ["c", "os"]


def test_private_name_detector_on_a_snippet():
    source = (
        "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
        "def _used(): return _A\ndef _unused(): pass\n"
        "class _K:\n    def __init__(self): self._x = _used()\n"
        "    def _m(self): pass\n    def _n(self): return self._m()\n"
    )
    assert unread_private_names([source, "from m import _C\nprint(_K()._n)\n"]) == [
        "_B", "_unused"]


def test_every_private_name_in_the_package_is_read_by_the_package():
    # uses in tests do not count: a helper only tests call is dead code
    sources = [path.read_text(encoding="utf-8") for path in ROOT.glob("src/stochfp/*.py")]
    assert len(sources) == len(SUBMODULES) + 2  # __init__ and cli
    assert unread_private_names(sources) == []


def test_no_unused_imports_in_package_or_tests():
    files = sorted([*ROOT.glob("src/stochfp/*.py"), *ROOT.glob("tests/*.py")])
    assert len(files) > 10
    found = {
        str(path.relative_to(ROOT)): names
        for path in files
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_package_exports_every_public_name():
    assert [name for name in PACKAGE_NAMES if not hasattr(stochfp, name)] == []
    for short in SUBMODULES:
        mod = importlib.import_module(f"stochfp.{short}")
        for name in mod.__all__:
            assert getattr(stochfp, name) is getattr(mod, name), f"stochfp.{name} != {short}.{name}"


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(stochfp.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.split()


def test_scipy_is_never_imported(tmp_path):
    # Gaussian draws use the package's own ndtri; scipy is a test dependency only
    config = ROOT / "configs" / "fixedpoint_shift_bound.json"
    assert _fresh_interpreter(
        "import sys, numpy as np, stochfp\n"
        "from stochfp.cli import main\n"
        "stochfp.AdditiveGaussianIID(1.0)\n"
        "z = stochfp.standard_normal(stochfp.RngStream(1).generator(), 4)\n"
        f"code = main(['fixedpoint', '--config', {str(config)!r}, '--out', {str(tmp_path / 'o')!r},"
        " '--seeds', '0,1'])\n"
        "print(z.shape == (4,) and bool(np.isfinite(z).all()), code,"
        " sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )[-3:] == ["True", "0", "[]"]


def test_vector_runs_never_import_numpy_random(tmp_path):
    # resistant and Gaussian draws replay numpy's samplers on the package's own Philox words
    lowerbound = ROOT / "configs" / "lowerbound_km.json"
    fixedpoint = ROOT / "configs" / "fixedpoint_shift_bound.json"
    assert _fresh_interpreter(
        "import sys\n"
        "from stochfp.cli import main\n"
        f"a = main(['lowerbound', '--config', {str(lowerbound)!r},"
        f" '--out', {str(tmp_path / 'a')!r}])\n"
        f"b = main(['fixedpoint', '--config', {str(fixedpoint)!r},"
        f" '--out', {str(tmp_path / 'b')!r}, '--seeds', '0..3'])\n"
        "print(a, b, 'numpy.random' in sys.modules)\n"
    )[-3:] == ["0", "0", "False"]


def test_batch_of_one_q_learning_never_imports_numpy_random(tmp_path):
    # vanilla Q-learning draws a batch of one per pair at every step: numpy's
    # multinomial replayed on the package's own Philox words, across block boundaries
    config = tmp_path / "vanilla.json"
    config.write_text(json.dumps({
        "kind": "mdp-disc", "mdp": str(ROOT / "configs" / "mdp_3x2.json"),
        "algorithm": "vanilla", "alpha": {"kind": "km-polynomial", "a": 0.7},
        "gamma": 0.9, "N": 3000, "seeds": "0..1", "stream": 2**64 - 1,
    }))
    assert _fresh_interpreter(
        "import sys\n"
        "from stochfp.cli import main\n"
        f"a = main(['mdp-disc', '--config', {str(config)!r}, '--out', {str(tmp_path / 'a')!r}])\n"
        "print(a, 'numpy.random' in sys.modules)\n"
    )[-2:] == ["0", "False"]


def test_the_process_pool_is_imported_only_by_pooled_runs(tmp_path):
    config = ROOT / "configs" / "lowerbound_km.json"
    printed = _fresh_interpreter(
        "import sys, stochfp\n"
        "print('multiprocessing' in sys.modules)\n"
        "from stochfp.cli import main\n"
        f"code = main(['lowerbound', '--config', {str(config)!r}, '--out', {str(tmp_path / 'o')!r},"
        " '--jobs', '1'])\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    assert printed[0] == "False" and printed[-2:] == ["0", "False"]


def third_party_modules(directory: Path) -> set[str]:
    """Top-level modules that the .py files of directory import, lazy imports
    included, apart from the standard library, stochfp and directory's own modules."""
    local = {path.stem for path in directory.glob("*.py")} | {"stochfp"}
    found = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - local - set(sys.stdlib_module_names)


def test_dependencies_name_exactly_the_imported_modules():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
                for r in requirements}

    package = third_party_modules(ROOT / "src" / "stochfp")
    assert "numpy" in package
    assert names(project["dependencies"]) == package
    tests = third_party_modules(ROOT / "tests")
    assert {"pytest", "hypothesis", "scipy"} <= tests
    assert tests - package <= names(project["optional-dependencies"]["test"])
