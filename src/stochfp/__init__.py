"""Stochastic anchored fixed-point iteration with minibatch variance reduction.

Subpackages by concern:

- linalg: norm kinds, equivalence constants, vector validation
- operators: nonexpansive and contractive test operators with exact fixed points
- oracles: splittable RNG streams, stochastic oracles, minibatch averaging
- engine: anchored (Halpern) and averaged (KM) loops, step and batch
  schedules, theoretical residual/distance bounds
- lower_bound: the adversarial shift-projection instance behind the
  query-complexity barrier
- mdp: tabular models, exact solvers, synchronous Q-learning variants
- experiments: JSON-configured seeded runs with CSV/JSON outputs
- cli: the stochfp command
"""

from .engine import *
from .experiments import *
from .linalg import *
from .lower_bound import *
from .mdp import *
from .operators import *
from .oracles import *

__version__ = "1.0.0"
