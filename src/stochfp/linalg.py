"""Dense real vectors, norms, and norm-equivalence constants.

Vectors are plain 1-D float64 numpy arrays. Public operations treat them as
immutable values: inputs are never mutated and results are freshly allocated.
norm and last_nonzero_index also take a (B, d) stack of vectors and work row
by row: row i of the result has the bits the 1-D call on row i returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormKind",
    "L1",
    "L2",
    "LINF",
    "lp",
    "as_vector",
    "require_finite",
    "norm",
    "norm_equivalence_mu",
    "last_nonzero_index",
]


@dataclass(frozen=True)
class NormKind:
    """A norm tag: one of l1, l2, linf, or lp with exponent 1 < p < inf."""

    tag: str
    p: float | None = None

    def __post_init__(self):
        if self.tag not in ("l1", "l2", "linf", "lp"):
            raise ValueError(f"unknown norm tag {self.tag!r}")
        if self.tag == "lp":
            if self.p is None or not math.isfinite(self.p) or not self.p > 1.0:
                raise ValueError("lp norm requires a finite exponent p > 1")
        elif self.p is not None:
            raise ValueError(f"{self.tag} norm carries no exponent")

    def label(self) -> str:
        return self.tag if self.p is None else f"lp({self.p:g})"


L1 = NormKind("l1")
L2 = NormKind("l2")
LINF = NormKind("linf")


def lp(p: float) -> NormKind:
    return NormKind("lp", float(p))


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float64 array of dimension >= 1 (copying only if needed)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size < 1:
        raise ValueError("vectors must have dimension >= 1")
    return v


def require_finite(v: np.ndarray, what: str = "vector"):
    if not np.isfinite(v).all():
        raise ValueError(f"{what} has non-finite entries")


def _rows(x) -> np.ndarray:
    """A (B, d) float64 stack as is, or a vector as a stack of one."""
    v = np.asarray(x, dtype=np.float64)
    return v if v.ndim == 2 and v.shape[1] >= 1 else as_vector(v)[None]


def norm(v, kind: NormKind):
    """Exact norm of v under the given kind; of each row for a (B, d) stack.

    A vector gives a float, a stack an array of B floats. The row norms keep
    the bits of the per-vector reductions numpy applies: a dot product for
    l2 (and lp with p = 2), a pairwise sum of |v_i|^p and then a scalar power
    for the other lp.

    :raises ValueError: on non-finite entries (domain error).
    """
    rows = _rows(v)
    require_finite(rows)
    if kind.tag == "l1":
        out = np.abs(rows).sum(axis=1)
    elif kind.tag == "l2" or kind.p == 2.0:
        out = np.sqrt(np.vecdot(rows, rows))
    elif kind.tag == "linf":  # over a C-ordered transpose: numpy reduces short rows slowly
        out = np.abs(rows.T, order="C").max(axis=0)
    else:
        powers = np.abs(rows) ** kind.p
        inv = 1.0 / kind.p
        # an array power may round otherwise than the scalar one numpy applies to a vector
        out = np.array([s ** inv for s in powers.sum(axis=1).tolist()])
    return out if np.ndim(v) == 2 else float(out[0])


def norm_equivalence_mu(kind: NormKind, dim: int) -> float:
    """Tightest mu with ||x||_kind <= mu * ||x||_2 on R^dim.

    1 for l2/linf and for lp with p >= 2; sqrt(dim) for l1;
    dim^(1/p - 1/2) for lp with p < 2.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if kind.tag == "l1":
        return math.sqrt(dim)
    if kind.tag == "lp" and kind.p < 2.0:
        return dim ** (1.0 / kind.p - 0.5)
    return 1.0


def last_nonzero_index(x):
    """1-based index of the last coordinate with |x_i| > 0; 0 for the zero vector.

    A (B, d) stack gives an int64 array with the index of each row.
    """
    nz = _rows(x) != 0.0
    out = (nz.shape[1] - nz[:, ::-1].argmax(axis=1)) * nz.any(axis=1)
    return out if np.ndim(x) == 2 else int(out[0])
