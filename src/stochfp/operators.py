"""Deterministic operators with a declared Lipschitz class.

Every operator carries a dimension, a declared norm, and a Lipschitz constant
gamma in (0, 1]: gamma < 1 declares a contraction, gamma = 1 nonexpansive.
Affine maps are certified at construction; the rest are nonexpansive by
construction. apply maps a vector, or each row of a (B, dim) stack of
vectors with the bits the per-vector call gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import L1, L2, NormKind, as_vector, require_finite

__all__ = [
    "FixedPointInfo",
    "Operator",
    "AffineContraction",
    "PlaneRotation",
    "ShiftProjection",
    "ConstantMap",
    "project_box",
    "shift_map",
]

@dataclass(frozen=True)
class FixedPointInfo:
    """A known fixed point, when one is available in closed or solvable form."""

    point: np.ndarray | None
    description: str | None = None


def project_box(x, lam: float) -> np.ndarray:
    """Clamp every coordinate to [0, lam]."""
    if not lam > 0:
        raise ValueError("box edge lam must be positive")
    return np.clip(as_vector(x), 0.0, lam)


def shift_map(y, lam: float) -> np.ndarray:
    """Cyclic shift (y_1, ..., y_d) -> (lam - y_d, y_1, ..., y_{d-1}).

    An L1 isometry: it permutes coordinates and reflects one of them.
    """
    return _shift_rows(as_vector(y), lam)


def _shift_rows(y: np.ndarray, lam: float) -> np.ndarray:
    """shift_map along the last axis of a vector or a stack."""
    out = np.empty_like(y)
    out[..., 0] = lam - y[..., -1]
    out[..., 1:] = y[..., :-1]
    return out


class Operator:
    """Base operator: a map R^dim -> R^dim with declared norm and gamma."""

    dim: int
    declared_norm: NormKind
    gamma: float

    def apply(self, x) -> np.ndarray:
        """T(x) for a vector, or T of each row of a (B, dim) stack."""
        raise NotImplementedError

    def fixed_point_info(self) -> FixedPointInfo:
        return FixedPointInfo(None)

    def _points(self, x) -> np.ndarray:
        """x as a float64 vector or (B, dim) stack, checked against dim."""
        v = np.asarray(x, dtype=np.float64)
        if v.ndim != 2:
            v = as_vector(v)
        if v.shape[-1] != self.dim:
            raise ValueError(
                f"dimension mismatch: operator expects {self.dim}, got {v.shape[-1]}"
            )
        return v


class AffineContraction(Operator):
    """x -> A x + b with ||A|| <= gamma under the declared norm.

    The operator norm is validated at construction, within 1e-12: the max
    absolute column sum for l1, the max absolute row sum for linf and the
    largest singular value for l2. Other norm kinds are not certifiable here
    and are rejected.
    """

    def __init__(self, matrix, offset, gamma: float, declared_norm: NormKind = L2):
        a = np.array(matrix, dtype=np.float64)
        b = as_vector(offset).copy()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if a.shape[0] != b.shape[0]:
            raise ValueError("matrix and offset dimensions disagree")
        require_finite(a.ravel(), "matrix")
        require_finite(b, "offset")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if declared_norm.tag == "l1":
            opnorm = float(np.abs(a).sum(axis=0).max())
        elif declared_norm.tag == "linf":
            opnorm = float(np.abs(a).sum(axis=1).max())
        elif declared_norm.tag == "l2":
            opnorm = float(np.linalg.norm(a, 2))
        else:
            raise ValueError(
                f"operator-norm certification unsupported for {declared_norm.label()}"
            )
        if opnorm > gamma + 1e-12:
            raise ValueError(
                f"matrix norm {opnorm:.12g} exceeds declared gamma {gamma:.12g}"
            )
        a.setflags(write=False)
        b.setflags(write=False)
        self.matrix = a
        self.offset = b
        self.dim = b.shape[0]
        self.declared_norm = declared_norm
        self.gamma = float(gamma)

    def apply(self, x) -> np.ndarray:
        x = self._points(x)
        if x.ndim == 1:
            return self.matrix @ x + self.offset
        # one matrix-vector product per row keeps the 1-D bits; x @ matrix.T does not
        return (self.matrix @ x[:, :, None])[:, :, 0] + self.offset

    def fixed_point_info(self) -> FixedPointInfo:
        eye = np.eye(self.dim)
        try:
            point = np.linalg.solve(eye - self.matrix, self.offset)
        except np.linalg.LinAlgError:
            return FixedPointInfo(None, "singular I - A; fixed point not isolated")
        if not np.isfinite(point).all():
            return FixedPointInfo(None, "ill-conditioned I - A")
        return FixedPointInfo(point, "solution of (I - A) x = b")


class PlaneRotation(Operator):
    """Rotation by a fixed angle in the plane of the first two coordinates."""

    def __init__(self, theta: float, dim: int = 2, declared_norm: NormKind = L2):
        if dim < 2:
            raise ValueError("plane rotation needs dim >= 2")
        self.theta = float(theta)
        self.dim = int(dim)
        self.declared_norm = declared_norm
        self.gamma = 1.0
        c, s = np.cos(self.theta), np.sin(self.theta)
        self._cos, self._sin = c, s

    def apply(self, x) -> np.ndarray:
        x = self._points(x)
        out = x.copy()
        out[..., 0] = self._cos * x[..., 0] - self._sin * x[..., 1]
        out[..., 1] = self._sin * x[..., 0] + self._cos * x[..., 1]
        return out

    def fixed_point_info(self) -> FixedPointInfo:
        return FixedPointInfo(
            np.zeros(self.dim),
            "origin; unique in the rotation plane unless the angle is a multiple of 2*pi",
        )


class ShiftProjection(Operator):
    """Shift composed with the box projection: x -> shift_map(project_box(x)).

    Nonexpansive under L1 (the projection is, and the shift is an isometry),
    with bounded range: every output lies in [0, lam]^d, so its L1 norm is at
    most d * lam. Fixed point (lam/2, ..., lam/2).
    """

    def __init__(self, lam: float, dim: int):
        if not lam > 0:
            raise ValueError("lam must be positive")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.lam = float(lam)
        self.dim = int(dim)
        self.declared_norm = L1
        self.gamma = 1.0

    def apply(self, x) -> np.ndarray:
        return _shift_rows(np.clip(self._points(x), 0.0, self.lam), self.lam)

    def range_bound(self) -> float:
        """L1 bound on the operator's range: ||Tx||_1 <= d * lam."""
        return self.dim * self.lam

    def fixed_point_info(self) -> FixedPointInfo:
        return FixedPointInfo(
            np.full(self.dim, self.lam / 2.0), "unique fixed point (lam/2, ..., lam/2)"
        )


class ConstantMap(Operator):
    """x -> target for every x. Lipschitz with any positive constant."""

    def __init__(self, target, gamma: float = 1.0, declared_norm: NormKind = L2):
        t = as_vector(target).copy()
        require_finite(t, "target")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        t.setflags(write=False)
        self.target = t
        self.dim = t.shape[0]
        self.declared_norm = declared_norm
        self.gamma = float(gamma)

    def apply(self, x) -> np.ndarray:
        return np.broadcast_to(self.target, self._points(x).shape).copy()

    def fixed_point_info(self) -> FixedPointInfo:
        return FixedPointInfo(self.target.copy(), "the constant target")
