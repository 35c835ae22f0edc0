import math

import numpy as np
import pytest

from stochfp.linalg import L1, L2, LINF, norm
from stochfp.operators import (
    AffineContraction,
    ConstantMap,
    PlaneRotation,
    ShiftProjection,
    project_box,
    shift_map,
)


def test_project_box_hand_values():
    np.testing.assert_allclose(project_box([-1.0, 0.5, 2.0], 1.0), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(project_box([0.2, 0.2], 1.0), [0.2, 0.2])
    np.testing.assert_allclose(project_box([5.0], 2.0), [2.0])


def test_shift_map_hand_values():
    np.testing.assert_allclose(shift_map([0.0, 0.3, 1.0], 1.0), [0.0, 0.0, 0.3])
    x_star = np.array([0.5, 0.5])
    np.testing.assert_allclose(shift_map(x_star, 1.0), x_star)
    np.testing.assert_allclose(shift_map([1.0, 0.0], 1.0), [1.0, 1.0])


def test_shift_map_is_l1_isometry():
    rng = np.random.default_rng(21)
    for _ in range(300):
        d = int(rng.integers(1, 15))
        y, z = rng.normal(size=d) * 3, rng.normal(size=d) * 3
        lhs = norm(shift_map(y, 0.7) - shift_map(z, 0.7), L1)
        assert lhs == pytest.approx(norm(y - z, L1), rel=1e-12, abs=1e-15)


def test_shift_projection_apply_hand_value():
    op = ShiftProjection(1.0, 3)
    np.testing.assert_allclose(op.apply([-0.5, 0.3, 1.7]), [0.0, 0.0, 0.3])


def test_shift_projection_nonexpansive_l1_and_bounded_range():
    op = ShiftProjection(0.2, 10)
    rng = np.random.default_rng(22)
    for _ in range(1000):
        x, y = rng.normal(size=10), rng.normal(size=10)
        assert norm(op.apply(x) - op.apply(y), L1) <= norm(x - y, L1) + 1e-12
        assert norm(op.apply(x), L1) <= op.range_bound() + 1e-12
    assert op.range_bound() == pytest.approx(2.0)


def test_shift_projection_fixed_point():
    op = ShiftProjection(0.2, 10)
    info = op.fixed_point_info()
    np.testing.assert_allclose(info.point, np.full(10, 0.1))
    assert norm(op.apply(info.point) - info.point, L1) <= 1e-9
    assert op.declared_norm == L1 and op.gamma == 1.0


def test_plane_rotation():
    op = PlaneRotation(np.pi / 2)
    np.testing.assert_allclose(op.apply([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
    info = op.fixed_point_info()
    np.testing.assert_allclose(info.point, [0.0, 0.0])
    rng = np.random.default_rng(23)
    for _ in range(1000):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert norm(op.apply(x) - op.apply(y), L2) <= norm(x - y, L2) + 1e-9


def test_constant_map():
    op = ConstantMap([0.0, 0.0])
    np.testing.assert_allclose(op.apply([1.0, 0.0]), [0.0, 0.0])
    np.testing.assert_allclose(ConstantMap([3.0, 3.0]).fixed_point_info().point, [3.0, 3.0])


def test_affine_contraction_fixed_point_and_lipschitz():
    op = AffineContraction(0.5 * np.eye(2), [1.0, 0.0], 0.5)
    info = op.fixed_point_info()
    np.testing.assert_allclose(info.point, [2.0, 0.0])
    rng = np.random.default_rng(24)
    for _ in range(1000):
        x, y = rng.normal(size=2) * 5, rng.normal(size=2) * 5
        assert norm(op.apply(x) - op.apply(y), L2) <= 0.5 * norm(x - y, L2) + 1e-9


def test_affine_contraction_rejects_wrong_gamma():
    # matrix has l2 norm 0.9; declaring 0.5 must fail
    with pytest.raises(ValueError):
        AffineContraction(0.9 * np.eye(2), [0.0, 0.0], 0.5)
    # l1 and linf declarations validate exactly via column/row sums
    a = np.array([[0.3, 0.3], [0.0, 0.2]])
    AffineContraction(a, [0.0, 0.0], 0.6, declared_norm=LINF)  # max row sum 0.6
    with pytest.raises(ValueError):
        AffineContraction(a, [0.0, 0.0], 0.4, declared_norm=LINF)
    AffineContraction(a, [0.0, 0.0], 0.5, declared_norm=L1)  # max col sum 0.5
    with pytest.raises(ValueError):
        AffineContraction(a, [0.0, 0.0], 0.29, declared_norm=L1)


def test_l2_certificate_is_the_exact_spectral_norm():
    # power iteration accepted a norm within its 1e-8 tolerance of gamma; the
    # exact largest singular value allows 1e-12, as the l1 and linf sums do
    theta = 1.0
    rotation = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    for a in (np.diag([0.8, 0.3]), 0.8 * rotation):
        AffineContraction(a, [0.0, 0.0], 0.8)  # norm gamma, up to rounding
    with pytest.raises(ValueError, match="exceeds declared gamma"):
        AffineContraction(np.diag([0.8 + 1e-9, 0.3]), [0.0, 0.0], 0.8)
    with pytest.raises(ValueError, match="exceeds declared gamma"):
        AffineContraction((0.8 + 1e-9) * rotation, [0.0, 0.0], 0.8)


def test_affine_gamma_one_singular_reports_absent_fixed_point():
    # A = identity, b != 0: (I - A) singular, no fixed point exists
    op = AffineContraction(np.eye(2), [1.0, 0.0], 1.0)
    info = op.fixed_point_info()
    assert info.point is None
    assert "no fixed point" in info.description or "singular" in info.description


def test_rotation_lipschitz_randomized_all_builtins():
    rng = np.random.default_rng(25)
    ops = [
        PlaneRotation(1.1),
        ShiftProjection(0.5, 6),
        AffineContraction(0.8 * np.eye(3), np.ones(3), 0.8),
        ConstantMap(np.zeros(4)),
    ]
    for op in ops:
        kind = op.declared_norm
        for _ in range(250):
            x = rng.normal(size=op.dim) * 4
            y = rng.normal(size=op.dim) * 4
            lhs = norm(op.apply(x) - op.apply(y), kind)
            assert lhs <= op.gamma * norm(x - y, kind) + 1e-9


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        PlaneRotation(1.0).apply([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ShiftProjection(1.0, 4).apply([1.0])


def test_operator_arrays_are_immutable():
    op = AffineContraction(0.5 * np.eye(2), [1.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 9.0
