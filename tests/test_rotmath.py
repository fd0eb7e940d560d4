import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselab import pnp, rotmath
from poselab.rotmath import (
    EulerAngles,
    GimbalLockWarning,
    angle_error,
    axis_angle_to_rotation,
    check_rotation,
    euler_to_rotation,
    rotation_to_axis_angle,
    rotation_to_euler,
    skew,
    wrap_degrees,
)

angles = st.floats(min_value=-179.999, max_value=179.999)
pitches = st.floats(min_value=-89.9, max_value=89.9)


def rot_y(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def rot_x(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def rot_z(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


class TestEulerAngles:
    def test_fields(self):
        e = EulerAngles(10.0, -5.0, 3.0)
        assert (e.yaw, e.pitch, e.roll) == (10.0, -5.0, 3.0)
        assert np.array_equal(e.as_array(), [10.0, -5.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EulerAngles(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            EulerAngles(0.0, math.inf, 0.0)


class TestWrapAndError:
    def test_wrap_known_values(self):
        assert wrap_degrees(0.0) == 0.0
        assert wrap_degrees(180.0) == -180.0
        assert wrap_degrees(-180.0) == -180.0
        assert wrap_degrees(540.0) == -180.0
        assert wrap_degrees(370.0) == pytest.approx(10.0)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_wrap_range(self, a):
        w = wrap_degrees(a)
        assert -180.0 <= w < 180.0

    def test_angle_error_wraps(self):
        assert angle_error(179.0, -179.0) == pytest.approx(2.0)
        assert angle_error(0.0, 360.0) == pytest.approx(0.0)
        assert angle_error(10.0, -10.0) == pytest.approx(20.0)

    def test_angle_error_elementwise(self):
        out = angle_error(np.array([179.0, 0.0]), np.array([-179.0, 5.0]))
        assert out == pytest.approx([2.0, 5.0])

    @given(angles, angles)
    def test_angle_error_bounds_and_symmetry(self, a, b):
        e = angle_error(a, b)
        assert 0.0 <= e <= 180.0
        assert e == pytest.approx(angle_error(b, a))


class TestEulerToRotation:
    def test_identity(self):
        assert np.allclose(euler_to_rotation(EulerAngles(0, 0, 0)), np.eye(3))

    def test_single_axis_matches_primitives(self):
        assert np.allclose(euler_to_rotation(EulerAngles(30, 0, 0)), rot_y(30))
        assert np.allclose(euler_to_rotation(EulerAngles(0, 40, 0)), rot_x(40))
        assert np.allclose(euler_to_rotation(EulerAngles(0, 0, 50)), rot_z(50))

    def test_matches_composition(self):
        e = EulerAngles(21.0, -37.0, 55.0)
        expected = rot_y(21.0) @ rot_x(-37.0) @ rot_z(55.0)
        assert np.allclose(euler_to_rotation(e), expected, atol=1e-12)

    @given(angles, pitches, angles)
    @settings(max_examples=50)
    def test_always_valid_rotation(self, yaw, pitch, roll):
        m = euler_to_rotation(EulerAngles(yaw, pitch, roll))
        check_rotation(m)


class TestRotationToEuler:
    @given(angles, pitches, angles)
    @settings(max_examples=200)
    def test_round_trip(self, yaw, pitch, roll):
        e = EulerAngles(yaw, pitch, roll)
        back = rotation_to_euler(euler_to_rotation(e))
        assert angle_error(back.yaw, yaw) < 1e-8
        assert angle_error(back.pitch, pitch) < 1e-8
        assert angle_error(back.roll, roll) < 1e-8

    def test_canonical_ranges(self):
        back = rotation_to_euler(euler_to_rotation(EulerAngles(170, 80, -170)))
        assert -180.0 <= back.yaw < 180.0
        assert -90.0 <= back.pitch <= 90.0
        assert -180.0 <= back.roll < 180.0

    def test_gimbal_lock_warns_and_stays_consistent(self):
        for pitch in (90.0, -90.0):
            m = euler_to_rotation(EulerAngles(25.0, pitch, 10.0))
            with pytest.warns(GimbalLockWarning):
                e = rotation_to_euler(m)
            assert e.roll == 0.0
            assert np.allclose(euler_to_rotation(e), m, atol=1e-9)

    def test_near_lock_does_not_warn(self):
        m = euler_to_rotation(EulerAngles(25.0, 89.9, 10.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rotation_to_euler(m)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            rotation_to_euler(np.eye(3) * 2.0)


class TestCheckRotation:
    def test_accepts_identity(self):
        check_rotation(np.eye(3))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            check_rotation(np.eye(4))

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            check_rotation(m)

    def test_rejects_non_orthogonal(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            check_rotation(m)
        m[0, 1] = 0.1 * rotmath.ROTATION_TOLERANCE
        check_rotation(m)


class TestSkew:
    def test_cross_product_equivalence(self):
        a = np.array([1.0, -2.0, 0.5])
        b = np.array([0.3, 4.0, -1.0])
        assert np.allclose(skew(a) @ b, np.cross(a, b))

    def test_antisymmetric(self):
        k = skew(np.array([3.0, 5.0, 7.0]))
        assert np.allclose(k, -k.T)


class TestAxisAngle:
    def test_zero_vector_is_identity(self):
        assert np.allclose(axis_angle_to_rotation(np.zeros(3)), np.eye(3))

    def test_matches_quarter_turn(self):
        r = np.array([0.0, 0.0, math.pi / 2.0])
        assert np.allclose(axis_angle_to_rotation(r), rot_z(90.0), atol=1e-12)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=100)
    def test_round_trip(self, x, y, z):
        r = np.array([x, y, z])
        theta = np.linalg.norm(r)
        if theta >= math.pi - 1e-3:
            r = r * ((math.pi - 1e-3) / theta)
        m = axis_angle_to_rotation(r)
        check_rotation(m)
        assert np.allclose(rotation_to_axis_angle(m), r, atol=1e-9)

    def test_tiny_angle_round_trip(self):
        r = np.array([1e-9, -2e-9, 5e-10])
        assert np.allclose(rotation_to_axis_angle(axis_angle_to_rotation(r)), r, atol=1e-15)

    def test_half_turn_round_trip(self):
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        r = axis * math.pi
        m = axis_angle_to_rotation(r)
        back = rotation_to_axis_angle(m)
        # at a half turn the axis sign is ambiguous
        assert np.allclose(back, r, atol=1e-6) or np.allclose(back, -r, atol=1e-6)

    def test_consistent_with_euler(self):
        e = EulerAngles(33.0, -12.0, 71.0)
        m = euler_to_rotation(e)
        assert np.allclose(axis_angle_to_rotation(rotation_to_axis_angle(m)), m, atol=1e-12)

    def test_angle_too_long_to_square_is_nan_as_stacked(self):
        r = np.array([1e200, -2e200, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = pnp._rodrigues_stack(r[None])[0]
            assert np.all(np.isnan(axis_angle_to_rotation(r)))
        assert np.all(np.isnan(stacked))
        with pytest.raises(ValueError, match=r"rotation vector must have shape \(3,\), got \(4,\)"):
            axis_angle_to_rotation(np.zeros(4))


# Rotation angles for the left Jacobian: zero, inside the Taylor branch, both
# sides of its 1e-4 switch, and up to just short of a half turn.
JACOBIAN_ANGLES = (0.0, 1e-8, 5e-5, 1e-4 * (1.0 - 1e-9), 1e-4 * (1.0 + 1e-9), 0.3, 2.0,
                   math.pi - 1e-7)


def rotation_vectors(angle, count=20, seed=0):
    """count rotation vectors of this angle about seeded random axes."""
    axes = np.random.default_rng(seed).normal(size=(count, 3))
    return angle * axes / np.linalg.norm(axes, axis=1, keepdims=True)


def rotation_times_right_jacobian(r):
    """R(r) @ J_r(r), J_r = I - (1-cos t)/t^2 [r]x + (t-sin t)/t^3 [r]x^2 with
    t = |r|, written with 1-cos t = 2 sin^2(t/2) and, below t = 1e-2, with
    the series of the second coefficient, both accurate to rounding."""
    t = math.sqrt(float(r @ r))
    k = skew(r)
    if t < 1e-2:
        t2 = t * t
        a = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        b = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a = 2.0 * (math.sin(t / 2.0) / t) ** 2
        b = (t - math.sin(t)) / t ** 3
    return axis_angle_to_rotation(r) @ (np.eye(3) - a * k + b * (k @ k))


class TestLeftJacobian:
    """The left Jacobian J that rotmath._rodrigues returns with the rotation."""

    @pytest.mark.parametrize("angle", JACOBIAN_ANGLES)
    def test_equals_rotation_times_right_jacobian(self, angle):
        for r in rotation_vectors(angle):
            rot, jac = rotmath._rodrigues(r)
            assert np.array_equal(rot, axis_angle_to_rotation(r))
            assert np.abs(jac - rotation_times_right_jacobian(r)).max() <= 1e-14

    @pytest.mark.parametrize("angle", JACOBIAN_ANGLES)
    def test_maps_a_step_to_its_rotation_to_first_order(self, angle):
        # Exp(r + d) = Exp(J d) Exp(r) + O(|d|^2).
        steps = rotation_vectors(1e-7, seed=1)
        for r, d in zip(rotation_vectors(angle), steps, strict=True):
            rot, jac = rotmath._rodrigues(r)
            turn = rotation_to_axis_angle(axis_angle_to_rotation(r + d) @ rot.T)
            assert np.abs(turn - jac @ d).max() <= 1e-6 * 1e-7

    def test_continuous_across_the_taylor_switch(self):
        # Series below 1e-4, closed form above: J changes across the switch
        # as the written-out R J_r does.
        for axis in rotation_vectors(1.0):
            below, above = 1e-4 * (1.0 - 1e-9) * axis, 1e-4 * (1.0 + 1e-9) * axis
            jump = rotmath._rodrigues(above)[1] - rotmath._rodrigues(below)[1]
            want = rotation_times_right_jacobian(above) - rotation_times_right_jacobian(below)
            assert np.abs(jump - want).max() <= 1e-15

    def test_stack_rows_are_bitwise_rodrigues(self):
        # Bytes, not values: -0.0 == 0.0, so array_equal would miss an entry
        # whose zero has the other sign.  Zero and negative-zero components,
        # and an angle in (pi, 2 pi), where sin(t)/t < 0, join the random axes.
        r = np.concatenate([*(rotation_vectors(angle) for angle in JACOBIAN_ANGLES),
                            [(0.0, 0.0, 0.5), (-1e-3, -0.0, 0.0), (0.0, 2.0, -0.0),
                             (1.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0),
                             (-0.0, 3e-5, 0.0), (4.0, -0.0, 0.0)]])
        with np.errstate(all="ignore"):
            stacked = pnp._rodrigues_stack(r)
        for i, ri in enumerate(r):
            for got, want in zip(stacked, rotmath._rodrigues(ri), strict=True):
                assert got[i].tobytes() == want.tobytes()


def test_shared_identity_is_read_only():
    # Every stacked Rodrigues and left-Jacobian evaluation adds to this one
    # array, and rotmath's checks use it; a write through any of them must
    # fail, not leak.
    assert pnp._IDENTITY is rotmath._IDENTITY
    assert np.array_equal(rotmath._IDENTITY, np.eye(3))
    with pytest.raises(ValueError):
        rotmath._IDENTITY[0, 0] = 2.0
    with pytest.raises(ValueError):
        rotmath._IDENTITY += 1.0
    assert np.array_equal(rotmath._IDENTITY, np.eye(3))
