"""Rotation representations and angle arithmetic.

Convention used throughout the package: intrinsic Tait-Bryan angles in
degrees, applied yaw (about y), then pitch (about the rotated x), then
roll (about the rotated z).  Written as a single matrix acting on column
vectors this is

    R = rot_y(yaw) @ rot_x(pitch) @ rot_z(roll)

Rotation matrices are plain (3, 3) float64 arrays, rotation vectors
(axis * angle, in radians) plain (3,) arrays.  Degrees are used at every
public boundary, radians only internally.

Canonical angle ranges after any conversion: yaw in [-180, 180),
pitch in [-90, 90], roll in [-180, 180).
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "EulerAngles",
    "GimbalLockWarning",
    "angle_error",
    "axis_angle_to_rotation",
    "check_rotation",
    "euler_to_rotation",
    "rotation_to_axis_angle",
    "rotation_to_euler",
    "skew",
    "wrap_degrees",
]


# The 3x3 identity, built once: the stacked Rodrigues formula adds it to
# every rotation and left Jacobian it builds, and the rotation checks use
# it.  Read-only, because every caller shares it.
_IDENTITY = np.eye(3)
_IDENTITY.setflags(write=False)


def _is_integer(value) -> bool:
    # bool is an Integral, but True is no count, seed, size, factor or id.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError naming the argument unless value is an integer >= least."""
    if not (_is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


# check_rotation's bound on |M'M - I| and on |det M - 1|.
ROTATION_TOLERANCE = 1e-9
# rotation_to_euler treats a pitch this close to +/-90 degrees as gimbal lock.
GIMBAL_LOCK_TOLERANCE_DEG = 1e-6


class GimbalLockWarning(UserWarning):
    """Pitch is at +/-90 degrees; yaw and roll are no longer separable."""


@dataclass(frozen=True)
class EulerAngles:
    """Orientation as yaw/pitch/roll in degrees."""

    yaw: float
    pitch: float
    roll: float

    def __post_init__(self):
        for name in ("yaw", "pitch", "roll"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch, self.roll], dtype=float)


def wrap_degrees(angle: float) -> float:
    """Wrap an angle in degrees into [-180, 180)."""
    return (angle + 180.0) % 360.0 - 180.0


def angle_error(a, b):
    """Wrap-aware absolute difference in degrees, elementwise, in [0, 180]."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 360.0
    err = np.minimum(d, 360.0 - d)
    return err if err.ndim else float(err)


def check_rotation(m) -> np.ndarray:
    """Validate that ``m`` is a proper rotation matrix and return it as float64.

    Raises ValueError when the matrix is not 3x3, not orthogonal to within
    ROTATION_TOLERANCE, or has determinant different from 1 by more than it.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("rotation matrix has non-finite entries")
    err = np.abs(m.T @ m - _IDENTITY).max()
    if err > ROTATION_TOLERANCE:
        raise ValueError(f"matrix is not orthogonal (|M'M - I| = {err:.3e})")
    det = float(_umath_linalg.det(m))  # np.linalg.det's gufunc; m is finite
    if abs(det - 1.0) > ROTATION_TOLERANCE:
        raise ValueError(f"matrix determinant is {det!r}, expected 1")
    return m


def euler_to_rotation(e: EulerAngles) -> np.ndarray:
    """Rotation matrix for intrinsic yaw -> pitch -> roll angles in degrees."""
    y = math.radians(e.yaw)
    p = math.radians(e.pitch)
    r = math.radians(e.roll)
    cy, sy = math.cos(y), math.sin(y)
    cp, sp = math.cos(p), math.sin(p)
    cr, sr = math.cos(r), math.sin(r)
    # rot_y(yaw) @ rot_x(pitch) @ rot_z(roll), expanded entrywise.
    return np.array(
        [
            [cy * cr + sy * sp * sr, -cy * sr + sy * sp * cr, sy * cp],
            [cp * sr, cp * cr, -sp],
            [-sy * cr + cy * sp * sr, sy * sr + cy * sp * cr, cy * cp],
        ]
    )


def rotation_to_euler(m) -> EulerAngles:
    """Recover canonical-range Euler angles from a rotation matrix.

    Within GIMBAL_LOCK_TOLERANCE_DEG of pitch = +/-90 the yaw/roll split is
    degenerate: roll is fixed to 0, yaw absorbs the whole in-plane angle,
    and a GimbalLockWarning is emitted.
    """
    return EulerAngles(*_euler_from_rotation(check_rotation(m)))


def _euler_from_rotation(m) -> tuple:
    """rotation_to_euler's (yaw, pitch, roll) of a matrix already known to be a rotation."""
    sp = min(1.0, max(-1.0, -float(m[1, 2])))
    pitch = math.degrees(math.asin(sp))
    if 90.0 - abs(pitch) < GIMBAL_LOCK_TOLERANCE_DEG:
        warnings.warn(
            "pitch at +/-90 degrees; fixing roll = 0",
            GimbalLockWarning,
            stacklevel=3,
        )
        if sp > 0.0:
            yaw = math.degrees(math.atan2(m[0, 1], m[0, 0]))
        else:
            yaw = math.degrees(math.atan2(-m[0, 1], m[0, 0]))
        return wrap_degrees(yaw), pitch, 0.0
    yaw = math.degrees(math.atan2(m[0, 2], m[2, 2]))
    roll = math.degrees(math.atan2(m[1, 0], m[1, 1]))
    return wrap_degrees(yaw), pitch, wrap_degrees(roll)


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def axis_angle_to_rotation(rvec) -> np.ndarray:
    """Rodrigues map from a rotation vector (radians) to a rotation matrix.

    The matrix is all NaN where rvec @ rvec is not finite: it overflows,
    or rvec holds NaN.
    """
    r = np.asarray(rvec, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"rotation vector must have shape (3,), got {r.shape}")
    rodrigues = _rodrigues(r)
    return np.full((3, 3), math.nan) if rodrigues is None else rodrigues[0]


def _rodrigues(r):
    """axis_angle_to_rotation of an unchecked float (3,) vector r, with its
    left Jacobian: (R, J), None where r @ r is not finite.

    With k = skew(r) and t = |r|, J = I + (1-cos t)/t^2 k + (t-sin t)/t^3 k @ k,
    so that Exp(r + d) = Exp(J d) @ Exp(r) to first order in d, Exp this
    map.  J equals R times the right Jacobian of r (Sola, Deray &
    Atchuthan, A micro Lie theory for state estimation in robotics, 2018).

    The entries are Python floats: k @ k is r r^T - t^2 I, and each entry of
    R = I + a k + b k @ k and of J is written with the expression that
    pnp._rodrigues_stack evaluates for it, zero terms of I and k included,
    so a stacked row has the same bits, signed zeros too.
    """
    x, y, z = r.tolist()
    xx, yy, zz = x * x, y * y, z * z
    theta2 = xx + yy + zz
    theta = math.sqrt(theta2)
    if theta < 1e-4:
        # Series for sin(t)/t, (1-cos t)/t^2 and (t-sin t)/t^3; exact through O(t^4).
        a = 1.0 - theta2 / 6.0 * (1.0 - theta2 / 20.0)
        b = 0.5 * (1.0 - theta2 / 12.0 * (1.0 - theta2 / 30.0))
        c = (1.0 - theta2 / 20.0 * (1.0 - theta2 / 42.0)) / 6.0
    elif theta < math.inf:
        # 1 - cos t as 2 sin(t/2)^2: the difference loses up to 8 digits
        # near the switch, and J multiplies this coefficient by k, not k @ k.
        sin = math.sin(theta)
        half = math.sin(0.5 * theta) / theta
        a = sin / theta
        b = 2.0 * half * half
        c = (theta - sin) / (theta2 * theta)
    else:
        return None
    xy, xz, yz = x * y, x * z, y * z
    d0, d1, d2 = xx - theta2, yy - theta2, zz - theta2
    rot = np.array([[1.0 + a * 0.0 + b * d0, 0.0 + a * -z + b * xy, 0.0 + a * y + b * xz],
                    [0.0 + a * z + b * xy, 1.0 + a * 0.0 + b * d1, 0.0 + a * -x + b * yz],
                    [0.0 + a * -y + b * xz, 0.0 + a * x + b * yz, 1.0 + a * 0.0 + b * d2]])
    left = np.array([[1.0 + b * 0.0 + c * d0, 0.0 + b * -z + c * xy, 0.0 + b * y + c * xz],
                     [0.0 + b * z + c * xy, 1.0 + b * 0.0 + c * d1, 0.0 + b * -x + c * yz],
                     [0.0 + b * -y + c * xz, 0.0 + b * x + c * yz, 1.0 + b * 0.0 + c * d2]])
    return rot, left


def rotation_to_axis_angle(m) -> np.ndarray:
    """Inverse Rodrigues map; the result magnitude is in [0, pi]."""
    m = check_rotation(m)
    cos_theta = min(1.0, max(-1.0, (float(np.trace(m)) - 1.0) / 2.0))
    theta = math.acos(cos_theta)
    # v = sin(theta) * axis
    v = 0.5 * np.array(
        [m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]
    )
    if theta < 1e-6:
        return v * (1.0 + theta * theta / 6.0)
    if math.pi - theta < 1e-4:
        # Off-diagonal differences vanish near pi; recover the axis from
        # (M + I)/2 ~ axis axis^T using its largest diagonal entry.
        a = (m + _IDENTITY) / 2.0
        i = int(np.argmax(np.diag(a)))
        axis = a[:, i] / math.sqrt(a[i, i])
        axis = axis / np.linalg.norm(axis)
        if axis @ v < 0.0:
            axis = -axis
        return axis * theta
    return v * (theta / math.sin(theta))
