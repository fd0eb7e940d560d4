"""Pinhole projection of 3D points into image coordinates.

Camera frame: +x right, +y down, +z forward into the scene; a point is
visible only with z > 0.  Image origin is the top-left corner, +u right,
+v down.  Lens distortion is fixed at zero.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .rotmath import EulerAngles, euler_to_rotation

__all__ = [
    "BehindCameraError",
    "CameraIntrinsics",
    "Pose",
    "default_intrinsics",
    "project",
]

# Transformed points must keep at least this much depth to be projected.
MIN_DEPTH = 1e-9


class BehindCameraError(ValueError):
    """A point to be projected lies on or behind the image plane."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters in pixels, zero distortion."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise ValueError(f"intrinsics must be finite, got fx={self.fx}, fy={self.fy}, "
                             f"cx={self.cx}, cy={self.cy}")
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform from model coordinates into the camera frame."""

    rotation: EulerAngles
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(-1)
        if t.shape != (3,):
            raise ValueError(f"translation must have 3 components, got {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError("translation has non-finite components")
        object.__setattr__(self, "translation", t.copy())

    def rotation_matrix(self) -> np.ndarray:
        return euler_to_rotation(self.rotation)


def default_intrinsics(image_width: float, image_height: float) -> CameraIntrinsics:
    """Approximate intrinsics for an uncalibrated image.

    Focal length is taken as the image width and the principal point as
    the image center.
    """
    if not all(math.isfinite(d) and d >= 1 for d in (image_width, image_height)):
        raise ValueError(f"image dimensions must be finite and at least 1 pixel, "
                         f"got {image_width} x {image_height}")
    return CameraIntrinsics(
        fx=float(image_width),
        fy=float(image_width),
        cx=image_width / 2.0,
        cy=image_height / 2.0,
    )


def project(points, pose: Pose, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Project (N, 3) model points to (N, 2) pixel coordinates, input order kept.

    Raises BehindCameraError if any transformed point has depth <= 1e-9.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
    cam = pts @ pose.rotation_matrix().T + pose.translation
    z = cam[:, 2]
    if np.any(z <= MIN_DEPTH):
        raise _behind_camera(z)
    return _pinhole(cam, intrinsics)


def _behind_camera(depths) -> BehindCameraError:
    """The error for (N,) camera depths of which some are <= MIN_DEPTH; it names the shallowest."""
    bad = int(np.argmin(depths))
    return BehindCameraError(
        f"point {bad} has camera depth {depths[bad]:.6g} (must be > {MIN_DEPTH:g})"
    )


def _pinhole(cam, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Pixel coordinates (..., 2) of camera-frame points (..., 3), depths unchecked.

    u = fx * x / z + cx and v = fy * y / z + cy are written through (..., N)
    views, so no operation runs an inner loop along the last axis of two.
    """
    pixels = np.empty(cam.shape[:-1] + (2,))
    z = cam[..., 2]
    u = np.multiply(intrinsics.fx, cam[..., 0], out=pixels[..., 0])
    u /= z
    u += intrinsics.cx
    v = np.multiply(intrinsics.fy, cam[..., 1], out=pixels[..., 1])
    v /= z
    v += intrinsics.cy
    return pixels
