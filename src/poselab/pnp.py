"""Pose-from-correspondences solver.

Recovers the rigid transform that maps known 3D points onto observed 2D
pixels by damped nonlinear least squares on the reprojection error.  The
optimization state is 6 numbers: an axis-angle rotation vector and a
translation vector.  Damping follows the classic Marquardt schedule
(scale the normal-equation diagonal, x10 on a rejected step, x0.1 on an
accepted one), so accepted steps never increase the squared residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from .camera import BehindCameraError, CameraIntrinsics, Pose, _project_rigid, project
from .rotmath import (
    EulerAngles,
    axis_angle_to_rotation,
    rotation_to_axis_angle,
    rotation_to_euler,
    skew,
)

__all__ = [
    "DegenerateProblemError",
    "LMConfig",
    "PnPProblem",
    "PnPSolution",
    "default_init",
    "jacobian",
    "reprojection_residuals",
    "solve_pnp",
]

# Starting damping, and its factors after a rejected and an accepted step.
INITIAL_DAMPING = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1
# Give up and return the best iterate once damping grows past this.
MAX_DAMPING = 1e14
# Keep the damping matrix positive even for exactly-zero diagonal entries.
DIAG_FLOOR = 1e-12
# Converged when the step norm or the RMS reprojection error (pixels)
# drops below its tolerance.
STEP_TOLERANCE = 1e-10
RESIDUAL_TOLERANCE = 1e-12


class DegenerateProblemError(ValueError):
    """Model points are rank-deficient (coincident or collinear)."""


@dataclass(frozen=True, eq=False)
class PnPProblem:
    """A set of 2D-3D correspondences plus the camera that produced them.

    model_points is (N, 3), image_points is (N, 2) in matching order,
    N >= 4.  The centered model must have rank >= 2: a planar model is
    solvable, a line or a single point is not.
    """

    model_points: np.ndarray
    image_points: np.ndarray
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        mp = np.asarray(self.model_points, dtype=float)
        ip = np.asarray(self.image_points, dtype=float)
        if mp.ndim != 2 or mp.shape[1] != 3:
            raise ValueError(f"model_points must be (N, 3), got {mp.shape}")
        if ip.ndim != 2 or ip.shape[1] != 2:
            raise ValueError(f"image_points must be (N, 2), got {ip.shape}")
        if len(mp) != len(ip):
            raise ValueError(f"{len(mp)} model points vs {len(ip)} image points")
        if len(mp) < 4:
            raise ValueError(f"need at least 4 correspondences, got {len(mp)}")
        if not (np.all(np.isfinite(mp)) and np.all(np.isfinite(ip))):
            raise ValueError("correspondences contain non-finite values")
        singulars = np.linalg.svd(mp - mp.mean(axis=0), compute_uv=False)
        if int(np.sum(singulars > 1e-9 * max(1.0, singulars[0]))) < 2:
            raise DegenerateProblemError("model points are coincident or collinear")
        object.__setattr__(self, "model_points", mp.copy())
        object.__setattr__(self, "image_points", ip.copy())


@dataclass(frozen=True)
class LMConfig:
    """Caller-set solver knobs: the iteration cap and an 'analytic' or 'numeric' jacobian."""

    max_iterations: int = 100
    jacobian: str = "analytic"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.jacobian not in ("analytic", "numeric"):
            raise ValueError(f"jacobian must be 'analytic' or 'numeric', got {self.jacobian!r}")


@dataclass(frozen=True, eq=False)
class PnPSolution:
    pose: Pose
    rmse: float
    iterations: int
    converged: bool


def default_init(problem: PnPProblem) -> Pose:
    """Identity rotation, model pushed forward to a plausible viewing distance.

    The depth is chosen so the model's bounding radius spans roughly a
    50-degree cone as seen from the camera.
    """
    pts = problem.model_points
    radius = float(np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    return Pose(EulerAngles(0.0, 0.0, 0.0), np.array([0.0, 0.0, _viewing_distance(radius)]))


def _viewing_distance(radius: float) -> float:
    """Depth at which a model of this bounding radius spans about 50 degrees."""
    return 2.0 * radius / math.tan(math.radians(25.0))


def reprojection_residuals(problem: PnPProblem, pose: Pose) -> np.ndarray:
    """Residual vector (du1, dv1, du2, dv2, ...) of predicted minus observed."""
    predicted = project(problem.model_points, pose, problem.intrinsics)
    return (predicted - problem.image_points).ravel()


def _params_from_pose(pose: Pose) -> np.ndarray:
    rvec = rotation_to_axis_angle(pose.rotation_matrix())
    return np.concatenate([rvec, pose.translation])


def _pose_from_params(x: np.ndarray) -> Pose:
    angles = rotation_to_euler(axis_angle_to_rotation(x[:3]))
    return Pose(angles, x[3:].copy())


def _residuals_at(problem: PnPProblem, x: np.ndarray) -> np.ndarray:
    predicted = _project_rigid(problem.model_points, axis_angle_to_rotation(x[:3]), x[3:],
                               problem.intrinsics)
    return (predicted - problem.image_points).ravel()


def _right_jacobian(rvec: np.ndarray) -> np.ndarray:
    # J_r(r) = I - (1-cos t)/t^2 [r]x + (t-sin t)/t^3 [r]x^2, Taylor near 0
    theta = float(np.linalg.norm(rvec))
    k = skew(rvec)
    if theta < 1e-4:
        a = 0.5 * (1.0 - theta * theta / 12.0)
        b = (1.0 - theta * theta / 20.0) / 6.0
    else:
        a = (1.0 - math.cos(theta)) / (theta * theta)
        b = (theta - math.sin(theta)) / (theta ** 3)
    return np.eye(3) - a * k + b * (k @ k)


def _jacobian_analytic(problem: PnPProblem, x: np.ndarray) -> np.ndarray:
    rvec, t = x[:3], x[3:]
    rot = axis_angle_to_rotation(rvec)
    jr = _right_jacobian(rvec)
    pts = problem.model_points
    n = len(pts)
    cam = pts @ rot.T + t
    z = cam[:, 2]
    iz = 1.0 / z
    k = problem.intrinsics

    # d(pixel)/d(camera point): (N, 2, 3)
    d_cam = np.zeros((n, 2, 3))
    d_cam[:, 0, 0] = k.fx * iz
    d_cam[:, 0, 2] = -k.fx * cam[:, 0] * iz * iz
    d_cam[:, 1, 1] = k.fy * iz
    d_cam[:, 1, 2] = -k.fy * cam[:, 1] * iz * iz

    # d(camera point)/d(rvec) = -R [p]x J_r(rvec): (N, 3, 3)
    s = np.zeros((n, 3, 3))
    s[:, 0, 1] = -pts[:, 2]
    s[:, 0, 2] = pts[:, 1]
    s[:, 1, 0] = pts[:, 2]
    s[:, 1, 2] = -pts[:, 0]
    s[:, 2, 0] = -pts[:, 1]
    s[:, 2, 1] = pts[:, 0]
    d_rot = -(rot[None] @ s @ jr)

    full = np.empty((n, 2, 6))
    full[:, :, :3] = d_cam @ d_rot
    full[:, :, 3:] = d_cam
    return full.reshape(2 * n, 6)


def _jacobian_numeric(problem: PnPProblem, x: np.ndarray) -> np.ndarray:
    out = np.empty((2 * len(problem.model_points), 6))
    for i in range(6):
        h = 1e-6 * max(1.0, abs(float(x[i])))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[:, i] = (_residuals_at(problem, xp) - _residuals_at(problem, xm)) / (2.0 * h)
    return out


def jacobian(problem: PnPProblem, pose: Pose, mode: str = "analytic") -> np.ndarray:
    """(2N, 6) residual derivative w.r.t. (rvec, tvec) evaluated at pose."""
    x = _params_from_pose(pose)
    if mode == "analytic":
        return _jacobian_analytic(problem, x)
    if mode == "numeric":
        return _jacobian_numeric(problem, x)
    raise ValueError(f"unknown jacobian mode {mode!r}")


def solve_pnp(problem: PnPProblem, init: Pose | None = None, config: LMConfig | None = None) -> PnPSolution:
    """Minimize the squared reprojection error from init (or a default pose).

    Returns the best iterate found.  converged is True when the step norm
    or the squared residual dropped below its tolerance; it is False when
    the iteration budget ran out or damping grew past 1e14 without
    producing an acceptable step.
    """
    if config is None:
        config = LMConfig()
    if init is None:
        init = default_init(problem)
    compute_jacobian = _jacobian_analytic if config.jacobian == "analytic" else _jacobian_numeric

    n_points = len(problem.model_points)
    x = _params_from_pose(init)
    residual = _residuals_at(problem, x)
    cost = float(residual @ residual)
    lam = INITIAL_DAMPING
    iterations = 0
    converged = math.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE

    while not converged and iterations < config.max_iterations:
        jac = compute_jacobian(problem, x)
        normal = jac.T @ jac
        gradient = jac.T @ residual
        damping_diag = np.diag(np.maximum(np.diag(normal), DIAG_FLOOR))
        accepted = False
        step = None
        while lam <= MAX_DAMPING:
            try:
                step = np.linalg.solve(normal + lam * damping_diag, -gradient)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                try:
                    trial_residual = _residuals_at(problem, x + step)
                    trial_cost = float(trial_residual @ trial_residual)
                except BehindCameraError:
                    trial_cost = math.inf
                if trial_cost < cost:
                    x = x + step
                    residual = trial_residual
                    cost = trial_cost
                    lam = max(lam * DAMPING_DOWN, 1e-12)
                    accepted = True
                    break
            lam *= DAMPING_UP
        iterations += 1
        if not accepted:
            break
        if (float(np.linalg.norm(step)) <= STEP_TOLERANCE
                or math.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE):
            converged = True

    rmse = math.sqrt(cost / n_points)
    return PnPSolution(_pose_from_params(x), rmse, iterations, converged)
