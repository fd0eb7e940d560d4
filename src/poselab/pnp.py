"""Pose-from-correspondences solver.

Recovers the rigid transform that maps known 3D points onto observed 2D
pixels by damped nonlinear least squares on the reprojection error.  The
optimization state is 6 numbers: an axis-angle rotation vector and a
translation vector.  Damping follows the classic Marquardt schedule
(scale the normal-equation diagonal, x10 on a rejected step, x0.1 on an
accepted one), so accepted steps never increase the squared residual.
Every solve uses the analytic Jacobian; the iteration cap and the
damping schedule are module constants.
solve_pnp_batch runs the same iteration on many problems at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .camera import (
    MIN_DEPTH,
    BehindCameraError,
    CameraIntrinsics,
    Pose,
    _behind_camera,
    _pinhole,
    _project_rigid,
    project,
)
from .rotmath import (
    EulerAngles,
    axis_angle_to_rotation,
    rotation_to_axis_angle,
    rotation_to_euler,
    skew,
)

__all__ = [
    "DegenerateProblemError",
    "PnPProblem",
    "PnPSolution",
    "default_init",
    "jacobian",
    "reprojection_residuals",
    "solve_pnp",
    "solve_pnp_batch",
]

# Iterations (accepted steps, or one exhausted damping climb) per solve.
MAX_ITERATIONS = 100
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
# Most points solve_pnp_batch stacks into one loop; larger groups are
# split.  The stacked Jacobians and their temporaries grow with it, so it
# bounds the solver's memory (48 problems of 68 points per stack).
BATCH_POINTS = 3300


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
    x = _start_params(problem.model_points[None])[0]
    return Pose(EulerAngles(0.0, 0.0, 0.0), x[3:])


def _start_params(model) -> np.ndarray:
    """The LM start (B, 6) of stacked models (B, N, 3): identity rotation,
    translated along the optical axis to the viewing distance of each
    model's bounding radius."""
    x = np.zeros((len(model), 6))
    radius = np.linalg.norm(model - model.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    x[:, 5] = _viewing_distance(radius)
    return x


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
    """(2N, 6) residual derivative w.r.t. (rvec, tvec) evaluated at pose.

    "analytic" is the Jacobian the solvers use; "numeric" is the central
    difference reference it is checked against.
    """
    x = _params_from_pose(pose)
    if mode == "analytic":
        return _jacobian_analytic(problem, x)
    if mode == "numeric":
        return _jacobian_numeric(problem, x)
    raise ValueError(f"unknown jacobian mode {mode!r}")


def solve_pnp(problem: PnPProblem, init: Pose | None = None) -> PnPSolution:
    """Minimize the squared reprojection error from init (or default_init's pose).

    Returns the best iterate found.  converged is True when the step norm
    or the RMS residual dropped below its tolerance; it is False when
    MAX_ITERATIONS ran out or damping grew past MAX_DAMPING without
    producing an acceptable step.
    """
    n_points = len(problem.model_points)
    x = _start_params(problem.model_points[None])[0] if init is None else _params_from_pose(init)
    residual = _residuals_at(problem, x)
    cost = float(residual @ residual)
    lam = INITIAL_DAMPING
    iterations = 0
    converged = math.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE

    while not converged and iterations < MAX_ITERATIONS:
        jac = _jacobian_analytic(problem, x)
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

    return _stack_solution(x, cost, n_points, iterations, converged)


def solve_pnp_batch(problems) -> list:
    """Solve every problem from its default_init pose; one result per problem, in input order.

    Each result is the PnPSolution that solve_pnp(problem) returns, up to
    rounding: the iteration, damping schedule, acceptance test and stopping
    rules are solve_pnp's from its default start, applied per problem.
    Problems with the same point count and intrinsics are stacked and
    iterated together, at most BATCH_POINTS points per stack.  A problem
    whose starting pose puts a point on or behind the camera gets, in its
    place, the BehindCameraError that solve_pnp would raise.  A result
    depends only on its own problem, not on the others passed with it.
    """
    problems = list(problems)
    results = [None] * len(problems)
    groups = {}
    for i, problem in enumerate(problems):
        groups.setdefault((len(problem.model_points), problem.intrinsics), []).append(i)
    for (n_points, intrinsics), members in groups.items():
        size = max(1, BATCH_POINTS // n_points)
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            model = np.stack([problems[i].model_points for i in chunk])
            image = np.stack([problems[i].image_points for i in chunk])
            for i, result in zip(chunk, _solve_stack(model, image, intrinsics)):
                results[i] = result
    return results


_DIAGONAL = np.arange(6)


def _solve_stack(model, image, intrinsics) -> list:
    """solve_pnp's loop run on B stacked problems, model (B, N, 3) and image (B, N, 2).

    Each round makes one damping attempt per unfinished problem: a
    rejected step raises that problem's damping and the next round
    solves its cached normal equations again; an accepted step ends one
    of its iterations, and the next round starts from a fresh Jacobian.
    """
    count, n_points = model.shape[:2]
    results = [None] * count
    x = _start_params(model)
    # Both branches of the Rodrigues series are evaluated, and a trial step
    # may be non-finite or put points behind the camera; such values are
    # never used, so their floating-point warnings are suppressed.
    with np.errstate(all="ignore"):
        residual, depth = _stack_residuals(model, image, x, intrinsics)
        cost = _row_dots(residual)
        behind = np.any(depth <= MIN_DEPTH, axis=1)
        for j in np.flatnonzero(behind):
            results[j] = _behind_camera(depth[j])
        done = behind | (np.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE)
        for j in np.flatnonzero(done & ~behind):
            results[j] = _stack_solution(x[j], cost[j], n_points, 0, True)

        keep = ~done
        live = np.flatnonzero(keep)  # stack positions still iterating
        x, residual, cost, model, image = (a[keep] for a in (x, residual, cost, model, image))
        lam = np.full(len(live), INITIAL_DAMPING)
        iterations = np.zeros(len(live), dtype=int)
        fresh = np.ones(len(live), dtype=bool)
        normal = np.empty((len(live), 6, 6))
        gradient = np.empty((len(live), 6))
        damping = np.empty((len(live), 6))
        while len(live):
            if fresh.any():
                jac = _stack_jacobian(model[fresh], x[fresh], intrinsics)
                jac_t = jac.transpose(0, 2, 1)
                normal[fresh] = jac_t @ jac
                gradient[fresh] = (jac_t @ residual[fresh, :, None])[..., 0]
                damping[fresh] = np.maximum(normal[fresh][:, _DIAGONAL, _DIAGONAL], DIAG_FLOOR)
            systems = normal.copy()
            systems[:, _DIAGONAL, _DIAGONAL] += lam[:, None] * damping
            step = _damped_steps(systems, -gradient)
            trial_x = x + step
            trial_residual, depth = _stack_residuals(model, image, trial_x, intrinsics)
            trial_cost = _row_dots(trial_residual)
            accepted = (np.all(np.isfinite(step), axis=1) & ~np.any(depth <= MIN_DEPTH, axis=1)
                        & (trial_cost < cost))
            x[accepted] = trial_x[accepted]
            residual[accepted] = trial_residual[accepted]
            cost[accepted] = trial_cost[accepted]
            lam = np.where(accepted, np.maximum(lam * DAMPING_DOWN, 1e-12), lam * DAMPING_UP)
            exhausted = ~accepted & (lam > MAX_DAMPING)
            iterations += accepted | exhausted
            converged = accepted & ((np.sqrt(_row_dots(step)) <= STEP_TOLERANCE)
                                    | (np.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE))
            fresh = accepted
            finished = converged | exhausted | (iterations >= MAX_ITERATIONS)
            if finished.any():
                for j in np.flatnonzero(finished):
                    results[live[j]] = _stack_solution(x[j], cost[j], n_points, iterations[j],
                                                       converged[j])
                keep = ~finished
                (live, x, residual, cost, model, image, lam, iterations, fresh, normal,
                 gradient, damping) = (a[keep] for a in (
                     live, x, residual, cost, model, image, lam, iterations, fresh, normal,
                     gradient, damping))
    return results


def _stack_solution(x, cost, n_points: int, iterations, converged) -> PnPSolution:
    return PnPSolution(_pose_from_params(x), math.sqrt(float(cost) / n_points), int(iterations),
                       bool(converged))


def _row_dots(a) -> np.ndarray:
    """a[i] @ a[i] for every row of a (B, K) array, with the dot product solve_pnp uses."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def _damped_steps(systems, rhs) -> np.ndarray:
    """Solutions (B, 6) of the systems (B, 6, 6); NaN rows where a system is singular."""
    try:
        return np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(systems) == 1:
            return np.full_like(rhs, np.nan)
        return np.concatenate([_damped_steps(systems[i:i + 1], rhs[i:i + 1])
                               for i in range(len(systems))])


def _skew_stack(v) -> np.ndarray:
    """skew() of every row of a (B, 3) array."""
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -v[:, 2], v[:, 1]
    k[:, 1, 0], k[:, 1, 2] = v[:, 2], -v[:, 0]
    k[:, 2, 0], k[:, 2, 1] = -v[:, 1], v[:, 0]
    return k


def _rodrigues_stack(rvecs) -> np.ndarray:
    """axis_angle_to_rotation of every row of a (B, 3) array."""
    theta2 = _row_dots(rvecs)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    a = np.where(small, 1.0 - theta2 / 6.0 * (1.0 - theta2 / 20.0), np.sin(theta) / theta)
    b = np.where(small, 0.5 * (1.0 - theta2 / 12.0 * (1.0 - theta2 / 30.0)),
                 (1.0 - np.cos(theta)) / theta2)
    k = _skew_stack(rvecs)
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _right_jacobian_stack(rvecs) -> np.ndarray:
    """_right_jacobian of every row of a (B, 3) array."""
    theta = np.sqrt(_row_dots(rvecs))
    small = theta < 1e-4
    a = np.where(small, 0.5 * (1.0 - theta * theta / 12.0), (1.0 - np.cos(theta)) / (theta * theta))
    # Python's float power, as in _right_jacobian: NumPy's can differ in the last bit.
    cube = np.array([t ** 3 for t in theta.tolist()])
    b = np.where(small, (1.0 - theta * theta / 20.0) / 6.0, (theta - np.sin(theta)) / cube)
    k = _skew_stack(rvecs)
    return np.eye(3) - a[:, None, None] * k + b[:, None, None] * (k @ k)


def _stack_residuals(model, image, x, intrinsics):
    """Residuals (B, 2N) and camera depths (B, N) of stacked problems at parameters x (B, 6)."""
    cam = model @ _rodrigues_stack(x[:, :3]).transpose(0, 2, 1) + x[:, None, 3:]
    return (_pinhole(cam, intrinsics) - image).reshape(len(x), -1), cam[..., 2]


def _stack_jacobian(model, x, intrinsics) -> np.ndarray:
    """_jacobian_analytic of stacked problems: (B, 2N, 6) at parameters x (B, 6)."""
    rvecs, t = x[:, :3], x[:, None, 3:]
    rot = _rodrigues_stack(rvecs)
    jr = _right_jacobian_stack(rvecs)
    count, n = model.shape[:2]
    cam = model @ rot.transpose(0, 2, 1) + t
    z = cam[..., 2]
    iz = 1.0 / z
    k = intrinsics

    s = np.zeros((count, n, 3, 3))
    s[..., 0, 1] = -model[..., 2]
    s[..., 0, 2] = model[..., 1]
    s[..., 1, 0] = model[..., 2]
    s[..., 1, 2] = -model[..., 0]
    s[..., 2, 0] = -model[..., 1]
    s[..., 2, 1] = model[..., 0]
    d_rot = rot[:, None] @ s @ jr[:, None]
    np.negative(d_rot, out=d_rot)

    d_cam = np.zeros((count, n, 2, 3))
    d_cam[..., 0, 0] = k.fx * iz
    d_cam[..., 0, 2] = -k.fx * cam[..., 0] * iz * iz
    d_cam[..., 1, 1] = k.fy * iz
    d_cam[..., 1, 2] = -k.fy * cam[..., 1] * iz * iz

    full = np.empty((count, n, 2, 6))
    np.matmul(d_cam, d_rot, out=full[..., :3])
    full[..., 3:] = d_cam
    return full.reshape(count, 2 * n, 6)
