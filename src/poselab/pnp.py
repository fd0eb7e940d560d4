"""Pose-from-correspondences solver.

Recovers the rigid transform that maps known 3D points onto observed 2D
pixels by damped nonlinear least squares on the reprojection error.  The
optimization state is 6 numbers: an axis-angle rotation vector and a
translation vector.  Damping follows the classic Marquardt schedule
(scale the normal-equation diagonal, x10 on a rejected step, x0.1 on an
accepted one), so accepted steps never increase the squared residual.
Every solve uses the analytic Jacobian.

A solve stops for the first of these reasons, recorded in
PnPSolution.termination; the step and cost tests are those of Madsen,
Nielsen & Tingleff, Methods for Non-Linear Least Squares Problems (2004):

- "step": a computed step, accepted or rejected, is short relative to
  the iterate, |h| <= STEP_TOLERANCE * (|x| + STEP_TOLERANCE);
- "cost": an accepted step lowered the cost by at most COST_TOLERANCE of it;
- "residual": the RMS reprojection error is at most RESIDUAL_TOLERANCE;
- "max_iterations": MAX_ITERATIONS iterations ran;
- "damping_exhausted": the damping grew past MAX_DAMPING without a step
  that lowered the cost.

The first three are convergence (PnPSolution.converged).  A damping climb
leaves the iterate where it is while its steps shrink, so at the noise
floor the step test ends the climb after a rejection or two.  There is
no gradient test: an absolute gradient bound large enough to fire before
these (1e-8 or more) also stops noiseless solves early, raising their
mean pose error from about 5e-14 degrees to 6e-13 at 1e-8 and 2e-10 at
1e-6.  The iteration cap, the damping schedule and the tolerances are
module constants.
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

# Iterations (accepted steps, or one damping climb ended by a test) per solve.
MAX_ITERATIONS = 100
# Starting damping, its factors after a rejected and an accepted step, and
# the least it falls to.
INITIAL_DAMPING = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1
MIN_DAMPING = 1e-12
# Give up and return the best iterate once damping grows past this.
MAX_DAMPING = 1e14
# Keep the damping matrix positive even for exactly-zero diagonal entries.
DIAG_FLOOR = 1e-12
# Stopping tests, in the order they are checked (see the module docstring):
# step relative to the iterate, cost decrease relative to the cost, and
# RMS reprojection error in pixels.
STEP_TOLERANCE = 1e-10
COST_TOLERANCE = 1e-15
RESIDUAL_TOLERANCE = 1e-12
# Reasons a solve stops; the first three mean it converged.
TERMINATIONS = ("step", "cost", "residual", "max_iterations", "damping_exhausted")
CONVERGED = frozenset(TERMINATIONS[:3])
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
    """The best iterate of a solve and why the solve stopped (one of TERMINATIONS)."""

    pose: Pose
    rmse: float
    iterations: int
    termination: str

    @property
    def converged(self) -> bool:
        return self.termination in CONVERGED


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
    q = problem.model_points @ rot.T
    lever, full = _pinhole_jacobian(q, q + t, problem.intrinsics)
    n = len(q)
    np.matmul(lever.reshape(2 * n, 3), rot @ _right_jacobian(rvec),
              out=full.reshape(2 * n, 6)[:, :3])
    return full.reshape(2 * n, 6)


def _pinhole_jacobian(q, cam, intrinsics):
    """The parts of the residual Jacobian at rotated points q = R p (..., N, 3)
    and camera points cam = q + t, for the Jacobians (..., 2N, 6).

    With P the pinhole derivative d(pixel)/d(camera point), a (2, 3) block
    per point, the derivative by the translation is P, and by the rotation
    vector it is -P R [p]x J_r = -P [q]x (R J_r).  Returns lever, the
    (..., N, 2, 3) blocks -P [q]x, and full (..., N, 2, 6) with P in its
    translation columns; the rotation columns are lever @ (R J_r), one
    (2N, 3) @ (3, 3) product per problem, left to the caller.
    """
    iz = 1.0 / cam[..., 2]
    a = intrinsics.fx * iz
    b = intrinsics.fy * iz
    c = -intrinsics.fx * cam[..., 0] * iz * iz
    d = -intrinsics.fy * cam[..., 1] * iz * iz
    q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2]
    lever = np.empty(q.shape[:-1] + (2, 3))
    lever[..., 0, 0] = c * q2
    lever[..., 0, 1] = a * q3 - c * q1
    lever[..., 0, 2] = -a * q2
    lever[..., 1, 0] = d * q2 - b * q3
    lever[..., 1, 1] = -d * q1
    lever[..., 1, 2] = b * q1
    full = np.zeros(q.shape[:-1] + (2, 6))
    full[..., 0, 3] = a
    full[..., 0, 5] = c
    full[..., 1, 4] = b
    full[..., 1, 5] = d
    return lever, full


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

    Returns the best iterate found and the stopping test that ended the
    solve (see the module docstring); converged is True for step, cost
    and residual.
    """
    n_points = len(problem.model_points)
    x = _start_params(problem.model_points[None])[0] if init is None else _params_from_pose(init)
    residual = _residuals_at(problem, x)
    cost = float(residual @ residual)
    if math.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE:
        return _stack_solution(x, cost, n_points, 0, "residual")
    return _iterate(problem, x, residual, cost, INITIAL_DAMPING, 0)


def _iterate(problem: PnPProblem, x, residual, cost: float, lam: float,
             iterations: int) -> PnPSolution:
    """solve_pnp's iterations from parameters x, with their residual and cost,
    damping lam and the iterations already run, until a stopping test ends them."""
    n_points = len(problem.model_points)
    termination = None
    while termination is None and iterations < MAX_ITERATIONS:
        jac = _jacobian_analytic(problem, x)
        normal = jac.T @ jac
        gradient = jac.T @ residual
        damping_diag = np.diag(np.maximum(np.diag(normal), DIAG_FLOOR))
        step_limit = STEP_TOLERANCE * (math.sqrt(float(x @ x)) + STEP_TOLERANCE)
        short = slow = tiny = exhausted = False
        while not (short or exhausted):
            try:
                step = np.linalg.solve(normal + lam * damping_diag, -gradient)
            except np.linalg.LinAlgError:
                step = None
            trial_cost = math.inf
            if step is not None and np.all(np.isfinite(step)):
                short = math.sqrt(float(step @ step)) <= step_limit
                try:
                    trial_residual = _residuals_at(problem, x + step)
                    trial_cost = float(trial_residual @ trial_residual)
                except BehindCameraError:
                    pass
            if trial_cost < cost:
                slow = cost - trial_cost <= COST_TOLERANCE * cost
                x, residual, cost = x + step, trial_residual, trial_cost
                tiny = math.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE
                lam = max(lam * DAMPING_DOWN, MIN_DAMPING)
                break
            lam *= DAMPING_UP
            exhausted = lam > MAX_DAMPING
        iterations += 1
        termination = _termination(short, slow, tiny, exhausted)

    return _stack_solution(x, cost, n_points, iterations, termination or "max_iterations")


def _termination(short, slow, tiny, exhausted) -> str | None:
    """The test that ends the solve after an iteration, or None to go on.

    short: the last step was short (accepted or not); slow and tiny: an
    accepted step barely lowered the cost or left a negligible residual;
    exhausted: damping passed MAX_DAMPING.
    """
    if short:
        return "step"
    if slow:
        return "cost"
    if tiny:
        return "residual"
    if exhausted:
        return "damping_exhausted"
    return None


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
            for i, result in zip(chunk, _solve_stack([problems[i] for i in chunk])):
                results[i] = result
    return results


_DIAGONAL = np.arange(6)


def _solve_stack(problems) -> list:
    """solve_pnp's loop run on B stacked problems with the same point count and intrinsics.

    Each round makes one damping attempt per unfinished problem: a
    rejected step raises that problem's damping and the next round
    solves its cached normal equations again; an accepted step ends one
    of its iterations, and the next round starts from a fresh Jacobian.
    The stopping tests are solve_pnp's, with the same operations.  The
    last unfinished problem goes on in solve_pnp's own loop from its
    iterate, damping and iteration count: a round for one problem costs
    two to two and a half times a scalar attempt, and the longest solves
    (up to MAX_ITERATIONS) would otherwise end alone in the stack, so
    the run time would follow how many of them a batch holds.
    """
    model = np.stack([problem.model_points for problem in problems])
    image = np.stack([problem.image_points for problem in problems])
    intrinsics = problems[0].intrinsics
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
            results[j] = _stack_solution(x[j], cost[j], n_points, 0, "residual")

        keep = ~done
        live = np.flatnonzero(keep)  # stack positions still iterating
        size = len(live)
        state = [live, *(a[keep] for a in (x, residual, cost, model, image)),
                 np.full(size, INITIAL_DAMPING), np.zeros(size, dtype=int),
                 np.ones(size, dtype=bool), np.empty((size, 6, 6)), np.empty((size, 6)),
                 np.empty((size, 6)), np.empty(size)]
        while len(state[0]):
            # Each round updates these arrays in place; finished rows are dropped.
            (live, x, residual, cost, model, image, lam, iterations, fresh, normal, gradient,
             damping, step_limit) = state
            if len(live) == 1:
                results[live[0]] = _iterate(problems[live[0]], x[0], residual[0], float(cost[0]),
                                            float(lam[0]), int(iterations[0]))
                break
            if fresh.any():
                jac = _stack_jacobian(model[fresh], x[fresh], intrinsics)
                jac_t = jac.transpose(0, 2, 1)
                normal[fresh] = jac_t @ jac
                gradient[fresh] = (jac_t @ residual[fresh, :, None])[..., 0]
                damping[fresh] = np.maximum(normal[fresh][:, _DIAGONAL, _DIAGONAL], DIAG_FLOOR)
                step_limit[fresh] = STEP_TOLERANCE * (np.sqrt(_row_dots(x[fresh]))
                                                      + STEP_TOLERANCE)
            systems = normal.copy()
            systems[:, _DIAGONAL, _DIAGONAL] += lam[:, None] * damping
            step = _damped_steps(systems, -gradient)
            trial_x = x + step
            trial_residual, depth = _stack_residuals(model, image, trial_x, intrinsics)
            trial_cost = _row_dots(trial_residual)
            finite = np.all(np.isfinite(step), axis=1)
            short = finite & (np.sqrt(_row_dots(step)) <= step_limit)
            accepted = finite & ~np.any(depth <= MIN_DEPTH, axis=1) & (trial_cost < cost)
            slow = accepted & (cost - trial_cost <= COST_TOLERANCE * cost)
            x[accepted] = trial_x[accepted]
            residual[accepted] = trial_residual[accepted]
            cost[accepted] = trial_cost[accepted]
            tiny = accepted & (np.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE)
            lam[:] = np.where(accepted, np.maximum(lam * DAMPING_DOWN, MIN_DAMPING),
                              lam * DAMPING_UP)
            exhausted = ~accepted & (lam > MAX_DAMPING)
            iterations += accepted | short | exhausted
            fresh[:] = accepted
            finished = short | slow | tiny | exhausted | (iterations >= MAX_ITERATIONS)
            if finished.any():
                for j in np.flatnonzero(finished):
                    termination = _termination(short[j], slow[j], tiny[j], exhausted[j])
                    results[live[j]] = _stack_solution(x[j], cost[j], n_points, iterations[j],
                                                       termination or "max_iterations")
                state = [a[~finished] for a in state]
    return results


def _stack_solution(x, cost, n_points: int, iterations, termination: str) -> PnPSolution:
    return PnPSolution(_pose_from_params(x), math.sqrt(float(cost) / n_points), int(iterations),
                       termination)


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
    rvecs = x[:, :3]
    rot = _rodrigues_stack(rvecs)
    q = model @ rot.transpose(0, 2, 1)
    lever, full = _pinhole_jacobian(q, q + x[:, None, 3:], intrinsics)
    count, n = model.shape[:2]
    np.matmul(lever.reshape(count, 2 * n, 3), rot @ _right_jacobian_stack(rvecs),
              out=full.reshape(count, 2 * n, 6)[..., :3])
    return full.reshape(count, 2 * n, 6)
