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

solve_pnp_batch runs the same iteration on many problems at once.  Under
it, _solve_arrays is the array path the PnP studies call directly: models
and images in as (B, N, 3) and (B, N, 2) arrays, and the best iterates,
RMS errors, iteration counts, termination codes and behind-camera rows
out as arrays, with no PnPProblem or PnPSolution per problem; the studies
check each block's image points with _check_images, the check PnPProblem
makes of one problem's.  Both loops keep what each residual evaluation
builds with the iterate it belongs to, so Rodrigues runs once per
residual evaluation and never for a Jacobian, and _pinhole_jacobian
builds both loops' Jacobians.  The stacked loop keeps the rotations.  The scalar loop (_iterate, under
solve_pnp) keeps its trial's whole evaluation: the rotation with the skew
matrix, its square and the angle it was built from, the rotated points
model @ R.T and the camera points; an accepted step's Jacobian starts from
these.  Both loops solve the damped normal equations with the LAPACK
gufunc under np.linalg.solve, with floating-point errors ignored: a
singular system gives a NaN step, which is rejected as non-finite, and a
trial that puts a point behind the camera or overflows its rotation is
rejected too.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
    _IDENTITY,
    EulerAngles,
    _euler_from_rotation,
    _rodrigues,
    axis_angle_to_rotation,
    rotation_to_axis_angle,
    rotation_to_euler,
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
        _check_images(ip[None], len(mp))
        if not np.all(np.isfinite(mp)):
            raise ValueError(_NON_FINITE)
        singulars = np.linalg.svd(mp - mp.mean(axis=0), compute_uv=False)
        if int(np.sum(singulars > 1e-9 * max(1.0, singulars[0]))) < 2:
            raise DegenerateProblemError("model points are coincident or collinear")
        object.__setattr__(self, "model_points", mp.copy())
        object.__setattr__(self, "image_points", ip.copy())


_NON_FINITE = "correspondences contain non-finite values"


def _check_images(images, n_points: int) -> np.ndarray:
    """The image points of B problems on one model of n_points points as a
    (B, N, 2) float array, checked: each problem's points are (N, 2) with
    N == n_points >= 4, and all are finite.  PnPProblem checks its (N, 2)
    points as a stack of one."""
    images = np.asarray(images, dtype=float)
    if images.ndim != 3 or images.shape[2] != 2:
        raise ValueError(f"image_points must be (N, 2), got {images.shape[1:]}")
    if images.shape[1] != n_points:
        raise ValueError(f"{n_points} model points vs {images.shape[1]} image points")
    if n_points < 4:
        raise ValueError(f"need at least 4 correspondences, got {n_points}")
    if not np.all(np.isfinite(images)):
        raise ValueError(_NON_FINITE)
    return images


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


def _euler_rows(x) -> np.ndarray:
    """(B, 3) yaw, pitch and roll in degrees of parameter rows x (B, 6): the
    angles _pose_from_params gives, without its rotation check and Pose."""
    # Both branches of the Rodrigues series are evaluated (a zero rotation
    # vector divides 0 by 0 in the unused one), as in _solve_stack.
    with np.errstate(all="ignore"):
        rotations = _rodrigues_stack(x[:, :3])
    angles = [_euler_from_rotation(rot) for rot in rotations]
    return np.array(angles, dtype=float).reshape(-1, 3)


def _rigid_parts(model, x):
    """What the residuals and the Jacobian at parameters x share, as the tuple
    (rotation R, k, k @ k, |r|, q, cam): Rodrigues' matrix of r = x[:3] with
    the skew matrix k = [r]x, k @ k and the angle |r| it was built from, the
    rotated points q = model @ R.T and the camera points cam = q + x[3:].
    None where r @ r is not finite."""
    rodrigues = _rodrigues(x[:3])
    if rodrigues is None:
        return None
    q = model @ rodrigues[0].T
    return (*rodrigues, q, q + x[3:])


def _evaluate(model, image, x, intrinsics):
    """The scalar loop's residual evaluation: the residual vector (2N,) at
    parameters x, its cost, and the _rigid_parts the Jacobian at x takes.

    None where x puts a point on or behind the camera (depth <= MIN_DEPTH)
    or its rotation vector overflows: a trial the loop rejects.
    """
    parts = _rigid_parts(model, x)
    if parts is None:
        return None
    cam = parts[-1]
    if (cam[:, 2] <= MIN_DEPTH).any():
        return None
    residual = (_pinhole(cam, intrinsics) - image).ravel()
    return residual, float(residual @ residual), parts


def _right_jacobian(k, kk, theta: float) -> np.ndarray:
    """J_r(r) = I - (1-cos t)/t^2 [r]x + (t-sin t)/t^3 [r]x^2 of the rotation
    vector r, from k = [r]x, kk = k @ k and t = |r|; Taylor near 0."""
    if theta < 1e-4:
        a = 0.5 * (1.0 - theta * theta / 12.0)
        b = (1.0 - theta * theta / 20.0) / 6.0
    else:
        a = (1.0 - math.cos(theta)) / (theta * theta)
        b = (theta - math.sin(theta)) / (theta ** 3)
    return _IDENTITY - a * k + b * kk


def _jacobian_analytic(parts, intrinsics) -> np.ndarray:
    """The (2N, 6) Jacobian at the parameters whose _rigid_parts are parts."""
    rot, k, kk, theta, q, cam = parts
    return _pinhole_jacobian(q, cam, rot @ _right_jacobian(k, kk, theta), intrinsics)


def _pinhole_jacobian(q, cam, rot_jr, intrinsics) -> np.ndarray:
    """The residual Jacobians (..., 2N, 6) at rotated points q = R p (..., N, 3),
    camera points cam = q + t and rot_jr = R J_r (..., 3, 3), for any leading shape.

    With P the pinhole derivative d(pixel)/d(camera point), a (2, 3) block
    per point, the derivative by the translation is P, and by the rotation
    vector it is -P R [p]x J_r = -P [q]x (R J_r): the (..., N, 2, 3) blocks
    lever = -P [q]x times rot_jr, one (2N, 3) @ (3, 3) product per problem.
    """
    lever = np.empty(q.shape[:-1] + (2, 3))
    full = np.zeros(q.shape[:-1] + (2, 6))
    iz = 1.0 / cam[..., 2]
    a = np.multiply(intrinsics.fx, iz, out=full[..., 0, 3])
    b = np.multiply(intrinsics.fy, iz, out=full[..., 1, 4])
    c = np.multiply(-intrinsics.fx, cam[..., 0], out=full[..., 0, 5])
    c *= iz
    c *= iz
    d = np.multiply(-intrinsics.fy, cam[..., 1], out=full[..., 1, 5])
    d *= iz
    d *= iz
    q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2]
    np.multiply(c, q2, out=lever[..., 0, 0])
    np.subtract(a * q3, c * q1, out=lever[..., 0, 1])
    np.multiply(-a, q2, out=lever[..., 0, 2])
    np.subtract(d * q2, b * q3, out=lever[..., 1, 0])
    np.multiply(-d, q1, out=lever[..., 1, 1])
    np.multiply(b, q1, out=lever[..., 1, 2])
    rows = q.shape[:-2] + (2 * q.shape[-2],)
    np.matmul(lever.reshape(rows + (3,)), rot_jr, out=full.reshape(rows + (6,))[..., :3])
    return full.reshape(rows + (6,))


def _jacobian_numeric(problem: PnPProblem, x: np.ndarray) -> np.ndarray:
    def residuals(at):
        predicted = _project_rigid(problem.model_points, axis_angle_to_rotation(at[:3]), at[3:],
                                   problem.intrinsics)
        return (predicted - problem.image_points).ravel()

    out = np.empty((2 * len(problem.model_points), 6))
    for i in range(6):
        h = 1e-6 * max(1.0, abs(float(x[i])))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[:, i] = (residuals(xp) - residuals(xm)) / (2.0 * h)
    return out


def jacobian(problem: PnPProblem, pose: Pose, mode: str = "analytic") -> np.ndarray:
    """(2N, 6) residual derivative w.r.t. (rvec, tvec) evaluated at pose.

    "analytic" is the Jacobian the solvers use; "numeric" is the central
    difference reference it is checked against.
    """
    x = _params_from_pose(pose)
    if mode == "analytic":
        return _jacobian_analytic(_rigid_parts(problem.model_points, x), problem.intrinsics)
    if mode == "numeric":
        return _jacobian_numeric(problem, x)
    raise ValueError(f"unknown jacobian mode {mode!r}")


def solve_pnp(problem: PnPProblem, init: Pose | None = None) -> PnPSolution:
    """Minimize the squared reprojection error from init (or default_init's pose).

    Returns the best iterate found and the stopping test that ended the
    solve (see the module docstring); converged is True for step, cost
    and residual.
    """
    model, image, intrinsics = problem.model_points, problem.image_points, problem.intrinsics
    n_points = len(model)
    x = _start_params(model[None])[0] if init is None else _params_from_pose(init)
    # As in _solve_stack: a cost that overflows to inf is compared, not
    # used, so the floating-point warnings on the way are suppressed.
    with np.errstate(all="ignore"):
        evaluation = _evaluate(model, image, x, intrinsics)
        if evaluation is None:
            raise _behind_start(model, x)
        if math.sqrt(evaluation[1] / n_points) <= RESIDUAL_TOLERANCE:
            result = x, evaluation[1], 0, "residual"
        else:
            result = _iterate(model, image, intrinsics, x, evaluation, INITIAL_DAMPING, 0)
    return _solution(n_points, *result)


def _behind_start(model, x) -> BehindCameraError:
    """The error solve_pnp raises for a start x that puts a point of model on
    or behind the camera: the depths _project_rigid finds there."""
    rot = axis_angle_to_rotation(x[:3])
    return _behind_camera((model @ rot.T + x[3:])[:, 2])


def _iterate(model, image, intrinsics, x, evaluation, lam: float, iterations: int) -> tuple:
    """solve_pnp's iterations on one problem, model (N, 3) and image (N, 2)
    points, from parameters x with their _evaluate result, damping lam and
    the iterations already run, until a stopping test ends them.

    Each accepted trial's evaluation rides with the iterate, so its Jacobian
    takes the rotation, the rotated and the camera points that trial built.
    Returns the best iterate x, its cost, the iterations run and the
    termination.
    """
    residual, cost, parts = evaluation
    n_points = len(model)
    termination = None
    while termination is None and iterations < MAX_ITERATIONS:
        jac = _jacobian_analytic(parts, intrinsics)
        normal = jac.T @ jac
        descent = -(jac.T @ residual)
        damping = np.maximum(normal.diagonal(), DIAG_FLOOR)
        step_limit = STEP_TOLERANCE * (math.sqrt(float(x @ x)) + STEP_TOLERANCE)
        short = slow = tiny = exhausted = False
        while not (short or exhausted):
            system = normal.copy()
            system[_DIAGONAL, _DIAGONAL] += lam * damping
            # A singular system gives a NaN step, rejected as non-finite.
            step = _linear_solve(system, descent)
            trial = None
            if np.isfinite(step).all():
                short = math.sqrt(float(step @ step)) <= step_limit
                trial_x = x + step
                trial = _evaluate(model, image, trial_x, intrinsics)
            if trial is not None and trial[1] < cost:
                slow = cost - trial[1] <= COST_TOLERANCE * cost
                x = trial_x
                residual, cost, parts = trial
                tiny = math.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE
                lam = max(lam * DAMPING_DOWN, MIN_DAMPING)
                break
            lam *= DAMPING_UP
            exhausted = lam > MAX_DAMPING
        iterations += 1
        termination = _termination(short, slow, tiny, exhausted)

    return x, cost, iterations, termination or "max_iterations"


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


def _solution(n_points: int, x, cost: float, iterations: int, termination: str) -> PnPSolution:
    return PnPSolution(_pose_from_params(x), math.sqrt(cost / n_points), iterations, termination)


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
    cameras = {}
    for i, problem in enumerate(problems):
        cameras.setdefault(problem.intrinsics, []).append(i)
    for intrinsics, members in cameras.items():
        x, rmse, iterations, codes, behind = _solve_arrays(
            [(problems[i].model_points, problems[i].image_points[None]) for i in members],
            intrinsics)
        for k, i in enumerate(members):
            if behind[k]:
                results[i] = _behind_start(problems[i].model_points, x[k])
            else:
                results[i] = PnPSolution(_pose_from_params(x[k]), float(rmse[k]),
                                         int(iterations[k]), TERMINATIONS[codes[k]])
    return results


def _solve_arrays(groups, intrinsics) -> tuple:
    """solve_pnp_batch on arrays: every problem of every group, solved from its default start.

    groups is a sequence of (model, images) pairs: images (B, N, 2) and the
    model points (B, N, 3) of each problem, or (N, 3) shared by the group,
    checked as PnPProblem checks them and all imaged by intrinsics.  The
    problems of all groups with the same point count are stacked in group
    order, at most BATCH_POINTS points per stack.  Returns arrays with one
    row per problem in group order: the best iterates x (P, 6), their RMS
    reprojection errors, iteration counts and termination codes (indices
    into TERMINATIONS), and behind, True where the start puts a point on
    or behind the camera (x is then that start, and the rest means nothing).
    """
    offsets = np.cumsum([0, *(len(images) for _, images in groups)])
    total = int(offsets[-1])
    x, rmse = np.empty((total, 6)), np.empty(total)
    iterations, codes = np.empty(total, dtype=int), np.empty(total, dtype=int)
    behind = np.empty(total, dtype=bool)
    pools = {}
    for g, (_, images) in enumerate(groups):
        pools.setdefault(images.shape[1], []).append(g)
    for n_points, members in pools.items():
        rows = np.concatenate([np.arange(offsets[g], offsets[g + 1]) for g in members])
        model = np.concatenate([np.broadcast_to(groups[g][0], groups[g][1].shape[:2] + (3,))
                                for g in members])
        image = np.concatenate([groups[g][1] for g in members])
        size = max(1, BATCH_POINTS // n_points)
        for start in range(0, len(rows), size):
            chunk, stack = rows[start:start + size], slice(start, start + size)
            x[chunk], cost, iterations[chunk], codes[chunk], behind[chunk] = _solve_stack(
                model[stack], image[stack], intrinsics)
            rmse[chunk] = np.sqrt(cost / n_points)
    return x, rmse, iterations, codes, behind


_DIAGONAL = np.arange(6)
# The gufunc np.linalg.solve wraps, without its checks: under
# np.errstate(all="ignore") a singular system gives a NaN solution, not a
# LinAlgError.  Takes systems (..., 6, 6) and right-hand sides (..., 6).
_linear_solve = _umath_linalg.solve1


def _solve_stack(model, image, intrinsics) -> tuple:
    """solve_pnp's loop run on B stacked problems: models (B, N, 3) and images (B, N, 2).

    Each round makes one damping attempt per unfinished problem.  Between
    rounds a problem keeps only its iterate (with that iterate's rotation,
    residuals and cost), its damping and its iteration count, and each
    round builds its Jacobian and normal equations from them.  A rejected
    step leaves the iterate where it was, so the next round rebuilds the
    same normal equations and solves them with the raised damping; an
    accepted step ends one of its iterations.  The stopping tests are
    solve_pnp's, with the same operations.  The last unfinished problem
    goes on in solve_pnp's own loop from its iterate, damping and
    iteration count: a round for one problem costs two to two and a half
    times a scalar attempt, and the longest solves (up to MAX_ITERATIONS)
    would otherwise end alone in the stack, so the run time would follow
    how many of them a batch holds.

    Returns the best iterates x (B, 6), their costs, iterations and
    termination codes, and the rows whose start is behind the camera.
    """
    count, n_points = model.shape[:2]
    x = _start_params(model)
    iterations_out = np.zeros(count, dtype=int)
    codes = np.full(count, TERMINATIONS.index("residual"))
    # Both branches of the Rodrigues series are evaluated, and a trial step
    # may be non-finite or put points behind the camera; such values are
    # never used, so their floating-point warnings are suppressed.
    with np.errstate(all="ignore"):
        residual, depth, rot = _stack_residuals(model, image, x, intrinsics)
        cost = _row_dots(residual)
        behind = np.any(depth <= MIN_DEPTH, axis=1)
        done = behind | (np.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE)
        x_out, cost_out = x.copy(), cost.copy()  # final for the rows done at the start

        keep = ~done
        live = np.flatnonzero(keep)  # stack positions still iterating
        state = [live, *(a[keep] for a in (x, rot, residual, cost, model, image)),
                 np.full(len(live), INITIAL_DAMPING), np.zeros(len(live), dtype=int)]
        while len(state[0]):
            # Each round updates these arrays in place; finished rows are dropped.
            live, x, rot, residual, cost, model, image, lam, iterations = state
            if len(live) == 1:
                j = live[0]
                x_out[j], cost_out[j], iterations_out[j], termination = _iterate(
                    model[0], image[0], intrinsics, x[0],
                    _evaluate(model[0], image[0], x[0], intrinsics),
                    float(lam[0]), int(iterations[0]))
                codes[j] = TERMINATIONS.index(termination)
                break
            jac = _stack_jacobian(model, x, rot, intrinsics)
            jac_t = jac.transpose(0, 2, 1)
            systems = jac_t @ jac
            gradient = (jac_t @ residual[:, :, None])[..., 0]
            damping = np.maximum(systems[:, _DIAGONAL, _DIAGONAL], DIAG_FLOOR)
            step_limit = STEP_TOLERANCE * (np.sqrt(_row_dots(x)) + STEP_TOLERANCE)
            systems[:, _DIAGONAL, _DIAGONAL] += lam[:, None] * damping
            step = _linear_solve(systems, -gradient)
            trial_x = x + step
            trial_residual, depth, trial_rot = _stack_residuals(model, image, trial_x, intrinsics)
            trial_cost = _row_dots(trial_residual)
            finite = np.all(np.isfinite(step), axis=1)
            short = finite & (np.sqrt(_row_dots(step)) <= step_limit)
            accepted = finite & ~np.any(depth <= MIN_DEPTH, axis=1) & (trial_cost < cost)
            slow = accepted & (cost - trial_cost <= COST_TOLERANCE * cost)
            x[accepted] = trial_x[accepted]
            rot[accepted] = trial_rot[accepted]
            residual[accepted] = trial_residual[accepted]
            cost[accepted] = trial_cost[accepted]
            tiny = accepted & (np.sqrt(cost / n_points) <= RESIDUAL_TOLERANCE)
            lam[:] = np.where(accepted, np.maximum(lam * DAMPING_DOWN, MIN_DAMPING),
                              lam * DAMPING_UP)
            exhausted = ~accepted & (lam > MAX_DAMPING)
            iterations += accepted | short | exhausted
            finished = short | slow | tiny | exhausted | (iterations >= MAX_ITERATIONS)
            if finished.any():
                ended = live[finished]
                x_out[ended], cost_out[ended] = x[finished], cost[finished]
                iterations_out[ended] = iterations[finished]
                for j in np.flatnonzero(finished):
                    termination = _termination(short[j], slow[j], tiny[j], exhausted[j])
                    codes[live[j]] = TERMINATIONS.index(termination or "max_iterations")
                state = [a[~finished] for a in state]
    return x_out, cost_out, iterations_out, codes, behind


def _row_dots(a) -> np.ndarray:
    """a[i] @ a[i] for every row of a (B, K) array, with the dot product solve_pnp uses."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


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
    return _IDENTITY + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _right_jacobian_stack(rvecs) -> np.ndarray:
    """_right_jacobian of every row of a (B, 3) array."""
    theta = np.sqrt(_row_dots(rvecs))
    small = theta < 1e-4
    a = np.where(small, 0.5 * (1.0 - theta * theta / 12.0), (1.0 - np.cos(theta)) / (theta * theta))
    # Python's float power, as in _right_jacobian: NumPy's can differ in the last bit.
    cube = np.array([t ** 3 for t in theta.tolist()])
    b = np.where(small, (1.0 - theta * theta / 20.0) / 6.0, (theta - np.sin(theta)) / cube)
    k = _skew_stack(rvecs)
    return _IDENTITY - a[:, None, None] * k + b[:, None, None] * (k @ k)


def _stack_residuals(model, image, x, intrinsics):
    """Residuals (B, 2N), camera depths (B, N) and rotations (B, 3, 3) of
    stacked problems at parameters x (B, 6)."""
    rot = _rodrigues_stack(x[:, :3])
    cam = model @ rot.transpose(0, 2, 1) + x[:, None, 3:]
    return (_pinhole(cam, intrinsics) - image).reshape(len(x), -1), cam[..., 2], rot


def _stack_jacobian(model, x, rot, intrinsics) -> np.ndarray:
    """_jacobian_analytic of stacked problems: (B, 2N, 6) at parameters x (B, 6)
    with rotations rot (B, 3, 3)."""
    q = model @ rot.transpose(0, 2, 1)
    return _pinhole_jacobian(q, q + x[:, None, 3:], rot @ _right_jacobian_stack(x[:, :3]),
                             intrinsics)
