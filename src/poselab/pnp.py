"""Pose-from-correspondences solver.

Recovers the rigid transform that maps known 3D points onto observed 2D
pixels by damped nonlinear least squares on the reprojection error.  The
optimization state is 6 numbers: an axis-angle rotation vector and a
translation vector.  Damping follows the classic Marquardt schedule
(scale the normal-equation diagonal, x10 on a rejected step, x0.1 on an
accepted one), so accepted steps never increase the squared residual.
Every solve uses the analytic Jacobian.

A solve stops for the first of these reasons, in this order (that of
TERMINATIONS), recorded in PnPSolution.termination:

- "step": a computed step, accepted or rejected, is short relative to
  the iterate, |h| <= STEP_TOLERANCE * (|x| + STEP_TOLERANCE);
- "damping_exhausted": the damping grew past MAX_DAMPING without a step
  that lowered the cost;
- "max_iterations": MAX_ITERATIONS iterations ran.

The step test, that of Madsen, Nielsen & Tingleff, Methods for
Non-Linear Least Squares Problems (2004), is the only convergence
(PnPSolution.converged).  A damping climb leaves the iterate where it is
while its steps shrink, so at the noise floor the step test ends the
climb after a rejection or two; a start that fits exactly ends on its
first step, which is zero.

The step test sets the precision of a result.  |x| is about 3.4 (the
translation is in face-model units), so with STEP_TOLERANCE 1e-8 a solve
stops once its step is below about 2e-6 degrees of rotation.  Noiseless
solves converge quadratically and still end within about 1e-11 degrees
of the true pose.  Noisy ones converge linearly and end within about
1e-5 degrees of the fully refined least-squares minimum (a solve at
STEP_TOLERANCE 1e-13): over every converged solve of the five PnP
studies at acceptance scale (17,928 of 18,000, seed 0) at most 1.3e-5
degrees, at the 99th percentile 1.1e-6.  A study row, a mean over
trials, moves by about 1e-7 degrees against STEP_TOLERANCE 1e-10: in the
CSV's full-precision floats, far below the four decimals a study command
prints.

There is no gradient test: an absolute gradient bound large enough to
fire before the step test (1e-8 or more) also stops noiseless solves
early (measured at STEP_TOLERANCE 1e-10, it raised their mean pose error
from about 5e-14 degrees to 6e-13 at 1e-8 and 2e-10 at 1e-6).  The
iteration cap, the damping schedule and the step tolerance are module
constants.

solve_pnp_batch runs the same iteration on many problems at once, up to
BATCH_POINTS points per stack.  Once at most HANDOFF problems of a stack
are unfinished, each goes on in the scalar loop: a stacked round costs
mostly its fixed number of NumPy calls, not its rows, so a few long solves
would otherwise pay a whole round per damping attempt.  Under it,
_solve_arrays is the array path the PnP studies call directly:
(model, images, intrinsics) groups in, arrays out, with no PnPProblem or
PnPSolution per problem; its caller checks the problems, the studies each
block's image points with _check_images, the check PnPProblem makes of
one problem's.  Both loops carry each accepted trial's whole residual
evaluation with its iterate: the residuals, the cost and the
_rigid_parts, that is the rotation and its left Jacobian, the rotated
points model @ R^T and the camera points.  _evaluate makes it for the
scalar loop (_iterate, under solve_pnp) and _stack_evaluate for every row
of the stacked loop, so Rodrigues runs once per residual evaluation and
never for a Jacobian, and _jacobian builds both loops' Jacobians from
these parts.  Rodrigues builds the rotation and its left Jacobian from
[r]x and [r]x^2 = r r^T - |r|^2 I: rotmath._rodrigues entry by entry in
Python floats, rotmath._rodrigues_stack on arrays, each entry with the
same operations in the same order, so the two loops stay bitwise equal.
Both give NaN where |r|^2 overflows.

Both loops return one kind of result per problem: the best iterate, the
rotation its evaluation built, its cost, the iterations run and the
termination code, the index into TERMINATIONS of the first test that
holds; each runs at least one iteration.  _solution
makes every PnPSolution from such a result, reading the Euler angles off
the rotation, so no Rodrigues runs after a loop.  Both loops solve the
damped normal equations with the LAPACK gufunc under np.linalg.solve,
with floating-point errors ignored, and accept a trial by one rule: its
step is finite (a singular system gives a NaN step), no camera depth is
<= MIN_DEPTH, and its cost is lower.  An overflowing rotation gives a NaN
cost, which is never lower.  A start with a depth <= MIN_DEPTH is not
solved: solve_pnp raises BehindCameraError, _solve_stack marks the row.
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
    project,
)
from .rotmath import (
    EulerAngles,
    _euler_from_rotation,
    _rodrigues,
    _rodrigues_stack,
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
# The convergence test: a step short relative to the iterate (see the
# module docstring).
STEP_TOLERANCE = 1e-8
# Reasons a solve stops, in the order both loops check them; the first
# means it converged.  A termination code is an index into this.
TERMINATIONS = ("step", "damping_exhausted", "max_iterations")
CONVERGED = frozenset(TERMINATIONS[:1])
# Most points solve_pnp_batch stacks into one loop; larger groups are
# split.  The stacked Jacobians and their temporaries grow with it, so it
# bounds the solver's memory (97 problems of 68 points per stack).
BATCH_POINTS = 6600
# Once a stack has at most this many unfinished problems, each goes on in
# solve_pnp's own loop (see _solve_stack).
HANDOFF = 3


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
        if not isinstance(self.intrinsics, CameraIntrinsics):
            raise ValueError(f"intrinsics must be a CameraIntrinsics, got {self.intrinsics!r}")
        mp = np.asarray(self.model_points, dtype=float)
        ip = np.asarray(self.image_points, dtype=float)
        if mp.ndim != 2 or mp.shape[1] != 3:
            raise ValueError(f"model_points must be (N, 3), got {mp.shape}")
        _check_images(ip[None], len(mp))
        if not np.isfinite(mp).all():
            raise ValueError(_NON_FINITE)
        # The gufunc np.linalg.svd(..., compute_uv=False) wraps, on finite points.
        singulars = _umath_linalg.svd(mp - mp.mean(axis=0))
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
    if not np.isfinite(images).all():
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
    d = model - model.mean(axis=1, keepdims=True)
    radius = np.sqrt(np.add.reduce(d * d, axis=2)).max(axis=1)
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


def _euler_rows(rotations) -> np.ndarray:
    """(B, 3) yaw, pitch and roll in degrees of rotations (B, 3, 3): the
    angles rotation_to_euler gives, without its rotation check."""
    angles = [_euler_from_rotation(rot) for rot in rotations]
    return np.array(angles, dtype=float).reshape(-1, 3)


def _rigid_parts(model, x, rodrigues):
    """What the residuals and the Jacobian at parameters x (6,) or (B, 6)
    share: the tuple (R, J, q, cam).  rodrigues gives the first two,
    Rodrigues' matrix R of r = x[..., :3] and its left Jacobian J;
    q = model @ R^T are the rotated points and cam = q + x[..., 3:] the
    camera points."""
    q = model @ rodrigues[0].swapaxes(-1, -2)
    return (*rodrigues, q, q + x[..., None, 3:])


def _evaluate(model, image, x, intrinsics):
    """The scalar loop's residual evaluation: the residual vector (2N,) at
    parameters x, its cost, and the _rigid_parts the Jacobian at x takes.

    Nothing is rejected here, as in _stack_evaluate: the depths are
    cam[:, 2], the last part, and a rotation vector whose square overflows
    gives NaN parts and a NaN cost.
    """
    parts = _rigid_parts(model, x, _rodrigues(x[:3]))
    residual = (_pinhole(parts[-1], intrinsics) - image).ravel()
    return residual, float(residual @ residual), parts


def _jacobian(parts, intrinsics) -> np.ndarray:
    """The residual Jacobians (..., 2N, 6) at the parameters whose _rigid_parts
    are parts, for any leading shape: (2N, 6) from _evaluate's, (B, 2N, 6)
    from _stack_evaluate's.

    With P the pinhole derivative d(pixel)/d(camera point), a (2, 3) block
    per point, the derivative by the translation is P, and by the rotation
    vector it is -P [q]x J, J the left Jacobian: the (..., N, 2, 3) blocks
    lever = -P [q]x times J, one (2N, 3) @ (3, 3) product per problem.
    """
    _, left, q, cam = parts
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
    np.matmul(lever.reshape(rows + (3,)), left, out=full.reshape(rows + (6,))[..., :3])
    return full.reshape(rows + (6,))


def _jacobian_numeric(problem: PnPProblem, x: np.ndarray) -> np.ndarray:
    def residuals(at):
        return _evaluate(problem.model_points, problem.image_points, at, problem.intrinsics)[0]

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
        parts = _rigid_parts(problem.model_points, x, _rodrigues(x[:3]))
        return _jacobian(parts, problem.intrinsics)
    if mode == "numeric":
        return _jacobian_numeric(problem, x)
    raise ValueError(f"unknown jacobian mode {mode!r}")


def solve_pnp(problem: PnPProblem, init: Pose | None = None) -> PnPSolution:
    """Minimize the squared reprojection error from init (or default_init's pose).

    Returns the best iterate found and the stopping test that ended the
    solve (see the module docstring); converged is True for step alone.
    """
    model, image, intrinsics = problem.model_points, problem.image_points, problem.intrinsics
    x = _start_params(model[None])[0] if init is None else _params_from_pose(init)
    # As in _solve_stack: a cost that overflows to inf is compared, not
    # used, so the floating-point warnings on the way are suppressed; the
    # start is behind the camera by _solve_stack's test, on its own depths.
    with np.errstate(all="ignore"):
        evaluation = _evaluate(model, image, x, intrinsics)
        depths = evaluation[2][-1][:, 2]
        if (depths <= MIN_DEPTH).any():
            raise _behind_camera(depths)
        x, rot, cost, iterations, code = _iterate(model, image, intrinsics, x, evaluation,
                                                  INITIAL_DAMPING, 0)
    return _solution(x, rot, math.sqrt(cost / len(model)), iterations, code)


def _behind_start(model, x) -> BehindCameraError:
    """The error solve_pnp raises for a start x that puts a point of model on
    or behind the camera: the depths of its start evaluation."""
    return _behind_camera(_rigid_parts(model, x, _rodrigues(x[:3]))[-1][:, 2])


def _iterate(model, image, intrinsics, x, evaluation, lam: float, iterations: int) -> tuple:
    """solve_pnp's iterations on one problem, model (N, 3) and image (N, 2)
    points, from parameters x with their _evaluate result, damping lam and
    the iterations already run (fewer than MAX_ITERATIONS), until a
    stopping test ends them; every call runs at least one iteration.

    Only a finite step is evaluated, and its trial is accepted by
    _solve_stack's rule: no camera depth <= MIN_DEPTH and a lower cost.
    Each accepted trial's evaluation rides with the iterate, so its
    Jacobian takes the rotation, the rotated and the camera points that
    trial built.  Returns what a _solve_stack row holds: the best iterate
    x, its rotation, its cost, the iterations run and the termination
    code: the index into TERMINATIONS of the first true test in stops.
    """
    residual, cost, parts = evaluation
    while True:
        jac = _jacobian(parts, intrinsics)
        normal = jac.T @ jac
        descent = -(jac.T @ residual)
        damping = np.maximum(normal.diagonal(), DIAG_FLOOR)
        step_limit = STEP_TOLERANCE * (math.sqrt(float(x @ x)) + STEP_TOLERANCE)
        short = exhausted = False
        while not (short or exhausted):
            system = normal.copy()
            system.reshape(36)[::7] += lam * damping
            step = _linear_solve(system, descent)
            # A finite |h|^2 means a finite step; only an inf or NaN one,
            # which a finite step can overflow to, needs the entrywise test.
            # A singular system gives a NaN step.
            length2 = float(step @ step)
            if math.isfinite(length2) or np.isfinite(step).all():
                short = math.sqrt(length2) <= step_limit
                trial_x = x + step
                trial = _evaluate(model, image, trial_x, intrinsics)
                if not (trial[2][-1][:, 2] <= MIN_DEPTH).any() and trial[1] < cost:
                    x = trial_x
                    residual, cost, parts = trial
                    lam = max(lam * DAMPING_DOWN, MIN_DAMPING)
                    break
            lam *= DAMPING_UP
            exhausted = lam > MAX_DAMPING
        iterations += 1
        # The stopping tests in TERMINATIONS order.
        stops = (short, exhausted, iterations >= MAX_ITERATIONS)
        if any(stops):
            return x, parts[0], cost, iterations, stops.index(True)


def _solution(x, rot, rmse, iterations, code) -> PnPSolution:
    """The PnPSolution of a loop's result: the best iterate x (6,) with its
    rotation rot, RMS error, iterations and termination code."""
    return PnPSolution(Pose(rotation_to_euler(rot), x[3:].copy()), float(rmse),
                       int(iterations), TERMINATIONS[code])


def solve_pnp_batch(problems) -> list:
    """Solve every problem from its default_init pose; one result per problem, in input order.

    Each result is bitwise the PnPSolution that solve_pnp(problem)
    returns: the iteration, damping schedule, acceptance test and stopping
    rules are solve_pnp's from its default start, with the same operations,
    applied per problem.
    Problems with the same point count and intrinsics are stacked and
    iterated together, at most BATCH_POINTS points per stack.  A problem
    whose starting pose puts a point on or behind the camera gets, in its
    place, the BehindCameraError that solve_pnp would raise.  A result
    depends only on its own problem, not on the others passed with it.
    """
    problems = list(problems)
    x, rot, rmse, iterations, codes, behind = _solve_arrays(
        [(p.model_points, p.image_points[None], p.intrinsics) for p in problems])
    return [_behind_start(p.model_points, x[k]) if behind[k]
            else _solution(x[k], rot[k], rmse[k], iterations[k], codes[k])
            for k, p in enumerate(problems)]


def _solve_arrays(groups) -> tuple:
    """solve_pnp_batch on arrays: every problem of every group, solved from its default start.

    groups is a sequence of (model, images, intrinsics) triples: images
    (B, N, 2) and the model points (B, N, 3) of each problem, or (N, 3)
    shared by the group, all imaged by intrinsics.  The caller checks them
    as PnPProblem would.  The problems of all groups with the same point
    count and intrinsics are stacked in group order, at most BATCH_POINTS
    points per stack.  Returns arrays with one row per problem in group
    order: _solve_stack's results with RMS reprojection errors in place of
    the costs, that is the best iterates x (P, 6), their rotations
    (P, 3, 3), RMS errors, iteration counts and termination codes, and
    behind, True where the start puts a point on or behind the camera (x is
    then that start, and the rest means nothing).
    """
    offsets = np.cumsum([0, *(len(images) for _, images, _ in groups)])
    total = int(offsets[-1])
    x, rot, rmse = np.empty((total, 6)), np.empty((total, 3, 3)), np.empty(total)
    iterations, codes = np.empty(total, dtype=int), np.empty(total, dtype=int)
    behind = np.empty(total, dtype=bool)
    pools = {}
    for g, (_, images, intrinsics) in enumerate(groups):
        pools.setdefault((images.shape[1], intrinsics), []).append(g)
    for (n_points, intrinsics), members in pools.items():
        rows = np.concatenate([np.arange(offsets[g], offsets[g + 1]) for g in members])
        model = np.concatenate([np.broadcast_to(groups[g][0], groups[g][1].shape[:2] + (3,))
                                for g in members])
        image = np.concatenate([groups[g][1] for g in members])
        size = max(1, BATCH_POINTS // n_points)
        for start in range(0, len(rows), size):
            chunk, stack = rows[start:start + size], slice(start, start + size)
            x[chunk], rot[chunk], cost, iterations[chunk], codes[chunk], behind[chunk] = (
                _solve_stack(model[stack], image[stack], intrinsics))
            rmse[chunk] = np.sqrt(cost / n_points)
    return x, rot, rmse, iterations, codes, behind


# The gufunc np.linalg.solve wraps, without its checks: under
# np.errstate(all="ignore") a singular system gives a NaN solution, not a
# LinAlgError.  Takes systems (..., 6, 6) and right-hand sides (..., 6).
_linear_solve = _umath_linalg.solve1


def _solve_stack(model, image, intrinsics) -> tuple:
    """solve_pnp's loop run on B stacked problems: models (B, N, 3) and images (B, N, 2).

    Each round makes one damping attempt per unfinished problem.  Between
    rounds a problem keeps its iterate with that iterate's _stack_evaluate row
    (residuals, cost and rigid parts), its damping and its iteration count,
    and each round builds its Jacobian and normal equations from them.  A
    rejected step leaves the iterate where it was, so the next round rebuilds
    the same normal equations and solves them with the raised damping; an
    accepted step ends one of its iterations.  A trial is accepted where its
    step is finite, no camera depth is <= MIN_DEPTH and its cost is lower.
    The trial rule and the stopping tests are solve_pnp's, with the same
    operations, and a row's code is the index of its first true test.
    Once at most HANDOFF problems are unfinished, each goes on in
    solve_pnp's own loop from its iterate, its evaluation, its damping and
    iteration count.  A round costs mostly
    its fixed number of NumPy calls, not its rows: a round for two problems
    costs two and a half to three times a scalar attempt.  The longest
    solves (up to MAX_ITERATIONS) would otherwise end in a nearly empty
    stack, one round per attempt, so the run time would follow how many of
    them a batch holds rather than its work.

    Returns _iterate's result of every row as arrays, the best iterates
    x (B, 6) with the rotations (B, 3, 3) their evaluations built, their
    costs, iterations and termination codes, and the rows whose start is
    behind the camera.
    """
    count = len(model)
    x = _start_params(model)
    iterations_out, codes = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    # The general Rodrigues branch is evaluated for every row, and a trial
    # step may be non-finite or put points behind the camera; such values
    # are never used, so their floating-point warnings are suppressed.
    with np.errstate(all="ignore"):
        residual, cost, parts = _stack_evaluate(model, image, x, intrinsics)
        behind = (parts[-1][..., 2] <= MIN_DEPTH).any(axis=1)
        # Final for the rows behind the camera, which are not solved.
        x_out, rot_out, cost_out = x.copy(), parts[0].copy(), cost.copy()

        keep = ~behind
        live = np.flatnonzero(keep)  # stack positions still iterating
        state = [live, *(a[keep] for a in (x, residual, cost, *parts, model, image)),
                 np.full(len(live), INITIAL_DAMPING), np.zeros(len(live), dtype=int)]
        while len(state[0]):
            # Each round updates these arrays in place; finished rows are dropped.
            live, *carried, model, image, lam, iterations = state
            x, residual, cost, *parts = carried
            if len(live) <= HANDOFF:
                for i, j in enumerate(live):
                    # The cost goes as a Python float, as _evaluate gives it,
                    # so _iterate's scalar arithmetic runs on the same type.
                    x_out[j], rot_out[j], cost_out[j], iterations_out[j], codes[j] = _iterate(
                        model[i], image[i], intrinsics, x[i],
                        (residual[i], float(cost[i]), tuple(a[i] for a in parts)),
                        float(lam[i]), int(iterations[i]))
                break
            jac = _jacobian(parts, intrinsics)
            jac_t = jac.transpose(0, 2, 1)
            systems = jac_t @ jac
            gradient = (jac_t @ residual[:, :, None])[..., 0]
            diagonal = systems.reshape(len(live), 36)[:, ::7]
            damping = np.maximum(diagonal, DIAG_FLOOR)
            step_limit = STEP_TOLERANCE * (np.sqrt(_row_dots(x)) + STEP_TOLERANCE)
            diagonal += lam[:, None] * damping
            step = _linear_solve(systems, -gradient)
            trial_x = x + step
            trial_residual, trial_cost, trial_parts = _stack_evaluate(
                model, image, trial_x, intrinsics)
            finite = np.isfinite(step).all(axis=1)
            short = finite & (np.sqrt(_row_dots(step)) <= step_limit)
            accepted = (finite & ~(trial_parts[-1][..., 2] <= MIN_DEPTH).any(axis=1)
                        & (trial_cost < cost))
            for kept, trial in zip(carried, (trial_x, trial_residual, trial_cost, *trial_parts)):
                np.copyto(kept, trial, where=accepted.reshape(-1, *(1,) * (kept.ndim - 1)))
            lam[:] = np.where(accepted, np.maximum(lam * DAMPING_DOWN, MIN_DAMPING),
                              lam * DAMPING_UP)
            exhausted = ~accepted & (lam > MAX_DAMPING)
            iterations += accepted | short | exhausted
            capped = iterations >= MAX_ITERATIONS
            finished = short | exhausted | capped
            if finished.any():
                ended = live[finished]
                x_out[ended], rot_out[ended], cost_out[ended] = (
                    x[finished], parts[0][finished], cost[finished])
                iterations_out[ended] = iterations[finished]
                codes[ended] = np.select((short, exhausted, capped), range(3))[finished]
                state = [a[~finished] for a in state]
    return x_out, rot_out, cost_out, iterations_out, codes, behind


def _row_dots(a) -> np.ndarray:
    """a[i] @ a[i] for every row of a (B, K) array, with the dot product solve_pnp uses."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def _stack_evaluate(model, image, x, intrinsics):
    """_evaluate of stacked problems at parameters x (B, 6): residuals (B, 2N),
    costs (B,) and the stacked _rigid_parts.  No row is rejected: the depths
    are cam[..., 2], the last part."""
    parts = _rigid_parts(model, x, _rodrigues_stack(x[:, :3]))
    residual = (_pinhole(parts[-1], intrinsics) - image).reshape(len(x), -1)
    return residual, _row_dots(residual), parts
