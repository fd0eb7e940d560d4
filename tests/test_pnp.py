import math

import numpy as np
import pytest

from poselab import harness, pnp
from poselab.camera import (
    MIN_DEPTH,
    BehindCameraError,
    CameraIntrinsics,
    Pose,
    default_intrinsics,
    project,
)
from poselab.facemodel import builtin_mean_face, deform_subject, stretch_model, subset_by_name
from poselab.pnp import (
    DegenerateProblemError,
    PnPProblem,
    PnPSolution,
    default_init,
    jacobian,
    reprojection_residuals,
    solve_pnp,
    solve_pnp_batch,
)
from poselab.harness import StudyConfig, run_jitter_study
from poselab.rotmath import EulerAngles, angle_error, axis_angle_to_rotation

K = default_intrinsics(450, 450)


def make_problem(angles, translation, rows=None):
    pts = builtin_mean_face().points
    if rows is not None:
        pts = pts[rows]
    pose = Pose(EulerAngles(*angles), np.asarray(translation, dtype=float))
    uv = project(pts, pose, K)
    return PnPProblem(pts, uv, K), pose


class TestPnPProblem:
    def test_validation(self):
        pts = np.zeros((4, 3))
        uv = np.zeros((4, 2))
        with pytest.raises(ValueError, match="need at least 4 correspondences, got 3"):
            PnPProblem(pts[:3], uv[:3], K)  # too few points
        with pytest.raises(ValueError, match="4 model points vs 3 image points"):
            PnPProblem(pts, uv[:3], K)  # mismatched lengths
        with pytest.raises(ValueError, match=r"model_points must be \(N, 3\)"):
            PnPProblem(pts[:, :2], uv, K)  # wrong width
        with pytest.raises(ValueError, match=r"image_points must be \(N, 2\), got \(4, 3\)"):
            PnPProblem(pts, np.zeros((4, 3)), K)  # wrong image width
        bad = pts.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="correspondences contain non-finite values"):
            PnPProblem(bad, uv, K)
        bad = uv.copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match="correspondences contain non-finite values"):
            PnPProblem(pts, bad, K)

    @pytest.mark.parametrize("intrinsics", [None, (450.0, 450.0, 225.0, 225.0)])
    def test_rejects_intrinsics_that_are_not_camera_intrinsics(self, intrinsics):
        problem, _ = make_problem((10.0, 5.0, 0.0), (0.0, 0.0, 4.0))
        with pytest.raises(ValueError, match="^intrinsics must be a CameraIntrinsics, got "):
            PnPProblem(problem.model_points, problem.image_points, intrinsics)

    def test_validation_of_stacked_images(self):
        # The checks PnPProblem makes of one problem's image points, made on
        # the (B, N, 2) stack of a study block, with the same messages.
        uv = np.zeros((3, 4, 2))
        bad = uv.copy()
        bad[1, 2, 0] = np.inf
        for images, n_points, message in (
                (uv[:, :3], 3, "need at least 4 correspondences, got 3"),
                (uv, 5, "5 model points vs 4 image points"),
                (np.zeros((3, 4, 3)), 4, r"image_points must be \(N, 2\), got \(4, 3\)"),
                (bad, 4, "correspondences contain non-finite values")):
            with pytest.raises(ValueError, match=message):
                pnp._check_images(images, n_points)
        assert np.array_equal(pnp._check_images(list(uv), 4), uv)

    def test_collinear_points_rejected(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        uv = np.zeros((4, 2))
        with pytest.raises(DegenerateProblemError):
            PnPProblem(pts, uv, K)

    def test_planar_points_accepted(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        uv = np.array([[225.0, 225], [300, 225], [225, 300], [300, 300]])
        PnPProblem(pts, uv, K)


class TestResidualsAndJacobian:
    def test_residuals_zero_at_truth(self):
        problem, pose = make_problem((15.0, -10.0, 5.0), (0.1, -0.2, 5.0))
        r = reprojection_residuals(problem, pose)
        assert r.shape == (2 * len(problem.model_points),)
        assert np.max(np.abs(r)) < 1e-9

    def test_residual_ordering_u_then_v(self):
        problem, pose = make_problem((0.0, 0.0, 0.0), (0.0, 0.0, 5.0))
        shifted = Pose(pose.rotation, pose.translation + np.array([0.01, 0.0, 0.0]))
        r = reprojection_residuals(problem, shifted)
        # pure x shift perturbs only the u components (even indices)
        assert np.all(np.abs(r[0::2]) > 0)
        assert np.max(np.abs(r[1::2])) < 1e-12

    def test_analytic_matches_numeric(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            angles = rng.uniform(-60, 60, size=3)
            t = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(3.0, 8.0)])
            problem, _ = make_problem(angles, t)
            probe = Pose(
                EulerAngles(*(angles + rng.uniform(-5, 5, size=3))),
                t + rng.uniform(-0.1, 0.1, size=3),
            )
            ja = jacobian(problem, probe, mode="analytic")
            jn = jacobian(problem, probe, mode="numeric")
            assert ja.shape == (2 * 68, 6)
            scale = np.maximum(np.abs(jn), 1.0)
            assert np.max(np.abs(ja - jn) / scale) < 1e-5

    def test_unknown_mode_rejected(self):
        problem, pose = make_problem((0.0, 0.0, 0.0), (0.0, 0.0, 5.0))
        with pytest.raises(ValueError):
            jacobian(problem, pose, mode="exact")


class TestDefaultInit:
    def test_faces_camera_at_scaled_distance(self):
        problem, _ = make_problem((10.0, 5.0, -3.0), (0.0, 0.0, 5.0))
        init = default_init(problem)
        assert init.rotation == EulerAngles(0.0, 0.0, 0.0)
        radius = np.max(np.linalg.norm(problem.model_points - problem.model_points.mean(axis=0), axis=1))
        assert init.translation[2] == pytest.approx(2.0 * radius / math.tan(math.radians(25.0)))


class TestSolvePnP:
    def test_recovers_exact_pose_full_model(self):
        problem, truth = make_problem((20.0, -15.0, 8.0), (0.05, -0.1, 5.0))
        sol = solve_pnp(problem)
        assert sol.converged
        assert sol.rmse < 1e-9
        for got, want in zip(sol.pose.rotation.as_array(), truth.rotation.as_array()):
            assert angle_error(got, want) < 1e-6
        assert np.allclose(sol.pose.translation, truth.translation, atol=1e-8)

    def test_recovers_exact_pose_six_points(self):
        rows = subset_by_name("rigid-6").rows()
        problem, truth = make_problem((35.0, 20.0, -12.0), (-0.1, 0.15, 4.0), rows=rows)
        sol = solve_pnp(problem)
        assert sol.converged
        for got, want in zip(sol.pose.rotation.as_array(), truth.rotation.as_array()):
            assert angle_error(got, want) < 1e-6

    def test_start_at_optimum_converges_immediately(self):
        problem, truth = make_problem((10.0, -5.0, 3.0), (0.0, 0.0, 5.0))
        sol = solve_pnp(problem, init=truth)
        assert sol.converged
        assert sol.iterations <= 2
        assert sol.rmse <= 1e-12

    def test_init_behind_camera_names_point(self):
        # LM residuals share project's depth rule and message; at depth 0.2
        # only the nose tip (row 30, model z -0.24) is behind the camera.
        problem, _ = make_problem((10.0, -5.0, 3.0), (0.0, 0.0, 5.0))
        init = Pose(EulerAngles(0.0, 0.0, 0.0), np.array([0.0, 0.0, 0.2]))
        with pytest.raises(BehindCameraError, match=r"^point 30 has camera depth -0\.0394"):
            solve_pnp(problem, init=init)

    def test_init_robustness(self):
        problem, truth = make_problem((40.0, -30.0, 20.0), (0.2, -0.2, 6.0))
        from_default = solve_pnp(problem)
        from_truth = solve_pnp(problem, init=truth)
        for a, b in zip(
            from_default.pose.rotation.as_array(), from_truth.pose.rotation.as_array()
        ):
            assert angle_error(a, b) < 1e-6

    def test_rmse_matches_residuals(self):
        problem, _ = make_problem((15.0, 5.0, 0.0), (0.0, 0.0, 5.0))
        rng = np.random.default_rng(3)
        noisy = PnPProblem(
            problem.model_points,
            problem.image_points + rng.uniform(-2.0, 2.0, problem.image_points.shape),
            K,
        )
        sol = solve_pnp(noisy)
        r = reprojection_residuals(noisy, sol.pose)
        n = len(noisy.model_points)
        assert sol.rmse == pytest.approx(math.sqrt(float(r @ r) / n), rel=1e-9)
        assert sol.rmse > 1e-3

    def test_cost_nonincreasing_in_iteration_budget(self, monkeypatch):
        problem, _ = make_problem((30.0, -20.0, 10.0), (0.1, 0.1, 5.0))
        rng = np.random.default_rng(11)
        noisy = PnPProblem(
            problem.model_points,
            problem.image_points + rng.uniform(-3.0, 3.0, problem.image_points.shape),
            K,
        )
        prev = math.inf
        for k in range(1, 16):
            monkeypatch.setattr(pnp, "MAX_ITERATIONS", k)
            sol = solve_pnp(noisy)
            assert sol.rmse <= prev * (1.0 + 1e-12)
            prev = sol.rmse

    def test_deterministic(self):
        problem, _ = make_problem((22.0, 17.0, -9.0), (0.0, 0.0, 5.5))
        a = solve_pnp(problem)
        b = solve_pnp(problem)
        assert a.pose.rotation == b.pose.rotation
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert a.rmse == b.rmse and a.iterations == b.iterations

    def test_iteration_cap_reported(self, monkeypatch):
        problem, _ = make_problem((30.0, -20.0, 10.0), (0.0, 0.0, 5.0))
        rng = np.random.default_rng(5)
        noisy = PnPProblem(
            problem.model_points,
            problem.image_points + rng.uniform(-5.0, 5.0, problem.image_points.shape),
            K,
        )
        monkeypatch.setattr(pnp, "MAX_ITERATIONS", 1)
        sol = solve_pnp(noisy)
        assert sol.iterations <= 1
        assert not sol.converged
        assert sol.termination == "max_iterations"

    def test_restart_at_noise_floor_stops_on_step(self):
        # From its own solution a noisy problem has no step that lowers the
        # cost by more than rounding: the first step, accepted or rejected,
        # is short, so one iteration ends the solve where it started.
        problem, _ = make_problem((25.0, -10.0, 5.0), (0.05, 0.0, 5.0))
        rng = np.random.default_rng(9)
        noisy = PnPProblem(problem.model_points,
                           problem.image_points + rng.uniform(-5.0, 5.0, (68, 2)), K)
        first = solve_pnp(noisy)
        again = solve_pnp(noisy, init=first.pose)
        assert again.termination == "step"
        assert again.converged and again.iterations == 1
        assert again.rmse == pytest.approx(first.rmse, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cost_raises_no_warning(self):
        # Image points this far out overflow the squared residual: the start
        # cost is inf, every trial is rejected and damping runs out.
        model = builtin_mean_face().points
        solution = solve_pnp(PnPProblem(model, np.tile([1e200, 2e200], (68, 1)), K))
        assert solution.termination == "damping_exhausted"
        assert solution.rmse == math.inf and solution.iterations == 1

    def test_finite_step_whose_square_overflows_is_evaluated(self, monkeypatch):
        # |h|^2 of this finite step overflows to inf.  The step is still
        # finite, so its trial is evaluated (and, being far off, rejected)
        # rather than skipped as a non-finite step.
        problem, _ = make_problem((10.0, -5.0, 3.0), (0.0, 0.0, 5.0))
        step = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e200])
        solve, evaluate = pnp._linear_solve, pnp._evaluate
        pending, trials = [step], []

        def first_step_overflowing(system, rhs):
            return pending.pop() if pending else solve(system, rhs)

        def recording_evaluate(model, image, x, intrinsics):
            trials.append(x)
            return evaluate(model, image, x, intrinsics)

        monkeypatch.setattr(pnp, "_linear_solve", first_step_overflowing)
        monkeypatch.setattr(pnp, "_evaluate", recording_evaluate)
        solution = solve_pnp(problem)
        start = pnp._start_params(problem.model_points[None])[0]
        assert np.array_equal(trials[0], start)
        assert np.array_equal(trials[1], start + step)
        assert solution.converged and solution.rmse < 1e-9

    @pytest.mark.parametrize("jitter, precision_deg", [(0.0, 1e-10), (5.0, 1e-5), (10.0, 1e-5)])
    def test_step_test_stops_within_stated_precision(self, monkeypatch, jitter, precision_deg):
        # The precision the module docstring states for STEP_TOLERANCE: against
        # the same solves refined to a step test of 1e-13, noiseless angles
        # agree within 1e-10 degrees and noisy ones within 1e-5, and every
        # refined solve that converges converges at STEP_TOLERANCE too (one
        # rigid-6 scene at 10 px hits MAX_ITERATIONS at both).
        problems = criterion_scenes(60, seed=0, jitter=jitter)
        stopped = [solve_pnp(p) for p in problems]
        with monkeypatch.context() as patch:
            patch.setattr(pnp, "STEP_TOLERANCE", 1e-13)
            refined = [solve_pnp(p) for p in problems]
        for got, want in zip(stopped, refined, strict=True):
            assert got.converged or not want.converged
            for a, b in zip(got.pose.rotation.as_array(), want.pose.rotation.as_array()):
                assert angle_error(a, b) <= precision_deg

    def test_converged_only_within_stated_precision(self, monkeypatch):
        # Trial 57 of the subset study: the deformed subject's all-68
        # landmarks solved against the mean face converge slowly.  A solve
        # that reports converged must be within 1e-5 degrees of the same
        # solve refined to a step test of 1e-13 and run to its end.
        model = builtin_mean_face()
        config = StudyConfig(master_seed=57)
        rng, pose = next(harness._scenes(config, model, 1))
        subject = deform_subject(model, config.rigid_sigma, config.nonrigid_sigma,
                                 int(rng.integers(2 ** 63)))
        problem = PnPProblem(model.points, project(subject.points, pose, K), K)
        got = solve_pnp(problem)
        with monkeypatch.context() as patch:
            patch.setattr(pnp, "STEP_TOLERANCE", 1e-13)
            patch.setattr(pnp, "MAX_ITERATIONS", 2000)
            refined = solve_pnp(problem)
        assert refined.termination == "step"
        assert got.termination == "step" and got.converged
        assert max(angle_error(got.pose.rotation.as_array(),
                               refined.pose.rotation.as_array())) <= 1e-5

    def test_one_jacobian_per_iteration_on_the_evaluated_points(self, monkeypatch):
        # Each Jacobian takes the very left Jacobian, rotated and camera
        # points that the residual evaluation at its iterate built: no
        # Rodrigues and no model @ R.T of its own.
        evaluated, jacobian_parts = [], []
        evaluate, jacobian = pnp._evaluate, pnp._jacobian

        def recording_evaluate(*args):
            result = evaluate(*args)
            if result is not None:
                evaluated.append(result[2])
            return result

        def recording_jacobian(parts, intrinsics):
            jacobian_parts.append(parts)
            return jacobian(parts, intrinsics)

        monkeypatch.setattr(pnp, "_evaluate", recording_evaluate)
        monkeypatch.setattr(pnp, "_jacobian", recording_jacobian)
        for problem in criterion_scenes(10, seed=3, jitter=5.0):
            evaluated.clear()
            jacobian_parts.clear()
            solution = solve_pnp(problem)
            assert len(jacobian_parts) == solution.iterations > 0
            for got in jacobian_parts:
                assert any(all(g is e for g, e in zip(got, parts, strict=True))
                           for parts in evaluated)


class TestLinearSolve:
    """pnp._linear_solve, the LAPACK gufunc both LM loops solve through."""

    def test_equals_numpy_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            systems = rng.standard_normal((7, 6, 6)) + 6.0 * np.eye(6)
            rhs = rng.standard_normal((7, 6))
            assert np.array_equal(pnp._linear_solve(systems[0], rhs[0]),
                                  np.linalg.solve(systems[0], rhs[0]))
            assert np.array_equal(pnp._linear_solve(systems, rhs),
                                  np.linalg.solve(systems, rhs[..., None])[..., 0])

    @pytest.mark.filterwarnings("error")
    def test_singular_systems_give_nan_without_error_or_warning(self):
        rng = np.random.default_rng(6)
        systems = rng.standard_normal((4, 6, 6)) + 6.0 * np.eye(6)
        systems[1] = 0.0
        systems[3, :, 4] = 0.0
        rhs = rng.standard_normal((4, 6))
        with np.errstate(all="ignore"):
            single = pnp._linear_solve(systems[1], rhs[1])
            stacked = pnp._linear_solve(systems, rhs)
        assert np.isnan(single).all()
        assert np.isnan(stacked[[1, 3]]).all()
        assert np.array_equal(stacked[[0, 2]], np.linalg.solve(systems[[0, 2]],
                                                                rhs[[0, 2], :, None])[..., 0])


def criterion_scenes(count, seed=7, jitter=0.0):
    """All-68 and rigid-6 problems on acceptance criterion 2's scenes
    (seed 7), optionally with uniform landmark jitter in pixels."""
    model = builtin_mean_face()
    tz_base = 2.0 * model.bounding_radius() / math.tan(math.radians(25.0))
    rows6 = subset_by_name("rigid-6").rows()
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        angles = EulerAngles(rng.uniform(-75.0, 75.0), rng.uniform(-60.0, 60.0),
                             rng.uniform(-50.0, 50.0))
        t = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                      tz_base * rng.uniform(0.8, 1.3)])
        image = project(model.points, Pose(angles, t), K)
        image = image + rng.uniform(-jitter, jitter, image.shape)
        for rows in (slice(None), rows6):
            problems.append(PnPProblem(model.points[rows], image[rows], K))
    return problems


def same_solution(a: PnPSolution, b: PnPSolution) -> bool:
    return (a.pose.rotation == b.pose.rotation
            and np.array_equal(a.pose.translation, b.pose.translation)
            and a.rmse == b.rmse and a.iterations == b.iterations
            and a.termination == b.termination)


class TestSolvePnPBatch:
    def test_matches_solve_pnp_on_criterion_scenes(self):
        for jitter in (0.0, 5.0):
            problems = criterion_scenes(1000, jitter=jitter)
            for problem, got in zip(problems, solve_pnp_batch(problems), strict=True):
                assert same_solution(got, solve_pnp(problem))

    def test_noise_floor_solves_converge(self):
        # At 5 px every all-68 solve reaches the noise floor, where no step
        # lowers the cost; a damping climb there must end on the step test,
        # not run to MAX_DAMPING and report a good pose as unconverged.
        problems = criterion_scenes(500, seed=0, jitter=5.0)[::2]
        assert all(len(p.model_points) == 68 for p in problems)
        batch = solve_pnp_batch(problems)
        assert sum(not got.converged for got in batch) == 0
        for problem, got in zip(problems, batch, strict=True):
            assert got.termination != "damping_exhausted"
            assert got.termination == solve_pnp(problem).termination

    def test_without_step_test_climbs_exhaust_damping(self, monkeypatch):
        # The climbs the step test ends: with it off, the noise floor is
        # left only by damping passing MAX_DAMPING.
        monkeypatch.setattr(pnp, "STEP_TOLERANCE", 0.0)
        problems = criterion_scenes(10, seed=0, jitter=5.0)
        batch = solve_pnp_batch(problems)
        assert any(got.termination == "damping_exhausted" and not got.converged
                   for got in batch)
        for problem, got in zip(problems, batch, strict=True):
            assert same_solution(got, solve_pnp(problem))

    @pytest.mark.parametrize("handoff", [1, pnp.HANDOFF])
    def test_last_problem_of_a_stack_goes_on_in_solve_pnp_loop(self, monkeypatch, handoff):
        # A stack never runs a round for HANDOFF problems or fewer: its last
        # unfinished problems are picked up by solve_pnp's loop mid-solve, each
        # with the result solve_pnp reaches on its own.  HANDOFF = 1 hands on
        # the last problem alone.
        rounds, handed = [], []
        solve, iterate, stack = pnp._linear_solve, pnp._iterate, pnp._solve_stack

        def counted_solve(systems, rhs):
            if np.ndim(systems) == 3:
                rounds.append(len(systems))
            return solve(systems, rhs)

        def counted_iterate(*args):
            handed[-1].append(args[-1])  # the iterations already run
            return iterate(*args)

        def counted_stack(*args):
            handed.append([])
            return stack(*args)

        monkeypatch.setattr(pnp, "HANDOFF", handoff)
        monkeypatch.setattr(pnp, "_linear_solve", counted_solve)
        monkeypatch.setattr(pnp, "_iterate", counted_iterate)
        monkeypatch.setattr(pnp, "_solve_stack", counted_stack)
        problems = criterion_scenes(20, seed=3, jitter=5.0)
        batch = solve_pnp_batch(problems)
        assert min(rounds) > handoff
        assert len(handed) == 2  # one stack each: all-68 and rigid-6
        assert all(len(stack_handed) <= handoff for stack_handed in handed)
        assert max(max(stack_handed, default=0) for stack_handed in handed) > 0
        for problem, got in zip(problems, batch, strict=True):
            assert same_solution(got, solve_pnp(problem))

    def test_one_damping_attempt_per_live_problem_per_round(self, monkeypatch):
        # Every row of a stacked round and every scalar attempt of the hand-off
        # is one damping attempt of solve_pnp's loop: the totals agree.
        problems = criterion_scenes(20, seed=3, jitter=5.0)
        counts = {"rows": 0, "scalar": 0}
        solve = pnp._linear_solve

        def counted_solve(a, b):
            if np.ndim(a) == 3:
                counts["rows"] += len(a)
            else:
                counts["scalar"] += 1
            return solve(a, b)

        monkeypatch.setattr(pnp, "_linear_solve", counted_solve)
        solve_pnp_batch(problems)
        stacked = counts["rows"] + counts["scalar"]
        counts["scalar"] = 0
        for problem in problems:
            solve_pnp(problem)
        assert stacked == counts["scalar"] == 345

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_trial_rotation_overflow_rejected_in_both_loops(self, scale):
        # Image points this far out make the first step's rotation vector too
        # long to square.  Both loops reject that trial and end on exhausted
        # damping; the stacked loop hands the last problem to solve_pnp's loop.
        rng = np.random.default_rng(0)
        wild = PnPProblem(builtin_mean_face().points, rng.uniform(-scale, scale, (68, 2)), K)
        problems = [wild, criterion_scenes(1)[0]]
        batch = solve_pnp_batch(problems)
        assert batch[0].termination == "damping_exhausted"
        for problem, got in zip(problems, batch, strict=True):
            assert same_solution(got, solve_pnp(problem))

    def test_stacked_evaluation_and_jacobian_match_scalar(self):
        # Every row of the stacked evaluation is _evaluate's, bitwise, in the
        # residuals, the cost and all four rigid parts, and every row of
        # _jacobian on the stacked parts is _jacobian on that row's parts.
        # Neither rejects a row behind the camera: its depths show it.
        problems = criterion_scenes(40, seed=2, jitter=3.0)
        rng = np.random.default_rng(4)
        for n_points in (68, 6):
            group = [p for p in problems if len(p.model_points) == n_points]
            model = np.stack([p.model_points for p in group])
            x = pnp._start_params(model)
            x += rng.uniform(-0.5, 0.5, x.shape)
            # Both Taylor branches (theta = 0 and theta in (0, 1e-4)) and a
            # near half turn; the other rows stay random but row 4, whose
            # model is put behind the camera.
            axis = rng.normal(size=(4, 3))
            axis /= np.linalg.norm(axis, axis=1, keepdims=True)
            x[:4, :3] = np.array([0.0, 3e-5, 9.9e-5, math.pi - 1e-7])[:, None] * axis
            x[4, 5] = -x[4, 5]
            # The stacked loop evaluates the general branch for every row and
            # patches the small-angle rows, under np.errstate, as here.
            with np.errstate(all="ignore"):
                residual, cost, parts = pnp._stack_evaluate(
                    model, np.stack([p.image_points for p in group]), x, K)
                stacked = pnp._jacobian(parts, K)
            assert (parts[-1][4, :, 2] <= MIN_DEPTH).all()
            for i, (problem, xi) in enumerate(zip(group, x, strict=True)):
                want = pnp._evaluate(problem.model_points, problem.image_points, xi, K)
                assert np.array_equal(residual[i], want[0])
                assert cost[i] == want[1]
                for got_part, want_part in zip(parts, want[2], strict=True):
                    assert np.array_equal(got_part[i], want_part)
                assert np.array_equal(stacked[i], pnp._jacobian(want[2], K))

    @pytest.mark.parametrize("cap", [1, 7 * 6, 7 * 68])
    def test_solution_independent_of_batch_cap_and_order(self, monkeypatch, cap):
        # cap 1 solves one problem per stack; 7 * 6 and 7 * 68 points stack
        # seven rigid-6 or seven all-68 problems.
        problems = criterion_scenes(30, seed=5, jitter=3.0)
        default = solve_pnp_batch(problems)
        monkeypatch.setattr(pnp, "BATCH_POINTS", cap)
        capped = solve_pnp_batch(problems)
        order = np.random.default_rng(cap).permutation(len(problems))
        shuffled = solve_pnp_batch([problems[i] for i in order])
        for i, j in enumerate(order):
            assert same_solution(capped[i], default[i])
            assert same_solution(shuffled[i], default[j])

    @pytest.mark.parametrize("max_iterations", [1, 3, 7])
    def test_iteration_cap_shared_with_solve_pnp(self, monkeypatch, max_iterations):
        monkeypatch.setattr(pnp, "MAX_ITERATIONS", max_iterations)
        problems = criterion_scenes(20, seed=3, jitter=3.0)
        batch = solve_pnp_batch(problems)
        assert any(got.iterations == max_iterations and not got.converged for got in batch)
        for problem, got in zip(problems, batch, strict=True):
            assert same_solution(got, solve_pnp(problem))

    def test_mixed_point_counts_and_models_in_input_order(self):
        model = builtin_mean_face()
        truth = Pose(EulerAngles(25.0, -10.0, 5.0), np.array([0.05, -0.1, 5.0]))
        image = project(model.points, truth, K)
        problems = []
        for scale in (1.0, 0.8, 1.2):
            for name in ("rigid-6", "all-68", "core-12"):
                rows = subset_by_name(name).rows()
                stretched = stretch_model(model, scale, 1.0).points
                problems.append(PnPProblem(stretched[rows], image[rows], K))
        batch = solve_pnp_batch(problems)
        assert len(batch) == len(problems)
        for problem, got in zip(problems, batch, strict=True):
            assert same_solution(got, solve_pnp(problem))
        assert max(angle_error(batch[1].pose.rotation.as_array(),
                               truth.rotation.as_array())) < 1e-6

    def test_mixed_cameras_and_point_counts_in_input_order(self, monkeypatch):
        # Three cameras and two point counts, interleaved: each camera's
        # all-68 and rigid-6 problems make a stack of their own.  One
        # problem's default start is its exact answer: its first step is
        # zero, so short, and ends the solve there.
        model = builtin_mean_face().points
        rows6 = subset_by_name("rigid-6").rows()
        cameras = (K, default_intrinsics(640, 480), CameraIntrinsics(800.0, 760.0, 300.0, 260.0))
        rng = np.random.default_rng(9)
        problems = []
        for i in range(12):
            camera = cameras[i % 3]
            pose = Pose(EulerAngles(*rng.uniform(-40.0, 40.0, 3)),
                        np.array([*rng.uniform(-0.2, 0.2, 2), rng.uniform(4.0, 6.0)]))
            image = project(model, pose, camera) + rng.uniform(-2.0, 2.0, (68, 2))
            rows = slice(None) if i % 2 else rows6
            problems.append(PnPProblem(model[rows], image[rows], camera))
        start = default_init(PnPProblem(model, np.zeros((68, 2)), cameras[1]))
        exact = PnPProblem(model, project(model, start, cameras[1]), cameras[1])
        problems.insert(5, exact)

        stacks = []
        stack = pnp._solve_stack

        def counted_stack(model, image, intrinsics):
            stacks.append((model.shape[1], intrinsics))
            return stack(model, image, intrinsics)

        monkeypatch.setattr(pnp, "_solve_stack", counted_stack)
        batch = solve_pnp_batch(problems)
        assert len(stacks) == 6
        assert set(stacks) == {(n, camera) for n in (68, 6) for camera in cameras}
        for problem, got in zip(problems, batch, strict=True):
            assert same_solution(got, solve_pnp(problem))
        for got in (batch[5], solve_pnp(exact)):
            assert (got.iterations, got.termination) == (1, "step")

    def test_behind_camera_start_reported_for_that_problem_only(self):
        good, _ = make_problem((10.0, -5.0, 3.0), (0.0, 0.0, 5.0))
        other, _ = make_problem((-20.0, 15.0, 0.0), (0.1, 0.0, 4.0))
        # The default start keeps the model's own origin on the optical axis,
        # so a model far behind its origin starts behind the camera.
        behind = PnPProblem(good.model_points - np.array([0.0, 0.0, 100.0]),
                            good.image_points, K)
        with pytest.raises(BehindCameraError) as scalar_error:
            solve_pnp(behind)
        results = solve_pnp_batch([good, behind, other])
        assert isinstance(results[1], BehindCameraError)
        assert str(results[1]) == str(scalar_error.value)
        for problem, got in ((good, results[0]), (other, results[2])):
            assert got.converged
            assert max(angle_error(got.pose.rotation.as_array(),
                                   solve_pnp(problem).pose.rotation.as_array())) < 1e-9

    def test_empty(self):
        assert solve_pnp_batch([]) == []


class TestSolveArrays:
    """pnp._solve_arrays, the array path under solve_pnp_batch that the PnP studies call."""

    @staticmethod
    def assert_matches_solve_pnp(problems, solved):
        x, rot, rmse, iterations, codes, behind = solved
        angles = pnp._euler_rows(rot)
        assert not behind.any()
        for k, problem in enumerate(problems):
            want = solve_pnp(problem)
            assert np.array_equal(angles[k], want.pose.rotation.as_array())
            assert np.array_equal(x[k, 3:], want.pose.translation)
            assert rmse[k] == want.rmse
            assert iterations[k] == want.iterations
            assert pnp.TERMINATIONS[codes[k]] == want.termination

    @pytest.mark.parametrize("jitter", [0.0, 5.0])
    def test_shared_models_match_solve_pnp(self, jitter):
        # The all-68 and rigid-6 problems of criterion 2's scenes, each point
        # count one group with its model given once as (N, 3).
        problems = criterion_scenes(60, jitter=jitter)
        groups = [problems[0::2], problems[1::2]]
        solved = pnp._solve_arrays(
            [(group[0].model_points, np.stack([p.image_points for p in group]), K)
             for group in groups])
        self.assert_matches_solve_pnp(groups[0] + groups[1], solved)

    @pytest.mark.parametrize("jitter", [0.0, 5.0])
    def test_per_problem_models_match_solve_pnp(self, jitter):
        # Every all-68 problem solved against its own stretched model (B, N, 3).
        rng = np.random.default_rng(11)
        problems = [PnPProblem(stretch_model(builtin_mean_face(), *rng.uniform(0.6, 1.4, 2)).points,
                               p.image_points, K)
                    for p in criterion_scenes(40, jitter=jitter)[0::2]]
        solved = pnp._solve_arrays(
            [(np.stack([p.model_points for p in problems]),
              np.stack([p.image_points for p in problems]), K)])
        self.assert_matches_solve_pnp(problems, solved)

    def test_rotation_built_once_per_residual_evaluation(self, monkeypatch):
        # Each accepted step's Jacobian reuses the rotation its trial residuals
        # built, in the stacked loop and in solve_pnp's loop it hands off to;
        # the hand-off takes the stack's evaluation of its last row, so the
        # scalar loop evaluates only the finite steps it solves for.  Both
        # loops return the rotation of their best iterate, so no Rodrigues
        # runs after a loop: not in solve_pnp, not in a PnP study.  pnp
        # builds every rotation through _rodrigues or _rodrigues_stack.
        assert not hasattr(pnp, "axis_angle_to_rotation")
        counts = dict.fromkeys(("rodrigues_stack", "stack_evaluate", "stack_jacobian",
                                "rodrigues", "evaluate", "jacobian", "finite_scalar_steps"), 0)
        solve, jacobian = pnp._linear_solve, pnp._jacobian

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        def counted_jacobian(parts, intrinsics):
            # One _jacobian serves both loops: stacked parts have a leading axis.
            counts["stack_jacobian" if parts[-1].ndim == 3 else "jacobian"] += 1
            return jacobian(parts, intrinsics)

        def counted_solve(systems, rhs):
            step = solve(systems, rhs)
            if np.ndim(systems) == 2 and np.isfinite(step).all():
                counts["finite_scalar_steps"] += 1
            return step

        monkeypatch.setattr(pnp, "_linear_solve", counted_solve)
        monkeypatch.setattr(pnp, "_jacobian", counted_jacobian)
        for name, attr in (("rodrigues_stack", "_rodrigues_stack"),
                           ("stack_evaluate", "_stack_evaluate"),
                           ("rodrigues", "_rodrigues"),
                           ("evaluate", "_evaluate")):
            monkeypatch.setattr(pnp, attr, counted(name, getattr(pnp, attr)))
        problems = criterion_scenes(20, seed=3, jitter=5.0)[0::2]
        x, rot, *_ = pnp._solve_arrays([(problems[0].model_points,
                                         np.stack([p.image_points for p in problems]), K)])
        assert counts["stack_jacobian"] > 0 and counts["jacobian"] > 0
        assert counts["rodrigues_stack"] == counts["stack_evaluate"]
        assert counts["rodrigues"] == counts["evaluate"]
        assert counts["evaluate"] == counts["finite_scalar_steps"] > 0
        for xk, rk in zip(x, rot, strict=True):
            assert np.array_equal(rk, axis_angle_to_rotation(xk[:3]))

        counts.update(dict.fromkeys(counts, 0))
        solve_pnp(problems[0])
        assert counts["jacobian"] > 0 and counts["rodrigues"] == counts["evaluate"]

        counts.update(dict.fromkeys(counts, 0))
        run_jitter_study(StudyConfig(trials=2), "all-68")
        assert counts["stack_jacobian"] > 0
        assert counts["rodrigues_stack"] == counts["stack_evaluate"]
        assert counts["rodrigues"] == counts["evaluate"]
