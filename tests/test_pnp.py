import math

import numpy as np
import pytest

from poselab.camera import BehindCameraError, Pose, default_intrinsics, project
from poselab.facemodel import builtin_mean_face, subset_by_name
from poselab.pnp import (
    DegenerateProblemError,
    LMConfig,
    PnPProblem,
    default_init,
    jacobian,
    reprojection_residuals,
    solve_pnp,
)
from poselab.rotmath import EulerAngles, angle_error

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
        with pytest.raises(ValueError):
            PnPProblem(pts[:3], uv[:3], K)  # too few points
        with pytest.raises(ValueError):
            PnPProblem(pts, uv[:3], K)  # mismatched lengths
        with pytest.raises(ValueError):
            PnPProblem(pts[:, :2], uv, K)  # wrong width
        bad = pts.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            PnPProblem(bad, uv, K)

    def test_collinear_points_rejected(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        uv = np.zeros((4, 2))
        with pytest.raises(DegenerateProblemError):
            PnPProblem(pts, uv, K)

    def test_planar_points_accepted(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        uv = np.array([[225.0, 225], [300, 225], [225, 300], [300, 300]])
        PnPProblem(pts, uv, K)


class TestLMConfig:
    def test_defaults(self):
        cfg = LMConfig()
        assert cfg.max_iterations == 100
        assert cfg.jacobian == "analytic"

    def test_validation(self):
        with pytest.raises(ValueError):
            LMConfig(max_iterations=0)
        with pytest.raises(ValueError):
            LMConfig(jacobian="symbolic")


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

    def test_numeric_jacobian_agrees(self):
        problem, truth = make_problem((25.0, 10.0, -5.0), (0.0, 0.0, 5.0))
        sol = solve_pnp(problem, config=LMConfig(jacobian="numeric"))
        assert sol.converged
        for got, want in zip(sol.pose.rotation.as_array(), truth.rotation.as_array()):
            assert angle_error(got, want) < 1e-6

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

    def test_cost_nonincreasing_in_iteration_budget(self):
        problem, _ = make_problem((30.0, -20.0, 10.0), (0.1, 0.1, 5.0))
        rng = np.random.default_rng(11)
        noisy = PnPProblem(
            problem.model_points,
            problem.image_points + rng.uniform(-3.0, 3.0, problem.image_points.shape),
            K,
        )
        prev = math.inf
        for k in range(1, 16):
            sol = solve_pnp(noisy, config=LMConfig(max_iterations=k))
            assert sol.rmse <= prev * (1.0 + 1e-12)
            prev = sol.rmse

    def test_deterministic(self):
        problem, _ = make_problem((22.0, 17.0, -9.0), (0.0, 0.0, 5.5))
        a = solve_pnp(problem)
        b = solve_pnp(problem)
        assert a.pose.rotation == b.pose.rotation
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert a.rmse == b.rmse and a.iterations == b.iterations

    def test_iteration_cap_reported(self):
        problem, _ = make_problem((30.0, -20.0, 10.0), (0.0, 0.0, 5.0))
        rng = np.random.default_rng(5)
        noisy = PnPProblem(
            problem.model_points,
            problem.image_points + rng.uniform(-5.0, 5.0, problem.image_points.shape),
            K,
        )
        sol = solve_pnp(noisy, config=LMConfig(max_iterations=1))
        assert sol.iterations <= 1
        assert not sol.converged
