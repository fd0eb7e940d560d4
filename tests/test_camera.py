import numpy as np
import pytest

from poselab.camera import (
    MIN_DEPTH,
    BehindCameraError,
    CameraIntrinsics,
    Pose,
    default_intrinsics,
    project,
)
from poselab.rotmath import EulerAngles


def identity_pose(tz=5.0):
    return Pose(EulerAngles(0.0, 0.0, 0.0), np.array([0.0, 0.0, tz]))


class TestCameraIntrinsics:
    def test_fields(self):
        k = CameraIntrinsics(450.0, 450.0, 225.0, 225.0)
        assert k.fx == 450.0 and k.cy == 225.0

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0.0, 450.0, 225.0, 225.0)
        with pytest.raises(ValueError):
            CameraIntrinsics(450.0, -1.0, 225.0, 225.0)

    @pytest.mark.parametrize("values", [(np.inf, 1.0, np.nan, 0.0),
                                        (450.0, np.inf, 225.0, 225.0),
                                        (450.0, 450.0, np.inf, 225.0),
                                        (450.0, 450.0, 225.0, np.nan)])
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="finite"):
            CameraIntrinsics(*values)


class TestDefaultIntrinsics:
    def test_square_image(self):
        k = default_intrinsics(450, 450)
        assert k.fx == 450.0
        assert k.fy == 450.0
        assert k.cx == 225.0
        assert k.cy == 225.0

    def test_wide_image_uses_width_for_both_focals(self):
        k = default_intrinsics(640, 480)
        assert k.fx == 640.0
        assert k.fy == 640.0
        assert k.cx == 320.0
        assert k.cy == 240.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            default_intrinsics(0, 450)

    @pytest.mark.parametrize("dims", [(np.nan, 450), (450, np.nan), (np.inf, 450),
                                      (450, np.inf)])
    def test_rejects_non_finite_dims(self, dims):
        with pytest.raises(ValueError, match="finite"):
            default_intrinsics(*dims)


class TestPose:
    def test_translation_copied_and_validated(self):
        t = np.array([1.0, 2.0, 3.0])
        p = Pose(EulerAngles(0, 0, 0), t)
        t[0] = 99.0
        assert p.translation[0] == 1.0
        with pytest.raises(ValueError):
            Pose(EulerAngles(0, 0, 0), np.zeros(2))
        with pytest.raises(ValueError):
            Pose(EulerAngles(0, 0, 0), np.array([np.nan, 0.0, 0.0]))

    def test_rotation_matrix_matches_angles(self):
        from poselab.rotmath import euler_to_rotation

        p = Pose(EulerAngles(10, 20, 30), np.zeros(3))
        assert np.allclose(p.rotation_matrix(), euler_to_rotation(p.rotation))


class TestProject:
    def test_point_on_axis_hits_principal_point(self):
        k = default_intrinsics(450, 450)
        uv = project(np.array([[0.0, 0.0, 0.0]]), identity_pose(), k)
        assert uv.shape == (1, 2)
        assert np.allclose(uv[0], [225.0, 225.0])

    def test_pinhole_formula(self):
        k = CameraIntrinsics(500.0, 400.0, 320.0, 240.0)
        pts = np.array([[0.2, -0.1, 0.0], [-0.3, 0.4, 1.0]])
        uv = project(pts, identity_pose(2.0), k)
        # u = fx * x/z + cx, v = fy * y/z + cy, in camera coordinates
        assert np.allclose(uv[0], [500.0 * 0.1 + 320.0, 400.0 * -0.05 + 240.0])
        assert np.allclose(uv[1], [500.0 * -0.1 + 320.0, 400.0 * (0.4 / 3.0) + 240.0])

    def test_rotation_applied_before_translation(self):
        # 90 deg yaw maps +x model axis onto -z camera axis
        k = default_intrinsics(100, 100)
        pose = Pose(EulerAngles(90.0, 0.0, 0.0), np.array([0.0, 0.0, 4.0]))
        uv = project(np.array([[1.0, 0.0, 0.0]]), pose, k)
        assert np.allclose(uv[0], [50.0, 50.0], atol=1e-9)

    def test_behind_camera_raises_with_index(self):
        k = default_intrinsics(450, 450)
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -9.0]])
        with pytest.raises(BehindCameraError) as exc:
            project(pts, identity_pose(5.0), k)
        assert "1" in str(exc.value)

    def test_depth_at_threshold_rejected(self):
        k = default_intrinsics(450, 450)
        pts = np.array([[0.0, 0.0, 0.0]])
        pose = Pose(EulerAngles(0, 0, 0), np.array([0.0, 0.0, MIN_DEPTH]))
        with pytest.raises(BehindCameraError):
            project(pts, pose, k)

    def test_validates_shape(self):
        k = default_intrinsics(450, 450)
        with pytest.raises(ValueError):
            project(np.zeros((3, 2)), identity_pose(), k)
