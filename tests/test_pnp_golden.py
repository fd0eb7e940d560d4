"""solve_pnp and the solve-pnp CLI pinned bitwise to recorded values.

The scalar-against-stacked tests in test_pnp.py cannot see a change that
moves both LM loops in lockstep.  These compare the scalar loop with
golden values in pnp_golden.json instead: float.hex of the angles,
translation and RMSE, the iteration count and the termination of every
case, and the CLI's printed stdout.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from poselab.camera import Pose, default_intrinsics, project
from poselab.cli import main
from poselab.facemodel import builtin_mean_face, subset_by_name
from poselab.pnp import PnPProblem, solve_pnp
from poselab.rotmath import EulerAngles

GOLDEN = json.loads((Path(__file__).with_name("pnp_golden.json")).read_text())
K = default_intrinsics(450, 450)
JITTERS_PX = (0.0, 2.0, 5.0, 10.0)


def golden_problems() -> dict:
    """Rigid-6 and all-68 problems on four seeded scenes at each jitter, and one
    whose image points, 1e160 px out, end the solve on exhausted damping."""
    model = builtin_mean_face().points
    depth = 2.0 * builtin_mean_face().bounding_radius() / math.tan(math.radians(25.0))
    rng = np.random.default_rng(2024)
    problems = {}
    for scene in range(4):
        pose = Pose(EulerAngles(rng.uniform(-75.0, 75.0), rng.uniform(-60.0, 60.0),
                                rng.uniform(-50.0, 50.0)),
                    np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                              depth * rng.uniform(0.8, 1.3)]))
        image = project(model, pose, K)
        for jitter in JITTERS_PX:
            noisy = image + rng.uniform(-jitter, jitter, image.shape)
            for name in ("rigid-6", "all-68"):
                rows = subset_by_name(name).rows()
                problems[f"scene{scene}-{jitter:g}px-{name}"] = PnPProblem(
                    model[rows], noisy[rows], K)
    wild = np.random.default_rng(0).uniform(-1e160, 1e160, (68, 2))
    problems["1e160px-all-68"] = PnPProblem(model, wild, K)
    return problems


def record(solution) -> dict:
    return {"angles": [float.hex(a) for a in solution.pose.rotation.as_array().tolist()],
            "translation": [float.hex(t) for t in solution.pose.translation.tolist()],
            "rmse": float.hex(solution.rmse), "iterations": solution.iterations,
            "termination": solution.termination}


def write_golden_landmarks(path, seed: int) -> None:
    """An 'id u v' file of the built-in face at a seeded pose, 3 px of jitter."""
    rng = np.random.default_rng(seed)
    pose = Pose(EulerAngles(*rng.uniform(-40.0, 40.0, 3)), np.array([0.05, -0.1, 4.5]))
    uv = project(builtin_mean_face().points, pose, K) + rng.uniform(-3.0, 3.0, (68, 2))
    path.write_text("".join(f"{i} {u!r} {v!r}\n" for i, (u, v) in enumerate(uv.tolist(), 1)))


PROBLEMS = golden_problems()


def test_cases_cover_every_ending():
    endings = {case["termination"] for case in GOLDEN["solve_pnp"].values()}
    assert endings == {"step", "cost", "residual", "damping_exhausted"}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_solve_pnp_matches_golden(name):
    assert record(solve_pnp(PROBLEMS[name])) == GOLDEN["solve_pnp"][name]


@pytest.mark.parametrize("seed", [1, 2])
def test_cli_stdout_matches_golden(tmp_path, capsys, seed):
    path = tmp_path / "landmarks.txt"
    write_golden_landmarks(path, seed)
    assert main(["solve-pnp", "--landmarks", str(path)]) == 0
    assert capsys.readouterr().out == GOLDEN["cli"][str(seed)]
