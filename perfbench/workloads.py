"""The benchmark's three workloads.

Each workload is closed loop with one caller and no threads: ``setup()``
makes the inputs from the workload seed and warms up, and ``run_once()``
does the workload's fixed work once and returns what it produced.  The
program sees only the generated inputs (study configs or landmark files);
every call into poselab goes through a module attribute looked up at call
time, so a tracer that rebinds those attributes sees it.
"""

import io
import math
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from poselab import cli, facemodel, harness


@dataclass
class RepResult:
    """One repetition's outputs.

    rows maps a study row label to its MAE in degrees; attempted and
    failed count operations; items counts completed work units (PnP
    solves, or training samples x epochs x schemes); calls holds the
    (start, end) perf_counter times of each call where the workload
    times single calls.
    """

    rows: dict
    attempted: int
    failed: int
    items: int
    calls: list = field(default_factory=list)


class PnPSweep:
    """Subset, jitter (rigid-6 and all-68) and stretch (both axes) studies.

    The PnP study load: many independent LM solves per study call, so
    batching and the sweep bookkeeping show here.  raster and multiloss
    do no work.
    """

    name = "pnp-sweep"
    item = "PnP solves"

    def __init__(self, seed: int, trials: int = 16):
        self.config = harness.StudyConfig(trials=trials, master_seed=seed)
        self.warmup = harness.StudyConfig(trials=1, master_seed=seed)

    def setup(self) -> None:
        self._studies(self.warmup)

    def run_once(self) -> RepResult:
        rows, attempted, failed = {}, 0, 0
        for result in self._studies(self.config):
            for row in result.rows:
                rows[f"{result.study}/{row.sweep}"] = row.mae
                attempted += row.trials + row.excluded
                failed += row.excluded
        return RepResult(rows, attempted, failed, attempted - failed)

    @staticmethod
    def _studies(config):
        return (
            harness.run_subset_study(config),
            harness.run_jitter_study(config, "rigid-6"),
            harness.run_jitter_study(config, "all-68"),
            harness.run_stretch_study(config, "width"),
            harness.run_stretch_study(config, "height"),
        )

    def sanity(self, rows: dict) -> list:
        """Noiseless all-68 and unstretched solves must recover the pose."""
        exact = ("jitter-all-68/0.0", "stretch-width/1.0", "stretch-height/1.0")
        return [f"{label} MAE {rows.get(label)!r} deg is not ~0"
                for label in exact if not rows.get(label, math.inf) < 1e-6]

    def close(self) -> None:
        pass


# Pose ranges and camera shared with the studies' scene sampler.
YAW, PITCH, ROLL = 75.0, 60.0, 50.0
IMAGE_SIZE = 450


def euler_matrix(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """rot_y(yaw) @ rot_x(pitch) @ rot_z(roll), angles in degrees."""
    y, p, r = np.radians([yaw, pitch, roll])
    ry = np.array([[math.cos(y), 0.0, math.sin(y)], [0.0, 1.0, 0.0],
                   [-math.sin(y), 0.0, math.cos(y)]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(p), -math.sin(p)],
                   [0.0, math.sin(p), math.cos(p)]])
    rz = np.array([[math.cos(r), -math.sin(r), 0.0], [math.sin(r), math.cos(r), 0.0],
                   [0.0, 0.0, 1.0]])
    return ry @ rx @ rz


def wrapped_error(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


class PnPSingle:
    """One ``poselab solve-pnp`` per landmark file, called in process.

    One small problem per call, where latency matters and batching cannot
    help; also covers cli argument handling and the landmark parser.
    Files mix all-68 and rigid-6 landmarks at several jitter levels, in a
    seeded shuffled order.  Landmarks are projected here, independently of
    poselab's camera code, so the recovered angles are checked against a
    truth the program did not compute.
    """

    name = "pnp-single"
    item = "PnP solves"
    SUBSETS = ("all-68", "rigid-6")
    JITTER_PX = (0.0, 2.0, 5.0, 10.0)

    def __init__(self, seed: int, workdir: Path, poses: int = 30):
        self.seed = seed
        self.workdir = workdir
        self.poses = poses
        self.cases = []  # (path, label, (yaw, pitch, roll))

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        model = facemodel.builtin_mean_face().points
        radius = float(np.max(np.linalg.norm(model - model.mean(axis=0), axis=1)))
        tz_base = 2.0 * radius / math.tan(math.radians(25.0))
        focal, center = float(IMAGE_SIZE), IMAGE_SIZE / 2.0
        subsets = {name: np.array(facemodel.subset_by_name(name).ids) for name in self.SUBSETS}
        self.workdir.mkdir(parents=True, exist_ok=True)
        cases = []
        for p in range(self.poses):
            angles = (rng.uniform(-YAW, YAW), rng.uniform(-PITCH, PITCH), rng.uniform(-ROLL, ROLL))
            t = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                          tz_base * rng.uniform(0.8, 1.3)])
            cam = model @ euler_matrix(*angles).T + t
            clean = focal * cam[:, :2] / cam[:, 2:] + center
            for subset, ids in subsets.items():
                for jitter in self.JITTER_PX:
                    points = clean[ids - 1] + rng.uniform(-jitter, jitter, size=(len(ids), 2))
                    path = self.workdir / f"pose{p:03d}-{subset}-{jitter:g}px.txt"
                    lines = [f"{i} {float(u)!r} {float(v)!r}" for i, (u, v) in zip(ids, points)]
                    path.write_text("\n".join(lines) + "\n")
                    cases.append((path, f"{subset}@{jitter:g}px", angles))
        order = rng.permutation(len(cases))
        self.cases = [cases[i] for i in order]
        for path, _, _ in self.cases[:10]:
            solve_file(path)

    def run_once(self) -> RepResult:
        errors, calls, failed = {}, [], 0
        for path, label, truth in self.cases:
            start, end, angles = solve_file(path)
            calls.append((start, end))
            if angles is None:
                failed += 1
                continue
            per_angle = [wrapped_error(a, b) for a, b in zip(angles, truth)]
            errors.setdefault(label, []).append(sum(per_angle) / 3.0)
        rows = {label: math.fsum(v) / len(v) for label, v in sorted(errors.items())}
        attempted = len(self.cases)
        return RepResult(rows, attempted, failed, attempted - failed, calls)

    def sanity(self, rows: dict) -> list:
        # Printed angles carry 6 decimals; a noiseless all-68 solve is exact.
        label = "all-68@0px"
        if not rows.get(label, math.inf) < 1e-5:
            return [f"{label} MAE {rows.get(label)!r} deg is not ~0"]
        return []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def solve_file(path) -> tuple:
    """Time one in-process ``poselab solve-pnp`` call on a landmark file.

    Returns (start, end, (yaw, pitch, roll)) with perf_counter times, and
    None for the angles when the call returned non-zero, raised, exited
    or printed no pose.  A failed call is counted by the caller, never
    skipped or re-raised.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = ["solve-pnp", "--landmarks", str(path)]
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments by exiting
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the benchmark must keep running and count it
            traceback.print_exc(file=sys.__stderr__)
        end = time.perf_counter()
    if code != 0:
        return start, end, None
    return start, end, parse_angles(out.getvalue())


def parse_angles(text: str):
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("yaw", "pitch", "roll") and parts[2] == "deg":
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                return None
    if len(values) != 3:
        return None
    return values["yaw"], values["pitch"], values["roll"]


class LowresTrain:
    """run_lowres_study with schemes none and uniform1to10.

    Rasterizes every scene, trains one net per scheme (with degradation
    augmentation for uniform1to10) and evaluates on degraded held-out
    rasters.  raster and multiloss do the work; pnp does none, so this is
    the bypass workload for every PnP change.
    """

    name = "lowres-train"
    item = "training samples x epochs x schemes"

    def __init__(self, seed: int, scenes: int = 400, epochs: int = 5):
        schemes = ("none", "uniform1to10")
        self.config = harness.StudyConfig(scenes=scenes, epochs=epochs, master_seed=seed,
                                          lowres_schemes=schemes)
        self.warmup = harness.StudyConfig(scenes=40, epochs=1, master_seed=seed,
                                          lowres_schemes=schemes)
        # The study's split: round(val_fraction * scenes) held out, at least 1.
        n_val = min(max(int(round(scenes * self.config.val_fraction)), 1), scenes - 1)
        self.samples_per_scheme = (scenes - n_val) * epochs

    def setup(self) -> None:
        harness.run_lowres_study(self.warmup)

    def run_once(self) -> RepResult:
        result = harness.run_lowres_study(self.config)
        rows = {row.sweep: row.mae for row in result.rows}
        schemes = self.config.lowres_schemes
        diverged = sum(
            all(row.trials == 0 for row in result.rows if row.sweep.startswith(f"{s}@"))
            for s in schemes)
        trained = len(schemes) - diverged
        return RepResult(rows, len(schemes), diverged, trained * self.samples_per_scheme)

    def sanity(self, rows: dict) -> list:
        return []

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (PnPSweep, PnPSingle, LowresTrain)}


def make(name: str, seed: int, workdir: Path):
    if name == PnPSingle.name:
        return PnPSingle(seed, workdir)
    return WORKLOADS[name](seed)
