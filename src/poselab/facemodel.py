"""Procedural 68-landmark mean face and its perturbations.

Landmark ids follow the common 68-point facial annotation layout: jaw
1-17 (chin at 9), brows 18-27, nose 28-36 (bridge 28-31, base row 32-36
with 34 on the midline), eyes 37-48 (right 37-42, left 43-48), mouth
49-68 (outer ring 49-60, inner ring 61-68).  Model frame: +x image
right, +y down, +z away from the camera, so the nose points toward
negative z.  Units are arbitrary; only relative geometry matters.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rotmath import _is_integer

__all__ = [
    "DuplicateIdError",
    "FaceModel",
    "KeypointSubset",
    "MOUTH_JAW_IDS",
    "ParseError",
    "ScaleOutOfRangeError",
    "WrongCountError",
    "builtin_mean_face",
    "deform_subject",
    "jitter_landmarks",
    "load_face_model",
    "named_subsets",
    "save_face_model",
    "stretch_model",
    "subset_by_name",
]

# Landmarks that move under facial expression: jaw line plus both lip rings.
MOUTH_JAW_IDS = tuple(range(1, 18)) + tuple(range(49, 69))


class ParseError(ValueError):
    """A face-model file line could not be parsed."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


class WrongCountError(ValueError):
    """A face-model file did not define exactly 68 landmarks."""


class DuplicateIdError(ValueError):
    """A face-model file defined the same landmark id twice."""


class ScaleOutOfRangeError(ValueError):
    """Stretch factor outside the supported [0.5, 2.0] range."""


@dataclass(frozen=True, eq=False)
class FaceModel:
    """68 3D landmarks; row i holds landmark id i+1."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (68, 3):
            raise ValueError(f"face model needs shape (68, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("face model has non-finite coordinates")
        object.__setattr__(self, "points", pts.copy())

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def bounding_radius(self) -> float:
        return float(np.max(np.linalg.norm(self.points - self.centroid(), axis=1)))


@dataclass(frozen=True)
class KeypointSubset:
    """A named selection of landmark ids (1-based, sorted, unique, >= 4)."""

    name: str
    ids: tuple

    def __post_init__(self):
        if not all(_is_integer(i) for i in self.ids):
            raise ValueError(f"subset {self.name!r} has non-integer ids: {tuple(self.ids)!r}")
        ids = tuple(sorted(int(i) for i in self.ids))
        if len(ids) < 4:
            raise ValueError(f"subset {self.name!r} needs >= 4 ids, got {len(ids)}")
        if len(set(ids)) != len(ids):
            raise ValueError(f"subset {self.name!r} has duplicate ids")
        if ids[0] < 1 or ids[-1] > 68:
            raise ValueError(f"subset {self.name!r} has ids outside 1..68")
        object.__setattr__(self, "ids", ids)

    def rows(self) -> np.ndarray:
        """Zero-based row indices into a (68, ...) landmark array."""
        return np.array(self.ids, dtype=int) - 1


def _procedural_mean_face() -> np.ndarray:
    """The built-in face's (68, 3) points, recentered."""
    pts = np.zeros((68, 3))

    # jaw, ids 1-17: ear-to-ear arc through the chin (id 9 on the midline)
    for j in range(17):
        u = j / 16.0
        along = math.sin(math.pi * u)
        pts[j] = (-0.65 * math.cos(math.pi * u), -0.05 + 0.77 * along, 0.30 - 0.35 * along)
    pts[8, 0] = 0.0

    # brows: right ids 18-22, left ids 23-27 mirror them in reverse order
    for j in range(5):
        arch = math.sin(math.pi * j / 4.0)
        pts[17 + j] = (-0.45 + 0.0775 * j, -0.20 - 0.05 * arch, -0.12)
    for j in range(5):
        x, y, z = pts[17 + j]
        pts[26 - j] = (-x, y, z)

    # nose bridge, ids 28-31, on the midline coming forward
    pts[27] = (0.0, -0.15, -0.10)
    pts[28] = (0.0, -0.02, -0.17)
    pts[29] = (0.0, 0.11, -0.24)
    pts[30] = (0.0, 0.24, -0.31)

    # nose base row, ids 32-36, id 34 on the midline
    for j in range(5):
        bump = math.sin(math.pi * j / 4.0)
        pts[31 + j] = (-0.16 + 0.08 * j, 0.32 + 0.03 * bump, -0.18 - 0.06 * bump)
    pts[33, 0] = 0.0

    # right eye ids 37-42 on an ellipse; 37 outer corner, 40 inner corner
    ex, ey, ez = -0.30, -0.05, -0.08
    a, b = 0.11, 0.045
    h = math.sqrt(3.0) / 2.0
    pts[36] = (ex - a, ey, ez)
    pts[37] = (ex - a / 2.0, ey - b * h, ez)
    pts[38] = (ex + a / 2.0, ey - b * h, ez)
    pts[39] = (ex + a, ey, ez)
    pts[40] = (ex + a / 2.0, ey + b * h, ez)
    pts[41] = (ex - a / 2.0, ey + b * h, ez)
    # left eye ids 43-48 mirror ids 40, 39, 38, 37, 42, 41
    for row, src in zip(range(42, 48), (39, 38, 37, 36, 41, 40)):
        x, y, z = pts[src]
        pts[row] = (-x, y, z)

    # outer lip ring ids 49-60, corners at ids 49/55, midline at 52/58
    for j in range(12):
        th = math.radians(180.0 - 30.0 * j)
        pts[48 + j] = (0.22 * math.cos(th), 0.50 - 0.09 * math.sin(th), -0.12)
    pts[51, 0] = 0.0
    pts[57, 0] = 0.0

    # inner lip ring ids 61-68, corners at ids 61/65, midline at 63/67
    for j in range(8):
        th = math.radians(180.0 - 45.0 * j)
        pts[60 + j] = (0.13 * math.cos(th), 0.50 - 0.04 * math.sin(th), -0.11)
    pts[62, 0] = 0.0
    pts[66, 0] = 0.0

    pts -= pts.mean(axis=0)
    return pts


_MEAN_FACE = _procedural_mean_face()
_MEAN_FACE.flags.writeable = False


def builtin_mean_face() -> FaceModel:
    """Deterministic, bilaterally symmetric 68-point face-like model.

    The points are computed once at import; each call returns a model
    holding its own writable copy.
    """
    return FaceModel(_MEAN_FACE)


def save_face_model(model: FaceModel, path) -> None:
    lines = ["# 68-point face model: one landmark per line, fields 'id x y z'"]
    for i, (x, y, z) in enumerate(model.points, start=1):
        lines.append(f"{i} {x:.17g} {y:.17g} {z:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_id_lines(path, fields: str) -> tuple:
    """Read a landmark file with one whitespace-separated record per line.

    fields names the columns, id first (e.g. 'id x y z'); '#' starts a
    comment, and a record ends at a newline only.  The file is UTF-8, with
    or without a byte-order mark.  Returns (ids, coordinates) in file
    order: the int ids (N,) and the float coordinates (N, columns - 1).
    Raises ParseError (with the line number) on a malformed line and
    DuplicateIdError on a repeated id, for the first faulty line.
    """
    width = len(fields.split())
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    records = [parts for parts in (line.split("#", 1)[0].split() for line in lines) if parts]
    if all(len(parts) == width for parts in records):
        try:
            ids = [int(parts[0]) for parts in records]
            coords = np.array([float(v) for parts in records for v in parts[1:]])
        except ValueError:
            pass
        else:
            # The ids are checked as a list: for a 6-line file, NumPy's
            # per-call cost would exceed the checks themselves.
            if (1 <= min(ids, default=1) and max(ids, default=1) <= 68
                    and len(set(ids)) == len(ids) and np.isfinite(coords).all()):
                return np.array(ids, dtype=int), coords.reshape(-1, width - 1)
    raise _first_fault(path, fields, lines)


def _first_fault(path, fields: str, lines) -> ValueError:
    """The error _parse_id_lines raises for the lines of a faulty file: the
    ParseError or DuplicateIdError of the first faulty line, found by
    checking the lines one by one in file order."""
    width = len(fields.split())
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != width:
            return ParseError(path, lineno, f"expected {width} fields '{fields}', got {len(parts)}")
        try:
            landmark_id = int(parts[0])
        except ValueError:
            return ParseError(path, lineno, f"landmark id {parts[0]!r} is not an integer")
        if not 1 <= landmark_id <= 68:
            return ParseError(path, lineno, f"landmark id {landmark_id} outside 1..68")
        try:
            coords = list(map(float, parts[1:]))
        except ValueError:
            return ParseError(path, lineno, "coordinates must be decimal numbers")
        if not all(map(math.isfinite, coords)):
            return ParseError(path, lineno, "coordinates must be finite")
        if landmark_id in seen:
            return DuplicateIdError(f"{path}:{lineno}: duplicate landmark id {landmark_id}")
        seen.add(landmark_id)


def load_face_model(path) -> FaceModel:
    """Parse 'id x y z' lines ('#' starts a comment) and recenter the result."""
    ids, coords = _parse_id_lines(path, "id x y z")
    if len(ids) != 68:
        raise WrongCountError(f"{path}: expected 68 landmarks, got {len(ids)}")
    pts = np.empty((68, 3))
    pts[ids - 1] = coords
    pts -= pts.mean(axis=0)
    return FaceModel(pts)


def stretch_model(model: FaceModel, sx: float, sy: float) -> FaceModel:
    """Scale width by sx and height by sy (each in [0.5, 2.0]), recentered."""
    for axis_name, s in (("sx", sx), ("sy", sy)):
        if not 0.5 <= s <= 2.0:
            raise ScaleOutOfRangeError(f"{axis_name}={s} outside [0.5, 2.0]")
    pts = model.points * np.array([sx, sy, 1.0])
    pts = pts - pts.mean(axis=0)
    return FaceModel(pts)


def jitter_landmarks(points2d, magnitude: float, rng_seed) -> np.ndarray:
    """Displace every coordinate by an independent uniform draw in [-m, +m]."""
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError(f"jitter magnitude must be finite and >= 0, got {magnitude}")
    pts = np.asarray(points2d, dtype=float)
    return pts + _scaled_uniform(np.random.default_rng(rng_seed).random(pts.shape), magnitude)


def _scaled_uniform(unit, magnitude: float) -> np.ndarray:
    """Draws unit in [0, 1) moved to [-magnitude, +magnitude) with the
    arithmetic of Generator.uniform(-magnitude, magnitude), so the same bits
    as that call on the generator that drew unit.  One unit draw serves
    every magnitude of a sweep."""
    return -magnitude + (magnitude - -magnitude) * unit


def deform_subject(model: FaceModel, rigid_sigma: float, nonrigid_sigma: float, rng_seed) -> FaceModel:
    """Displace the face like a subject would move: one zero-mean Gaussian
    3D displacement (std rigid_sigma) shared by all points, plus an extra
    zero-mean Gaussian displacement (std nonrigid_sigma) for each
    expression-prone group, jaw and mouth, moving coherently.

    Coherent group motion, not per-point noise, is what makes expression
    bias a pose fit: independent per-point noise would largely average
    out in a least-squares solve.  Not recentered, so zero-sigma
    landmarks stay exactly where they were.
    """
    if not all(math.isfinite(s) and s >= 0 for s in (rigid_sigma, nonrigid_sigma)):
        raise ValueError(f"deformation sigmas must be finite and >= 0, got "
                         f"{rigid_sigma}, {nonrigid_sigma}")
    rng = np.random.default_rng(rng_seed)
    pts = model.points + rigid_sigma * rng.standard_normal(3)
    pts[0:17] += nonrigid_sigma * rng.standard_normal(3)    # jaw ids 1-17
    pts[48:68] += nonrigid_sigma * rng.standard_normal(3)   # mouth ids 49-68
    return FaceModel(pts)


def named_subsets() -> list:
    """The keypoint subsets the studies sweep over (sizes 6, 12, 48, 68)."""
    return [
        KeypointSubset("rigid-6", (9, 34, 37, 40, 43, 46)),
        KeypointSubset("core-12", (9, 28, 31, 32, 34, 36, 37, 40, 43, 46, 49, 55)),
        KeypointSubset("no-mouth-48", tuple(range(1, 49))),
        KeypointSubset("all-68", tuple(range(1, 69))),
    ]


def subset_by_name(name: str) -> KeypointSubset:
    for subset in named_subsets():
        if subset.name == name:
            return subset
    known = ", ".join(s.name for s in named_subsets())
    raise ValueError(f"unknown subset {name!r}; available: {known}")
