"""Monte-Carlo sensitivity studies over synthetic face scenes.

Each study samples random head poses, builds ground-truth landmark
projections, perturbs one ingredient (keypoint subset, landmark jitter,
model stretch, raster resolution, loss weight), and reports wrap-aware
per-angle MAE plus their mean.  Trial (or scene) i always uses seed
master_seed+i, so every study is bitwise reproducible and embarrassingly
parallel in principle while results stay order-deterministic.

Two engines do the work.  _pnp_sweep runs the subset, jitter and stretch
studies: each study gives the model rows of every sweep label, fixed for
the study, and says how one trial turns a sampled pose into image rows
per label.  It stacks the image rows of a block of trials into arrays and
solves them with one call of pnp's array path per block; each problem
goes through the same iteration as a separate solve_pnp call, and no
PnPProblem or PnPSolution is built per problem.  _trained_rows runs the
low-resolution study and the alpha ablation: it builds one scene dataset
in split order, training scenes first, and each run trains one net on a
view of its training rows, scores it on the held-out rows and releases
it, so a trained study's memory does not grow with its number of runs.

StudyConfig holds what a caller sets: trial and scene counts, seeds,
sweeps and training sizes.  The scene pose ranges, the camera size and
the raster size are module constants.
"""

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .camera import BehindCameraError, Pose, default_intrinsics, project
from .facemodel import (
    _check_scale,
    _parse_id_lines,
    _scaled_uniform,
    builtin_mean_face,
    deform_subject,
    stretch_model,
    subset_by_name,
)
from .multiloss import (
    MultiLossConfig,
    TrainingDivergedError,
    predict_angles,
    train_toy,
)
from .pnp import (
    DegenerateProblemError,
    PnPProblem,
    _check_images,
    _euler_rows,
    _solve_arrays,
    _viewing_distance,
)
# The studies never call solve_pnp.  It stays bound here only because
# perfbench's test_tracer_restores_every_binding looks it up on this module.
from .pnp import solve_pnp  # noqa: F401
from .raster import (
    AUGMENT_SCHEMES,
    _check_scheme,
    augment_factor,
    degrade_stack,
    rasterize_stack,
)
from .rotmath import EulerAngles, _check_count, _check_real, _is_real, angle_error

__all__ = [
    "CSV_HEADER",
    "StudyConfig",
    "StudyResult",
    "StudyRow",
    "emit_csv",
    "emit_svg",
    "landmark_dataset",
    "load_landmarks",
    "read_study_csv",
    "run_alpha_ablation",
    "run_jitter_study",
    "run_lowres_study",
    "run_stretch_study",
    "run_subset_study",
]

CSV_HEADER = "sweep,yaw_mae,pitch_mae,roll_mae,mae,trials"
# Every scene draws yaw, pitch and roll uniformly within +-these bounds
# (degrees), inside BinSpec's range, and is imaged by CAMERA, the default
# camera of this size (pixels).
YAW_RANGE = 75.0
PITCH_RANGE = 60.0
ROLL_RANGE = 50.0
IMAGE_WIDTH = 450
IMAGE_HEIGHT = 450
CAMERA = default_intrinsics(IMAGE_WIDTH, IMAGE_HEIGHT)
# Side (pixels) of the low-resolution study's landmark rasters.
RASTER_SIZE = 32
# Trials whose problems a PnP study builds and solves together.  A block
# keeps the batched solver's stacks full while bounding the problems held
# in memory; the rows do not depend on it.
TRIAL_BLOCK = 64


@dataclass(frozen=True)
class StudyConfig:
    """Shared knobs for every study; unused fields are ignored per study."""

    trials: int = 500
    master_seed: int = 0
    subsets: tuple = ("rigid-6", "core-12", "no-mouth-48", "all-68")
    rigid_sigma: float = 0.0
    nonrigid_sigma: float = 0.3
    jitter_sweep: tuple = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    stretch_sweep: tuple = (0.6, 0.8, 1.0, 1.2, 1.4)
    scenes: int = 2500
    epochs: int = 30
    hidden_size: int = 128
    batch_size: int = 32
    learning_rate: float = 1e-3
    val_fraction: float = 0.2
    lowres_schemes: tuple = ("none", "fixed10", "uniform1to10", "set5")
    lowres_factors: tuple = (1, 5, 10, 15)
    alpha_sweep: tuple = (0.0, 0.01, 0.1, 1.0, 2.0, 4.0)

    def __post_init__(self):
        for name in ("subsets", "jitter_sweep", "stretch_sweep", "lowres_schemes",
                     "lowres_factors", "alpha_sweep"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has repeated values: {values}")
        if not (_is_real(self.val_fraction) and 0.0 < self.val_fraction < 1.0):
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction!r}")
        # Every other field is checked by the rule of the code that uses it.
        for name, least in (("trials", 1), ("master_seed", 0), ("scenes", 2), ("epochs", 0),
                            ("hidden_size", 1), ("batch_size", 1)):
            _check_count(name, getattr(self, name), least)
        _check_real("rigid_sigma", self.rigid_sigma, 0)
        _check_real("nonrigid_sigma", self.nonrigid_sigma, 0)
        _check_real("learning_rate", self.learning_rate, 0, strict=True)
        for magnitude in self.jitter_sweep:
            _check_real("jitter magnitude", magnitude, 0)
        for scale in self.stretch_sweep:
            _check_scale("stretch factor", scale)
        for scheme in self.lowres_schemes:
            _check_scheme(scheme, ("none", *AUGMENT_SCHEMES))
        for factor in self.lowres_factors:
            _check_count("lowres factor", factor, 1)
        for alpha in self.alpha_sweep:
            _check_real("alpha", alpha, 0)


@dataclass(frozen=True)
class StudyRow:
    """One sweep point: per-angle MAE in degrees, their mean, trial counts.

    trials counts the trials that produced a solution; excluded counts
    trials dropped because the solver raised (kept out of the CSV, which
    has a pinned column set, but reported by the CLI).
    """

    sweep: str
    yaw_mae: float
    pitch_mae: float
    roll_mae: float
    mae: float
    trials: int
    excluded: int = 0


@dataclass(frozen=True)
class StudyResult:
    study: str
    rows: tuple


def _scenes(config: StudyConfig, model, count: int):
    """Yield (rng, pose) for scenes 0..count-1, each imaged by CAMERA.

    Scene i draws a uniform pose, at a depth scaled to the model, from
    seed master_seed+i; the caller makes its own draws from rng after
    that.  The fixed draw order keeps streams reproducible.
    """
    tz_base = _viewing_distance(model.bounding_radius())
    for i in range(count):
        rng = np.random.default_rng(config.master_seed + i)
        yaw = rng.uniform(-YAW_RANGE, YAW_RANGE)
        pitch = rng.uniform(-PITCH_RANGE, PITCH_RANGE)
        roll = rng.uniform(-ROLL_RANGE, ROLL_RANGE)
        tx = rng.uniform(-0.3, 0.3)
        ty = rng.uniform(-0.3, 0.3)
        tz = tz_base * rng.uniform(0.8, 1.3)
        yield rng, Pose(EulerAngles(yaw, pitch, roll), np.array([tx, ty, tz]))


def _sweep_label(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def _finish_row(label, errors: np.ndarray, excluded: int) -> StudyRow:
    """Mean per-angle error over the (trials, 3) errors, summed in trial
    order; a NaN row when there are no trials."""
    if len(errors):
        per_angle = errors.sum(axis=0) / len(errors)
        return StudyRow(_sweep_label(label), float(per_angle[0]), float(per_angle[1]),
                        float(per_angle[2]), float(per_angle.mean()), len(errors), excluded)
    return StudyRow(_sweep_label(label), math.nan, math.nan, math.nan, math.nan, 0, excluded)


def _pnp_sweep(config: StudyConfig, study: str, face, models, trial) -> StudyResult:
    """The trial loop shared by the PnP studies.

    models maps each sweep label, in row order, to the model rows (N, 3)
    it is solved against in every trial.  Trial i samples a pose of face
    from seed master_seed+i and calls trial(rng, pose), which makes the
    study's own draws from rng and returns label -> image rows (N, 2) in
    CAMERA.  Trials run in blocks of TRIAL_BLOCK.  Each label's model is
    checked by one PnPProblem per block, on the block's first kept trial;
    the block's image rows are stacked and checked per label by
    _check_images and solved by one _solve_arrays call, whose rotations
    are converted to Euler angles and scored against their trials' true
    angles before the next block starts.  A trial whose projection raises
    BehindCameraError is excluded at every label; a degenerate model
    excludes its label from every trial, and a solve that starts behind
    the camera excludes that trial at that label.
    """
    labels = tuple(models)
    errors = {label: [np.empty((0, 3))] for label in labels}
    excluded = dict.fromkeys(labels, 0)
    scenes = _scenes(config, face, config.trials)

    while block := list(islice(scenes, TRIAL_BLOCK)):
        images = {label: [] for label in labels}
        truths = []
        for rng, pose in block:
            try:
                image_rows = trial(rng, pose)
            except BehindCameraError:
                for label in labels:
                    excluded[label] += 1
                continue
            truths.append(pose.rotation.as_array())
            for label in labels:
                images[label].append(image_rows[label])
        if not truths:
            continue

        solved = []
        for label in labels:
            try:
                PnPProblem(models[label], images[label][0], CAMERA)
            except DegenerateProblemError:
                excluded[label] += len(truths)
            else:
                solved.append(label)

        _, rot, _, _, _, behind = _solve_arrays(
            [(models[label], _check_images(images[label], len(models[label])), CAMERA)
             for label in solved])
        truths = np.array(truths)
        for k, label in enumerate(solved):
            part = slice(k * len(truths), (k + 1) * len(truths))
            kept = ~behind[part]
            errors[label].append(angle_error(_euler_rows(rot[part][kept]), truths[kept]))
            excluded[label] += int(behind[part].sum())

    return StudyResult(study, tuple(_finish_row(label, np.concatenate(errors[label]),
                                                excluded[label]) for label in labels))


def run_subset_study(config: StudyConfig | None = None) -> StudyResult:
    """Solve deformed-subject scenes against the undeformed mean face,
    once per named keypoint subset."""
    config = config or StudyConfig()
    model = builtin_mean_face()
    rows = {name: subset_by_name(name).rows() for name in config.subsets}

    def trial(rng, pose):
        deform_seed = int(rng.integers(2 ** 63))
        subject = deform_subject(model, config.rigid_sigma, config.nonrigid_sigma, deform_seed)
        image = project(subject.points, pose, CAMERA)
        return {name: image[r] for name, r in rows.items()}

    models = {name: model.points[r] for name, r in rows.items()}
    return _pnp_sweep(config, "subset", model, models, trial)


def run_jitter_study(config: StudyConfig | None = None, subset_name: str = "all-68") -> StudyResult:
    """MAE versus uniform landmark jitter magnitude for one subset.

    Each trial draws its unit noise once, from its jitter seed, and scales
    it to every magnitude, so the noise direction is shared and only its
    amplitude grows along the sweep (common random numbers).  Each row is
    bitwise jitter_landmarks(clean, m, jitter_seed).
    """
    config = config or StudyConfig()
    model = builtin_mean_face()
    subset = subset_by_name(subset_name)
    rows = subset.rows()
    magnitudes = [float(m) for m in config.jitter_sweep]

    def trial(rng, pose):
        jitter_seed = int(rng.integers(2 ** 63))
        clean = project(model.points, pose, CAMERA)[rows]
        unit = np.random.default_rng(jitter_seed).random(clean.shape)
        return {m: clean + _scaled_uniform(unit, m) for m in magnitudes}

    models = dict.fromkeys(magnitudes, model.points[rows])
    return _pnp_sweep(config, f"jitter-{subset.name}", model, models, trial)


def run_stretch_study(config: StudyConfig | None = None, axis: str = "width") -> StudyResult:
    """MAE when the solver's model is stretched along one axis while the
    image landmarks come from the unstretched face."""
    config = config or StudyConfig()
    if axis not in ("width", "height"):
        raise ValueError(f"axis must be 'width' or 'height', got {axis!r}")
    model = builtin_mean_face()
    scales = [float(s) for s in config.stretch_sweep]
    models = {
        s: (stretch_model(model, s, 1.0) if axis == "width" else stretch_model(model, 1.0, s)).points
        for s in scales
    }

    def trial(rng, pose):
        image = project(model.points, pose, CAMERA)
        return dict.fromkeys(scales, image)

    return _pnp_sweep(config, f"stretch-{axis}", model, models, trial)


def _scene_dataset(config: StudyConfig):
    """(landmarks, targets) for config.scenes scenes, in scene order:
    landmarks (scenes, N, 2) stacks the mean face projected at the pose
    drawn from seed master_seed+i, and row i of targets is that pose's
    true (yaw, pitch, roll)."""
    model = builtin_mean_face()
    landmarks = np.empty((config.scenes, len(model.points), 2))
    targets = np.empty((config.scenes, 3))
    for i, (_, pose) in enumerate(_scenes(config, model, config.scenes)):
        landmarks[i] = project(model.points, pose, CAMERA)
        targets[i] = pose.rotation.as_array()
    return landmarks, targets


def _train_val_split(config: StudyConfig, n: int):
    # seed master_seed + n is the first one no scene consumed
    perm = np.random.default_rng(config.master_seed + n).permutation(n)
    n_val = min(max(int(round(n * config.val_fraction)), 1), n - 1)
    return perm[n_val:], perm[:n_val]


def _trained_rows(config: StudyConfig, features, views, runs) -> tuple:
    """Train one net per run on a shared split and score it on every view
    of the held-out inputs before the next run starts.

    The scene dataset is put in split order, training scenes first, while
    it is still _scene_dataset's small landmark stack, and features maps
    it once.  Every run trains on the leading rows, a view train_toy uses
    without a copy; each view transforms the trailing held-out rows, one
    transformed copy at a time.  A net is released once it is scored, so
    a study's memory does not grow with its number of runs.  Each run is
    (loss_config, augment, labels) and yields one row per view, labelled
    in order: the net's MAE on that view.  All runs share the seed, split
    and initialization; each input row depends only on its own scene, so
    the order changes no row.  A run whose training diverges yields NaN
    rows with trials=0 for all its labels.
    """
    landmarks, targets = _scene_dataset(config)
    train_idx, val_idx = _train_val_split(config, len(targets))
    order = np.concatenate((train_idx, val_idx))
    # Reorder before features, so the scene-order stack is dropped first.
    landmarks = landmarks[order]
    inputs = features(landmarks)
    del landmarks
    targets = targets[order]
    n_train = len(train_idx)
    held_out, held_out_targets = inputs[n_train:], targets[n_train:]
    rows = []
    for loss_config, augment, labels in runs:
        try:
            net = train_toy(
                inputs[:n_train], targets[:n_train], config=loss_config,
                epochs=config.epochs, seed=config.master_seed,
                hidden_size=config.hidden_size, batch_size=config.batch_size,
                lr=config.learning_rate, augment=augment,
            )[0]
        except TrainingDivergedError:
            rows.extend(_finish_row(label, np.empty((0, 3)), len(held_out)) for label in labels)
            continue
        for view, label in zip(views, labels):
            errors = angle_error(predict_angles(net, view(held_out)), held_out_targets)
            rows.append(_finish_row(label, errors, 0))
        # Released here, not when the next run's net replaces it.
        del net
    return tuple(rows)


def _landmark_features(image_points: np.ndarray) -> np.ndarray:
    """Translation- and scale-normalized flat landmark vectors (B, 2N) of a
    (B, N, 2) stack."""
    centered = image_points - image_points.mean(axis=1, keepdims=True)
    rms = np.sqrt(np.mean(np.sum(centered ** 2, axis=2), axis=1))
    return (centered / rms[:, None, None]).reshape(len(image_points), -1)


def _degrade_rows(rows: np.ndarray, size: int, factors) -> np.ndarray:
    """Row j of flat size x size rasters degraded by factors[j]."""
    return degrade_stack(rows.reshape(-1, size, size), factors).reshape(rows.shape)


def _make_raster_augment(scheme: str, size: int):
    def augment(batch, rng):
        # Every sample draws its own factor, in sample order.
        return _degrade_rows(batch, size, [augment_factor(scheme, rng) for _ in range(len(batch))])
    return augment


def run_lowres_study(config: StudyConfig | None = None) -> StudyResult:
    """Train a net per augmentation scheme on landmark rasters, then
    evaluate every net on block-degraded held-out rasters.

    Row labels are "scheme@xFACTOR".  A scheme whose training diverges
    yields NaN rows with trials=0 for all its factors.
    """
    config = config or StudyConfig()
    size = RASTER_SIZE
    scale = np.array([size / IMAGE_WIDTH, size / IMAGE_HEIGHT])

    def rasters(landmarks):
        return rasterize_stack(landmarks * scale, size, size).reshape(len(landmarks), -1)

    def degraded(factor):
        return lambda held_out: _degrade_rows(held_out, size, [factor] * len(held_out))

    views = [degraded(f) for f in config.lowres_factors]
    runs = [
        (MultiLossConfig(), None if scheme == "none" else _make_raster_augment(scheme, size),
         [f"{scheme}@x{f}" for f in config.lowres_factors])
        for scheme in config.lowres_schemes
    ]
    return StudyResult("lowres", _trained_rows(config, rasters, views, runs))


def landmark_dataset(config: StudyConfig | None = None):
    """(inputs, targets) for config.scenes synthetic scenes, in scene
    order: normalized flat landmark vectors (N, 136) and true angle rows
    (N, 3)."""
    landmarks, targets = _scene_dataset(config or StudyConfig())
    return _landmark_features(landmarks), targets


def run_alpha_ablation(config: StudyConfig | None = None) -> StudyResult:
    """Sweep the regression weight on clean normalized-landmark inputs.

    All runs share the seed, split, and initialization, so the weight is
    the only difference between rows.
    """
    config = config or StudyConfig()
    runs = [(MultiLossConfig(alpha=float(alpha)), None, [float(alpha)])
            for alpha in config.alpha_sweep]
    rows = _trained_rows(config, _landmark_features, [lambda held_out: held_out], runs)
    return StudyResult("alpha", rows)


def emit_csv(result: StudyResult, path) -> None:
    """Pinned layout: sweep,yaw_mae,pitch_mae,roll_mae,mae,trials."""
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(f"{r.sweep},{r.yaw_mae!r},{r.pitch_mae!r},{r.roll_mae!r},{r.mae!r},{r.trials}")
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"cannot write CSV to {path}: {err}") from err


def read_study_csv(path) -> StudyResult:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as err:
        raise OSError(f"cannot read CSV from {path}: {err}") from err
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: first line must be {CSV_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 comma-separated fields")
        try:
            rows.append(StudyRow(parts[0], float(parts[1]), float(parts[2]),
                                 float(parts[3]), float(parts[4]), int(parts[5])))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed numeric field") from None
    return StudyResult(Path(path).stem, tuple(rows))


def _escape(text: str) -> str:
    """text with &, < and > as XML entities, as xml.sax.saxutils.escape
    writes them; importing that module would load urllib, http and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_svg(result: StudyResult, path) -> None:
    """Line chart of per-angle MAE over the sweep, one polyline per angle."""
    width, height = 640, 400
    left, right, top, bottom = 60, 130, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    rows = result.rows
    series = (
        ("yaw", "#d62728", [r.yaw_mae for r in rows]),
        ("pitch", "#2ca02c", [r.pitch_mae for r in rows]),
        ("roll", "#1f77b4", [r.roll_mae for r in rows]),
    )
    finite = [v for _, _, vals in series for v in vals if math.isfinite(v)]
    vmax = max(finite) if finite else 1.0
    if vmax <= 0.0:
        vmax = 1.0

    def x_at(i: int) -> float:
        if len(rows) <= 1:
            return left + plot_w / 2.0
        return left + plot_w * i / (len(rows) - 1)

    def y_at(v: float) -> float:
        return top + plot_h * (1.0 - v / vmax)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="{top - 16}" font-size="14">{_escape(result.study)} MAE (deg)</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left - 8}" y="{top + 4}" font-size="10" text-anchor="end">{vmax:.3g}</text>',
        f'<text x="{left - 8}" y="{top + plot_h + 4}" font-size="10" text-anchor="end">0</text>',
    ]
    for i, r in enumerate(rows):
        parts.append(f'<text x="{x_at(i):.2f}" y="{top + plot_h + 16}" font-size="10" '
                     f'text-anchor="middle">{_escape(r.sweep)}</text>')
    for rank, (name, color, vals) in enumerate(series):
        points = " ".join(f"{x_at(i):.2f},{y_at(v):.2f}" for i, v in enumerate(vals)
                          if math.isfinite(v))
        if points:
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                         f'points="{points}"/>')
        legend_y = top + 14 * rank
        parts.append(f'<rect x="{width - right + 14}" y="{legend_y - 8}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{width - right + 30}" y="{legend_y}" font-size="11">{name}</text>')
    parts.append("</svg>")
    try:
        Path(path).write_text("\n".join(parts) + "\n")
    except OSError as err:
        raise OSError(f"cannot write SVG to {path}: {err}") from err


def load_landmarks(path):
    """Parse a 2D landmark file: one 'id u v' per line, '#' comments.

    Returns (ids, points) where ids is an int array of landmark ids in
    file order and points the matching (N, 2) pixel coordinates.
    """
    return _parse_id_lines(path, "id u v")
