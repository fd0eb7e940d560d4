"""Command line front end for the studies, one-shot solves, and training."""

import argparse
import functools
import math
import sys
from dataclasses import fields
from pathlib import Path

from .facemodel import _MEAN_FACE, load_face_model, subset_by_name
from .harness import (
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    StudyConfig,
    _train_val_split,
    emit_csv,
    emit_svg,
    landmark_dataset,
    load_landmarks,
    run_alpha_ablation,
    run_jitter_study,
    run_lowres_study,
    run_stretch_study,
    run_subset_study,
)
from .camera import default_intrinsics
from .multiloss import MultiLossConfig, save_toynet, train_toy
from .pnp import PnPProblem, solve_pnp

__all__ = ["main"]


def _floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _ints(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _names(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _suffixed(out: str, tag: str, multi: bool) -> Path:
    path = Path(out)
    if not multi:
        return path
    return path.with_name(f"{path.stem}.{tag}{path.suffix}")


def _print_result(result) -> None:
    for r in result.rows:
        if math.isnan(r.mae):
            line = f"  {r.sweep}: no valid trials"
        else:
            line = (f"  {r.sweep}: mae {r.mae:.4f} deg (yaw {r.yaw_mae:.4f}, "
                    f"pitch {r.pitch_mae:.4f}, roll {r.roll_mae:.4f}) over {r.trials} trials")
        if r.excluded:
            line += f", {r.excluded} excluded"
        print(line)


# StudyConfig's tuple fields arrive as comma-separated text.
_LIST_PARSERS = {
    "subsets": _names,
    "jitter_sweep": _floats,
    "stretch_sweep": _floats,
    "lowres_schemes": _names,
    "lowres_factors": _ints,
    "alpha_sweep": _floats,
}


def _study_config(args) -> StudyConfig:
    """StudyConfig from every field given on the command line; each option's
    dest is its field name."""
    given = {f.name: getattr(args, f.name) for f in fields(StudyConfig)
             if getattr(args, f.name, None) is not None}
    for name, parse in _LIST_PARSERS.items():
        if name in given:
            given[name] = parse(given[name])
    return StudyConfig(**given)


def _jitter_subsets(args) -> tuple:
    """The --subset names (default all-68), each known and none repeated."""
    names = tuple(args.subset or ("all-68",))
    if len(set(names)) != len(names):
        raise ValueError(f"--subset has repeated values: {names}")
    for name in names:
        subset_by_name(name)
    return names


def cmd_study(args) -> int:
    """Run args.study once per variant and write its CSV (and SVG) with a
    per-row summary.

    The config and every variant are checked before the first run, so a
    bad one leaves no files behind.  With several variants every file
    name gets the variant as a suffix.
    """
    config = _study_config(args)
    variants = args.variants(args)
    multi = len(variants) > 1
    for variant in variants:
        result = args.study(config, variant)
        csv_path = _suffixed(args.out, variant, multi)
        emit_csv(result, csv_path)
        print(f"wrote {csv_path}")
        if args.svg:
            svg_path = _suffixed(args.svg, variant, multi)
            emit_svg(result, svg_path)
            print(f"wrote {svg_path}")
        _print_result(result)
    return 0


def cmd_solve_pnp(args) -> int:
    points = load_face_model(args.model).points if args.model else _MEAN_FACE
    ids, image_points = load_landmarks(args.landmarks)
    intrinsics = default_intrinsics(args.image_width, args.image_height)
    problem = PnPProblem(points[ids - 1], image_points, intrinsics)
    solution = solve_pnp(problem)
    rot = solution.pose.rotation
    t = solution.pose.translation
    print(f"yaw   {rot.yaw:12.6f} deg\n"
          f"pitch {rot.pitch:12.6f} deg\n"
          f"roll  {rot.roll:12.6f} deg\n"
          f"translation {t[0]:.6f} {t[1]:.6f} {t[2]:.6f}\n"
          f"rmse {solution.rmse:.6g} px over {len(ids)} landmarks, "
          f"{solution.iterations} iterations, converged {solution.converged} "
          f"({solution.termination})")
    return 0


def cmd_train_toy(args) -> int:
    """Train on the studies' training scenes and score the held-out ones,
    so the saved net and its final MAE are those of the ablation's row
    at this alpha and config."""
    config = _study_config(args)
    inputs, targets = landmark_dataset(config)
    train_idx, val_idx = _train_val_split(config, len(targets))
    net, history = train_toy(
        inputs[train_idx], targets[train_idx], config=MultiLossConfig(alpha=args.alpha),
        epochs=config.epochs, seed=config.master_seed,
        hidden_size=config.hidden_size, batch_size=config.batch_size,
        lr=config.learning_rate, held_out=(inputs[val_idx], targets[val_idx]),
    )
    save_toynet(net, args.out)
    print(f"untrained val MAE {history[0]['val_mae']:.4f} deg")
    print(f"final val MAE {history[-1]['val_mae']:.4f} deg after {history[-1]['epoch']} epochs "
          f"(alpha {args.alpha})")
    print(f"wrote {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The poselab parser, built once per process and reused by every main call.

    The study runners, like everything the commands call, are looked up
    in this module at call time, so rebinding one of those names in
    poselab.cli takes effect even after the parser exists.
    """
    parser = argparse.ArgumentParser(
        prog="poselab",
        description="Synthetic head-pose sensitivity studies, landmark-to-pose "
                    "solving, and binned-loss training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def study(name, help, run, variants=lambda args: ("",), trials=True):
        p = sub.add_parser(name, help=help)
        if trials:
            p.add_argument("--trials", type=int, help="Monte-Carlo trials per sweep point")
        else:
            p.add_argument("--scenes", type=int, help="synthetic scenes to generate")
            p.add_argument("--epochs", type=int)
            p.add_argument("--hidden", dest="hidden_size", type=int, help="hidden layer width")
        p.add_argument("--seed", dest="master_seed", type=int,
                       help="master seed; trial i uses seed+i")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--svg", help="also write an SVG chart here")
        p.set_defaults(func=cmd_study, study=run, variants=variants)
        return p

    p = study("study-subset", "MAE per keypoint subset under nonrigid deformation",
              lambda config, _: run_subset_study(config))
    p.add_argument("--subsets", help="comma-separated subset names")
    p.add_argument("--rigid-sigma", type=float,
                   help="whole-face Gaussian displacement sigma, model units")
    p.add_argument("--nonrigid-sigma", type=float,
                   help="extra mouth/jaw displacement sigma, model units")

    p = study("study-jitter", "MAE vs uniform landmark jitter magnitude",
              lambda config, subset: run_jitter_study(config, subset), _jitter_subsets)
    p.add_argument("--sweep", dest="jitter_sweep",
                   help="comma-separated jitter magnitudes in pixels")
    p.add_argument("--subset", action="append",
                   help="subset to run (repeatable; default all-68); multiple "
                        "subsets write suffixed files")

    p = study("study-stretch", "MAE vs solver-model stretch factor",
              lambda config, axis: run_stretch_study(config, axis),
              lambda args: ("width", "height") if args.axis == "both" else (args.axis,))
    p.add_argument("--sweep", dest="stretch_sweep", help="comma-separated scale factors")
    p.add_argument("--axis", choices=("width", "height", "both"), default="both")

    p = study("study-lowres", "trained-net MAE vs raster degradation factor",
              lambda config, _: run_lowres_study(config), trials=False)
    p.add_argument("--schemes", dest="lowres_schemes",
                   help="comma-separated augmentation schemes (none, fixed10, uniform1to10, set5)")
    p.add_argument("--factors", dest="lowres_factors",
                   help="comma-separated integer degradation factors")

    p = study("ablate-alpha", "trained-net MAE vs regression loss weight",
              lambda config, _: run_alpha_ablation(config), trials=False)
    p.add_argument("--sweep", dest="alpha_sweep", help="comma-separated alpha values")

    p = sub.add_parser("solve-pnp", help="solve one pose from a landmark file")
    p.add_argument("--landmarks", required=True, help="file with one 'id u v' per line")
    p.add_argument("--model", help="face model file 'id x y z' (default: built-in)")
    p.add_argument("--image-width", dest="image_width", type=float, default=IMAGE_WIDTH)
    p.add_argument("--image-height", dest="image_height", type=float, default=IMAGE_HEIGHT)
    p.set_defaults(func=cmd_solve_pnp)

    p = sub.add_parser("train-toy", help="train a small net on synthetic landmark scenes")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--scenes", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", dest="hidden_size", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--alpha", type=float, default=2.0, help="regression loss weight")
    p.add_argument("--seed", dest="master_seed", type=int)
    p.set_defaults(func=cmd_train_toy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
