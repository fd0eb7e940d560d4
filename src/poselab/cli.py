"""Command line front end for the studies, one-shot solves, and training."""

import argparse
import math
import sys
from pathlib import Path

from .facemodel import builtin_mean_face, load_face_model
from .harness import (
    StudyConfig,
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
from .pnp import LMConfig, PnPProblem, solve_pnp
from .rotmath import EulerAngles

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


def _base_overrides(args) -> dict:
    mapping = (
        ("trials", "trials"),
        ("seed", "master_seed"),
        ("rigid_sigma", "rigid_sigma"),
        ("nonrigid_sigma", "nonrigid_sigma"),
        ("scenes", "scenes"),
        ("epochs", "epochs"),
        ("hidden", "hidden_size"),
        ("batch_size", "batch_size"),
        ("lr", "learning_rate"),
    )
    overrides = {}
    for attr, field_name in mapping:
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field_name] = value
    return overrides


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


def _write_studies(args, run, variants=("",)) -> int:
    """Run each variant and write its CSV (and SVG) with a per-row summary.

    With several variants every file name gets the variant as a suffix.
    """
    multi = len(variants) > 1
    for variant in variants:
        result = run(variant)
        csv_path = _suffixed(args.out, variant, multi)
        emit_csv(result, csv_path)
        print(f"wrote {csv_path}")
        if args.svg:
            svg_path = _suffixed(args.svg, variant, multi)
            emit_svg(result, svg_path)
            print(f"wrote {svg_path}")
        _print_result(result)
    return 0


def cmd_study_subset(args) -> int:
    overrides = _base_overrides(args)
    if args.subsets is not None:
        overrides["subsets"] = _names(args.subsets)
    config = StudyConfig(**overrides)
    return _write_studies(args, lambda _: run_subset_study(config))


def cmd_study_jitter(args) -> int:
    overrides = _base_overrides(args)
    if args.sweep is not None:
        overrides["jitter_sweep"] = _floats(args.sweep)
    config = StudyConfig(**overrides)
    return _write_studies(args, lambda name: run_jitter_study(config, name),
                          args.subset or ["all-68"])


def cmd_study_stretch(args) -> int:
    overrides = _base_overrides(args)
    if args.sweep is not None:
        overrides["stretch_sweep"] = _floats(args.sweep)
    config = StudyConfig(**overrides)
    return _write_studies(args, lambda axis: run_stretch_study(config, axis),
                          ("width", "height") if args.axis == "both" else (args.axis,))


def cmd_study_lowres(args) -> int:
    overrides = _base_overrides(args)
    if args.schemes is not None:
        overrides["lowres_schemes"] = _names(args.schemes)
    if args.factors is not None:
        overrides["lowres_factors"] = _ints(args.factors)
    config = StudyConfig(**overrides)
    return _write_studies(args, lambda _: run_lowres_study(config))


def cmd_ablate_alpha(args) -> int:
    overrides = _base_overrides(args)
    if args.sweep is not None:
        overrides["alpha_sweep"] = _floats(args.sweep)
    config = StudyConfig(**overrides)
    return _write_studies(args, lambda _: run_alpha_ablation(config))


def cmd_solve_pnp(args) -> int:
    model = load_face_model(args.model) if args.model else builtin_mean_face()
    ids, image_points = load_landmarks(args.landmarks)
    intrinsics = default_intrinsics(args.image_width, args.image_height)
    problem = PnPProblem(model.points[ids - 1], image_points, intrinsics)
    solution = solve_pnp(problem, config=LMConfig(jacobian=args.jacobian))
    rot = solution.pose.rotation
    t = solution.pose.translation
    print(f"yaw   {rot.yaw:12.6f} deg")
    print(f"pitch {rot.pitch:12.6f} deg")
    print(f"roll  {rot.roll:12.6f} deg")
    print(f"translation {t[0]:.6f} {t[1]:.6f} {t[2]:.6f}")
    print(f"rmse {solution.rmse:.6g} px over {len(ids)} landmarks, "
          f"{solution.iterations} iterations, converged {solution.converged}")
    return 0


def cmd_train_toy(args) -> int:
    overrides = _base_overrides(args)
    config = StudyConfig(**overrides)
    inputs, targets = landmark_dataset(config)
    pairs = [(inputs[i], EulerAngles(*targets[i])) for i in range(len(inputs))]
    net, history = train_toy(
        pairs, config=MultiLossConfig(alpha=args.alpha),
        epochs=config.epochs, seed=config.master_seed,
        hidden_size=config.hidden_size, batch_size=config.batch_size,
        lr=config.learning_rate, val_fraction=config.val_fraction,
    )
    save_toynet(net, args.out)
    print(f"untrained val MAE {history[0]['val_mae']:.4f} deg")
    print(f"final val MAE {history[-1]['val_mae']:.4f} deg after {history[-1]['epoch']} epochs "
          f"(alpha {args.alpha})")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poselab",
        description="Synthetic head-pose sensitivity studies, landmark-to-pose "
                    "solving, and binned-loss training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=True):
        if trials:
            p.add_argument("--trials", type=int, help="Monte-Carlo trials per sweep point")
        p.add_argument("--seed", type=int, help="master seed; trial i uses seed+i")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--svg", help="also write an SVG chart here")

    p = sub.add_parser("study-subset", help="MAE per keypoint subset under nonrigid deformation")
    common(p)
    p.add_argument("--subsets", help="comma-separated subset names")
    p.add_argument("--rigid-sigma", dest="rigid_sigma", type=float,
                   help="whole-face Gaussian displacement sigma, model units")
    p.add_argument("--nonrigid-sigma", dest="nonrigid_sigma", type=float,
                   help="extra mouth/jaw displacement sigma, model units")
    p.set_defaults(func=cmd_study_subset)

    p = sub.add_parser("study-jitter", help="MAE vs uniform landmark jitter magnitude")
    common(p)
    p.add_argument("--sweep", help="comma-separated jitter magnitudes in pixels")
    p.add_argument("--subset", action="append",
                   help="subset to run (repeatable; default all-68); multiple "
                        "subsets write suffixed files")
    p.set_defaults(func=cmd_study_jitter)

    p = sub.add_parser("study-stretch", help="MAE vs solver-model stretch factor")
    common(p)
    p.add_argument("--sweep", help="comma-separated scale factors")
    p.add_argument("--axis", choices=("width", "height", "both"), default="both")
    p.set_defaults(func=cmd_study_stretch)

    p = sub.add_parser("study-lowres", help="trained-net MAE vs raster degradation factor")
    common(p, trials=False)
    p.add_argument("--scenes", type=int, help="synthetic scenes to generate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int, help="hidden layer width")
    p.add_argument("--schemes", help="comma-separated augmentation schemes "
                                     "(none, fixed10, uniform1to10, set5)")
    p.add_argument("--factors", help="comma-separated integer degradation factors")
    p.set_defaults(func=cmd_study_lowres)

    p = sub.add_parser("ablate-alpha", help="trained-net MAE vs regression loss weight")
    common(p, trials=False)
    p.add_argument("--sweep", help="comma-separated alpha values")
    p.add_argument("--scenes", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int)
    p.set_defaults(func=cmd_ablate_alpha)

    p = sub.add_parser("solve-pnp", help="solve one pose from a landmark file")
    p.add_argument("--landmarks", required=True, help="file with one 'id u v' per line")
    p.add_argument("--model", help="face model file 'id x y z' (default: built-in)")
    p.add_argument("--image-width", dest="image_width", type=float, default=450.0)
    p.add_argument("--image-height", dest="image_height", type=float, default=450.0)
    p.add_argument("--jacobian", choices=("analytic", "numeric"), default="analytic")
    p.set_defaults(func=cmd_solve_pnp)

    p = sub.add_parser("train-toy", help="train a small net on synthetic landmark scenes")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--scenes", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--alpha", type=float, default=2.0, help="regression loss weight")
    p.add_argument("--seed", type=int)
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
