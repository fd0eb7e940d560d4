"""Acceptance suite: ten end-to-end checks with explicit tolerances and
time budgets.  Each test prints exactly one [PASS]/[FAIL] line on the
real stdout so the verdicts survive pytest's capture."""

import math
import time

import numpy as np
import pytest

from poselab.camera import Pose, default_intrinsics, project
from poselab.facemodel import builtin_mean_face, subset_by_name
from poselab.harness import (
    StudyConfig,
    emit_csv,
    run_alpha_ablation,
    run_jitter_study,
    run_lowres_study,
    run_stretch_study,
    run_subset_study,
)
from poselab.multiloss import (
    BinSpec,
    MultiLossConfig,
    bin_angle,
    cross_entropy,
    expected_angle,
    multi_loss,
    multi_loss_gradient,
    softmax,
    toynet_backward,
    toynet_forward,
    toynet_init,
)
from poselab.pnp import PnPProblem, solve_pnp
from poselab.rotmath import EulerAngles, angle_error, euler_to_rotation, rotation_to_euler

K450 = default_intrinsics(450, 450)

_EMIT = print


@pytest.fixture(autouse=True)
def _live_console(capfd):
    # route verdict lines past pytest's capture so they always show
    global _EMIT

    def emit(line):
        with capfd.disabled():
            print(line, flush=True)

    _EMIT = emit
    yield
    _EMIT = print


def report(num, name, ok, detail, elapsed, budget=None):
    verdict = "PASS" if ok else "FAIL"
    window = f"{elapsed:.2f}s" + (f", budget {budget:g}s" if budget is not None else "")
    line = f"[{verdict}] criterion {num:2d} {name}: {detail} ({window})"
    _EMIT(line)
    assert ok, line


def sample_poses(n, seed, tz_base):
    rng = np.random.default_rng(seed)
    poses = []
    for _ in range(n):
        angles = EulerAngles(
            rng.uniform(-75.0, 75.0), rng.uniform(-60.0, 60.0), rng.uniform(-50.0, 50.0)
        )
        t = np.array([
            rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), tz_base * rng.uniform(0.8, 1.3),
        ])
        poses.append(Pose(angles, t))
    return poses


def test_criterion_01_rotation_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        e = EulerAngles(
            rng.uniform(-180.0, 180.0), rng.uniform(-89.0, 89.0), rng.uniform(-180.0, 180.0)
        )
        back = rotation_to_euler(euler_to_rotation(e))
        worst = max(
            worst,
            angle_error(back.yaw, e.yaw),
            angle_error(back.pitch, e.pitch),
            angle_error(back.roll, e.roll),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    report(1, "rotation round-trip", ok,
           f"worst component error {worst:.3e} deg over 10000 triples", elapsed, 1.0)


def test_criterion_02_pnp_exact_recovery():
    start = time.perf_counter()
    model = builtin_mean_face()
    tz_base = 2.0 * model.bounding_radius() / math.tan(math.radians(25.0))
    rows6 = subset_by_name("rigid-6").rows()
    worst = 0.0
    for pose in sample_poses(1000, seed=7, tz_base=tz_base):
        image = project(model.points, pose, K450)
        for rows in (slice(None), rows6):
            solution = solve_pnp(PnPProblem(model.points[rows], image[rows], K450))
            errors = [
                angle_error(got, want)
                for got, want in zip(
                    solution.pose.rotation.as_array(), pose.rotation.as_array()
                )
            ]
            worst = max(worst, *errors)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    report(2, "noiseless pose recovery", ok,
           f"worst angle error {worst:.3e} deg over 1000 scenes x 2 point sets",
           elapsed, 10.0)


def test_criterion_03_gradient_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    spec = BinSpec(-9.0, 9.0, 3.0)
    alphas = (0.0, 0.5, 2.0, 4.0)
    h = 1e-5
    worst = 0.0

    def rel_gap(analytic, numeric):
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
        return float(np.max(np.abs(analytic - numeric) / scale))

    # 60 loss-only instances
    for i in range(60):
        cfg = MultiLossConfig(alpha=alphas[i % len(alphas)])
        logits = rng.normal(scale=2.0, size=(3, spec.num_bins))
        target = EulerAngles(*rng.uniform(-8.9, 8.9, size=3))
        analytic = multi_loss_gradient(logits, target, spec, cfg)
        numeric = np.zeros_like(logits)
        flat, nflat = logits.ravel(), numeric.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            hi = multi_loss(logits, target, spec, cfg)[0]
            flat[k] = orig - h
            lo = multi_loss(logits, target, spec, cfg)[0]
            flat[k] = orig
            nflat[k] = (hi - lo) / (2.0 * h)
        worst = max(worst, rel_gap(analytic, numeric))

    # 40 full-network instances
    for i in range(40):
        cfg = MultiLossConfig(alpha=alphas[i % len(alphas)])
        net = toynet_init(5, 4, spec, seed=100 + i)
        net.w_heads += rng.normal(scale=0.5, size=net.w_heads.shape)
        net.b_heads += rng.normal(scale=0.5, size=net.b_heads.shape)
        net.b_hidden += rng.normal(scale=0.3, size=net.b_hidden.shape)
        xs = rng.normal(size=(2, 5))
        targets = [EulerAngles(*rng.uniform(-8.9, 8.9, size=3)) for _ in range(2)]

        def net_loss():
            total = 0.0
            for x, t in zip(xs, targets):
                total += multi_loss(toynet_forward(net, x), t, spec, cfg)[0]
            return total / len(xs)

        dlogits = np.stack([
            multi_loss_gradient(toynet_forward(net, x), t, spec, cfg) / len(xs)
            for x, t in zip(xs, targets)
        ])
        grads = toynet_backward(net, xs, dlogits)
        for name, p in net.parameters().items():
            flat = p.ravel()
            numeric = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                hi = net_loss()
                flat[k] = orig - h
                lo = net_loss()
                flat[k] = orig
                numeric[k] = (hi - lo) / (2.0 * h)
            worst = max(worst, rel_gap(grads[name].ravel(), numeric))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    report(3, "gradient exactness", ok,
           f"worst relative gap {worst:.3e} over 100 finite-difference instances",
           elapsed, 5.0)


def test_criterion_04_loss_identities():
    start = time.perf_counter()
    spec = BinSpec()
    uniform_gap = abs(cross_entropy(softmax(np.zeros(spec.num_bins)), 17) - math.log(spec.num_bins))

    onehot_exact = True
    for i in range(spec.num_bins):
        p = np.zeros(spec.num_bins)
        p[i] = 1.0
        onehot_exact = onehot_exact and expected_angle(p, spec) == spec.centers[i]

    bitwise = True
    rng = np.random.default_rng(3)
    zero_alpha = MultiLossConfig(alpha=0.0)
    for _ in range(25):
        logits = rng.normal(scale=3.0, size=(3, spec.num_bins))
        target = EulerAngles(*rng.uniform(-99.0, 98.99, size=3))
        total, terms = multi_loss(logits, target, spec, zero_alpha)
        ce = [
            cross_entropy(softmax(row), bin_angle(t, spec))
            for row, t in zip(logits, (target.yaw, target.pitch, target.roll))
        ]
        bitwise = bitwise and total == ce[0] + ce[1] + ce[2]
        bitwise = bitwise and all(term.total == c for term, c in zip(terms, ce))

    elapsed = time.perf_counter() - start
    ok = uniform_gap < 1e-12 and onehot_exact and bitwise
    report(4, "loss identities", ok,
           f"uniform CE gap {uniform_gap:.2e}, one-hot decode exact {onehot_exact}, "
           f"alpha=0 bitwise CE {bitwise}", elapsed)


def test_criterion_05_subset_trend():
    start = time.perf_counter()
    result = run_subset_study(StudyConfig(trials=500, master_seed=0, nonrigid_sigma=0.3))
    by_name = {row.sweep: row for row in result.rows}
    no_mouth = by_name["no-mouth-48"].mae
    full = by_name["all-68"].mae
    elapsed = time.perf_counter() - start
    ok = no_mouth < full and elapsed < 60.0
    report(5, "deformation subset trend", ok,
           f"no-mouth-48 MAE {no_mouth:.3f} < all-68 MAE {full:.3f} over 500 trials",
           elapsed, 60.0)


def test_criterion_06_jitter_trend():
    start = time.perf_counter()
    config = StudyConfig(trials=500, master_seed=0)
    magnitudes = np.array(config.jitter_sweep)
    slopes = {}
    monotone_ok = True
    detail_bits = []
    for subset in ("all-68", "rigid-6"):
        maes = np.array([row.mae for row in run_jitter_study(config, subset).rows])
        dips = [
            (maes[i] - maes[i + 1]) / maes[i]
            for i in range(len(maes) - 1)
            if maes[i + 1] < maes[i]
        ]
        monotone_ok = monotone_ok and len(dips) <= 1 and all(d <= 0.05 for d in dips)
        slopes[subset] = float(np.polyfit(magnitudes, maes, 1)[0])
        detail_bits.append(f"{subset} slope {slopes[subset]:.3f}")
    elapsed = time.perf_counter() - start
    ok = monotone_ok and slopes["all-68"] < slopes["rigid-6"] and elapsed < 120.0
    report(6, "jitter sensitivity trend", ok,
           f"nondecreasing {monotone_ok}, " + ", ".join(detail_bits), elapsed, 120.0)


def test_criterion_07_stretch_trend():
    start = time.perf_counter()
    # canonical five scales plus the 0.9 / 1.1 comparison points
    config = StudyConfig(
        trials=500, master_seed=0, stretch_sweep=(0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.4)
    )
    ok = True
    details = []
    for axis in ("width", "height"):
        by_scale = {row.sweep: row.mae for row in run_stretch_study(config, axis).rows}
        at_unit = by_scale["1.0"]
        ok = ok and at_unit <= 1e-6
        ok = ok and by_scale["1.4"] > by_scale["1.1"]
        ok = ok and by_scale["0.6"] > by_scale["0.9"]
        details.append(f"{axis}: MAE(1.0) {at_unit:.2e}, 1.4/1.1 "
                       f"{by_scale['1.4']:.2f}/{by_scale['1.1']:.2f}, 0.6/0.9 "
                       f"{by_scale['0.6']:.2f}/{by_scale['0.9']:.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(7, "stretch sensitivity trend", ok, "; ".join(details), elapsed, 120.0)


def test_criterion_08_augmentation_helps_at_low_resolution():
    start = time.perf_counter()
    config = StudyConfig(master_seed=0, lowres_schemes=("none", "uniform1to10"))
    rows = {row.sweep: row for row in run_lowres_study(config).rows}
    plain = rows["none@x10"]
    augmented = rows["uniform1to10@x10"]
    margin = plain.mae - augmented.mae
    elapsed = time.perf_counter() - start
    ok = margin > 0.0 and plain.trials >= 500 and augmented.trials >= 500 and elapsed < 600.0
    report(8, "augmentation at degradation x10", ok,
           f"margin {margin:.2f} deg (plain {plain.mae:.2f} vs augmented "
           f"{augmented.mae:.2f}) on {plain.trials} held-out scenes", elapsed, 600.0)


def test_criterion_09_alpha_ablation():
    start = time.perf_counter()
    result = run_alpha_ablation(StudyConfig(master_seed=0))
    by_alpha = {row.sweep: row.mae for row in result.rows}
    baseline = by_alpha["0.0"]
    best_positive = min(v for k, v in by_alpha.items() if float(k) > 0.0)
    elapsed = time.perf_counter() - start
    ok = best_positive <= baseline and elapsed < 600.0
    report(9, "regression weight ablation", ok,
           f"best alpha>0 val MAE {best_positive:.2f} <= alpha=0 val MAE {baseline:.2f} "
           "(ordering among positive alphas varies with the backbone)", elapsed, 600.0)


def test_criterion_10_deterministic_studies(tmp_path):
    start = time.perf_counter()
    small_train = dict(scenes=80, epochs=2, hidden_size=16, batch_size=16, master_seed=3)
    runs = {
        "subset": lambda: run_subset_study(StudyConfig(trials=25, master_seed=3)),
        "jitter": lambda: run_jitter_study(
            StudyConfig(trials=10, master_seed=3, jitter_sweep=(0.0, 2.0, 5.0))
        ),
        "stretch": lambda: run_stretch_study(
            StudyConfig(trials=10, master_seed=3, stretch_sweep=(0.8, 1.0, 1.2)), "width"
        ),
        "lowres": lambda: run_lowres_study(
            StudyConfig(lowres_schemes=("none", "set5"), lowres_factors=(1, 5), **small_train)
        ),
        "alpha": lambda: run_alpha_ablation(
            StudyConfig(alpha_sweep=(0.0, 2.0), **small_train)
        ),
    }
    identical = True
    for name, run in runs.items():
        first, second = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
        emit_csv(run(), first)
        emit_csv(run(), second)
        identical = identical and first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - start
    report(10, "byte-identical study reruns", identical,
           f"all {len(runs)} studies reran byte-identical", elapsed)
