"""Per-call medians of the hot kernels on fixed inputs.

The inputs do not depend on the workload seed, so these numbers compare
one layer across commits without the workload around it.  Like every
time the benchmark reports, they are scaled by the speed probe.  Sizes
follow the studies: 68 and 6 landmarks at 450 px, 32x32 rasters, and a
toy net with input 1024, hidden 128 and batch 32.
"""

import statistics
import time

import numpy as np

import yardstick
from poselab import camera, facemodel, multiloss, pnp, raster, rotmath

REPEATS = 7


def median_us(fn, number: int) -> float:
    """Median over REPEATS batches of the mean per-call time, in µs,
    scaled to the reference machine speed like the end-to-end times."""
    fn()
    batches = []
    with yardstick.Probed() as probed:
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            batches.append((start, time.perf_counter()))
    per_call = [probed.scale(probed.own_between(start, end)) / number for start, end in batches]
    return statistics.median(per_call) * 1e6


def kernel_metrics() -> dict:
    model = facemodel.builtin_mean_face().points
    intrinsics = camera.default_intrinsics(450, 450)
    truth = camera.Pose(rotmath.EulerAngles(20.0, -10.0, 5.0), np.array([0.05, -0.02, 3.5]))
    # LM evaluates residuals and Jacobians away from the optimum.
    iterate = camera.Pose(rotmath.EulerAngles(12.0, -4.0, 1.0), np.array([0.0, 0.0, 3.2]))
    image = camera.project(model, truth, intrinsics)
    rigid6 = facemodel.subset_by_name("rigid-6").rows()
    problems = {
        68: pnp.PnPProblem(model, image, intrinsics),
        6: pnp.PnPProblem(model[rigid6], image[rigid6], intrinsics),
    }

    out = {"camera.project_us": median_us(lambda: camera.project(model, truth, intrinsics), 300)}
    for n, problem in problems.items():
        out[f"pnp.residual_{n}_us"] = median_us(
            lambda: pnp.reprojection_residuals(problem, iterate), 300)
        out[f"pnp.jacobian_{n}_us"] = median_us(lambda: pnp.jacobian(problem, iterate), 200)
    out["pnp.solve_68_us"] = median_us(lambda: pnp.solve_pnp(problems[68]), 20)

    size = 32
    splat = image * (size / 450.0)
    out["raster.rasterize_us"] = median_us(lambda: raster.rasterize(splat, size, size), 30)

    spec = multiloss.BinSpec()
    rng = np.random.default_rng(0)
    net = multiloss.toynet_init(size * size, 128, spec, seed=0)
    batch = rng.random((32, size * size))
    dlogits = rng.standard_normal((32, 3, spec.num_bins)) * 1e-3
    grads = multiloss.toynet_backward(net, batch, dlogits)
    state = multiloss.AdamState()
    params = {name: p.copy() for name, p in net.parameters().items()}
    out["multiloss.forward_us"] = median_us(lambda: multiloss.toynet_forward(net, batch), 100)
    out["multiloss.backward_us"] = median_us(
        lambda: multiloss.toynet_backward(net, batch, dlogits), 50)
    out["multiloss.adam_step_us"] = median_us(lambda: multiloss.adam_step(params, grads, state), 30)
    return {name: (value, "us") for name, value in out.items()}
