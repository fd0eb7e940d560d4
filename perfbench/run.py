"""poselab benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload pnp-sweep --seed 0 --seconds 30 --trace 0

poselab is imported from the ``src/`` directory beside ``perfbench/``.
The run sets up the workload several times (``setup_s`` is the median
of a fresh import plus the set-up), then repeats the workload's fixed work
until ``--seconds`` have passed, checks the outputs and prints every
metric, with the run's environment, on the lines before the result.
``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced repetitions and reports
per-layer metrics, kernel medians and the tracing overhead, and writes
the first traced repetition's spans under ``.perfbench_out/``.  Every
reported time is scaled by the speed probe in ``yardstick.py``.
``--write-reference`` stores the row MAEs of one repetition as the
seed's correctness reference.

Exit status: 0 when the outputs are correct, 1 when they are not, 2 when
the arguments or the source tree are unusable (no result is printed).
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pnp-sweep", "pnp-single", "lowres-train")
REFERENCES = HERE / "references.json"
OUT_DIR = ROOT / ".perfbench_out"
# One BLAS thread: every workload is one caller on small matrices, and
# more threads on a shared machine measure the scheduler, not poselab.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_REPS = 3
# Largest |row MAE - reference| accepted: the per-row tolerance the
# solver-termination work is gated on.
MAE_TOLERANCE_DEG = 1e-6


def parse_args(argv):
    parser = argparse.ArgumentParser(description="poselab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's row MAEs as the reference and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "poselab" / "__init__.py").is_file():
        print(f"error: no poselab source tree under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(ROOT / "src"))

    import kernels
    import spans
    import workloads
    import yardstick

    workload = workloads.make(args.workload, args.seed, ROOT / ".perfbench_work" / str(os.getpid()))
    try:
        setup = measure_setup(workload, yardstick)
        if args.write_reference:
            write_reference(args.workload, args.seed, workload.run_once().rows)
            return 0
        if args.trace:
            return report_traced(args, workload, spans, yardstick, kernels)
        return report_untraced(args, workload, spans, yardstick, setup)
    finally:
        workload.close()


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and poselab."""
    code = ("import time; start = time.perf_counter(); import numpy, poselab; "
            "print(time.perf_counter() - start)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return float(out.stdout)


def measure_setup(workload, yardstick) -> tuple:
    """(scaled, unscaled) median seconds of a fresh import plus workload.setup().

    The import runs in a child process and is timed there, with no probe
    competing for the cores; the probes taken during all the in-process
    set-ups together give the speed both parts are scaled by.
    """
    imports, regions = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        with yardstick.Probed() as probed:
            workload.setup()
        regions.append(probed)
    probes = [end - start for probed in regions for start, end in probed.probes]
    speed = statistics.mean(probes) if probes else yardstick.probe_s()
    unscaled = statistics.median(i + probed.own_s for i, probed in zip(imports, regions))
    return unscaled * yardstick.REFERENCE_S / speed, unscaled


def report_untraced(args, workload, spans, yardstick, setup) -> int:
    reps, regions = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
        with yardstick.Probed() as probed:
            reps.append(workload.run_once())
        regions.append(probed)
    walls = [probed.scaled_s for probed in regions]

    reference = load_reference(args.workload, args.seed)
    reference_kind = f"stored (seed {args.seed})"
    if reference is None:
        # No stored reference for this seed: the untraced rows must match a
        # traced repetition, which re-checks that tracing changes nothing.
        with spans.Tracer():
            reference = workload.run_once().rows
        reference_kind = "traced repetition"
    mae_dev, problems = check_rows(workload, reps, reference)

    metrics = {
        "setup_s": (setup[0], "s"),
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (statistics.median(r.items / w for r, w in zip(reps, walls)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"work_item": workload.item, "mae_dev_deg": mae_dev,
              "mae_tolerance_deg": MAE_TOLERANCE_DEG, "mae_reference": reference_kind,
              "unscaled_setup_s": setup[1],
              "unscaled_wall_s": statistics.median(probed.own_s for probed in regions),
              "probe_s": statistics.median(probed.speed_s for probed in regions),
              "probe_reference_s": yardstick.REFERENCE_S}
    latencies = [probed.scale(probed.own_between(start, end))
                 for rep, probed in zip(reps, regions) for start, end in rep.calls]
    if latencies:
        cuts = statistics.quantiles(latencies, n=100)
        detail.update(solve_p50_ms=statistics.median(latencies) * 1e3,
                      solve_p99_ms=cuts[98] * 1e3, solve_latency_samples=len(latencies))
    return finish(args, reps, metrics, detail, problems)


def report_traced(args, workload, spans, yardstick, kernels) -> int:
    tracer = spans.Tracer()
    plain_walls, traced_walls, reps, traced_rows = [], [], [], []
    scaled_self = defaultdict(float)
    start = time.perf_counter()
    while len(traced_walls) < 2 or time.perf_counter() - start < args.seconds:
        with yardstick.Probed() as probed:
            reps.append(workload.run_once())
        plain_walls.append(probed.scaled_s)
        tracer.keep_spans = not traced_walls
        before = dict(tracer.self_s)
        with yardstick.Probed() as probed:
            tracer.clock = probed.own_clock
            with tracer:
                reps.append(workload.run_once())
        traced_walls.append(probed.scaled_s)
        traced_rows.append(reps[-1].rows)
        for key, seconds in tracer.self_s.items():
            scaled_self[key] += probed.scale(seconds - before.get(key, 0.0))
    tracer.keep_spans = False

    reference = load_reference(args.workload, args.seed)
    reference_kind = f"stored (seed {args.seed})"
    if reference is None:
        reference, reference_kind = traced_rows[0], "traced repetition"
    mae_dev, problems = check_rows(workload, reps, reference)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)

    metrics = tracer.metrics(len(traced_walls), scaled_self)
    metrics.update(kernels.kernel_metrics())
    metrics["trace.overhead_share"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    detail = {"mae_dev_deg": mae_dev, "mae_tolerance_deg": MAE_TOLERANCE_DEG,
              "mae_reference": reference_kind, "layer_calls_per_rep": {
                  layer: calls / len(traced_walls) for layer, calls in tracer.layer_calls().items()},
              "traced_reps": len(traced_walls), "spans_file": str(spans_path.relative_to(ROOT))}
    return finish(args, reps, metrics, detail, problems)


def check_rows(workload, reps, reference) -> tuple:
    """(max |row MAE - reference| in degrees, list of problems found)."""
    rows = reps[0].rows
    problems = []
    if any(rep.rows != rows for rep in reps[1:]):
        problems.append("repetitions of the same work produced different rows")
    if set(rows) != set(reference):
        problems.append(f"row labels {sorted(rows)} differ from the reference's")
    bad = [label for label, mae in rows.items() if not 0.0 <= mae <= 180.0]
    if bad:
        problems.append(f"rows without a finite MAE in [0, 180]: {bad}")
    deviations = [abs(rows[label] - reference[label]) for label in set(rows) & set(reference)]
    mae_dev = max(deviations, default=math.inf)
    if not mae_dev <= MAE_TOLERANCE_DEG:
        problems.append(f"row MAE deviates from the reference by {mae_dev!r} deg")
    problems.extend(workload.sanity(rows))
    return (mae_dev if math.isfinite(mae_dev) else None), problems


def finish(args, reps, metrics, detail, problems) -> int:
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, reps=len(reps),
                  failed_share=failed / attempted, problems=problems,
                  env=environment(args.seed))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def load_reference(workload: str, seed: int):
    if not REFERENCES.is_file():
        return None
    entry = json.loads(REFERENCES.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["rows"]


def write_reference(workload: str, seed: int, rows: dict) -> None:
    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    references[workload] = {"seed": seed, "rows": rows}
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} reference rows for {workload} seed {seed} to {REFERENCES}")


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_threads_requested": os.environ[BLAS_THREAD_VARS[0]],
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_sha(root: Path):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
