"""Tests of the benchmark itself: workload design, tracing, failure counting.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from poselab import cli  # noqa: E402

# Layers each workload is built to exercise, and layers it must bypass.
DESIGN = {
    "pnp-sweep": ({"pnp", "camera", "facemodel", "rotmath", "harness"},
                  {"raster", "multiloss", "cli"}),
    "pnp-single": ({"cli", "pnp", "facemodel", "rotmath"}, {"raster", "multiloss", "harness"}),
    "lowres-train": ({"raster", "multiloss", "harness", "camera"}, {"pnp", "cli"}),
}


def small(name, seed, workdir):
    """The workload at a size that keeps the test quick; same call pattern."""
    if name == "pnp-sweep":
        return workloads.PnPSweep(seed, trials=2)
    if name == "pnp-single":
        return workloads.PnPSingle(seed, workdir, poses=2)
    return workloads.LowresTrain(seed, scenes=40, epochs=1)


@pytest.mark.parametrize("name", sorted(DESIGN))
def test_trace_matches_workload_design_and_changes_no_output(name, tmp_path):
    workload = small(name, 3, tmp_path / "work")
    try:
        workload.setup()
        plain = workload.run_once()
        tracer = spans.Tracer()
        with tracer:
            traced = workload.run_once()
    finally:
        workload.close()

    calls = tracer.layer_calls()
    used, bypassed = DESIGN[name]
    assert {layer for layer in used if calls[layer] == 0} == set()
    assert {layer for layer in bypassed if calls[layer] != 0} == set()
    assert traced.rows == plain.rows  # bit-identical, not just close
    assert plain.failed == 0 and plain.attempted > 0


def test_tracer_restores_every_binding():
    tracer = spans.Tracer()
    before = {name: dict(vars(module)) for name, module in tracer.modules.items()}
    import numpy

    solve = numpy.linalg.solve
    with tracer:
        assert tracer.modules["harness"].solve_pnp is not before["harness"]["solve_pnp"]
        assert tracer.modules["multiloss"].adam_step is not before["multiloss"]["adam_step"]
        assert tracer.modules["cli"].solve_pnp is not before["cli"]["solve_pnp"]
    after = {name: dict(vars(module)) for name, module in tracer.modules.items()}
    assert after == before
    assert numpy.linalg.solve is solve


def test_tracer_counts_solver_work():
    workload = workloads.PnPSweep(0, trials=1)
    tracer = spans.Tracer()
    with tracer:
        workload.run_once()
    metrics = tracer.metrics(1)
    solves = metrics["pnp.solve_calls"][0]
    assert solves == 4 + 11 + 11 + 5 + 5
    assert metrics["pnp.iterations_per_solve"][0] >= 1
    assert 0.0 < metrics["pnp.converged_ratio"][0] <= 1.0
    # Every LM iteration solves at least one damped normal equation.
    assert metrics["pnp.linear_solves_per_solve"][0] >= metrics["pnp.iterations_per_solve"][0]
    assert metrics["multiloss.adam_steps"][0] == 0


def test_speed_probe_is_not_counted_as_solver_work():
    tracer = spans.Tracer()
    with tracer:
        tracer._open_solves = 1  # as if a probe fired inside a solve_pnp span
        yardstick.probe_s()
    assert tracer.linear_solves == 0


def test_numpy_scalar_repr_is_rejected_by_the_cli(tmp_path, capsys):
    path = tmp_path / "face.txt"
    path.write_text("".join(f"{i} np.float64({100.0 + i}) np.float64(200.0)\n"
                            for i in range(1, 69)))
    assert cli.main(["solve-pnp", "--landmarks", str(path)]) == 1
    assert "coordinates must be decimal numbers" in capsys.readouterr().err


def test_failed_calls_are_counted_not_skipped(tmp_path):
    workload = workloads.PnPSingle(5, tmp_path / "work", poses=1)
    try:
        workload.setup()
        good = workload.run_once()
        path, label, _ = workload.cases[0]
        path.write_text("1 np.float64(100.0) 200.0\n")
        bad = workload.run_once()
    finally:
        workload.close()
    assert good.failed == 0
    assert bad.attempted == good.attempted == len(workload.cases)
    assert bad.failed == 1
    assert bad.items == good.items - 1
    assert len(bad.calls) == bad.attempted


def test_exits_and_exceptions_are_failures(monkeypatch, tmp_path):
    # argparse exits on "--landmarks" followed by an option-like value.
    assert workloads.solve_file("--bogus")[2] is None
    assert workloads.solve_file(tmp_path / "missing.txt")[2] is None

    def broken(argv):
        raise KeyError("boom")

    monkeypatch.setattr(workloads.cli, "main", broken)
    start, end, angles = workloads.solve_file(tmp_path / "missing.txt")
    assert angles is None and end >= start


def test_reference_deviation_fails_the_check():
    workload = workloads.LowresTrain(0, scenes=40, epochs=1)
    rows = {"none@x1": 30.0, "none@x5": 31.0}
    reps = [workloads.RepResult(dict(rows), 2, 0, 10)] * 2
    assert run.check_rows(workload, reps, dict(rows)) == (0.0, [])
    moved = dict(rows, **{"none@x5": 31.0 + 10 * run.MAE_TOLERANCE_DEG})
    dev, problems = run.check_rows(workload, reps, moved)
    assert dev == pytest.approx(10 * run.MAE_TOLERANCE_DEG) and problems
    changed = [reps[0], workloads.RepResult(dict(rows, **{"none@x1": 30.5}), 2, 0, 10)]
    assert run.check_rows(workload, changed, dict(rows))[1]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pnp-sweep",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
