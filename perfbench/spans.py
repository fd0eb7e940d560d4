"""Span tracing from outside the program.

The tracer wraps poselab's public functions at every place a caller binds
them: modules import names directly (``from .pnp import solve_pnp``), so
the wrapper must replace ``poselab.harness.solve_pnp`` and
``poselab.cli.solve_pnp`` as well as ``poselab.pnp.solve_pnp``.  Nothing
inside the package is edited; uninstalling restores every binding.

Each wrapped call is a span with a parent (the span open when it began).
A span's self time is its duration minus the time covered by its child
spans.  Self time and call counts are summed per (layer, group); the
first traced repetition also keeps every span so it can be written out.
"""

import importlib
import json
import time
from collections import defaultdict

# The package modules, which are the layers.
LAYERS = ("rotmath", "camera", "pnp", "facemodel", "multiloss", "raster", "harness", "cli")

# (layer, group, defining module, public name).  Group "" is the layer's
# main work; named groups split a layer where the work being asked
# about differs (LM solve against problem checks, generators against parsers).
# A call inside the defining module is not a layer boundary and is not
# wrapped (rotmath's own helpers call each other per LM step), except for
# the names in OWN_MODULE_CALLS.
SPANS = (
    *(("rotmath", "", "rotmath", name) for name in (
        "euler_to_rotation", "rotation_to_euler", "axis_angle_to_rotation",
        "rotation_to_axis_angle", "skew", "angle_error", "wrap_degrees")),
    ("camera", "project", "camera", "project"),
    ("pnp", "problem", "pnp", "PnPProblem"),
    ("pnp", "solve", "pnp", "solve_pnp"),
    *(("facemodel", "", "facemodel", name) for name in (
        "builtin_mean_face", "deform_subject", "jitter_landmarks", "stretch_model",
        "subset_by_name")),
    ("facemodel", "parse", "facemodel", "load_face_model"),
    ("facemodel", "parse", "harness", "load_landmarks"),
    ("multiloss", "forward", "multiloss", "toynet_forward"),
    ("multiloss", "backward", "multiloss", "toynet_backward"),
    ("multiloss", "adam", "multiloss", "adam_step"),
    ("multiloss", "predict", "multiloss", "predict_angles"),
    ("multiloss", "train", "multiloss", "train_toy"),
    ("raster", "rasterize", "raster", "rasterize"),
    ("raster", "degrade", "raster", "degrade_values"),
    ("raster", "degrade", "raster", "augment_factor"),
    *(("harness", "", "harness", name) for name in (
        "run_subset_study", "run_jitter_study", "run_stretch_study", "run_lowres_study")),
    ("cli", "", "cli", "main"),
)

# train_toy drives the optimiser through multiloss's own globals, and the
# benchmark enters through harness.run_* and cli.main.
OWN_MODULE_CALLS = {
    "toynet_forward", "toynet_backward", "adam_step", "predict_angles",
    "run_subset_study", "run_jitter_study", "run_stretch_study", "run_lowres_study", "main",
}

GROUPS = tuple(dict.fromkeys((layer, group) for layer, group, _, _ in SPANS))

# Count metrics whose name says what is counted better than "calls".
COUNT_NAMES = {("multiloss", "adam"): "multiloss.adam_steps"}


def group_metric(layer: str, group: str, kind: str) -> str:
    if kind == "calls" and (layer, group) in COUNT_NAMES:
        return COUNT_NAMES[(layer, group)]
    return f"{layer}.{group}_{kind}" if group else f"{layer}.{kind}"


class Tracer:
    """Installs span wrappers into the poselab modules and aggregates them.

    Use as a context manager around the code to trace; aggregates persist
    across installs, so one tracer can cover several repetitions.
    """

    def __init__(self):
        self.modules = {name: importlib.import_module(f"poselab.{name}") for name in LAYERS}
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.solve_iterations = 0
        self.solve_converged = 0
        self.linear_solves = 0
        self.keep_spans = False
        self.spans = []
        # Spans are timed with this clock; a yardstick.Probed region's
        # own_clock leaves the speed probes out of every span.
        self.clock = time.perf_counter
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._open_solves = 0
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, group, module_name, name in SPANS:
            original = getattr(self.modules[module_name], name)
            wrapper = self._wrap(original, (layer, group), f"{module_name}.{name}")
            for caller, module in self.modules.items():
                if caller == module_name and name not in OWN_MODULE_CALLS:
                    continue
                if module.__dict__.get(name) is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)
        linalg = importlib.import_module("numpy.linalg")
        self._restore.append((linalg, "solve", linalg.solve))
        linalg.solve = self._count_linear_solves(linalg.solve)

    def uninstall(self) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)

    def _count_linear_solves(self, solve):
        def counted(*args, **kwargs):
            if self._open_solves:
                self.linear_solves += 1
            return solve(*args, **kwargs)
        return counted

    def _wrap(self, fn, key, span_name):
        stack = self._stack
        is_solve = key == ("pnp", "solve")

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0.0])
            if is_solve:
                self._open_solves += 1
            clock = self.clock
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, child_s = stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[key] += 1
                self.self_s[key] += duration - child_s
                if is_solve:
                    self._open_solves -= 1
                if self.keep_spans:
                    self.spans.append((span_id, parent, span_name, start, end))
            if is_solve:
                self.solve_iterations += result.iterations
                self.solve_converged += bool(result.converged)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = fn.__doc__
        return traced

    def layer_calls(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0)
        for (layer, _), count in self.calls.items():
            totals[layer] += count
        return totals

    def metrics(self, repetitions: int, self_s=None) -> dict:
        """Per-repetition counts and self seconds, plus LM ratios.

        self_s, when given, replaces the measured self seconds per
        (layer, group), for instance with speed-scaled ones.
        """
        self_s = self.self_s if self_s is None else self_s
        out = {}
        for layer, group in GROUPS:
            out[group_metric(layer, group, "calls")] = (
                self.calls[(layer, group)] / repetitions, "count")
            out[group_metric(layer, group, "self_s")] = (
                self_s.get((layer, group), 0.0) / repetitions, "s")
        solves = self.calls[("pnp", "solve")]
        out["pnp.iterations_per_solve"] = (_share(self.solve_iterations, solves), "count")
        out["pnp.converged_ratio"] = (_share(self.solve_converged, solves), "ratio")
        out["pnp.linear_solves_per_solve"] = (_share(self.linear_solves, solves), "count")
        return out

    def write_spans(self, path) -> None:
        """JSON lines: one span each, times in seconds from the first span."""
        if not self.spans:
            return
        origin = min(start for _, _, _, start, _ in self.spans)
        with open(path, "w") as out:
            for span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[3]):
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start": start - origin, "end": end - origin}) + "\n")


def _share(part: float, whole: float) -> float:
    # A layer that did no work reports 0, not a division error.
    return part / whole if whole else 0.0
