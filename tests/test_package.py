import argparse
import ast
import importlib.util
import inspect
import io
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import poselab
from poselab import pnp
from poselab.cli import build_parser

MODULES = sorted(info.name for info in pkgutil.iter_modules(poselab.__path__))
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def test_readme_examples_run():
    # Every python block of the README, in order, in one namespace: later
    # blocks use the names earlier ones define.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_commands_parse():
    # Every poselab command line of the README's sh blocks, with its
    # backslash continuations joined, parses; together they show every
    # subcommand.
    blocks = re.findall(r"^```sh\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("poselab ")]
    assert len(commands) >= 7
    parser = build_parser()
    shown = {parser.parse_args(argv).command for argv in commands}
    [subcommands] = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert shown == set(subcommands.choices)


def test_readme_termination_table_matches_pnp():
    # The README's table of stopping tests lists TERMINATIONS in order and
    # says "yes" under converged for exactly those in CONVERGED.
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| `termination` | when | `converged` |"):].split("\n\n")[0]
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table.splitlines()[2:]]
    assert [name for name, _, _ in rows] == [f"`{t}`" for t in pnp.TERMINATIONS]
    assert {name.strip("`") for name, _, converged in rows if converged == "yes"} == pnp.CONVERGED
    assert {converged for _, _, converged in rows} == {"yes", "no"}


def perfbench_bindings(source: str) -> list:
    """(module, name, call) for every attribute a perfbench script reads off a
    poselab module it imports with "from poselab import ..."; call is the
    ast.Call when the attribute is called, else None."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "poselab"
               for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [(node.value.id, node.attr, calls.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


def load_perfbench(script: str):
    """perfbench/<script>.py, loaded by path as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{script}",
                                                  ROOT / "perfbench" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_spans_resolve():
    # perfbench/spans.py wraps these names; one renamed or deleted here
    # would fail the benchmark run instead of the tests.
    spans = load_perfbench("spans")
    assert len(spans.SPANS) > 20
    for _, _, module, name in spans.SPANS:
        assert hasattr(importlib.import_module(f"poselab.{module}"), name), f"{module}.{name}"


@pytest.mark.parametrize("name", ["pnp-sweep", "pnp-single", "lowres-train"])
def test_benchmark_reference_rows_hold(tmp_path, name):
    # One seed-0 repetition of the workload at its default sizes matches the
    # benchmark's stored reference rows within the benchmark's tolerance, so
    # a change that moves rows past it fails here, not only in a benchmark run.
    run, workloads = load_perfbench("run"), load_perfbench("workloads")
    workload = workloads.make(name, 0, tmp_path / "work")
    try:
        workload.setup()
        rep = workload.run_once()
    finally:
        workload.close()
    mae_dev, problems = run.check_rows(workload, [rep], run.load_reference(name, 0))
    assert problems == [] and mae_dev <= run.MAE_TOLERANCE_DEG


@pytest.mark.parametrize("script", ["kernels.py", "workloads.py"])
def test_benchmark_calls_resolve(script):
    # Every poselab name the script reads exists, and every call it makes
    # binds to the callee's signature (a dropped keyword fails here).
    bindings = perfbench_bindings((ROOT / "perfbench" / script).read_text())
    assert len(bindings) > 5
    for module, name, call in bindings:
        target = getattr(importlib.import_module(f"poselab.{module}"), name, None)
        assert target is not None, f"{module}.{name}"
        if call is not None and not any(isinstance(a, ast.Starred) for a in call.args) \
                and all(k.arg is not None for k in call.keywords):
            inspect.signature(target).bind(*call.args, **{k.arg: None for k in call.keywords})


# One valid call of every public callable and dataclass that has a parameter
# annotated int or float, as (args, kwargs) built afresh for each call.
VALID_CALLS = {
    "camera.CameraIntrinsics": lambda: ((450.0, 450.0, 225.0, 225.0), {}),
    "camera.default_intrinsics": lambda: ((640, 480), {}),
    "facemodel.deform_subject": lambda: ((poselab.builtin_mean_face(), 0.1, 0.2, 0), {}),
    "facemodel.jitter_landmarks": lambda: ((np.zeros((4, 2)), 1.0, 0), {}),
    "facemodel.stretch_model": lambda: ((poselab.builtin_mean_face(), 1.2, 0.8), {}),
    "harness.StudyConfig": lambda: ((), {}),
    "multiloss.BinSpec": lambda: ((), {}),
    "multiloss.MultiLossConfig": lambda: ((), {}),
    "multiloss.cross_entropy": lambda: ((np.full(4, 0.25), 1), {}),
    "multiloss.toynet_init": lambda: ((4, 3, poselab.BinSpec()), {}),
    "multiloss.train_toy": lambda: ((np.zeros((4, 3)), np.zeros((4, 3))),
                                    {"epochs": 1, "hidden_size": 2, "batch_size": 2, "lr": 1e-3}),
    "raster.Raster": lambda: ((2, 3, np.zeros((3, 2))), {}),
    "raster.degrade": lambda: ((poselab.rasterize(np.zeros((1, 2)), 4, 4), 2), {}),
    "raster.degrade_values": lambda: ((np.zeros((4, 4)), 2), {}),
    "raster.rasterize": lambda: ((np.zeros((1, 2)), 4, 4), {}),
    "raster.rasterize_stack": lambda: ((np.zeros((1, 1, 2)), 4, 4), {}),
}
# Public callables whose int or float parameters may take a bool, and why.
NUMBER_RULE_EXEMPT = {
    "rotmath.EulerAngles": "angles: any finite angle is accepted and wrapped where it is used",
    "rotmath.wrap_degrees": "angles: wraps any angle it is given",
    "multiloss.bin_angle": "angles: the bin spec's range check is the angle's rule",
    "pnp.PnPSolution": "result record: built by the solver from values it computed",
    "multiloss.AngleLossTerms": "result record: built by the loss from values it computed",
    "harness.StudyRow": "result record: built by the studies from counts and means",
    "facemodel.ParseError": "result record: the parser's own line number in an error",
    "multiloss.AdamState": "train_toy builds it from an lr it has already checked",
}


def number_parameters() -> list:
    """("module.name", parameter) for every parameter annotated int or float
    on a callable in the __all__ of a poselab module."""
    found = []
    for module in MODULES:
        namespace = importlib.import_module(f"poselab.{module}")
        for name in getattr(namespace, "__all__", ()):
            try:
                parameters = inspect.signature(getattr(namespace, name)).parameters.values()
            except (TypeError, ValueError):  # a constant, or an exception with no __init__
                continue
            found += [(f"{module}.{name}", parameter.name) for parameter in parameters
                      if parameter.annotation in (int, float)]
    return found


def test_number_rule_tables_cover_every_number_parameter():
    qualified = {name for name, _ in number_parameters()}
    assert qualified == set(VALID_CALLS) | set(NUMBER_RULE_EXEMPT)
    assert not set(VALID_CALLS) & set(NUMBER_RULE_EXEMPT)


@pytest.mark.parametrize("qualified, parameter",
                         [found for found in number_parameters() if found[0] in VALID_CALLS])
def test_bool_number_argument_raises_value_error(qualified, parameter):
    # True passes a numeric test as 1, so every count and real argument is
    # checked as one: a bool raises ValueError, as NaN and infinity do.
    module, name = qualified.split(".")
    target = getattr(importlib.import_module(f"poselab.{module}"), name)
    args, kwargs = VALID_CALLS[qualified]()
    target(*args, **kwargs)
    args, kwargs = VALID_CALLS[qualified]()
    bound = inspect.signature(target).bind(*args, **kwargs)
    bound.arguments[parameter] = True
    with pytest.raises(ValueError):
        target(*bound.args, **bound.kwargs)


def test_modules_found():
    assert {"cli", "harness", "pnp"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # A star import looks up every name in the module's __all__, so a stale
    # entry raises AttributeError here.
    exec(f"from poselab.{module} import *", {})


def test_package_exports_resolve():
    for name in poselab.__all__:
        assert hasattr(poselab, name), name


def test_import_loads_no_network_stack():
    # Nothing in poselab talks to a network; xml.sax alone would pull in
    # urllib.request, http.client, email, ssl and socket.
    script = (
        "import sys\n"
        "import poselab, poselab.cli\n"
        "print(' '.join(m for m in ('ssl', 'socket', 'http.client', 'urllib.request',\n"
        "                          'email', 'xml.sax') if m in sys.modules))\n"
    )
    src = str(Path(poselab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, nor lists in __all__.

    An import statement or name whose line carries "# noqa: F401" is exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if any("# noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno)):
                continue
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def dead_private_names(sources: dict) -> list:
    """Module-level private names (one leading underscore; dunders excluded) that
    no module of sources, a dict of module name to source, reads or imports.

    A function, class or assigned constant counts; a name read as an
    attribute (module._name) or imported in any module counts as read.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(f"{module}: {name}" for module, name in defined if name not in read)


def test_no_dead_private_names():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "poselab").glob("*.py")}
    assert {"pnp", "rotmath"} <= set(sources)
    assert dead_private_names(sources) == []


def test_dead_private_name_check_flags_and_exempts():
    a = ("_READ = 1\n_DEAD = 2\n__version__ = '1'\n_attr: int = 3\n_annotated_dead: int = 4\n"
         "def _imported(): pass\ndef _dead(): return _READ\nclass _Dead: pass\n")
    b = "from a import _imported\nimport a\nprint(a._attr)\n"
    assert dead_private_names({"a": a, "b": b}) == [
        "a: _DEAD", "a: _Dead", "a: _annotated_dead", "a: _dead"]


def cited_private_names(text: str) -> list:
    """(module, name) for every _private name text cites, as module._name or
    as _name with module ""; dunders are no citation."""
    return re.findall(r"(?<!\w)(?:([A-Za-z]\w*)\.)?(_[A-Za-z0-9]\w*)", text)


def stale_private_names(sources: dict, readme: str) -> list:
    """Private names that a docstring or comment of sources (module name to
    source), or a backticked span of readme, cites but no module defines.

    module._name, with module one of sources, needs a function, class or
    assignment at the top level of that module: an import does not count,
    so a name cited where it no longer lives is flagged.  A bare _name
    needs a binding of any kind in any module.
    """
    top, bound, texts = {}, set(), re.findall(r"(?<!`)`([^`\n]+)`(?!`)", readme)
    for module, source in sources.items():
        tree = ast.parse(source)
        top[module] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[module].add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                top[module].update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
                texts.append(ast.get_docstring(node, clean=False) or "")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                bound.add(node.attr)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, ast.alias):
                bound.add(node.asname or node.name.split(".")[-1])
        texts.append(ast.get_docstring(tree, clean=False) or "")
        texts += [token.string for token in tokenize.generate_tokens(io.StringIO(source).readline)
                  if token.type == tokenize.COMMENT]
    stale = {f"{module}.{name}" if module in top else name
             for text in texts for module, name in cited_private_names(text)
             if name not in (top[module] if module in top else bound)}
    return sorted(stale)


def test_no_stale_private_names():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "poselab").glob("*.py")}
    assert {"pnp", "rotmath"} <= set(sources)
    assert stale_private_names(sources, (ROOT / "README.md").read_text()) == []


def test_stale_private_name_check_flags_and_exempts():
    a = ('"""Calls _helper, b._moved and b._kept; __init__ and x_y are no citations."""\n'
         "from b import _moved\n"
         "def _helper(_arg):  # _arg, _gone and a._helper\n"
         "    _local = 1\n")
    b = "_kept = 1\n"
    readme = "`a._helper`, `_local`, `c._other` and `b._missing`\n```\n_block\n```\n"
    assert stale_private_names({"a": a, "b": b}, readme) == ["_gone", "_other", "b._missing",
                                                             "b._moved"]


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


def test_unused_import_check_flags_and_exempts():
    source = ("import math\nimport os.path\nfrom a import (b,  # noqa: F401\n    c)\n"
              "from d import e as f  # noqa: F401\nfrom g import h, i\n"
              "__all__ = ['i']\nprint(os.path.sep)\n")
    assert unused_imports(source) == ["line 1: math", "line 6: h"]
