"""The public API is what the commands use and the README shows; test oracles stay in tests/."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys

import afcmem

PUBLIC = [
    "BoundResult", "ConfigError", "CountHistogram", "DensityMatrixEstimate", "EstimationError",
    "ExperimentConfig", "MemoryParams", "ParamEstimate", "PolarizationState", "ProcessMatrix",
    "STATE_LABELS", "StorageSchedule", "StrategyParams", "TomographyData",
    "TransmissionEstimate", "estimate_params", "estimate_transmission", "export_histogram",
    "export_histograms", "export_process_matrix", "fidelity", "fidelity_vs_photon_number",
    "mle_state", "model_fidelity", "monte_carlo_errors", "orthogonal_label",
    "poisson_conditional_bound", "process_tomography", "quantumness_verdict", "simulate_run",
    "standard_state", "threshold_bound", "transmitted_constrained_bound",
]


def _oracle_names():
    """Top-level names that tests/oracles.py defines (not the ones it imports)."""
    with open(os.path.join(os.path.dirname(__file__), "oracles.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def test_public_api_pinned():
    assert sorted(afcmem.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 33
    for name in PUBLIC:
        assert hasattr(afcmem, name), name


def test_public_functions_are_what_the_cli_imports():
    # every public name but the classes (which the results are) is imported by a command
    with open(os.path.join(os.path.dirname(afcmem.__file__), "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    functions = {name for name in afcmem.__all__ if not isinstance(getattr(afcmem, name), type)}
    assert "simulate_run" in functions
    assert functions - imported == set()


def test_oracles_not_importable_from_afcmem():
    names = _oracle_names()
    assert {"apply_process", "bloch", "chi_to_choi", "choi_to_chi", "random_process_matrix",
            "trace_distance", "_OMEGA", "_FRAME"} <= set(names)
    modules = [afcmem] + [importlib.import_module(f"afcmem.{m.name}")
                          for m in pkgutil.iter_modules(afcmem.__path__)]
    for module in modules:
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # bloch was a property of the state class
    assert not hasattr(afcmem.PolarizationState, "bloch")


def test_readme_python_blocks_run():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_runtime_imports_are_numpy_and_stdlib():
    # in a fresh interpreter, so that nothing the tests import is counted; what
    # the bare interpreter already holds (site hooks) is not counted either
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import afcmem.cli\n"
            "print(' '.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(afcmem.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    added = set(proc.stdout.split())
    assert {"afcmem", "numpy"} <= added
    assert added - set(sys.stdlib_module_names) == {"afcmem", "numpy"}


def test_import_builds_no_state_and_no_windows():
    # the cached constants fill on first use, so a fresh interpreter that imports
    # the CLI and loads the default config (the benchmark's set-up) builds none
    code = ("import gc\n"
            "import afcmem.cli\n"
            "from afcmem import montecarlo, polarization\n"
            "afcmem.cli.load_config(None)\n"
            "objs = gc.get_objects()\n"
            "print(polarization.standard_state.cache_info().currsize,\n"
            "      montecarlo._window_bins.cache_info().currsize,\n"
            "      sum(isinstance(o, polarization.PolarizationState) for o in objs),\n"
            "      sum(isinstance(o, montecarlo.ExperimentConfig) for o in objs))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(afcmem.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.split() == ["0", "0", "0", "0"]


def test_perfbench_reads_names_that_exist():
    # the benchmark's span recorder wraps these functions by name and reads these
    # attributes of their results; a rename would leave its layer metrics reading 0
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
    exp = afcmem.ExperimentConfig(trials=1000)
    run = afcmem.simulate_run(exp, "D", seed=1)
    assert spans._bins((), {}, run) == {"bins": exp.n_bins}
    counts = {"H": 500, "V": 500, "D": 1000, "A": 0, "R": 500, "L": 500}
    mle = spans._mle((), {}, afcmem.mle_state(afcmem.TomographyData.from_counts(counts)))
    assert mle["iterations"] > 0 and mle["converged"] == 1
    states = [afcmem.standard_state(label) for label in "HVDR"]
    proc = spans._projection((), {}, afcmem.process_tomography(states, states))
    assert proc["projection_iterations"] >= 0
    bound = spans._bound((), {}, afcmem.transmitted_constrained_bound(1.4, grid_points=6))
    assert 2 / 3 <= bound["bound"] <= 1


def test_every_function_is_used_by_the_package_or_public():
    # API that nothing uses but its own tests is deleted, private helpers included: every
    # function and method of the package, dunders aside, is named somewhere in it outside
    # its own definition, or is public
    package = os.path.dirname(afcmem.__file__)
    defined, uses = [], {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((name, node))
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    ident = node.id if isinstance(node, ast.Name) else node.attr
                    uses.setdefault(ident, []).append((name, node.lineno))
    assert len(defined) > 100
    unused = [f"{name}:{node.lineno} {node.name}" for name, node in defined if node.name not in afcmem.__all__
              and all(f == name and node.lineno <= line <= node.end_lineno for f, line in uses.get(node.name, ()))]
    assert unused == []
