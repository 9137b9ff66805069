"""The public API is what the commands use; test oracles stay in tests/."""

import ast
import importlib
import os
import pkgutil

import afcmem

PUBLIC = [
    "AnalysisSetting", "BoundResult", "ConfigError", "CountHistogram", "DensityMatrixEstimate",
    "EstimationError", "ExperimentConfig", "MemoryParams", "ParamEstimate", "PolarizationState",
    "ProcessMatrix", "SETTING_LABELS", "STATE_LABELS", "StorageSchedule", "StrategyParams",
    "TomographyData", "TransmissionEstimate", "estimate_params", "estimate_transmission",
    "expectation", "export_histogram", "export_process_matrix", "fidelity",
    "fidelity_vs_photon_number", "mle_state", "model_conditional_fidelity", "model_mode_fidelity",
    "monte_carlo_errors", "orthogonal_label", "poisson_conditional_bound", "process_tomography",
    "project_process_matrix", "quantumness_verdict", "sequence_windows", "simulate_run",
    "standard_setting", "standard_state", "threshold_bound", "transmitted_constrained_bound",
    "validate_schedule",
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
    assert len(PUBLIC) == 40
    for name in PUBLIC:
        assert hasattr(afcmem, name), name


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
