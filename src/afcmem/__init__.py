"""Simulation and analysis toolkit for a temporally multimode spin-wave
memory storing polarization qubits at the single-photon level.

The package models the full counting experiment (storage timeline,
retrieval noise, analyzer projections, Poissonian detection), recovers
memory parameters and qubit fidelities from the simulated histograms,
reconstructs states and the storage process by maximum likelihood, and
evaluates the measure-and-prepare classical benchmarks the measured
fidelities must beat.
"""

__version__ = "0.1.0"

from .bounds import (BoundResult, StrategyParams, poisson_conditional_bound, quantumness_verdict,
                     threshold_bound, transmitted_constrained_bound)
from .errors import ConfigError, EstimationError
from .memory import MemoryParams, StorageSchedule, fidelity_vs_photon_number
from .montecarlo import (CountHistogram, ExperimentConfig, ParamEstimate, TransmissionEstimate,
                         estimate_params, estimate_transmission, export_histogram,
                         export_histograms, model_fidelity, simulate_run)
from .polarization import PolarizationState, STATE_LABELS, fidelity, orthogonal_label, standard_state
from .tomography import (DensityMatrixEstimate, ProcessMatrix, TomographyData,
                         export_process_matrix, mle_state, monte_carlo_errors, process_tomography)

__all__ = [
    "BoundResult", "ConfigError", "CountHistogram", "DensityMatrixEstimate", "EstimationError",
    "ExperimentConfig", "MemoryParams", "ParamEstimate", "PolarizationState", "ProcessMatrix",
    "STATE_LABELS", "StorageSchedule", "StrategyParams", "TomographyData",
    "TransmissionEstimate", "estimate_params", "estimate_transmission", "export_histogram",
    "export_histograms", "export_process_matrix", "fidelity", "fidelity_vs_photon_number",
    "mle_state", "model_fidelity", "monte_carlo_errors", "orthogonal_label",
    "poisson_conditional_bound", "process_tomography", "quantumness_verdict", "simulate_run",
    "standard_state", "threshold_bound", "transmitted_constrained_bound",
]
