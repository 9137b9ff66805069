"""Polarization qubit states, analyzer settings and Pauli algebra.

Basis order is (H, V) everywhere. All operators are 2x2 complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQ2 = np.sqrt(2.0)

_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "R": np.array([1.0, 1.0j], dtype=complex) / _SQ2,
    "L": np.array([1.0, -1.0j], dtype=complex) / _SQ2,
}

STATE_LABELS = tuple(_KETS)

# fixed operator order (I, X, Y, Z); process matrices index into this
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=complex)

_TRACE_TOL = 1e-12
_HERM_TOL = 1e-12
_EIG_TOL = -1e-10
_PURITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PolarizationState:
    """Single polarization qubit as a validated 2x2 density matrix."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
        if abs(np.trace(rho).real - 1.0) > _TRACE_TOL or abs(np.trace(rho).imag) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {np.trace(rho)}")
        if np.abs(rho - rho.conj().T).max() > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        if np.linalg.eigvalsh(rho).min() < _EIG_TOL:
            raise ValueError("density matrix is not positive semidefinite")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_ket(cls, ket: np.ndarray) -> "PolarizationState":
        ket = np.asarray(ket, dtype=complex)
        norm = np.linalg.norm(ket)
        if norm == 0:
            raise ValueError("zero ket")
        ket = ket / norm
        return cls(np.outer(ket, ket.conj()))

    @property
    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)


@dataclass(frozen=True, eq=False)
class AnalysisSetting:
    """One polarization analyzer port, a rank-1 projector with a label."""

    label: str
    projector: np.ndarray

    def __post_init__(self):
        if self.label not in STATE_LABELS:
            raise ValueError(f"unknown analyzer label {self.label!r}, expected one of {STATE_LABELS}")
        proj = np.array(self.projector, dtype=complex)
        if proj.shape != (2, 2):
            raise ValueError("projector must be 2x2")
        if np.abs(proj @ proj - proj).max() > _TRACE_TOL * 10:
            raise ValueError("projector is not idempotent")
        if abs(np.trace(proj).real - 1.0) > _TRACE_TOL:
            raise ValueError("projector must have trace 1 (rank 1)")
        proj.setflags(write=False)
        object.__setattr__(self, "projector", proj)


def standard_state(label: str) -> PolarizationState:
    """Pure state for one of the six standard labels H, V, D, A, R, L."""
    if label not in _KETS:
        raise ValueError(f"unknown state label {label!r}, expected one of {STATE_LABELS}")
    return PolarizationState.from_ket(_KETS[label])


def standard_setting(label: str) -> AnalysisSetting:
    """Analyzer projecting onto the standard state with the same label."""
    return AnalysisSetting(label, standard_state(label).rho)


def orthogonal_label(label: str) -> str:
    pairs = {"H": "V", "V": "H", "D": "A", "A": "D", "R": "L", "L": "R"}
    return pairs[label]


def expectation(state: PolarizationState, setting: AnalysisSetting) -> float:
    """Detection probability of the state at the analyzer port, in [0, 1]."""
    val = float(np.trace(state.rho @ setting.projector).real)
    return min(max(val, 0.0), 1.0)


def fidelity(state: PolarizationState, target: PolarizationState) -> float:
    """Fidelity tr(rho sigma) of a state to a pure target (squared-overlap convention).

    A target whose purity is below 1 - 1e-9 raises ValueError.
    """
    if target.purity < 1.0 - _PURITY_TOL:
        raise ValueError(f"fidelity needs a pure target, got purity {target.purity}")
    return float(np.clip(np.trace(state.rho @ target.rho).real, 0.0, 1.0))
