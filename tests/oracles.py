"""Test oracles: independent state and channel algebra that no command runs.

Channel propagation, the chi <-> Choi change of frame, random CPTP
channels, the trace distance and the Bloch vector. The tests use them
to check the reconstructions in afcmem against known answers.
"""

import numpy as np

from afcmem.errors import EstimationError
from afcmem.polarization import PAULIS, PolarizationState
from afcmem.tomography import _PAULI_DAGGERS, ProcessMatrix

# columns (sigma_k (x) I)|Omega>, the frame mapping chi to the Choi matrix
_OMEGA = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
_FRAME = np.stack([np.kron(s, np.eye(2)) @ _OMEGA for s in PAULIS], axis=1)


def bloch(state: PolarizationState) -> np.ndarray:
    """Bloch vector (x, y, z); H sits at z = +1."""
    return np.array([np.trace(state.rho @ s).real for s in PAULIS[1:]])


def trace_distance(a: PolarizationState, b: PolarizationState) -> float:
    ev = np.linalg.eigvalsh(a.rho - b.rho)
    return float(0.5 * np.sum(np.abs(ev)))


def apply_process(chi: ProcessMatrix, state: PolarizationState) -> PolarizationState:
    """Propagate a state through the channel described by chi.

    The output trace is renormalized when chi is not trace preserving;
    use ProcessMatrix.tp_defect to check for that beforehand.
    """
    out = np.einsum("kl,kab,bc,lcd->ad", chi.chi, PAULIS, state.rho, _PAULI_DAGGERS)
    out = 0.5 * (out + out.conj().T)
    tr = np.trace(out).real
    if tr <= 0:
        raise EstimationError("channel maps the state to zero trace")
    return PolarizationState(out / tr)


def chi_to_choi(chi: np.ndarray) -> np.ndarray:
    return _FRAME @ np.asarray(chi, dtype=complex) @ _FRAME.conj().T


def choi_to_chi(choi: np.ndarray) -> np.ndarray:
    return _FRAME.conj().T @ np.asarray(choi, dtype=complex) @ _FRAME / 4.0


def random_process_matrix(seed: int) -> ProcessMatrix:
    """Random completely positive trace-preserving chi (Ginibre Choi state)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    choi = g @ g.conj().T
    w = np.einsum("aiaj->ij", choi.reshape(2, 2, 2, 2))
    ev, vec = np.linalg.eigh(w)
    w_isqrt = (vec * (1.0 / np.sqrt(ev))) @ vec.conj().T
    sandwich = np.kron(np.eye(2), w_isqrt)
    chi = choi_to_chi(sandwich @ choi @ sandwich)
    return ProcessMatrix(0.5 * (chi + chi.conj().T), projected=True)
