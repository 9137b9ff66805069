"""Reference measurement record of the multimode storage experiment.

These are the measured working points the simulators are calibrated
against and that the reproduction command mirrors: the photon-number
scan of the whole five-mode train, the mode-resolved run at the highest
photon number, the per-input-state runs used for process tomography,
and the transmitted-state (device-independent input) characterization.

Efficiencies and noise floors are probabilities at the memory plane;
photon numbers are mean photon numbers per mode at the memory input.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunRecord:
    """One measured working point of the stored-qubit experiment."""

    mu: float
    mu_err: float
    eta: float
    eta_err: float
    p_n: float
    p_n_err: float
    mu1: float
    mu1_err: float
    fidelity: float
    fidelity_err: float
    label: str = ""


# photon-number scan, |D> stored in the full five-mode train
MU_SCAN = (
    RunRecord(0.8, 0.1, 0.043, 0.004, 0.0110, 0.0010, 0.25, 0.04, 0.795, 0.002),
    RunRecord(1.4, 0.1, 0.036, 0.003, 0.0101, 0.0012, 0.28, 0.04, 0.855, 0.001),
    RunRecord(3.6, 0.3, 0.038, 0.002, 0.0109, 0.0014, 0.29, 0.04, 0.936, 0.001),
    RunRecord(8.2, 0.6, 0.037, 0.002, 0.0121, 0.0014, 0.33, 0.05, 0.957, 0.0004),
)

# mode-resolved run; mode 1 saw a slightly lower input photon number
MODE_SCAN = (
    RunRecord(1.2, 0.1, 0.035, 0.006, 0.0088, 0.0013, 0.25, 0.08, 0.849, 0.036, "mode 1"),
    RunRecord(1.5, 0.1, 0.043, 0.006, 0.0120, 0.0015, 0.28, 0.07, 0.866, 0.029, "mode 2"),
    RunRecord(1.5, 0.1, 0.032, 0.005, 0.0090, 0.0014, 0.28, 0.08, 0.864, 0.035, "mode 3"),
    RunRecord(1.5, 0.1, 0.035, 0.006, 0.0105, 0.0014, 0.30, 0.08, 0.857, 0.032, "mode 4"),
    RunRecord(1.5, 0.1, 0.026, 0.005, 0.0094, 0.0012, 0.36, 0.10, 0.833, 0.038, "mode 5"),
)

# per-input-state runs at mu = 1.4, the process-tomography data set
STATE_SCAN = (
    RunRecord(1.4, 0.1, 0.033, 0.003, 0.0093, 0.0013, 0.28, 0.05, 0.841, 0.002, "H"),
    RunRecord(1.4, 0.1, 0.037, 0.003, 0.0123, 0.0015, 0.33, 0.05, 0.840, 0.001, "V"),
    RunRecord(1.4, 0.1, 0.036, 0.003, 0.0101, 0.0012, 0.28, 0.04, 0.855, 0.001, "D"),
    RunRecord(1.4, 0.1, 0.031, 0.002, 0.0113, 0.0016, 0.36, 0.06, 0.826, 0.001, "R"),
)


@dataclass(frozen=True)
class TransmittedRecord:
    """Transmission and transmitted-state fidelity for one mode, |R> input at mu = 1.4."""

    transmission: float
    fidelity: float
    fidelity_err: float


TRANSMITTED_MODES = (
    TransmittedRecord(0.338, 0.972, 0.004),
    TransmittedRecord(0.280, 0.968, 0.005),
    TransmittedRecord(0.304, 0.974, 0.004),
    TransmittedRecord(0.301, 0.976, 0.004),
    TransmittedRecord(0.255, 0.970, 0.005),
)

# whole-train averages and derived working points
F_C_MEAN = 0.991
MU1_MEAN = 0.29
MU1_ERR = 0.04
CHI00_MEASURED = 0.762

# transmitted-state benchmark inputs averaged over the train
F_T_MEAN = 0.972
ETA_T_MEAN = 0.296
ETA_M_BENCH = 0.0385

# benchmark outcomes of the photon-number scan, in MU_SCAN order
EXPECTED_VERDICTS = ("inconclusive", "quantum", "quantum", "quantum")


def matched_noise_floor(eta: float, fid: float, mu: float, f_c: float = F_C_MEAN) -> float:
    """Noise floor that makes the fidelity model hit a measured fidelity.

    Inverts F = (eta mu f_c + p_n) / (eta mu + 2 p_n) for p_n. Used to
    build per-state generator configurations whose true conditional
    fidelity equals the measured one; the result stays inside the quoted
    uncertainty of the measured noise floor for every tabulated state.
    """
    if not 0.5 < fid < f_c:
        raise ValueError(f"fidelity {fid} outside (1/2, f_c)")
    return eta * mu * (f_c - fid) / (2.0 * fid - 1.0)
