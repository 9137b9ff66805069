"""Scalar model of the comb-based spin-wave memory.

Efficiencies and noise floors are dimensionless probabilities referred to
the memory output plane (detection-chain losses are handled separately by
the counting simulation). All times are in microseconds.

The central relation is the conditional-fidelity model for a stored qubit
read out against Poissonian noise:

    F(mu) = (eta mu F_c + p_n) / (eta mu + 2 p_n)
          = (F_c + mu1/mu) / (1 + 2 mu1/mu),   mu1 = p_n / eta

where mu is the mean input photon number, eta the end-to-end memory
efficiency, p_n the unconditional noise floor seen in one analyzer port
per retrieval gate, and F_c the noise-free conditional fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .refdata import ETA_T_MEAN, F_C_MEAN, F_T_MEAN


@dataclass(frozen=True)
class MemoryParams:
    """Memory working point.

    eta    recall efficiency after the full storage time
    p_n    noise floor, detection probability in one analyzer port per
           retrieval gate with no input pulse
    f_c    conditional fidelity of the retrieved polarization
    eta_t  transmission of the unabsorbed input through the crystal
    f_t    conditional fidelity of the transmitted polarization
    """

    eta: float = 0.036
    p_n: float = 0.0101
    f_c: float = F_C_MEAN
    eta_t: float = ETA_T_MEAN
    f_t: float = F_T_MEAN

    def __post_init__(self):
        for name in ("eta", "p_n", "eta_t"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} = {val} outside [0, 1]")
        for name in ("f_c", "f_t"):
            val = getattr(self, name)
            if not 0.5 <= val <= 1.0:
                raise ValueError(f"{name} = {val} outside [1/2, 1]")


@dataclass(frozen=True)
class StorageSchedule:
    """Timing of one storage cycle, all durations in microseconds.

    The comb delay is the fixed echo delay 1/Delta of the absorption
    comb; the input mode train and the first transfer pulse must fit
    inside it. The radio-frequency decoupling train (rf_pulse_count
    pi pulses, XY-4 phase pattern for the default count of 4) must fit
    inside the spin storage time. A schedule that breaks any of these
    raises ValueError when it is built.
    """

    comb_delay: float = 15.0
    spin_storage: float = 500.0
    mode_duration: float = 1.25
    n_modes: int = 5
    control_duration: float = 5.0
    rf_pulse_duration: float = 120.0
    rf_pulse_count: int = 4

    def __post_init__(self):
        """Check every timing constraint; one ValueError names all the violations."""
        violations = [f"{name} must be positive, got {getattr(self, name)}"
                      for name in ("comb_delay", "spin_storage", "mode_duration", "control_duration",
                                   "rf_pulse_duration")
                      if not getattr(self, name) > 0]
        if self.n_modes < 1:
            violations.append(f"n_modes must be >= 1, got {self.n_modes}")
        if self.rf_pulse_count < 0:
            violations.append(f"rf_pulse_count must be >= 0, got {self.rf_pulse_count}")
        if not violations:
            train = self.n_modes * self.mode_duration + self.control_duration
            if train > self.comb_delay + 1e-12:
                violations.append(f"mode train plus transfer pulse ({train:g} us) exceeds "
                                  f"the comb delay ({self.comb_delay:g} us)")
            rf = self.rf_pulse_count * self.rf_pulse_duration
            if rf > self.spin_storage + 1e-12:
                violations.append(f"rf decoupling train ({rf:g} us) exceeds "
                                  f"the spin storage time ({self.spin_storage:g} us)")
        if violations:
            raise ValueError("; ".join(violations))

    @property
    def total_storage(self) -> float:
        """Echo emission time: comb delay plus spin storage."""
        return self.comb_delay + self.spin_storage


def fidelity_vs_photon_number(mu: float, mu_1: float, f_c: float) -> float:
    """Conditional fidelity (F_c + mu1/mu) / (1 + 2 mu1/mu); NaN in any argument raises ValueError."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not mu_1 >= 0:
        raise ValueError(f"mu1 must be nonnegative, got {mu_1}")
    if not 0.5 <= f_c <= 1.0:
        raise ValueError(f"f_c = {f_c} outside [1/2, 1]")
    r = float(mu_1) / float(mu)  # as Python floats an overflow gives inf, without a numpy warning
    if r > 2.0 ** 54:  # the formula rounds to exactly 1/2 from here on, and 2 r can overflow
        return 0.5
    return (f_c + r) / (1.0 + 2.0 * r)
