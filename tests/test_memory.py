import numpy as np
import pytest

from afcmem.memory import (
    MemoryParams,
    StorageSchedule,
    fidelity_vs_photon_number,
)
from afcmem.refdata import MODE_SCAN, MU_SCAN


def test_mu1_matches_tabulated_scan():
    for rec in MU_SCAN + MODE_SCAN:
        params = MemoryParams(eta=rec.eta, p_n=rec.p_n)
        assert abs(params.p_n / params.eta - rec.mu1) <= rec.mu1_err


def test_fidelity_vs_photon_number_frozen_values():
    expect = {
        0.8: 0.784637681159420,
        1.4: 0.847171717171717,
        3.6: 0.922870813397129,
        8.2: 0.958564920273348,
    }
    for mu, ref in expect.items():
        assert fidelity_vs_photon_number(mu, 0.29, 0.991) == pytest.approx(ref, abs=1e-12)


def test_fidelity_limits():
    # mu >> mu1: noise negligible, fidelity -> F_c
    assert abs(fidelity_vs_photon_number(1e6 * 0.29, 0.29, 0.991) - 0.991) < 1e-6
    # mu << mu1: noise dominated, fidelity -> 1/2
    assert abs(fidelity_vs_photon_number(1e-6 * 0.29, 0.29, 0.991) - 0.5) < 1e-5
    # no noise at all: fidelity = F_c at every mu
    for mu in (0.01, 1.0, 100.0):
        assert fidelity_vs_photon_number(mu, 0.0, 0.991) == pytest.approx(0.991, abs=1e-15)


def test_fidelity_monotonic_in_mu():
    mus = np.geomspace(1e-3, 1e3, 200)
    f = [fidelity_vs_photon_number(m, 0.29, 0.991) for m in mus]
    assert all(b > a for a, b in zip(f, f[1:]))
    assert all(0.5 <= x <= 0.991 for x in f)


def test_fidelity_input_validation():
    with pytest.raises(ValueError):
        fidelity_vs_photon_number(0.0, 0.29, 0.991)
    with pytest.raises(ValueError):
        fidelity_vs_photon_number(1.0, -0.1, 0.991)
    with pytest.raises(ValueError):
        fidelity_vs_photon_number(1.0, 0.29, 0.4)
    # NaN fails every check instead of passing through to a NaN fidelity
    nan = float("nan")
    for args in ((nan, 0.29, 0.991), (1.0, nan, 0.991), (1.0, 0.29, nan)):
        with pytest.raises(ValueError):
            fidelity_vs_photon_number(*args)


def test_memory_params_validation():
    with pytest.raises(ValueError):
        MemoryParams(eta=1.2)
    with pytest.raises(ValueError):
        MemoryParams(f_c=0.4)


def test_schedule_defaults_valid():
    s = StorageSchedule()
    assert s.total_storage == pytest.approx(515.0, abs=1e-12)


def test_schedule_capacity_violations():
    # 9 modes at 1.25 us plus the 5 us control pulse exceed the 15 us comb delay
    with pytest.raises(ValueError, match=r"^mode train plus transfer pulse \(16.25 us\) exceeds "
                                         r"the comb delay \(15 us\)$"):
        StorageSchedule(n_modes=9)
    # four 120 us pulses do not fit into 400 us of spin storage
    with pytest.raises(ValueError, match=r"^rf decoupling train \(480 us\) exceeds "
                                         r"the spin storage time \(400 us\)$"):
        StorageSchedule(spin_storage=400.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_modes": 0}, "n_modes must be >= 1, got 0"),  # estimate_params divided by zero modes
    ({"spin_storage": -600.0}, "spin_storage must be positive, got -600.0"),  # a negative-size histogram
    ({"comb_delay": float("nan")}, "comb_delay must be positive, got nan"),
])
def test_schedule_rejected_when_built(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        StorageSchedule(**kwargs)


def test_schedule_reports_all_violations():
    with pytest.raises(ValueError, match=r"^n_modes must be >= 1, got 0; "
                                         r"rf_pulse_count must be >= 0, got -1$"):
        StorageSchedule(n_modes=0, rf_pulse_count=-1)
