"""End-to-end acceptance checks, one test per published benchmark.

Each test compares the package against the measured working points in
afcmem.refdata at the tolerances the benchmarks state. Stochastic
checks run at fixed seeds chosen once; the 3-sigma windows leave
comfortable margin at the configured trial counts.

test_measured_fidelities_inside_model_band is expected to fail: at
mu = 3.6 the band swept by mu1 in [0.25, 0.33] tops out at 0.9311,
below the measured 0.936. The model curve itself (checked separately
at 2 percentage points) has no such problem; the band is simply
narrower than the scatter of that row.
"""

import filecmp
import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from afcmem.bounds import (
    poisson_conditional_bound,
    quantumness_verdict,
    threshold_bound,
    transmitted_constrained_bound,
)
from afcmem.cli import main
from afcmem.memory import (
    MemoryParams,
    StorageSchedule,
    fidelity_vs_photon_number,
)
from afcmem.montecarlo import ExperimentConfig, estimate_params, simulate_run
from afcmem.polarization import STATE_LABELS, fidelity, standard_state
from afcmem.refdata import (
    ETA_M_BENCH,
    ETA_T_MEAN,
    EXPECTED_VERDICTS,
    F_C_MEAN,
    F_T_MEAN,
    MODE_SCAN,
    MU1_MEAN,
    MU_SCAN,
    STATE_SCAN,
    matched_noise_floor,
)
from afcmem.tomography import (
    TomographyData,
    mle_state,
    monte_carlo_errors,
    process_tomography,
)
from oracles import apply_process, random_process_matrix

TOMO_INPUTS = ("H", "V", "D", "R")


# 1. fidelity model vs the photon-number scan, 2 percentage points
def test_predicted_fidelities_match_measured_scan():
    rounded = {0.8: 0.785, 1.4: 0.847, 3.6: 0.923, 8.2: 0.959}
    for rec in MU_SCAN:
        pred = fidelity_vs_photon_number(rec.mu, MU1_MEAN, F_C_MEAN)
        assert round(pred, 3) == rounded[rec.mu]
        assert abs(pred - rec.fidelity) <= 0.02


# 1. (band clause) measured values inside the mu1 = 0.25..0.33 sweep
def test_measured_fidelities_inside_model_band():
    for rec in MU_SCAN:
        lo = fidelity_vs_photon_number(rec.mu, 0.33, F_C_MEAN)
        hi = fidelity_vs_photon_number(rec.mu, 0.25, F_C_MEAN)
        assert lo <= rec.fidelity <= hi, (
            f"mu={rec.mu}: measured {rec.fidelity} outside [{lo:.4f}, {hi:.4f}]")


# 2. mu1 = p_n / eta consistency across both tabulated scans
def test_mu1_consistent_with_every_tabulated_row():
    for rec in MU_SCAN + MODE_SCAN:
        assert abs(rec.p_n / rec.eta - rec.mu1) <= rec.mu1_err


# 3. simulate -> estimate closure at each photon-number working point
def test_monte_carlo_estimator_closure():
    for i, rec in enumerate(MU_SCAN):
        mem = MemoryParams(eta=rec.eta, p_n=rec.p_n, f_c=F_C_MEAN,
                           eta_t=ETA_T_MEAN, f_t=F_T_MEAN)
        exp = ExperimentConfig(input_state="D", mu_per_mode=rec.mu,
                               params=mem, trials=10**6)
        seed = 200 + 10 * i
        runs = [simulate_run(exp, "D", seed=seed),
                simulate_run(exp, "A", seed=seed + 1),
                simulate_run(replace(exp, mu_per_mode=0.0), "D", seed=seed + 2)]
        est = estimate_params(*runs)
        assert abs(est.eta_hat - rec.eta) < 3.0 * est.eta_err
        assert abs(est.p_n_hat - rec.p_n) < 3.0 * est.p_n_err
        pred = fidelity_vs_photon_number(rec.mu, rec.p_n / rec.eta, F_C_MEAN)
        assert abs(est.fidelity_hat - pred) < 3.0 * est.fidelity_err


# 4. process tomography: exact round trip, then the measured channel
def test_tomography_round_trip_and_measured_channel():
    inputs = [standard_state(l) for l in TOMO_INPUTS]
    for seed in range(10):
        true = random_process_matrix(seed)
        outs = [apply_process(true, s) for s in inputs]
        rec = process_tomography(inputs, outs)
        assert np.linalg.norm(rec.chi - true.chi) < 1e-6

    states = []
    for j, rec in enumerate(STATE_SCAN):
        p_n = matched_noise_floor(rec.eta, rec.fidelity, rec.mu)
        mem = MemoryParams(eta=rec.eta, p_n=p_n, f_c=F_C_MEAN,
                           eta_t=ETA_T_MEAN, f_t=F_T_MEAN)
        exp = ExperimentConfig(input_state=rec.label, mu_per_mode=rec.mu,
                               params=mem, trials=200_000, dark_rate=0.0)
        seed = 500 + 100 * j
        counts = {s: int(simulate_run(exp, s, seed=seed + k).mode_counts("output").sum())
                  for k, s in enumerate(STATE_LABELS)}
        data = TomographyData.from_counts(counts)
        est = mle_state(data)
        sigma = monte_carlo_errors(data, target=standard_state(rec.label),
                                   resamples=120, seed=500 + j)
        f_hat = fidelity(est.state, standard_state(rec.label))
        assert abs(f_hat - rec.fidelity) < 3.0 * sigma, rec.label
        states.append(est.state)
    proc = process_tomography(inputs, states)
    assert 0.72 <= proc.chi00 <= 0.80


# 5. closed-form classical bound vs the brute-force Poisson series
def test_closed_form_bound_against_series_oracle():
    for mu in np.geomspace(1e-3, 20.0, 80):
        n = np.arange(1, 101)
        p = stats.poisson.pmf(n, mu)
        series = (p * (n + 1) / (n + 2)).sum() / (1.0 - stats.poisson.pmf(0, mu))
        assert abs(poisson_conditional_bound(float(mu)) - series) < 1e-10
    assert abs(poisson_conditional_bound(1.0) - 0.7090) < 1e-4
    assert abs(poisson_conditional_bound(1e-3) - 2.0 / 3.0) < 1e-3


# 6. qualitative ordering of the three benchmarks over the mu scan
def test_bound_ordering_over_mu_grid():
    for mu in np.linspace(0.5, 10.0, 20):
        mu = float(mu)
        plain = poisson_conditional_bound(mu)
        thr = threshold_bound(mu, ETA_M_BENCH).bound
        trans = transmitted_constrained_bound(mu, F_T_MEAN, ETA_T_MEAN, ETA_M_BENCH).bound
        assert plain <= thr + 1e-12
        assert trans <= thr + 1e-12
        assert min(plain, thr, trans) >= 2.0 / 3.0


# 7. storage verdicts, with the bound values pinned as regression values
def test_verdicts_match_reported_conclusions():
    pinned_threshold = {0.8: 0.811205516820, 1.4: 0.841080569129,
                        3.6: 0.886645248186, 8.2: 0.926496135506}
    pinned_transmitted = {0.8: 0.807583335570, 1.4: 0.830136013457,
                          3.6: 0.878783243378, 8.2: 0.923044626407}
    for rec, expected in zip(MU_SCAN, EXPECTED_VERDICTS):
        thr = threshold_bound(rec.mu, ETA_M_BENCH).bound
        trans = transmitted_constrained_bound(rec.mu).bound
        assert thr == pytest.approx(pinned_threshold[rec.mu], abs=1e-9)
        assert trans == pytest.approx(pinned_transmitted[rec.mu], abs=1e-9)
        assert quantumness_verdict(rec.fidelity, rec.fidelity_err, thr) == expected
        assert quantumness_verdict(rec.fidelity, rec.fidelity_err, trans) == expected


# 8. cycle timing of the five-mode storage sequence
def test_schedule_validates_and_detects_violations():
    schedule = StorageSchedule()
    assert schedule.total_storage == pytest.approx(515.0)
    with pytest.raises(ValueError, match="comb delay"):
        StorageSchedule(n_modes=9)
    with pytest.raises(ValueError, match="spin storage"):
        StorageSchedule(spin_storage=400.0)


# 9. the full reproduction command is bit-for-bit deterministic
def test_reproduction_is_byte_identical(tmp_path):
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    assert main(["reproduce-paper", "--out", out_a, "--seed", "42"]) == 0
    assert main(["reproduce-paper", "--out", out_b, "--seed", "42"]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert mismatch == [] and errors == []
    assert "summary.csv" in names
    summary = open(os.path.join(out_a, "summary.csv")).read()
    assert ",FAIL" not in summary
    # sha256 of every output; any drift in a stage, a shared helper or a
    # default must show up here first
    digests = {name: hashlib.sha256(open(os.path.join(out_a, name), "rb").read()).hexdigest()
               for name in names}
    assert digests == {
        "effective_config.ini": "2039b37d7438acbe4377c2720ea85eb8a42cc8840813cf7148610e7dd5ee60ed",
        "fig2_histogram.csv": "7cb13f4cfa74a85adfb9950786245cde5b9c826b48a59f1618e168388317c7fa",
        "fig3a.csv": "9893bcae16b2644c8587f412db73a318ccaa1da117f5f88df389ae6d77b877d0",
        "fig3b_chi.csv": "5f6ff8a9f729f917d6f8e94e9c092e51e6bb558d0083ca4c814dba3da3e2044b",
        "figD1_bounds.csv": "197c2db3576a1dd625ed1164985a30a6383fcf9bc5ff554edb9584323b7f5198",
        "summary.csv": "f84fa2a8110e474ed980b63189f6308dd575f174d832982ff46bdb2a6e94c3ae",
        "table1.csv": "fb525e2adb8e00bb9dfc9869f1eb3b98c013ba6a81261d144dc337d69bbd20e4",
        "tableA1.csv": "252958aa21779586c84368f05b5badbd92ec0c39d3d0399ef054493b86edde16",
        "tableB1.csv": "fdf4b598631220adf6d78a403ed64af4e26ce3d20c1b0458b17071064339fab5",
        "tableC1.csv": "94a0591971ada7e3587a63a3b60259891fa78456eba59f8cebfd529715422619",
        "verdicts.csv": "79c5252442a8b0b00514a25ad5b1a8d1b6ebf7cc1e803a21a2f9fb28bc56f1ee",
    }
