"""Counting-model simulation and parameter-recovery closure checks.

Stochastic assertions run at fixed seeds with 3-sigma (closure) or
4-sigma (rate sanity) windows, trial counts chosen so the windows are
comfortably wider than the Monte Carlo scatter.
"""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afcmem.errors import EstimationError
from afcmem.memory import MemoryParams, StorageSchedule, fidelity_vs_photon_number
from afcmem.montecarlo import (
    ExperimentConfig,
    estimate_params,
    estimate_transmission,
    export_histogram,
    model_conditional_fidelity,
    model_mode_fidelity,
    sequence_windows,
    simulate_run,
)
from afcmem.polarization import STATE_LABELS, orthogonal_label, standard_setting, standard_state
from afcmem.refdata import ETA_T_MEAN, F_C_MEAN, F_T_MEAN, MU_SCAN
from afcmem.tableio import write_csv


def _row_config(rec, trials=10**6):
    mem = MemoryParams(eta=rec.eta, p_n=rec.p_n, f_c=F_C_MEAN, eta_t=ETA_T_MEAN, f_t=F_T_MEAN)
    return ExperimentConfig(input_state=standard_state("D"), mu_per_mode=rec.mu,
                            params=mem, trials=trials)


def _triple(exp, seed):
    par = simulate_run(exp, standard_setting("D"), seed=seed)
    orth = simulate_run(exp, standard_setting("A"), seed=seed + 1)
    noise = simulate_run(replace(exp, mu_per_mode=0.0), standard_setting("D"), seed=seed + 2)
    return par, orth, noise


def test_sequence_windows_layout():
    wins = sequence_windows(StorageSchedule())
    labels = [w.label for w in wins]
    assert labels == ["input"] * 5 + ["CP1", "CP2"] + ["output"] * 5
    outs = [w for w in wins if w.label == "output"]
    # echo of mode k reappears one full storage time after its input slot
    assert outs[0].start == pytest.approx(515.0, abs=1e-9)
    assert outs[0].stop - outs[0].start == pytest.approx(1.25, abs=1e-9)
    ins = [w for w in wins if w.label == "input"]
    assert ins[0].start == pytest.approx(0.0, abs=1e-12)
    assert ins[4].stop == pytest.approx(6.25, abs=1e-9)


def test_all_zero_without_any_source():
    mem = MemoryParams(eta=0.04, p_n=0.0)
    exp = ExperimentConfig(input_state=standard_state("D"), mu_per_mode=0.0,
                           params=mem, dark_rate=0.0, trials=10**5)
    hist = simulate_run(exp, standard_setting("D"), seed=1)
    assert hist.counts.sum() == 0


def test_bitwise_deterministic():
    exp = _row_config(MU_SCAN[1], trials=10**5)
    a = simulate_run(exp, standard_setting("D"), seed=123)
    b = simulate_run(exp, standard_setting("D"), seed=123)
    c = simulate_run(exp, standard_setting("D"), seed=124)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_output_ratio_near_measured_working_point():
    # |D> stored and analyzed in D/A at the mu = 1.4 working point
    exp = _row_config(MU_SCAN[1])
    par, orth, noise = _triple(exp, 25)
    est = estimate_params(par, orth, noise, exp)
    assert abs(est.fidelity_hat - 0.855) < 3.0 * est.fidelity_err
    model = model_conditional_fidelity(exp, standard_setting("D"), standard_setting("A"))
    assert abs(est.fidelity_hat - model) < 3.0 * est.fidelity_err


def test_noise_run_rate_convention():
    # no input: each output gate sees the full noise floor plus dark counts,
    # independent of the analyzer port
    rec = MU_SCAN[1]
    exp = _row_config(rec, trials=10**6)
    noise = simulate_run(replace(exp, mu_per_mode=0.0), standard_setting("A"), seed=31)
    lam = 5.0 * (rec.p_n * exp.t_det + exp.dark_per_gate)
    mean = lam * exp.trials
    assert abs(noise.window_counts("output") - mean) < 4.0 * np.sqrt(mean)


def test_modes_scale_independently():
    mem = MemoryParams(eta=0.036, p_n=0.0101, f_c=F_C_MEAN, eta_t=ETA_T_MEAN, f_t=F_T_MEAN)
    exp = ExperimentConfig(input_state=standard_state("D"),
                           mu_per_mode=(0.5, 1.0, 1.5, 2.0, 2.5),
                           params=mem, trials=10**6)
    hist = simulate_run(exp, standard_setting("D"), seed=77)
    per_mode = hist.mode_counts("output").astype(float)
    assert per_mode.sum() == hist.window_counts("output")
    # rates contain a mu-independent noise term, so normalize by the model
    e = 1.0  # D analyzed along D
    lam = (np.array(exp.mu_per_mode) * 0.036 * (0.991 * e + (1 - 0.991) * (1 - e))
           + 0.0101) * exp.t_det + exp.dark_per_gate
    z = (per_mode - lam * exp.trials) / np.sqrt(lam * exp.trials)
    assert np.abs(z).max() < 4.0


def test_estimator_closure_high_mu_row():
    rec = MU_SCAN[2]
    exp = _row_config(rec)
    est = estimate_params(*_triple(exp, 220), exp)
    assert abs(est.eta_hat - rec.eta) < 3.0 * est.eta_err
    assert abs(est.p_n_hat - rec.p_n) < 3.0 * est.p_n_err
    pred = fidelity_vs_photon_number(rec.mu, rec.p_n / rec.eta, F_C_MEAN)
    assert abs(est.fidelity_hat - pred) < 3.0 * est.fidelity_err
    assert est.mode_fidelity.shape == (5,)
    assert np.all(np.abs(est.mode_fidelity - est.fidelity_hat) < 5.0 * est.mode_fidelity_err)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(eta=st.floats(0.02, 0.2), p_n=st.floats(0.002, 0.02), f_c=st.floats(0.8, 1.0),
       mus=st.integers(1, 5).flatmap(lambda n: st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n)),
       label=st.sampled_from(STATE_LABELS), seed=st.integers(0, 2**32 - 1))
def test_estimator_closure_over_random_configs(eta, p_n, f_c, mus, label, seed):
    # over these ranges every run keeps at least ~90 orthogonal and ~490 parallel output counts
    exp = ExperimentConfig(input_state=standard_state(label), mu_per_mode=tuple(mus),
                           schedule=StorageSchedule(n_modes=len(mus)),
                           params=MemoryParams(eta=eta, p_n=p_n, f_c=f_c), trials=10**6)
    par = simulate_run(exp, standard_setting(label), seed=seed)
    orth = simulate_run(exp, standard_setting(orthogonal_label(label)), seed=seed + 1)
    noise = simulate_run(replace(exp, mu_per_mode=0.0), standard_setting(label), seed=seed + 2)
    est = estimate_params(par, orth, noise, exp)
    assert abs(est.eta_hat - eta) < 5.0 * est.eta_err
    assert abs(est.p_n_hat - p_n) < 5.0 * est.p_n_err
    model = model_conditional_fidelity(exp, par.analysis, orth.analysis)
    assert abs(est.fidelity_hat - model) < 5.0 * est.fidelity_err


def test_estimator_noiseless_recovers_unit_fidelity():
    # perfect phase coherence and no noise: the orthogonal port stays dark
    mem = MemoryParams(eta=0.04, p_n=0.0, f_c=1.0)
    exp = ExperimentConfig(input_state=standard_state("D"), mu_per_mode=1.4,
                           params=mem, dark_rate=0.0, trials=10**5)
    est = estimate_params(*_triple(exp, 42), exp)
    assert est.fidelity_hat == 1.0
    assert est.p_n_hat == 0.0


def test_estimator_low_mu_row_matches_global_prediction():
    # 3-sigma agreement with the mu1 = 0.29 global curve holds at moderate
    # statistics; the row's own mu1 = 0.256 sits 1.5 percentage points higher
    rec = MU_SCAN[0]
    exp = _row_config(rec, trials=200_000)
    est = estimate_params(*_triple(exp, 41), exp)
    assert abs(est.fidelity_hat - 0.785) < 3.0 * est.fidelity_err


def test_estimator_requires_all_runs():
    # each run goes in by its role; a run in the wrong role is an error, not a silent swap
    exp = _row_config(MU_SCAN[1], trials=10**4)
    par, orth, noise = _triple(exp, 5)
    with pytest.raises(ValueError, match="parallel"):
        estimate_params(orth, par, noise, exp)
    with pytest.raises(ValueError, match="orthogonal"):
        estimate_params(par, par, noise, exp)
    with pytest.raises(ValueError, match="noise"):
        estimate_params(par, orth, par, exp)
    with pytest.raises(ValueError, match="parallel"):
        estimate_transmission(orth, par, exp)
    with pytest.raises(ValueError, match="orthogonal"):
        estimate_transmission(par, par, exp)


def test_transmission_closure():
    exp = _row_config(MU_SCAN[1])
    par, orth, _ = _triple(exp, 50)
    tr = estimate_transmission(par, orth, exp)
    assert tr.transmission.shape == (5,)
    assert np.all(np.abs(tr.transmission - ETA_T_MEAN) < 3.0 * tr.transmission_err)
    assert np.all(np.abs(tr.fidelity - F_T_MEAN) < 3.0 * tr.fidelity_err)


def test_estimators_reject_underflowing_signal():
    # trials * mu * T_det = 2e-165 squares to 0; the error formulas divided by it
    exp = replace(_row_config(MU_SCAN[1], trials=10**6), mu_per_mode=1e-170)
    par, orth, noise = _triple(exp, 60)
    with pytest.raises(EstimationError, match="underflows"):
        estimate_params(par, orth, noise, exp)
    with pytest.raises(EstimationError, match="underflows"):
        estimate_transmission(par, orth, exp)


def test_histogram_export(tmp_path):
    exp = _row_config(MU_SCAN[1], trials=10**4)
    hist = simulate_run(exp, standard_setting("D"), seed=6)
    path = os.path.join(tmp_path, "hist.csv")
    export_histogram(hist, path, metadata={"seed": 6})
    lines = open(path).read().splitlines()
    header = [l for l in lines if l.startswith("bin_start_us")]
    assert header == ["bin_start_us,bin_end_us,counts,window_label,analysis_label"]
    data = [l for l in lines if l and not l.startswith(("#", "bin_start_us"))]
    assert len(data) == hist.counts.size


def _mask_bins(hist, win):
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    return np.nonzero((centers >= win.start) & (centers < win.stop))[0]


def _export_per_cell(hist, path, metadata):
    """The histogram exporter as it was before rows were pre-joined:
    mask-selected window bins and every cell through write_csv."""
    labels = [""] * (len(hist.bin_edges) - 1)
    for win in hist.windows:
        for i in _mask_bins(hist, win):
            labels[i] = win.label
    meta = dict(metadata)
    meta.setdefault("analysis", hist.analysis.label)
    meta.setdefault("trials", hist.trials)
    meta.setdefault("rng_seed", hist.seed)
    rows = ((float(hist.bin_edges[i]), float(hist.bin_edges[i + 1]), int(hist.counts[i]), labels[i],
             hist.analysis.label) for i in range(len(hist.counts)))
    write_csv(path, meta, ["bin_start_us", "bin_end_us", "counts", "window_label", "analysis_label"], rows)


_meta_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


@settings(max_examples=40, deadline=None)
@given(n_modes=st.integers(1, 6), k=st.integers(1, 8), noise=st.booleans(),
       spin_storage=st.sampled_from([500.0, 40.0, 3.4375]), label=st.sampled_from(STATE_LABELS),
       mu=st.floats(0.05, 10.0), trials=st.sampled_from([10**3, 10**6]), seed=st.integers(0, 2**32 - 1),
       metadata=st.dictionaries(_meta_text, st.one_of(st.floats(), st.booleans(), _meta_text,
                                                      st.integers(-10**6, 10**6)), max_size=4))
@example(n_modes=5, k=2, noise=False, spin_storage=3.4375, label="D", mu=1.4,
         trials=10**6, seed=1, metadata={"f": 0.1, "b": True, "s": "x"})
def test_histogram_export_matches_per_cell_reference(n_modes, k, noise, spin_storage, label,
                                                      mu, trials, seed, metadata):
    # spin_storage = 3.4375 us puts CP2 inside CP1, where the later window's
    # label wins, and at k = 2 both ends of CP2 fall exactly on bin centres;
    # no decoupling pulses, so that such short spin storage is a valid schedule
    schedule = StorageSchedule(n_modes=n_modes, spin_storage=spin_storage, rf_pulse_count=0)
    exp = ExperimentConfig(input_state=standard_state("D"), mu_per_mode=0.0 if noise else mu,
                           schedule=schedule, bin_width=schedule.mode_duration / k, trials=trials)
    hist = simulate_run(exp, standard_setting(label), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        export_histogram(hist, new, metadata)
        _export_per_cell(hist, old, metadata)
        with open(new, "rb") as fh_new, open(old, "rb") as fh_old:
            assert fh_new.read() == fh_old.read()
    assert hist.window_counts("CP1") == hist.window_counts("CP2") == 0  # blanked
    for name in {w.label for w in hist.windows}:
        wins = [w for w in hist.windows if w.label == name]
        assert hist.window_counts(name) == sum(int(hist.counts[_mask_bins(hist, w)].sum()) for w in wins)
        modes = sorted({w.mode for w in wins if w.mode is not None})
        expected = [sum(int(hist.counts[_mask_bins(hist, w)].sum()) for w in wins if w.mode == m)
                    for m in modes]
        assert hist.mode_counts(name).tolist() == expected


def test_config_validation():
    mem = MemoryParams(eta=0.04, p_n=0.01)
    with pytest.raises(ValueError):
        ExperimentConfig(mu_per_mode=-0.5, params=mem)
    with pytest.raises(ValueError):
        ExperimentConfig(mu_per_mode=(1.0, 2.0), params=mem)  # needs 1 or n_modes
    with pytest.raises(ValueError):
        ExperimentConfig(params=mem, bin_width=0.7)  # does not divide 1.25 us
    with pytest.raises(ValueError):
        ExperimentConfig(params=mem, trials=0)
    # a detection chain that sees nothing leaves the estimators nothing to divide by
    for kwargs in ({"detector_efficiency": 0.0}, {"transmission_to_detector": 0.0},
                   {"transmission_to_detector": 5e-324, "detector_efficiency": 0.4}):
        with pytest.raises(ValueError):
            ExperimentConfig(params=mem, **kwargs)


def test_bin_count_comes_from_the_config():
    exp = ExperimentConfig(trials=1000)
    assert exp.n_bins == 2085  # 521.25 us of sequence in 0.25 us bins
    assert len(simulate_run(exp, standard_setting("D"), seed=1).counts) == exp.n_bins
    # 5.2e14 bins: rejected as the config is built, before any array is sized
    with pytest.raises(ValueError, match=r"^bin_width 1e-12 us over the 521.25 us sequence span gives 5.21e\+14 "
                                         r"histogram bins, more than the 2097152 allowed \(64 B each and 0.73 MB "
                                         r"more, 128.7 MiB in all\)$"):
        ExperimentConfig(bin_width=1e-12)


def test_model_fidelity_helpers_consistent():
    exp = _row_config(MU_SCAN[1])
    d, a = standard_setting("D"), standard_setting("A")
    per_mode = model_mode_fidelity(exp, d, a)
    assert per_mode.shape == (5,)
    assert np.allclose(per_mode, model_conditional_fidelity(exp, d, a), atol=1e-12)
    # dark-free, noise-free limit reduces to the analyzer overlap contrast
    clean = replace(exp, params=MemoryParams(eta=0.036, p_n=0.0, f_c=F_C_MEAN), dark_rate=0.0)
    assert model_conditional_fidelity(clean, d, a) == pytest.approx(F_C_MEAN, abs=1e-12)
