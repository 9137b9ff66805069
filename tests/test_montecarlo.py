"""Counting-model simulation and parameter-recovery closure checks.

Stochastic assertions run at fixed seeds with 3-sigma (closure) or
4-sigma (rate sanity) windows, trial counts chosen so the windows are
comfortably wider than the Monte Carlo scatter.
"""

import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afcmem import montecarlo
from afcmem.errors import EstimationError
from afcmem.memory import MemoryParams, StorageSchedule, fidelity_vs_photon_number
from afcmem.montecarlo import (
    CountHistogram,
    ExperimentConfig,
    estimate_params,
    estimate_transmission,
    export_histogram,
    export_histograms,
    _sequence_windows,
    model_fidelity,
    simulate_run,
)
from afcmem.polarization import STATE_LABELS, orthogonal_label
from afcmem.refdata import ETA_T_MEAN, F_C_MEAN, F_T_MEAN, MU_SCAN
from afcmem.tableio import write_csv


def _row_config(rec, trials=10**6):
    mem = MemoryParams(eta=rec.eta, p_n=rec.p_n, f_c=F_C_MEAN, eta_t=ETA_T_MEAN, f_t=F_T_MEAN)
    return ExperimentConfig(input_state="D", mu_per_mode=rec.mu,
                            params=mem, trials=trials)


def _triple(exp, seed):
    par = simulate_run(exp, "D", seed=seed)
    orth = simulate_run(exp, "A", seed=seed + 1)
    noise = simulate_run(replace(exp, mu_per_mode=0.0), "D", seed=seed + 2)
    return par, orth, noise


def test_sequence_windows_layout():
    wins = _sequence_windows(StorageSchedule())
    labels = [w.label for w in wins]
    assert labels == ["input"] * 5 + ["CP1", "CP2"] + ["output"] * 5
    outs = [w for w in wins if w.label == "output"]
    # echo of mode k reappears one full storage time after its input slot
    assert outs[0].start == pytest.approx(515.0, abs=1e-9)
    assert outs[0].stop - outs[0].start == pytest.approx(1.25, abs=1e-9)
    ins = [w for w in wins if w.label == "input"]
    assert ins[0].start == pytest.approx(0.0, abs=1e-12)
    assert ins[4].stop == pytest.approx(6.25, abs=1e-9)


def test_equal_configs_share_windows_computed_once(monkeypatch):
    # configs with an equal schedule and bin_width share one tuple of windows
    calls = []
    monkeypatch.setattr(montecarlo, "_sequence_windows",
                        lambda schedule: calls.append(schedule) or _sequence_windows(schedule))
    montecarlo._window_bins.cache_clear()
    a = ExperimentConfig(schedule=StorageSchedule(), bin_width=0.125, trials=1000)
    b = ExperimentConfig(input_state="H", mu_per_mode=0.0, schedule=StorageSchedule(),
                         bin_width=0.125, trials=7)
    assert a.windows is b.windows
    assert calls == [StorageSchedule()]
    hist = simulate_run(a, "D", seed=1)
    for win, bins in a.windows:
        mask = _mask_bins(hist, win)
        assert (bins.start, bins.stop) == ((mask[0], mask[-1] + 1) if mask.size else (bins.start,) * 2)
    assert replace(a, bin_width=0.25).windows != a.windows and len(calls) == 2


def test_config_holds_no_array_after_a_run_and_its_export(tmp_path):
    # a config is the description of a run: the time axis it draws on is
    # rebuilt from bin_width where it is needed, not cached on the config
    exp = ExperimentConfig(trials=1000)
    hist = simulate_run(exp, "D", seed=1)
    export_histograms((hist,), (os.path.join(tmp_path, "h.csv"),))
    held = [name for name in dir(exp) if not name.startswith("__") and isinstance(getattr(exp, name), np.ndarray)]
    assert held == []


def test_all_zero_without_any_source():
    mem = MemoryParams(eta=0.04, p_n=0.0)
    exp = ExperimentConfig(input_state="D", mu_per_mode=0.0,
                           params=mem, dark_rate=0.0, trials=10**5)
    hist = simulate_run(exp, "D", seed=1)
    assert hist.counts.sum() == 0


def test_bitwise_deterministic():
    exp = _row_config(MU_SCAN[1], trials=10**5)
    a = simulate_run(exp, "D", seed=123)
    b = simulate_run(exp, "D", seed=123)
    c = simulate_run(exp, "D", seed=124)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_output_ratio_near_measured_working_point():
    # |D> stored and analyzed in D/A at the mu = 1.4 working point
    exp = _row_config(MU_SCAN[1])
    par, orth, noise = _triple(exp, 25)
    est = estimate_params(par, orth, noise)
    assert abs(est.fidelity_hat - 0.855) < 3.0 * est.fidelity_err
    model = model_fidelity(exp)[1]
    assert abs(est.fidelity_hat - model) < 3.0 * est.fidelity_err


def test_noise_run_rate_convention():
    # no input: each output gate sees the full noise floor plus dark counts,
    # independent of the analyzer port
    rec = MU_SCAN[1]
    exp = _row_config(rec, trials=10**6)
    noise = simulate_run(replace(exp, mu_per_mode=0.0), "A", seed=31)
    lam = 5.0 * (rec.p_n * exp.t_det + exp.dark_per_gate)
    mean = lam * exp.trials
    assert abs(int(noise.mode_counts("output").sum()) - mean) < 4.0 * np.sqrt(mean)


def test_modes_scale_independently():
    mem = MemoryParams(eta=0.036, p_n=0.0101, f_c=F_C_MEAN, eta_t=ETA_T_MEAN, f_t=F_T_MEAN)
    exp = ExperimentConfig(input_state="D",
                           mu_per_mode=(0.5, 1.0, 1.5, 2.0, 2.5),
                           params=mem, trials=10**6)
    hist = simulate_run(exp, "D", seed=77)
    per_mode = hist.mode_counts("output").astype(float)
    assert per_mode.sum() == sum(int(hist.counts[bins].sum()) for w, bins in exp.windows if w.label == "output")
    # rates contain a mu-independent noise term, so normalize by the model
    e = 1.0  # D analyzed along D
    lam = (np.array(exp.mu_per_mode) * 0.036 * (0.991 * e + (1 - 0.991) * (1 - e))
           + 0.0101) * exp.t_det + exp.dark_per_gate
    z = (per_mode - lam * exp.trials) / np.sqrt(lam * exp.trials)
    assert np.abs(z).max() < 4.0


def test_estimator_closure_high_mu_row():
    rec = MU_SCAN[2]
    exp = _row_config(rec)
    est = estimate_params(*_triple(exp, 220))
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
    exp = ExperimentConfig(input_state=label, mu_per_mode=tuple(mus),
                           schedule=StorageSchedule(n_modes=len(mus)),
                           params=MemoryParams(eta=eta, p_n=p_n, f_c=f_c), trials=10**6)
    par = simulate_run(exp, label, seed=seed)
    orth = simulate_run(exp, orthogonal_label(label), seed=seed + 1)
    noise = simulate_run(replace(exp, mu_per_mode=0.0), label, seed=seed + 2)
    est = estimate_params(par, orth, noise)
    assert abs(est.eta_hat - eta) < 5.0 * est.eta_err
    assert abs(est.p_n_hat - p_n) < 5.0 * est.p_n_err
    model = model_fidelity(exp)[1]
    assert abs(est.fidelity_hat - model) < 5.0 * est.fidelity_err


def test_estimator_noiseless_recovers_unit_fidelity():
    # perfect phase coherence and no noise: the orthogonal port stays dark
    mem = MemoryParams(eta=0.04, p_n=0.0, f_c=1.0)
    exp = ExperimentConfig(input_state="D", mu_per_mode=1.4,
                           params=mem, dark_rate=0.0, trials=10**5)
    est = estimate_params(*_triple(exp, 42))
    assert est.fidelity_hat == 1.0
    assert est.p_n_hat == 0.0


def test_one_error_rule_where_one_port_counts_nothing():
    # f_c = f_t = 1 and no noise or dark counts: the orthogonal port counts nothing in
    # any window, and every count-ratio fidelity is 1 with the train's error 1 / S_par
    # (each mode's and each transmitted mode's error was 0)
    mem = MemoryParams(eta=0.04, p_n=0.0, f_c=1.0, f_t=1.0)
    exp = ExperimentConfig(mu_per_mode=1.4, params=mem, dark_rate=0.0, trials=10**5)
    par, orth, noise = _triple(exp, 42)
    assert orth.counts.sum() == 0
    est = estimate_params(par, orth, noise)
    tr = estimate_transmission(par, orth)
    assert est.fidelity_err == 1.0 / int(par.mode_counts("output").sum())
    assert np.array_equal(est.mode_fidelity, np.ones(5)) and np.array_equal(tr.fidelity, np.ones(5))
    assert np.array_equal(est.mode_fidelity_err, 1.0 / par.mode_counts("output"))
    assert np.array_equal(tr.fidelity_err, 1.0 / par.mode_counts("input"))


def test_estimator_low_mu_row_matches_global_prediction():
    # 3-sigma agreement with the mu1 = 0.29 global curve holds at moderate
    # statistics; the row's own mu1 = 0.256 sits 1.5 percentage points higher
    rec = MU_SCAN[0]
    exp = _row_config(rec, trials=200_000)
    est = estimate_params(*_triple(exp, 41))
    assert abs(est.fidelity_hat - 0.785) < 3.0 * est.fidelity_err


def test_estimator_requires_all_runs():
    # each run goes in by its role; a run in the wrong role is an error, not a silent swap
    exp = _row_config(MU_SCAN[1], trials=10**4)
    par, orth, noise = _triple(exp, 5)
    with pytest.raises(ValueError, match="parallel"):
        estimate_params(orth, par, noise)
    with pytest.raises(ValueError, match="orthogonal"):
        estimate_params(par, par, noise)
    with pytest.raises(ValueError, match="noise"):
        estimate_params(par, orth, par)
    with pytest.raises(ValueError, match="parallel"):
        estimate_transmission(orth, par)
    with pytest.raises(ValueError, match="orthogonal"):
        estimate_transmission(par, par)


def test_estimators_reject_runs_of_another_config():
    # each run carries the config that drew it; a run of another config used to give a
    # silently wrong estimate (eta_hat 0.0519 for 0.0365 with a detector efficiency of
    # 0.4 read from elsewhere, fidelity 0.982 for 0.853 with an orthogonal run of 1e5
    # trials); another input state is another config too
    exp = _row_config(MU_SCAN[1], trials=10**4)
    par, orth, noise = _triple(exp, 5)
    for change in ({"detector_efficiency": 0.4}, {"trials": 10**5}, {"input_state": "A"}):
        _, other_orth, other_noise = _triple(replace(exp, **change), 7)
        with pytest.raises(ValueError, match="orthogonal run was drawn with another config"):
            estimate_params(par, other_orth, noise)
        with pytest.raises(ValueError, match="orthogonal run was drawn with another config"):
            estimate_transmission(par, other_orth)
        with pytest.raises(ValueError, match="noise run must have the analyzer runs' config"):
            estimate_params(par, orth, other_noise)


def test_equal_configs_built_apart_are_one_config():
    # the input state is a label, so two configs built apart from equal fields are equal
    exp, twin = _row_config(MU_SCAN[1], trials=10**4), _row_config(MU_SCAN[1], trials=10**4)
    assert exp == twin and exp is not twin
    par = simulate_run(exp, "D", seed=5)
    orth = simulate_run(twin, "A", seed=6)
    noise = simulate_run(replace(_row_config(MU_SCAN[1], trials=10**4), mu_per_mode=0.0), "D", seed=7)
    assert estimate_params(par, orth, noise).eta_hat > 0.0
    assert estimate_transmission(par, orth).transmission.shape == (5,)


def test_unknown_labels_rejected():
    with pytest.raises(ValueError, match="unknown input state 'X'"):
        ExperimentConfig(input_state="X")
    with pytest.raises(ValueError, match="unknown state label 'X'"):
        simulate_run(ExperimentConfig(trials=1000), "X", seed=1)


def test_transmission_closure():
    exp = _row_config(MU_SCAN[1])
    par, orth, _ = _triple(exp, 50)
    tr = estimate_transmission(par, orth)
    assert tr.transmission.shape == (5,)
    assert np.all(np.abs(tr.transmission - ETA_T_MEAN) < 3.0 * tr.transmission_err)
    assert np.all(np.abs(tr.fidelity - F_T_MEAN) < 3.0 * tr.fidelity_err)


def test_estimators_reject_underflowing_signal():
    # trials * mu * T_det = 2e-165 squares to 0; the error formulas divided by it
    exp = replace(_row_config(MU_SCAN[1], trials=10**6), mu_per_mode=1e-170)
    par, orth, noise = _triple(exp, 60)
    with pytest.raises(EstimationError, match="underflows"):
        estimate_params(par, orth, noise)
    with pytest.raises(EstimationError, match="underflows"):
        estimate_transmission(par, orth)


def test_window_counts_sum_every_window_of_a_label():
    # all-ones counts on the default time axis: five 5-bin modes each way, and a
    # 5 us transfer and retrieval pulse of 20 bins each
    exp = ExperimentConfig(trials=1000)
    hist = CountHistogram(exp, np.ones(exp.n_bins, dtype=np.int64), "D", 0)
    cp = {w.label: int(hist.counts[bins].sum()) for w, bins in exp.windows if w.label in ("CP1", "CP2")}
    assert cp == {"CP1": 20, "CP2": 20}
    assert int(hist.mode_counts("input").sum()) == int(hist.mode_counts("output").sum()) == 25
    assert hist.mode_counts("input").tolist() == [5] * 5
    assert hist.mode_counts("output").tolist() == [5] * 5
    assert hist.mode_counts("CP1").size == 0


def test_histogram_export(tmp_path):
    exp = _row_config(MU_SCAN[1], trials=10**4)
    hist = simulate_run(exp, "D", seed=6)
    path = os.path.join(tmp_path, "hist.csv")
    export_histogram(hist, path, metadata={"seed": 6})
    lines = open(path).read().splitlines()
    header = [l for l in lines if l.startswith("bin_start_us")]
    assert header == ["bin_start_us,bin_end_us,counts,window_label,analysis_label"]
    data = [l for l in lines if l and not l.startswith(("#", "bin_start_us"))]
    assert len(data) == hist.counts.size


def test_histogram_export_memory_does_not_grow_with_the_bins(tmp_path):
    # the exporter holds one chunk of bins of every histogram at a time (65 and 73
    # kB here); a label list over the whole axis peaked 8 B per bin higher (219 kB
    # at 20,850 bins, 714 kB at 83,400)
    def peak(bin_width):
        exp = ExperimentConfig(bin_width=bin_width, trials=1000)
        hists = [simulate_run(exp, label, seed=seed) for seed, label in enumerate("DAD")]
        paths = [os.path.join(tmp_path, f"{name}.csv") for name in ("par", "orth", "noise")]
        tracemalloc.start()
        try:
            export_histograms(hists, paths, {"seed": 1})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peak(0.00625) - peak(0.025)) < 64 * 1024


def _edges(config):
    return np.arange(config.n_bins + 1) * config.bin_width


def _mask_bins(hist, win):
    edges = _edges(hist.config)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return np.nonzero((centers >= win.start) & (centers < win.stop))[0]


def _export_per_cell(hist, path, metadata):
    """The histogram exporter as it was before rows were pre-joined:
    mask-selected window bins and every cell through write_csv."""
    edges = _edges(hist.config)
    labels = [""] * (len(edges) - 1)
    for win, _ in hist.config.windows:
        for i in _mask_bins(hist, win):
            labels[i] = win.label
    meta = dict(metadata)
    meta.setdefault("analysis", hist.analysis)
    meta.setdefault("trials", hist.config.trials)
    meta.setdefault("rng_seed", hist.seed)
    rows = ((float(edges[i]), float(edges[i + 1]), int(hist.counts[i]), labels[i],
             hist.analysis) for i in range(len(hist.counts)))
    write_csv(path, meta, ["bin_start_us", "bin_end_us", "counts", "window_label", "analysis_label"], rows)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


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
    exp = ExperimentConfig(input_state="D", mu_per_mode=0.0 if noise else mu,
                           schedule=schedule, bin_width=schedule.mode_duration / k, trials=trials)
    hist = simulate_run(exp, label, seed=seed)
    # the parallel, orthogonal and no-input runs of one configuration, in one pass
    triple = (hist, simulate_run(exp, orthogonal_label(label), seed=seed + 1),
              simulate_run(replace(exp, mu_per_mode=0.0), label, seed=seed + 2))
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        export_histogram(hist, new, metadata)
        _export_per_cell(hist, old, metadata)
        assert _read_bytes(new) == _read_bytes(old)
        paths = [os.path.join(tmp, f"{name}.csv") for name in ("parallel", "orthogonal", "noise")]
        export_histograms(triple, paths, metadata)
        for path, run in zip(paths, triple):
            _export_per_cell(run, old, metadata)
            assert _read_bytes(path) == _read_bytes(old)
    for w, bins in hist.config.windows:
        if w.label in ("CP1", "CP2"):  # blanked
            assert int(hist.counts[bins].sum()) == 0 == int(hist.counts[_mask_bins(hist, w)].sum())
    for name in {w.label for w, _ in hist.config.windows}:
        wins = [w for w, _ in hist.config.windows if w.label == name]
        assert int(hist.mode_counts(name).sum()) == sum(int(hist.counts[_mask_bins(hist, w)].sum())
                                                        for w in wins if w.mode is not None)
        modes = sorted({w.mode for w in wins if w.mode is not None})
        expected = [sum(int(hist.counts[_mask_bins(hist, w)].sum()) for w in wins if w.mode == m)
                    for m in modes]
        assert hist.mode_counts(name).tolist() == expected


def test_histograms_exported_together_share_one_time_axis(tmp_path):
    exp = _row_config(MU_SCAN[1], trials=10**4)
    par, orth, noise = _triple(exp, 8)
    finer = simulate_run(replace(exp, bin_width=0.125), "A", seed=9)
    # a shorter transfer pulse: the same bin edges, other CP windows
    other_cp = simulate_run(replace(exp, schedule=StorageSchedule(control_duration=4.0)),
                            "A", seed=9)
    assert other_cp.counts.size == par.counts.size
    paths = [os.path.join(tmp_path, f"{name}.csv") for name in ("parallel", "orthogonal", "noise")]
    for runs in ((par, finer, noise), (par, other_cp, noise)):
        with pytest.raises(ValueError, match="must share the schedule and bin_width of the first"):
            export_histograms(runs, paths)
    with pytest.raises(ValueError, match="3 histograms but 2 paths"):
        export_histograms((par, orth, noise), paths[:2])
    assert os.listdir(tmp_path) == []  # rejected before any file is opened


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
    # NaN, infinite or fractional values fail as the config is built, not in simulate_run
    nan, inf = float("nan"), float("inf")
    for kwargs, message in (({"mu_per_mode": (1, nan, 1, 1, 1)}, "mu_per_mode must be finite"),
                            ({"mu_per_mode": inf}, "mu_per_mode must be finite"),
                            ({"dark_rate": nan}, "dark_rate must be finite"),
                            ({"dark_rate": inf}, "dark_rate must be finite"),
                            ({"trials": 1.5}, "trials must be an integer"),
                            ({"trials": 1000.0}, "trials must be an integer"),
                            ({"bin_width": nan}, "bin_width must be finite"),
                            ({"bin_width": inf}, "bin_width must be finite")):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(params=mem, **kwargs)
    assert ExperimentConfig(params=mem, trials=np.int64(1000)).trials == 1000
    # a detection chain that sees nothing leaves the estimators nothing to divide by
    for kwargs in ({"detector_efficiency": 0.0}, {"transmission_to_detector": 0.0},
                   {"transmission_to_detector": 5e-324, "detector_efficiency": 0.4}):
        with pytest.raises(ValueError):
            ExperimentConfig(params=mem, **kwargs)


def test_config_refuses_what_the_poisson_draw_cannot_take():
    # trials * lam overflowed (OverflowError), and numpy's draw refused lam above
    # about 9.22e18 with a message that names no input
    with pytest.raises(ValueError, match=r"^trials must be an integer from 1 to 2\*\*63 - 1, got 10{30}$"):
        ExperimentConfig(trials=10**30)
    with pytest.raises(ValueError, match=r"^trials = 1000 at mu_per_mode up to 1e\+300 gives a run of "
                                         r"6.62e\+301 expected counts, more than the 9.2e\+18 allowed$"):
        ExperimentConfig(mu_per_mode=1e300, trials=1000)
    assert ExperimentConfig(trials=2**63 - 1, mu_per_mode=0.0).trials == 2**63 - 1
    assert ExperimentConfig(trials=2**63 - 1).trials == 2**63 - 1  # about 8.7e17 expected counts
    # each bin passed the old per-bin limit, but its window sums wrapped past 2**63 in
    # int64: mode_counts("input") read 5.58e18 per mode where 4.25e19 were drawn
    with pytest.raises(ValueError, match=r"gives a run of 2.45e\+20 expected counts"):
        ExperimentConfig(mu_per_mode=3.7e18, trials=1000)
    # with no noise, dark counts or flips the parallel port counts the whole run's mean,
    # mu (eta + eta_t) T_det trials in each of the 5 modes
    mem = MemoryParams(p_n=0.0, f_c=1.0, f_t=1.0)
    edge = 9.2e18 / (5 * 1000 * (mem.eta + mem.eta_t) * 0.07 * 0.57)
    with pytest.raises(ValueError, match="expected counts, more than the 9.2e\\+18 allowed"):
        ExperimentConfig(mu_per_mode=edge * 1.000001, params=mem, trials=1000, dark_rate=0.0)
    for scale in (0.999999, 0.5):
        exp = ExperimentConfig(mu_per_mode=edge * scale, params=mem, trials=1000, dark_rate=0.0)
        hist = simulate_run(exp, "D", seed=1)
        drawn = sum(hist.counts.tolist())  # Python ints: no wrap
        assert 0.99 * scale * 9.2e18 < drawn < 2**63
        for label in ("input", "output"):
            assert hist.mode_counts(label).tolist() == [sum(hist.counts[bins].tolist()) for w, bins in exp.windows
                                                        if w.label == label]


def test_bin_count_comes_from_the_config():
    exp = ExperimentConfig(trials=1000)
    assert exp.n_bins == 2085  # 521.25 us of sequence in 0.25 us bins
    assert len(simulate_run(exp, "D", seed=1).counts) == exp.n_bins
    # 5.2e14 bins: rejected as the config is built, before any array is sized
    with pytest.raises(ValueError, match=r"^bin_width 1e-12 us over the 521.25 us sequence span gives 5.21e\+14 "
                                         r"histogram bins, more than the 2097152 allowed$"):
        ExperimentConfig(bin_width=1e-12)


def test_model_fidelity_helpers_consistent():
    exp = _row_config(MU_SCAN[1])
    per_mode, whole_train = model_fidelity(exp)
    assert per_mode.shape == (5,)
    assert np.allclose(per_mode, whole_train, atol=1e-12)
    # dark-free, noise-free limit reduces to the analyzer overlap contrast
    clean = replace(exp, params=MemoryParams(eta=0.036, p_n=0.0, f_c=F_C_MEAN), dark_rate=0.0)
    assert model_fidelity(clean)[1] == pytest.approx(F_C_MEAN, abs=1e-12)
