import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from afcmem.errors import EstimationError
from afcmem.memory import MemoryParams
from afcmem.montecarlo import ExperimentConfig, simulate_run
from afcmem.polarization import fidelity, standard_setting, standard_state
from afcmem.refdata import F_C_MEAN, STATE_SCAN, matched_noise_floor
from afcmem.tomography import (
    SETTING_LABELS,
    ProcessMatrix,
    TomographyData,
    mle_state,
    monte_carlo_errors,
    process_tomography,
    project_process_matrix,
)
from oracles import apply_process, chi_to_choi, choi_to_chi, random_process_matrix, trace_distance

BASIS_STATES = [standard_state(l) for l in ("H", "V", "D", "R")]


def _simulated_data(label, trials=200_000, seed=800):
    rec = next(r for r in STATE_SCAN if r.label == label)
    p_n = matched_noise_floor(rec.eta, rec.fidelity, rec.mu)
    mem = MemoryParams(eta=rec.eta, p_n=p_n, f_c=F_C_MEAN)
    exp = ExperimentConfig(input_state=standard_state(label), mu_per_mode=rec.mu,
                           params=mem, trials=trials, dark_rate=0.0)
    counts = {s: simulate_run(exp, standard_setting(s), seed=seed + k).window_counts("output")
              for k, s in enumerate(SETTING_LABELS)}
    return TomographyData.from_counts(counts), rec


def test_data_validation():
    with pytest.raises(ValueError):
        TomographyData.from_counts({"H": 1, "X": 2})
    with pytest.raises(ValueError):
        TomographyData.from_counts({"H": -5, "V": 1, "D": 1, "R": 1})
    with pytest.raises(ValueError):
        TomographyData.from_counts({"H": 10, "V": 10})  # projectors span rank 3 only


def test_mle_recovers_pure_state_from_ideal_counts():
    counts = {"H": 500, "V": 500, "D": 1000, "A": 0, "R": 500, "L": 500}
    est = mle_state(TomographyData.from_counts(counts))
    assert est.converged
    assert trace_distance(est.state, standard_state("D")) < 1e-3


def test_mle_recovers_maximally_mixed():
    counts = {s: 1000 for s in SETTING_LABELS}
    est = mle_state(TomographyData.from_counts(counts))
    mixed = np.eye(2) / 2.0
    assert np.abs(est.state.rho - mixed).max() < 1e-3


def test_mle_log_likelihood_monotone():
    data, _ = _simulated_data("D")
    est = mle_state(data)
    diffs = np.diff(est.ll_trace)
    assert (diffs >= -1e-9 * np.abs(est.ll_trace[:-1])).all()
    assert est.log_likelihood == pytest.approx(est.ll_trace[-1])


def test_mle_matches_measured_state_fidelity():
    data, rec = _simulated_data("D", seed=800)
    est = mle_state(data)
    sigma = monte_carlo_errors(data, target=standard_state("D"), resamples=200, seed=1)
    f = fidelity(est.state, standard_state("D"))
    assert abs(f - rec.fidelity) < 3.0 * sigma


def test_bootstrap_error_scale():
    data, _ = _simulated_data("D", seed=800)
    sigma = monte_carlo_errors(data, target=standard_state("D"), resamples=200, seed=3)
    assert 0.001 < sigma < 0.04


def test_bootstrap_resample_count_stability():
    data, _ = _simulated_data("D", seed=800)
    s_small = monte_carlo_errors(data, target=standard_state("D"), resamples=100, seed=1)
    s_large = monte_carlo_errors(data, target=standard_state("D"), resamples=1000, seed=2)
    assert abs(s_small - s_large) / s_large < 0.30


def test_bootstrap_input_validation():
    data, _ = _simulated_data("D", trials=1000, seed=12)
    with pytest.raises(ValueError):
        monte_carlo_errors(data, target=standard_state("D"), resamples=50)
    empty = TomographyData.from_counts({s: 0 for s in SETTING_LABELS})
    with pytest.raises(EstimationError):
        monte_carlo_errors(empty, target=standard_state("D"))


def test_apply_process_identity():
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = 1.0
    for state in BASIS_STATES:
        assert trace_distance(apply_process(ProcessMatrix(chi), state), state) < 1e-12


def test_apply_process_bit_flip():
    chi = np.zeros((4, 4), dtype=complex)
    chi[1, 1] = 1.0  # pure sigma_x
    out = apply_process(ProcessMatrix(chi), standard_state("H"))
    assert trace_distance(out, standard_state("V")) < 1e-12


def test_diagonal_channel_reproduces_state_fidelities():
    # Pauli channel matched to the measured per-state fidelities: identity
    # weight chi00 plus flip weights solving F_H = F_V = w0+wz, F_D = w0+wx,
    # F_R = w0+wy under trace preservation
    chi = ProcessMatrix(np.diag([0.76075, 0.09425, 0.06525, 0.07975]))
    measured = {"H": 0.841, "V": 0.840, "D": 0.855, "R": 0.826}
    for label, f_ref in measured.items():
        state = standard_state(label)
        f = fidelity(apply_process(chi, state), state)
        assert abs(f - f_ref) < 0.01 * f_ref


def test_process_tomography_identity():
    proc = process_tomography(BASIS_STATES, BASIS_STATES)
    assert proc.chi00 == pytest.approx(1.0, abs=1e-9)
    assert proc.tp_defect() < 1e-9
    assert proc.min_eigenvalue() > -1e-9


def test_process_tomography_x_gate():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    outs = [type(s)(x @ s.rho @ x) for s in BASIS_STATES]
    proc = process_tomography(BASIS_STATES, outs)
    assert proc.chi[1, 1].real == pytest.approx(1.0, abs=1e-9)
    assert proc.chi00 == pytest.approx(0.0, abs=1e-9)


def test_process_round_trip_random_channels():
    for seed in (0, 1, 2):
        true = random_process_matrix(seed)
        outs = [apply_process(true, s) for s in BASIS_STATES]
        rec = process_tomography(BASIS_STATES, outs)
        assert np.linalg.norm(rec.chi - true.chi) < 1e-6
        raw = process_tomography(BASIS_STATES, outs, project=False)
        assert np.linalg.norm(raw.chi - true.chi) < 1e-9


def test_process_tomography_validation():
    with pytest.raises(ValueError):
        process_tomography(BASIS_STATES[:3], BASIS_STATES[:3])
    deg = [standard_state("H"), standard_state("V"), standard_state("H"), standard_state("V")]
    with pytest.raises(ValueError):
        process_tomography(deg, deg)
    with pytest.raises(ValueError):
        process_tomography(BASIS_STATES, BASIS_STATES[:3])


def test_chi_choi_round_trip():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    chi = g @ g.conj().T
    assert np.abs(choi_to_chi(chi_to_choi(chi)) - chi).max() < 1e-12


def test_projection_gives_cptp_and_is_idempotent():
    rng = np.random.default_rng(8)
    chi = random_process_matrix(3).chi + 0.05 * rng.normal(size=(4, 4))
    chi = 0.5 * (chi + chi.conj().T)
    proj, iters = project_process_matrix(chi)
    assert iters >= 1
    wrapped = ProcessMatrix(proj, projected=True)
    assert wrapped.min_eigenvalue() > -1e-9
    assert wrapped.tp_defect() < 1e-6
    again, _ = project_process_matrix(proj)
    assert np.abs(again - proj).max() < 1e-8


@settings(derandomize=True, deadline=None)
@given(near=st.booleans(), channel=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 5.0),
       parts=arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
def test_projection_cptp_and_idempotent_over_random_inputs(near, channel, scale, parts):
    # a Hermitian input near a random channel, or around zero, at scales 0.01-5
    g = parts[0] + 1j * parts[1]
    chi = scale * 0.5 * (g + g.conj().T)
    if near:
        chi = chi + random_process_matrix(channel).chi
    proj, _ = project_process_matrix(chi)
    wrapped = ProcessMatrix(proj, projected=True)
    assert wrapped.min_eigenvalue() > -1e-9
    assert wrapped.tp_defect() < 1e-6
    again, _ = project_process_matrix(proj)
    assert np.abs(again - proj).max() < 1e-8


def test_random_process_matrix_is_cptp_and_deterministic():
    a = random_process_matrix(17)
    b = random_process_matrix(17)
    c = random_process_matrix(18)
    assert np.array_equal(a.chi, b.chi)
    assert not np.array_equal(a.chi, c.chi)
    assert a.min_eigenvalue() > -1e-10
    assert a.tp_defect() < 1e-9
    assert ProcessMatrix(a.chi, projected=True).chi00 == pytest.approx(a.chi00)
