from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from afcmem import tomography
from afcmem.errors import EstimationError
from afcmem.memory import MemoryParams
from afcmem.montecarlo import ExperimentConfig, simulate_run
from afcmem.polarization import PAULIS, STATE_LABELS, fidelity, standard_state
from afcmem.refdata import F_C_MEAN, STATE_SCAN, matched_noise_floor
from afcmem.tomography import (
    ProcessMatrix,
    TomographyData,
    _design,
    _fit_rows,
    _linear_inversion,
    _project_process_matrix,
    _projectors,
    _project_tp,
    _tp_map,
    mle_state,
    monte_carlo_errors,
    process_tomography,
)
from oracles import apply_process, ascent_mle, chi_to_choi, choi_to_chi, closed_form_rho, \
    random_process_matrix, trace_distance

BASIS_STATES = [standard_state(l) for l in ("H", "V", "D", "R")]


def _simulated_data(label, trials=200_000, seed=800):
    rec = next(r for r in STATE_SCAN if r.label == label)
    p_n = matched_noise_floor(rec.eta, rec.fidelity, rec.mu)
    mem = MemoryParams(eta=rec.eta, p_n=p_n, f_c=F_C_MEAN)
    exp = ExperimentConfig(input_state=label, mu_per_mode=rec.mu,
                           params=mem, trials=trials, dark_rate=0.0)
    counts = {s: int(simulate_run(exp, s, seed=seed + k).mode_counts("output").sum())
              for k, s in enumerate(STATE_LABELS)}
    return TomographyData.from_counts(counts), rec


def test_data_validation():
    with pytest.raises(ValueError):
        TomographyData.from_counts({"H": 1, "X": 2})
    with pytest.raises(ValueError):
        TomographyData.from_counts({"H": -5, "V": 1, "D": 1, "R": 1})
    with pytest.raises(ValueError):
        TomographyData.from_counts({"H": 10, "V": 10})  # projectors span rank 3 only
    with pytest.raises(ValueError, match="unknown state label 'X'"):
        TomographyData(("H", "V", "D", "X"), [1, 2, 3, 4])
    # backgrounds name exactly the counted settings: none missing, none dropped unread
    counts = {"H": 10, "V": 12, "D": 9, "R": 11}
    bgs = {"H": 1.0, "V": 1.0, "D": 1.0, "R": 1.0}
    assert TomographyData.from_counts(counts, bgs).backgrounds.tolist() == [1.0] * 4
    for bad, names in (({k: v for k, v in bgs.items() if k != "D"}, r"\['H', 'R', 'V'\]"),
                       ({**bgs, "L": 3.0}, r"\['D', 'H', 'L', 'R', 'V'\]"),
                       ({"H": 1.0, "V": 1.0, "D": 1.0, "X": 0.5}, r"\['D', 'H', 'V', 'X'\]")):
        with pytest.raises(ValueError, match=r"counted settings \['H', 'V', 'D', 'R'\], not " + names):
            TomographyData.from_counts(counts, bad)


def test_mle_recovers_pure_state_from_ideal_counts():
    counts = {"H": 500, "V": 500, "D": 1000, "A": 0, "R": 500, "L": 500}
    est = mle_state(TomographyData.from_counts(counts))
    assert est.converged
    assert trace_distance(est.state, standard_state("D")) < 1e-3


def test_mle_recovers_maximally_mixed():
    counts = {s: 1000 for s in STATE_LABELS}
    est = mle_state(TomographyData.from_counts(counts))
    mixed = np.eye(2) / 2.0
    assert np.abs(est.state.rho - mixed).max() < 1e-3


def test_mle_log_likelihood_monotone():
    # the ascent starts at the linear inversion and accepts no step that lowers
    # the likelihood, so it ends above its start, at a maximum no nearby state beats
    data, _ = _simulated_data("D")
    est = mle_state(data)
    n = data.counts.astype(float)
    rho0 = _linear_inversion(_design(_projectors(data.settings)), data.counts[None, :], data.backgrounds)[0]
    m0 = np.array([np.trace(rho0 @ standard_state(s).rho).real for s in data.settings]) + data.backgrounds
    assert est.log_likelihood >= np.sum(n * np.log(m0) - m0)

    def at_best_flux(rho):  # the data have no background
        m = np.array([np.trace(rho @ standard_state(s).rho).real for s in data.settings])
        m *= n.sum() / m.sum()
        return np.sum(n * np.log(m) - m)

    assert est.log_likelihood == pytest.approx(at_best_flux(est.state.rho), rel=1e-8)
    for label in STATE_LABELS:
        nearby = 0.99 * est.state.rho + 0.01 * standard_state(label).rho
        assert at_best_flux(nearby) < est.log_likelihood


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
    empty = TomographyData.from_counts({s: 0 for s in STATE_LABELS})
    with pytest.raises(EstimationError):
        monte_carlo_errors(empty, target=standard_state("D"))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(counts=st.lists(st.integers(500, 5000), min_size=6, max_size=6))
@example(counts=[4500, 500, 3000, 1000, 2600, 1400])  # Bloch length 0.99, near H
@example(counts=[500, 4500, 1000, 3000, 1400, 2600])  # its mirror, near V
def test_mle_matches_closed_form_inside_bloch_ball(counts):
    # six equal-exposure settings without background: the flux separates from
    # the three axes, so the MLE is r_i = (n+ - n-) / (n+ + n-) inside the ball
    rho = closed_form_rho(counts)
    assume(np.linalg.eigvalsh(rho).min() > 5e-4)
    est = mle_state(TomographyData.from_counts(dict(zip(STATE_LABELS, counts))))
    assert est.converged
    assert np.abs(est.state.rho - rho).max() < 1e-9


def test_fit_never_below_old_ascent_likelihood():
    # every fit ends at or above the log-likelihood of the gradient ascent it
    # replaced, backgrounds included; resamples go through the batched fitter
    # in one call, and each row agrees with its own one-row fit
    rng = np.random.default_rng(2024)
    bases = [_simulated_data(label, trials=100_000, seed=900)[0].counts for label in "HVDR"]
    bases += [np.array([1000, 0, 500, 500, 500, 500]), np.array([5, 0, 3, 2, 2, 3])]
    for base in bases:
        for level in (0.0, 0.05, 0.3):
            bg = np.full(6, level * base.mean())
            data = TomographyData(STATE_LABELS, base + rng.poisson(bg), bg)
            ref = ascent_mle(data)[1]
            assert mle_state(data).log_likelihood >= ref - 1e-9 * abs(ref)
            draws = rng.poisson(data.counts, size=(6, 6))
            draws = draws[draws.sum(axis=1) > 0]
            rho, ll, _, converged = _fit_rows(STATE_LABELS, draws.astype(float), bg)
            assert converged.all()
            for row, n in enumerate(draws):
                one = TomographyData(STATE_LABELS, n, bg)
                ref = ascent_mle(one)[1]
                assert ll[row] >= ref - 1e-9 * abs(ref)
                single = mle_state(one)
                assert single.log_likelihood == pytest.approx(ll[row], rel=1e-12)
                assert np.abs(single.state.rho - rho[row]).max() < 1e-9


@pytest.mark.parametrize("counts, bg", [([2668, 3231, 4249, 1675, 352, 5641], 0.0),
                                       ([2650, 4189, 4159, 2536, 6762, 270], 6.956),
                                       ([1, 1, 1, 3, 2, 1], 0.288)])
def test_fit_log_likelihood_never_falls_step_by_step(monkeypatch, counts, bg):
    # a full Newton step overshoots on these data: taking every step lowered
    # the log-likelihood by 70, 386 and 219 on the way; the fit takes none
    # that lowers it
    lls = []
    for k in range(10):
        monkeypatch.setattr(tomography, "_MAX_STEPS", k)
        lls.append(_fit_rows(STATE_LABELS, np.array([counts], dtype=float), np.full(6, bg))[1][0])
    assert all(b >= a - 1e-12 * abs(a) for a, b in zip(lls, lls[1:]))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from([STATE_LABELS, ("H", "V", "D", "R"), ("V", "A", "L", "H", "R")]),
       st.lists(st.lists(st.integers(1, 10**6), min_size=5, max_size=5), min_size=1, max_size=6),
       st.floats(0.0, 50.0))
def test_fit_rows_selects_one_form_stack_per_basis_order(settings_, rows, bg):
    # the forms are built once per basis order and each row takes its order's stack;
    # the reference conjugates every row's projectors by its own flip
    k = len(settings_)
    counts = np.array([(row * 2)[:k] for row in rows]
                      + [[10_000] + [1] * (k - 1), [1] + [10_000] * (k - 1)], dtype=float)
    backgrounds = np.full(k, bg)
    seen = []

    def spy(qs, *args):
        seen.append(qs)
        return fit(qs, *args)
    fit = tomography._fit
    with mock.patch.object(tomography, "_fit", spy):
        _fit_rows(settings_, counts, backgrounds)
    projectors = _projectors(settings_)
    start = _linear_inversion(_design(projectors), counts, backgrounds)
    flipped = start[:, 0, 0].real > start[:, 1, 1].real
    assert flipped.any() and not flipped.all()
    flip = np.where(flipped[:, None, None], PAULIS[1], PAULIS[0])
    reference = tomography._forms(flip[:, None] @ projectors @ flip[:, None])
    assert seen[0].dtype == reference.dtype and seen[0].tobytes() == reference.tobytes()


def test_bootstrap_sigma_calibrated():
    # the seed-to-seed spread of the fitted fidelity over the median bootstrap
    # sigma, at input D, mu = 1.4: a faster bootstrap must not shrink the error
    # bars the verdicts use. Over 60 seeds the spread itself is uncertain by
    # 1 / sqrt(2 * 59) = 0.09 relative; allow 3 of that
    target = standard_state("D")
    fids, sigmas = [], []
    for k in range(60):
        data, _ = _simulated_data("D", seed=1000 + 10 * k)
        fids.append(fidelity(mle_state(data).state, target))
        sigmas.append(monte_carlo_errors(data, target, resamples=100, seed=k))
    ratio = np.std(fids, ddof=1) / np.median(sigmas)
    assert abs(ratio - 1.0) < 3.0 / np.sqrt(2 * 59)


def test_bootstrap_reports_what_it_drops():
    # with one count in all, about 1/e of the resamples are all zero and
    # skipped; the batch draws the same numbers as one resample at a time
    data = TomographyData.from_counts({"H": 1, "V": 0, "D": 0, "A": 0, "R": 0, "L": 0})
    sigma = monte_carlo_errors(data, standard_state("H"), resamples=200, seed=5)
    rng = np.random.default_rng(5)
    one_at_a_time = np.stack([rng.poisson(data.counts) for _ in range(200)])
    assert isinstance(sigma, float)
    assert sigma.resamples_skipped == np.count_nonzero(one_at_a_time.sum(axis=1) == 0) > 0
    assert sigma.resamples_unconverged == 0


@pytest.mark.parametrize("counts", [[1000, 0, 500, 500, 500, 500], [0, 1000, 500, 500, 500, 500],
                                    [100000, 10, 50000, 50000, 50000, 50000]],
                         ids=["pure-H", "pure-V", "near-H"])
def test_bootstrap_fits_converge_near_pure_states(counts):
    # near H, T^dag T puts d near 0 and Newton steps crawl along a flat ring
    # of (a, c); fitted in the (H, V) order only, 90-200 of 200 rows stopped
    # short, which shrank the pure-H sigma by a third
    data = TomographyData.from_counts(dict(zip(STATE_LABELS, counts)))
    for seed in (1, 2):
        sigma = monte_carlo_errors(data, standard_state("D"), resamples=200, seed=seed)
        assert sigma.resamples_unconverged == 0


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
    proj, iters = _project_process_matrix(chi)
    assert iters >= 1
    wrapped = ProcessMatrix(proj, projected=True)
    assert wrapped.min_eigenvalue() > -1e-9
    assert wrapped.tp_defect() < 1e-6
    again, _ = _project_process_matrix(proj)
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
    proj, _ = _project_process_matrix(chi)
    wrapped = ProcessMatrix(proj, projected=True)
    assert wrapped.min_eigenvalue() > -1e-9
    assert wrapped.tp_defect() < 1e-6
    again, _ = _project_process_matrix(proj)
    assert np.abs(again - proj).max() < 1e-8


@settings(derandomize=True, deadline=None)
@given(scale=st.floats(0.01, 5.0), parts=arrays(np.float64, (4, 4, 4), elements=st.floats(-1.0, 1.0)))
def test_tp_projection_is_orthogonal_over_random_inputs(scale, parts):
    # Hermitian X and Y at scales 0.01-5: P(X) is trace preserving, P is idempotent,
    # and X - P(X) is orthogonal to every direction P(Y) - P(0) within the subspace
    g = parts[0::2] + 1j * parts[1::2]
    x, y = scale * 0.5 * (g + g.conj().transpose(0, 2, 1))
    px = _project_tp(x)
    size = 1.0 + np.linalg.norm(x)
    assert np.linalg.norm(_tp_map(px) - np.eye(2)) <= 1e-12 * size
    assert np.linalg.norm(_project_tp(px) - px) <= 1e-12 * size
    direction = _project_tp(y) - _project_tp(np.zeros((4, 4)))
    inner = np.trace((x - px).conj().T @ direction).real
    assert abs(inner) <= 1e-12 * size * (1.0 + np.linalg.norm(direction))


def test_random_process_matrix_is_cptp_and_deterministic():
    a = random_process_matrix(17)
    b = random_process_matrix(17)
    c = random_process_matrix(18)
    assert np.array_equal(a.chi, b.chi)
    assert not np.array_equal(a.chi, c.chi)
    assert a.min_eigenvalue() > -1e-10
    assert a.tp_defect() < 1e-9
    assert ProcessMatrix(a.chi, projected=True).chi00 == pytest.approx(a.chi00)
