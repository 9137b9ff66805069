"""Classical measure-and-prepare benchmarks against independent oracles.

The closed-form Poisson-averaged bound and the threshold bound are
checked against brute-force series built from scipy's Poisson pmf; the
attack-strategy bounds are checked through their ordering and limit
properties, the batched transmitted-bound search against a
cell-by-cell reference kept here and its value against the face and dense
grid of oracles, and the in-place Poisson tables and the sorted-search
threshold evaluator against their out-of-place build and comparison
form in oracles. The search's prune is checked through the two monotone
facts it rests on, the share of cells it evaluates, the ends of each
cell's run of valid deltas against a brute-force mask, and the reference.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy import stats

import afcmem.bounds
from afcmem.bounds import (
    BoundResult,
    StrategyParams,
    poisson_conditional_bound,
    quantumness_verdict,
    threshold_bound,
    transmitted_constrained_bound,
)
from afcmem.refdata import ETA_M_BENCH, ETA_T_MEAN, F_T_MEAN
from oracles import poisson_tables, threshold_eval, transmitted_dense, transmitted_face


def _series_bound(mu, n_terms=100):
    n = np.arange(1, n_terms + 1)
    p = stats.poisson.pmf(n, mu)
    return float((p * (n + 1) / (n + 2)).sum() / (1.0 - stats.poisson.pmf(0, mu)))


def _small_mu_series(mu, n_terms=30):
    """Plain bound as sum_n>=1 (n+1)/(n+2) mu^(n-1)/n! over sum_n>=1 mu^(n-1)/n!:
    both sums divided by mu, so every term is positive and nothing cancels."""
    term, num, den = 1.0, 0.0, 0.0
    for n in range(1, n_terms + 1):
        num += (n + 1.0) / (n + 2.0) * term
        den += term
        term *= mu / (n + 1.0)
    return num / den


def _series_threshold(mu, eta_m):
    """Exp-matched threshold bound from scipy's Poisson distribution over
    n = 0..mu + 40 sqrt(mu) + 100, far past any mass that matters."""
    n = np.arange(int(mu + 40.0 * math.sqrt(mu) + 100.0) + 1)
    pmf = stats.poisson.pmf(n, mu)
    tail = stats.poisson.sf(n, mu)  # P(N > n)
    mp = (n + 1.0) / (n + 2.0)
    p_emit = -math.expm1(-eta_m * mu)
    n_min = max(int(np.argmax(tail < p_emit)), 1)
    gamma = p_emit - tail[n_min]
    return float((gamma * mp[n_min] + np.dot(mp[n_min + 1:], pmf[n_min + 1:])) / p_emit)


# Cell-by-cell reference for transmitted_constrained_bound: one Poisson
# table and one threshold evaluation per feasible (eta_m1, q) cell, in
# the form the batched search replaced. The batched search must return
# exactly the same BoundResult.

def _ref_threshold(mu, p_emit):
    n_max = int(math.ceil(mu + 20.0 * math.sqrt(mu + 1.0) + 25.0))
    pmf = np.cumprod(np.concatenate([[math.exp(-mu)], mu / np.arange(1.0, n_max + 1.0)]))
    pmf = pmf[: np.nonzero(pmf >= 1e-15 * pmf[1:].max())[0][-1] + 1]
    n = np.arange(pmf.size, dtype=float)
    mp = (n + 1.0) / (n + 2.0)
    s_gt = np.concatenate([np.cumsum(pmf[::-1])[::-1][1:], [0.0]])
    w_gt = np.concatenate([np.cumsum((mp * pmf)[::-1])[::-1][1:], [0.0]])
    p_emit = np.atleast_1d(np.asarray(p_emit, dtype=float))
    n_min = np.argmax(s_gt[None, :] < p_emit[:, None], axis=1)
    degenerate = p_emit > s_gt[0] * (1.0 + 1e-9)
    n_min = np.maximum(n_min, 1)
    gamma = np.clip(p_emit - s_gt[n_min], 0.0, pmf[n_min])
    return (gamma * mp[n_min] + w_gt[n_min]) / p_emit, n_min, gamma, degenerate


def _ref_p_emit(mu, eta_m, matching):
    if matching == "exp":
        return -np.expm1(-np.asarray(eta_m) * mu)
    return np.asarray(eta_m) * (-np.expm1(-mu))


def _reference_transmitted(mu, f_t, eta_t, eta_m, grid_points, refine_rounds, matching):
    eta_m2_fb = min(eta_m / (1.0 - eta_t), 1.0)
    mu_fb = (1.0 - eta_t) * mu
    fb, fb_n, fb_g, fb_deg = _ref_threshold(mu_fb, _ref_p_emit(mu_fb, eta_m2_fb, matching))
    best = BoundResult(
        float(fb[0]),
        StrategyParams(p=0.0, eta_bs=eta_t, q=2.0 * f_t - 1.0, delta=0.0,
                       eta_m1=float("nan"), eta_m2=eta_m2_fb, n_min=int(fb_n[0]), gamma=float(fb_g[0])),
        degenerate=bool(fb_deg[0]),
    )

    def search(eta1_axis, q_axis, delta_axis, incumbent):
        best_local, best_grid = incumbent, None
        fm1, nmin1, gamma1, _ = _ref_threshold(mu, _ref_p_emit(mu, eta1_axis, matching))
        for i, eta1 in enumerate(eta1_axis):
            f1 = fm1[i]
            for q in q_axis:
                half = 0.5 * (1.0 + q)
                den = half - f1
                if abs(den) < 1e-14:
                    continue
                p = (eta_t / eta1) * (half - f_t) / den
                if not 0.0 < p <= 1.0 - 1e-12:
                    continue
                eta = (eta_t - p * eta1) / (1.0 - p)
                if not 0.0 <= eta <= 1.0 - 1e-12:
                    continue
                w1 = p * delta_axis * eta1
                eta_m2 = (eta_m - w1) / ((1.0 - p) * (1.0 - eta))
                ok = (eta_m2 > 0.0) & (eta_m2 <= 1.0)
                if not ok.any():
                    continue
                mu2 = (1.0 - eta) * mu
                fm2, nmin2, gamma2, _ = _ref_threshold(mu2, _ref_p_emit(mu2, eta_m2[ok], matching))
                obj = (w1[ok] * f1 + (eta_m - w1[ok]) * fm2) / eta_m
                k = int(np.argmax(obj))
                if obj[k] > best_local.bound:
                    if p > 0:
                        n_min, gam = int(nmin1[i]), float(gamma1[i])
                    else:
                        n_min, gam = int(nmin2[k]), float(gamma2[k])
                    params = StrategyParams(p=float(p), eta_bs=float(eta), q=float(q),
                                            delta=float(delta_axis[ok][k]), eta_m1=float(eta1),
                                            eta_m2=float(eta_m2[ok][k]), n_min=n_min, gamma=gam)
                    best_local = BoundResult(float(obj[k]), params)
                    best_grid = params
        return best_local, best_grid

    eta1_lo, eta1_hi, q_lo, q_hi, d_lo, d_hi = 1e-2, 1.0, 0.0, 1.0, 1.0 / grid_points, 1.0
    eta1_axis = np.geomspace(eta1_lo, eta1_hi, grid_points)
    q_axis = np.linspace(q_lo, q_hi, grid_points)
    delta_axis = np.linspace(d_lo, d_hi, grid_points)
    best, center = search(eta1_axis, q_axis, delta_axis, best)
    for _ in range(refine_rounds):
        if center is None:
            break
        ratio = (eta1_hi / eta1_lo) ** (1.0 / (grid_points - 1))
        eta1_axis = np.geomspace(max(center.eta_m1 / ratio, 1e-4), min(center.eta_m1 * ratio, 1.0), grid_points)
        dq = (q_hi - q_lo) / (grid_points - 1)
        q_axis = np.linspace(max(center.q - dq, 0.0), min(center.q + dq, 1.0), grid_points)
        dd = (d_hi - d_lo) / (grid_points - 1)
        delta_axis = np.linspace(max(center.delta - dd, 1e-6), min(center.delta + dd, 1.0), grid_points)
        eta1_lo, eta1_hi = eta1_axis[0], eta1_axis[-1]
        q_lo, q_hi = q_axis[0], q_axis[-1]
        d_lo, d_hi = delta_axis[0], delta_axis[-1]
        best, new_center = search(eta1_axis, q_axis, delta_axis, best)
        if new_center is not None:
            center = new_center
    return best


def test_closed_form_matches_series_oracle():
    for mu in np.geomspace(1e-3, 20.0, 60):
        assert abs(poisson_conditional_bound(float(mu)) - _series_bound(mu)) < 1e-10


def test_closed_form_frozen_values():
    assert poisson_conditional_bound(1.0) == pytest.approx(0.7090116466, abs=1e-9)
    assert abs(poisson_conditional_bound(1.0) - 0.7090) < 1e-4
    assert abs(poisson_conditional_bound(1e-3) - 2.0 / 3.0) < 1e-3
    assert 0.88 < poisson_conditional_bound(8.2) < 0.95


def test_closed_form_limits_and_monotonicity():
    mus = np.geomspace(1e-6, 50.0, 300)
    vals = [poisson_conditional_bound(float(m)) for m in mus]
    assert all(2.0 / 3.0 <= v < 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        poisson_conditional_bound(0.0)
    with pytest.raises(ValueError):
        threshold_bound(700.0, 0.5)  # photon-number table would overflow


def test_threshold_equals_plain_when_all_light_measured():
    for mu in (0.8, 1.4, 3.6, 8.2):
        res = threshold_bound(mu, 1.0)
        assert res.bound == pytest.approx(poisson_conditional_bound(mu), abs=1e-14)
        assert not res.degenerate


def test_threshold_beats_plain_at_benchmark_efficiency():
    res = threshold_bound(1.4, 0.0385)
    assert res.bound > poisson_conditional_bound(1.4)
    assert res.params.n_min >= 1
    assert 0.0 <= res.params.gamma <= 1.0


def test_threshold_low_mu_limit():
    # with only the n = 1 outcome surviving the threshold, the bound
    # collapses to the single-copy value; the deviation scales like
    # mu / eta_M, so the benchmark uses a moderate measurement efficiency
    assert abs(threshold_bound(1e-3, 0.1).bound - 2.0 / 3.0) < 1e-3
    # below mu = 1e-15 the n = 1 term falls under the table's relative cut
    for mu in (1e-16, 1e-300):
        assert threshold_bound(mu, 0.1).bound == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert poisson_conditional_bound(mu) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_plain_bound_matches_series_at_small_mu():
    # the closed form loses digits to cancellation below mu = 0.5 (it gave
    # 2/3 - 3.3e-11 at mu = 1e-10), and a table cut relative to the n = 0
    # peak dropped the n >= 2 terms below mu = 1e-4
    for mu in np.geomspace(sys.float_info.min, 0.5, 400):
        got = poisson_conditional_bound(float(mu))
        assert got == pytest.approx(_small_mu_series(float(mu)), abs=1e-15)
    assert poisson_conditional_bound(1e-10) - 2.0 / 3.0 == pytest.approx(1e-10 / 24.0, rel=1e-3)


def test_bounds_reject_subnormal_mu():
    for mu in (1e-320, sys.float_info.min / 2.0, 0.0):
        for bound in (poisson_conditional_bound, lambda m: threshold_bound(m, 0.5),
                      transmitted_constrained_bound):
            with pytest.raises(ValueError, match="mu must be at least"):
                bound(mu)
    assert threshold_bound(sys.float_info.min, 0.5).bound == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_bounds_reject_mu_above_600():
    # mu * mu overflowed in the plain bound's closed form, which returned nan from
    # about 1.3e154 on; the other two bounds refused these in the Poisson table
    for mu in (np.nextafter(600.0, np.inf), 1e200, math.inf):
        for bound in (poisson_conditional_bound, lambda m: threshold_bound(m, 0.5),
                      transmitted_constrained_bound):
            with pytest.raises(ValueError, match="mu must be at most 600"):
                bound(float(mu))
    assert poisson_conditional_bound(600.0) == 0.9983361111111111


def test_bounds_reject_underflowing_emission_budget():
    # eta_m mu underflows to 0 here, and the bound divided 0 by 0 (nan)
    with pytest.raises(ValueError, match="emission budget P_emit = 0 .* underflows"):
        threshold_bound(1e-300, 1e-30)
    # the fallback's subnormal budget (1e-320) kept too few digits: 0.666502 < 2/3
    with pytest.raises(ValueError, match="fallback emission budget P_emit = 1e-320 .* underflows"):
        transmitted_constrained_bound(1e-300, 0.9, 0.5, 1e-20, grid_points=4, refine_rounds=0)
    # a subnormal budget with its digits left still gives 2/3 at the float floor
    assert threshold_bound(sys.float_info.min, 0.005).bound == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_threshold_monotone_in_measurement_efficiency():
    for mu in (0.5, 1.4, 8.2):
        etas = np.linspace(0.01, 1.0, 25)
        vals = [threshold_bound(mu, float(e)).bound for e in etas]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


_LOG_MU = st.floats(math.log(1e-6), math.log(600.0)).map(math.exp)


@settings(deadline=None, max_examples=150)
@given(mus=st.tuples(_LOG_MU, _LOG_MU), etas=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       matching=st.sampled_from(["exp", "linear"]))
def test_threshold_monotone_property(mus, etas, matching):
    # more light lets the cheat emit on more photons; a larger budget forces it lower
    (mu_lo, mu_hi), (eta_lo, eta_hi) = sorted(mus), sorted(etas)

    def bound(mu, eta_m):
        try:
            return threshold_bound(mu, eta_m, matching=matching).bound
        except ValueError as err:
            if "underflows" not in str(err):
                raise
            reject()
    assert bound(mu_lo, eta_lo) <= bound(mu_hi, eta_lo) + 1e-12
    assert bound(mu_lo, eta_hi) <= bound(mu_lo, eta_lo) + 1e-12


def test_threshold_exceeds_plain_everywhere():
    rng = np.random.default_rng(19)
    for _ in range(40):
        mu = float(rng.uniform(0.05, 12.0))
        eta = float(rng.uniform(0.01, 1.0))
        assert threshold_bound(mu, eta).bound >= poisson_conditional_bound(mu) - 1e-12


def test_matching_conventions_ordered():
    # linear matching hands the attacker less emitted light, so its
    # threshold sits at least as high
    for mu in (0.8, 1.4, 3.6):
        for eta in (0.0385, 0.3, 0.9):
            b_exp = threshold_bound(mu, eta, matching="exp").bound
            b_lin = threshold_bound(mu, eta, matching="linear").bound
            assert b_exp <= b_lin + 1e-12
    with pytest.raises(ValueError):
        threshold_bound(1.4, 0.0385, matching="quadratic")


def test_threshold_input_validation():
    with pytest.raises(ValueError):
        threshold_bound(-1.0, 0.5)
    with pytest.raises(ValueError):
        threshold_bound(1.0, 0.0)
    with pytest.raises(ValueError):
        threshold_bound(1.0, 1.5)


def test_threshold_matches_series_oracle_at_high_mu():
    # the Poisson table reaches past n = 500 here; a table cut there
    # loses most of the mass by mu = 550
    for mu in (400.0, 480.0, 550.0, 600.0):
        for eta_m in (0.0385, 0.2):
            res = threshold_bound(mu, eta_m)
            assert abs(res.bound - _series_threshold(mu, eta_m)) < 1e-9
            assert not res.degenerate


# log-uniform over the small photon numbers, down to just above the smallest normal float
_SMALL_MU = st.floats(math.log(2.3e-308), 0.0).map(math.exp)


@settings(deadline=None, max_examples=120)
@given(mu=st.one_of(st.floats(1e-3, 600.0), _SMALL_MU), eta_m=st.floats(0.005, 1.0),
       f_t=st.floats(0.55, 0.99), eta_t=st.floats(0.05, 0.9),
       matching=st.sampled_from(["exp", "linear"]))
# strategy 2's emission budget underflows to 0 on some cells here; the
# search divided 0 by 0 there
@example(mu=math.exp(-708.0), eta_m=0.005, f_t=0.55, eta_t=0.05, matching="exp")
def test_bound_ordering_property(mu, eta_m, f_t, eta_t, matching):
    plain = poisson_conditional_bound(mu)
    thr = threshold_bound(mu, eta_m, matching=matching).bound
    tra = transmitted_constrained_bound(mu, f_t, eta_t, eta_m, grid_points=6, refine_rounds=1,
                                        matching=matching).bound
    assert plain <= thr + 1e-12
    assert thr <= 1.0
    assert min(plain, thr, tra) >= 2.0 / 3.0 - 1e-12
    if matching == "linear":  # exp matching breaks this; see the test below
        assert tra <= thr + 1e-12


@pytest.mark.xfail(strict=True, reason="with exp matching the transmitted cheat's two strategies "
                   "are weighted by their eta shares, not their emission probabilities, so the "
                   "mix can beat the threshold cheat at the same budget")
def test_transmitted_never_above_threshold_with_exp_matching():
    res = transmitted_constrained_bound(9.0, 0.875, 0.5, 0.5, grid_points=6, refine_rounds=1)
    assert res.bound <= threshold_bound(9.0, 0.5).bound + 1e-12


@pytest.mark.xfail(strict=True, reason="the search stops below strategies of its own model: at mu = 2.22, "
                   "f_t = 0.965, eta_t = 0.743, eta_m = 0.006 its eta_m2 = 0 face gives 0.869274 "
                   "(0.868134 on a 4,001-point q grid) against the search's 0.846510, and the face "
                   "beats it at all four working points (ROADMAP item 1); away from the face, at "
                   "mu = 5.63, f_t = 0.609, eta_t = 0.663, eta_m = 0.2296 (face infeasible), the "
                   "dense grid gives 0.8550303 against the search's 0.8550199")
@settings(deadline=None, max_examples=20)
@given(mu=st.floats(math.log(0.1), math.log(30.0)).map(math.exp), f_t=st.floats(0.6, 0.99),
       eta_t=st.floats(0.05, 0.9), eta_m=st.floats(0.005, 0.3), matching=st.sampled_from(["exp", "linear"]))
@example(mu=0.8, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, matching="exp")
@example(mu=1.4, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, matching="exp")
@example(mu=3.6, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, matching="exp")
@example(mu=8.2, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, matching="exp")
@example(mu=2.22, f_t=0.965, eta_t=0.743, eta_m=0.006, matching="exp")
@example(mu=5.63, f_t=0.609, eta_t=0.663, eta_m=0.2296, matching="exp")
def test_transmitted_bound_reaches_independent_oracle(mu, f_t, eta_t, eta_m, matching):
    # the search is a lower estimate of its maximum, so it must not fall below a
    # strategy of the same model found another way
    got = transmitted_constrained_bound(mu, f_t, eta_t, eta_m, matching=matching).bound
    oracle = max(transmitted_face(mu, f_t, eta_t, eta_m, matching),
                 transmitted_dense(mu, f_t, eta_t, eta_m, matching))
    assert got >= oracle - 1e-9


def test_transmitted_bound_between_fallback_and_threshold():
    for mu in (0.8, 1.4, 3.6, 8.2):
        res = transmitted_constrained_bound(mu)
        fallback = threshold_bound((1.0 - 0.296) * mu, min(0.0385 / (1.0 - 0.296), 1.0)).bound
        assert res.bound >= fallback - 1e-12
        assert res.bound <= threshold_bound(mu, 0.0385).bound + 1e-12
        assert res.bound >= 2.0 / 3.0


def test_transmitted_bound_deterministic():
    a = transmitted_constrained_bound(1.4, grid_points=30, refine_rounds=1)
    b = transmitted_constrained_bound(1.4, grid_points=30, refine_rounds=1)
    assert a.bound == b.bound
    assert a.params == b.params


def test_transmitted_strategy_parameters_physical():
    res = transmitted_constrained_bound(1.4)
    p = res.params
    assert 0.0 <= p.p <= 1.0
    assert 0.0 <= p.q <= 1.0
    assert 0.0 < p.delta <= 1.0
    assert 0.0 < p.eta_m1 <= 1.0
    assert 0.0 <= p.eta_m2 <= 1.0
    assert 0.0 <= p.eta_bs <= 1.0


# inputs of the transmitted-bound search: any f_t, eta_t and eta_m the bound accepts,
# small grids under both matchings
_TRANSMITTED_INPUTS = dict(
    mu=st.floats(0.05, 20.0),
    f_t=st.floats(0.55, 0.99, exclude_min=True, exclude_max=True),
    eta_t=st.floats(0.05, 0.9, exclude_min=True, exclude_max=True),
    eta_m=st.floats(0.005, 1.0, exclude_min=True),
    grid_points=st.integers(2, 25), refine_rounds=st.integers(0, 3),
    matching=st.sampled_from(["exp", "linear"]))


@settings(deadline=None, max_examples=40)
@given(**_TRANSMITTED_INPUTS)
# the loop ends before level 1: 2 f_t - 1 = 0.5 is on the q axis, whose p = 0
# cells (the fallback's own strategy) are not searched, and no p > 0 cell of
# level 0 beats the fallback: 2, 0 and 0 cells on grid 3, and 54 cells in two
# blocks on grid 21 (where a p = 0 cell once won by 1 ulp and reported p = -0.0)
@example(mu=0.5, f_t=0.75, eta_t=0.1, eta_m=0.0385, grid_points=3, refine_rounds=1, matching="exp")
@example(mu=0.5, f_t=0.75, eta_t=0.296, eta_m=0.0385, grid_points=3, refine_rounds=1, matching="exp")
@example(mu=3.6, f_t=0.75, eta_t=0.296, eta_m=0.0385, grid_points=3, refine_rounds=1, matching="exp")
@example(mu=1.4, f_t=0.75, eta_t=0.4, eta_m=0.02, grid_points=21, refine_rounds=1, matching="exp")
# level 1 only ties the level-0 winner (an exact p > 0 tie, which the incumbent
# keeps), and level 2 runs around the same cell at level 1's spacing and wins
@example(mu=2.2, f_t=0.72, eta_t=0.37, eta_m=0.14, grid_points=7, refine_rounds=2, matching="exp")
# levels of several blocks of feasible cells: the four working points under both
# matchings at the default grid (2, 14 and 29 blocks at mu = 8.2), mu = 300, where
# the prune skips few cells, the off-face point of the dense oracle, and a winner
# at cell 64 of the refined level's first block
@example(mu=0.8, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="exp")
@example(mu=1.4, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="exp")
@example(mu=3.6, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="exp")
@example(mu=8.2, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="exp")
@example(mu=0.8, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="linear")
@example(mu=1.4, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="linear")
@example(mu=3.6, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="linear")
@example(mu=8.2, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="linear")
@example(mu=300.0, f_t=F_T_MEAN, eta_t=ETA_T_MEAN, eta_m=ETA_M_BENCH, grid_points=50, refine_rounds=2,
         matching="exp")
@example(mu=5.63, f_t=0.609, eta_t=0.663, eta_m=0.2296, grid_points=50, refine_rounds=2, matching="exp")
@example(mu=6.2, f_t=0.74, eta_t=0.18, eta_m=0.065, grid_points=27, refine_rounds=1, matching="exp")
# cells with no valid delta, which get no bound and are skipped, lie between
# evaluated ones: eta_m2 <= 0 at every delta (5 of the first level's 49 cells),
# and eta_m2 > 1 at every delta (9 of 55)
@example(mu=17.2, f_t=0.65, eta_t=0.56, eta_m=0.01, grid_points=18, refine_rounds=1, matching="exp")
@example(mu=18.1, f_t=0.89, eta_t=0.06, eta_m=0.55, grid_points=10, refine_rounds=1, matching="exp")
def test_batched_search_equals_cell_by_cell_reference(mu, f_t, eta_t, eta_m, grid_points,
                                                      refine_rounds, matching):
    kwargs = dict(grid_points=grid_points, refine_rounds=refine_rounds, matching=matching)
    got = transmitted_constrained_bound(mu, f_t, eta_t, eta_m, **kwargs)
    ref = _reference_transmitted(mu, f_t, eta_t, eta_m, **kwargs)
    # NaN fields (the fallback's eta_m1) compare unequal, so match the reprs
    assert repr(got) == repr(ref)


@settings(deadline=None, max_examples=15)
@given(**_TRANSMITTED_INPUTS)
def test_block_size_never_changes_the_result(mu, f_t, eta_t, eta_m, grid_points, refine_rounds,
                                              matching):
    # one cell per block, a size that splits eta_m1 rows unevenly, and a whole
    # level in one block: the first maximum in row-major order wins at every size.
    # No exact tie inside a level is known since the p = 0 cells left the search,
    # so this is the check of that rule
    def run():
        return repr(transmitted_constrained_bound(mu, f_t, eta_t, eta_m, grid_points=grid_points,
                                                  refine_rounds=refine_rounds, matching=matching))
    assert afcmem.bounds._BLOCK_CELLS == 80
    expected = run()
    for cells in (1, 7, 10_000):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(afcmem.bounds, "_BLOCK_CELLS", cells)
            assert run() == expected, cells


# 0, and the smallest normal float to 600 both uniform and log-uniform
_TABLE_MU = st.one_of(st.just(0.0), st.floats(sys.float_info.min, 600.0),
                     st.floats(math.log(sys.float_info.min), math.log(600.0)).map(math.exp))


@settings(deadline=None, max_examples=100)
@given(mus=st.lists(_TABLE_MU, min_size=1, max_size=6))
@example(mus=[0.0])
@example(mus=[sys.float_info.min])
@example(mus=[600.0])
@example(mus=[0.0, sys.float_info.min, 0.5, 8.2, 100.0, 600.0])
def test_in_place_poisson_tables_equal_out_of_place_build(mus):
    # every table, bit for bit: same shapes, and the same bytes down to the sign of zero
    for got, ref in zip(afcmem.bounds._poisson_tables(mus), poisson_tables(mus)):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


# kinds of emission budget on a table row: a tail entry itself (a tie), its
# neighbours above and below, 1, just above the whole tail (degenerate), 5e-312
_BUDGET_KINDS = 6


def _budgets(s_gt, picks):
    """Budgets on every row of the tail table s_gt, one column per (column, kind) pick."""
    cols = []
    for col, kind in picks:
        tie = s_gt[:, col % s_gt.shape[1]]
        cols.append((tie, np.nextafter(tie, np.inf), np.nextafter(tie, -np.inf), np.ones_like(tie),
                     np.nextafter(s_gt[:, 0], np.inf), np.full_like(tie, 5e-312))[kind])
    # the evaluator takes budgets above 0: a tie at tail 0 moves up to the smallest one
    return np.maximum(np.stack(cols, axis=1), np.nextafter(0.0, 1.0))


@settings(deadline=None, max_examples=100)
@given(mus=st.lists(_TABLE_MU, min_size=1, max_size=6),
       picks=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, _BUDGET_KINDS - 1)),
                      min_size=1, max_size=12))
@example(mus=[0.0], picks=[(0, k) for k in range(_BUDGET_KINDS)])
@example(mus=[sys.float_info.min], picks=[(c, k) for k in range(_BUDGET_KINDS) for c in (0, 1, 2)])
@example(mus=[600.0], picks=[(c, k) for k in range(_BUDGET_KINDS) for c in (0, 1, 600, 800)])
@example(mus=[0.0, sys.float_info.min, 0.5, 8.2, 100.0, 600.0],
         picks=[(c, k) for k in range(_BUDGET_KINDS) for c in (0, 1, 5, 40, 1000)])
def test_sorted_search_threshold_equals_comparison_oracle(mus, picks):
    # n_min, gamma and the bound bit for bit, ties at the tail entries included
    tables = afcmem.bounds._poisson_tables(mus)
    p_emit = _budgets(tables[2], picks)
    got = afcmem.bounds._threshold_eval(tables, p_emit)
    for g, ref in zip(got, threshold_eval(tables, p_emit)):
        assert g.shape == ref.shape and g.dtype == ref.dtype and g.tobytes() == ref.tobytes()
    # the flat index of every n_min stays inside its own row
    assert (got[1] >= 1).all() and (got[1] < tables[0].shape[1]).all()


@st.composite
def _delta_axis(draw):
    """A delta axis as the search builds it: the first level's, then refine_rounds levels,
    each a step of the last spacing each way of one of its values; from about 12 levels
    on at grid 50 its values repeat or lie an ulp apart."""
    g = draw(st.integers(2, 64))
    axis = np.linspace(1.0 / g, 1.0, g)
    for _ in range(draw(st.integers(0, 16))):
        at, dd = axis[draw(st.integers(0, g - 1))], (axis[-1] - axis[0]) / (g - 1)
        axis = np.linspace(max(at - dd, 1e-6), min(at + dd, 1.0), g)
    return axis


# a cell: p (down to where p eta1 underflows), eta1, eta, and where to put eta_m2 = 0 or 1
# on the axis: kind 0 leaves the cell as drawn, kind 1 moves p so that eta_m2 is 0 at
# delta index t, kind 2 moves eta so that it is 1 there, both up to rounding
_RUN_CELL = st.tuples(st.one_of(st.floats(1e-12, 1.0 - 1e-12), st.floats(1e-320, 1e-150)),
                      st.floats(1e-4, 1.0), st.floats(0.0, 1.0 - 1e-12), st.integers(0, 2 ** 16),
                      st.integers(0, 2))


@settings(deadline=None, max_examples=200)
@given(delta_axis=_delta_axis(), eta_m=st.floats(1e-3, 1.0), picks=st.lists(_RUN_CELL, min_size=1, max_size=40))
# no valid delta (eta_m2 > 1 everywhere, and <= 0 everywhere), a run over the whole axis,
# and p eta1 below the float floor, where eta_m2 is the same at every delta
@example(delta_axis=np.linspace(0.02, 1.0, 50), eta_m=1.0, picks=[(1e-12, 1e-4, 0.0, 0, 0)])
@example(delta_axis=np.linspace(0.02, 1.0, 50), eta_m=1e-3, picks=[(0.9, 1.0, 0.5, 0, 0)])
@example(delta_axis=np.linspace(0.02, 1.0, 50), eta_m=0.5, picks=[(1e-6, 0.5, 0.2, 0, 0)])
@example(delta_axis=np.linspace(0.02, 1.0, 50), eta_m=0.0385, picks=[(1e-320, 1e-4, 0.5, 0, 0)])
# an axis after 16 refinements around 0.5, whose 50 values span a few ulps
@example(delta_axis=np.linspace(0.5 - 2e-16, 0.5 + 2e-16, 50), eta_m=0.0385,
         picks=[(0.2, 0.5, 0.3, t, kind) for t in (0, 17, 49) for kind in (1, 2)])
def test_valid_runs_equal_brute_force_mask(delta_axis, eta_m, picks):
    cells = []
    for p, eta1, eta, t, kind in picks:
        at = delta_axis[t % delta_axis.size]
        if kind == 1 and eta_m / (at * eta1) <= 1.0 - 1e-12:
            p = eta_m / (at * eta1)
        elif kind == 2 and 0.0 <= 1.0 - (eta_m - p * at * eta1) / (1.0 - p) <= 1.0 - 1e-12:
            eta = 1.0 - (eta_m - p * at * eta1) / (1.0 - p)
        cells.append((p, eta1, eta))
    p, eta1, eta = np.array(cells).T
    first, stop = afcmem.bounds._valid_runs(p, eta1, eta, delta_axis, eta_m)
    # the (cell, delta) plane, as the search's blocks form it
    eta_m2 = afcmem.bounds._output_shares(p[:, None], delta_axis, eta1[:, None], eta[:, None], eta_m)[1]
    ok = (eta_m2 > 0.0) & (eta_m2 <= 1.0)
    for c in range(p.size):
        valid = np.flatnonzero(ok[c])
        if valid.size:
            assert (first[c], stop[c]) == (valid[0], valid[-1] + 1)
            assert valid.size == stop[c] - first[c]  # one run
        else:
            assert first[c] >= stop[c]


# slack of the two facts the transmitted-bound prune rests on: their float error
# (up to 5e-13 at budgets near 5e-312), far below the prune's 1e-9 margin
_MONOTONE_SLACK = 1e-11


@settings(deadline=None, max_examples=100)
@given(mus=st.lists(_TABLE_MU.filter(lambda mu: mu > 0.0), min_size=2, max_size=6),
       picks=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, _BUDGET_KINDS - 1)),
                      min_size=1, max_size=12))
@example(mus=[sys.float_info.min, 600.0], picks=[(c, k) for k in range(_BUDGET_KINDS) for c in (0, 1, 2)])
@example(mus=[sys.float_info.min, 1e-300, 1e-12, 0.5, 8.2, 100.0, 600.0],
         picks=[(c, k) for k in range(_BUDGET_KINDS) for c in (0, 1, 5, 40, 1000)])
@example(mus=[3.6, np.nextafter(3.6, 4.0), 3.6 + 1e-9], picks=[(c, 0) for c in range(12)])
def test_threshold_value_monotone_in_budget_and_mean(mus, picks):
    # every row takes every budget of every row: tail entries (exact ties) and their
    # neighbours, 1, degenerate budgets above a row's whole tail, and 5e-312
    mus = np.sort(mus)
    tables = afcmem.bounds._poisson_tables(mus)
    budgets = np.unique(np.maximum(_budgets(tables[2], picks), 5e-312))
    value = afcmem.bounds._threshold_eval(tables, np.tile(budgets, (mus.size, 1)))[0]
    # on one row the value does not increase with the budget
    assert (np.diff(value, axis=1) <= _MONOTONE_SLACK).all()
    # at one budget it does not decrease from a smaller mean's row to a larger one's
    assert (np.diff(value, axis=0) >= -_MONOTONE_SLACK).all()


def test_prune_evaluates_few_cells():
    # the rows of every Poisson table the call builds (strategy 2's tables, and also
    # the ladders, strategy 1's table and the fallback's) against its feasible cells;
    # and the (cell, delta) candidates it forms: a row of 50 deltas for each cell it
    # evaluates (a row of strategy 2's tables, built from an array of mu2 but not
    # read as a ladder) and none for a skipped cell, so the bound pass stays O(cells),
    # with one ladder evaluation per level
    rows, ladder_rows, cells, formed = [], [], [], []
    tables, feasible = afcmem.bounds._poisson_tables, afcmem.bounds._feasible_cells
    shares, evaluate = afcmem.bounds._output_shares, afcmem.bounds._threshold_eval

    def count_rows(mus):
        rows.append((np.ndim(mus), np.atleast_1d(mus).size))
        return tables(mus)

    def count_cells(*args):
        found = feasible(*args)
        cells.append(found[0].size)
        return found

    def count_formed(*args):
        w1, eta_m2 = shares(*args)
        if np.ndim(eta_m2) == 2:
            formed.append(eta_m2.size)
        return w1, eta_m2

    def count_ladders(tables, p_emit, rows=None):
        if rows is not None:
            ladder_rows.append(tables[0].shape[0])
        return evaluate(tables, p_emit, rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(afcmem.bounds, "_poisson_tables", count_rows)
        patch.setattr(afcmem.bounds, "_feasible_cells", count_cells)
        patch.setattr(afcmem.bounds, "_output_shares", count_formed)
        patch.setattr(afcmem.bounds, "_threshold_eval", count_ladders)
        transmitted_constrained_bound(3.6)
    assert len(cells) == 3 and sum(size for _, size in rows) <= 0.1 * sum(cells)
    evaluated = sum(size for ndim, size in rows if ndim) - sum(ladder_rows)
    assert len(ladder_rows) == 3 and evaluated > 0 and sum(formed) == 50 * evaluated


def _traced_peak(mu, **kwargs):
    """Traced allocation peak of a transmitted-bound call, after one call to warm up."""
    transmitted_constrained_bound(mu, **kwargs)
    tracemalloc.start()
    try:
        transmitted_constrained_bound(mu, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mu", [0.5, 1.4, 3.6, 8.2, 10.0, 300.0])
def test_transmitted_bound_peak_allocation(mu):
    # the search bounds a level's cells in one pass of a few numbers per cell, and
    # evaluates (cell, delta) candidates in fixed-size blocks of cells; one such
    # pass over a whole default level would allocate several MiB. The mu are the
    # ends of the bounds grid, three of the working points, and 300, where a
    # table row is about seven times as wide and few cells are skipped
    assert _traced_peak(mu) < (1.8 if mu == 300.0 else 0.4) * 2 ** 20


def test_transmitted_bound_peak_allocation_at_fine_grid():
    # at grid 256 a level has up to 65,536 cells, and the bound pass over them sets
    # the peak (4.16 MiB here)
    assert _traced_peak(1.4, grid_points=256, refine_rounds=1) < 4.9 * 2 ** 20


def test_transmitted_bound_reports_fallback_with_positive_zero_p():
    # 2 f_t - 1 on the q axis: a p = 0 cell beat the fallback by 1 ulp and was
    # reported as p = -0.0 with strategy-1 parameters of no meaning
    res = transmitted_constrained_bound(1.4, 0.75, 0.4, 0.02, grid_points=21, refine_rounds=1)
    assert res.bound == threshold_bound(1.4 * (1.0 - 0.4), 0.02 / (1.0 - 0.4)).bound
    assert res.params.p == 0.0 and math.copysign(1.0, res.params.p) == 1.0
    assert res.params.delta == 0.0 and math.isnan(res.params.eta_m1)


def test_transmitted_refinement_never_hurts():
    coarse = transmitted_constrained_bound(1.4, grid_points=30, refine_rounds=0).bound
    refined = transmitted_constrained_bound(1.4, grid_points=30, refine_rounds=2).bound
    assert refined >= coarse - 1e-15


def test_verdicts():
    assert quantumness_verdict(0.855, 0.001, 0.8411) == "quantum"
    assert quantumness_verdict(0.795, 0.002, 0.8112) == "inconclusive"
    assert quantumness_verdict(0.5, 0.0, 2.0 / 3.0) == "inconclusive"
    # the margin requirement scales with k
    assert quantumness_verdict(0.85, 0.004, 0.841, k=1.0) == "quantum"
    assert quantumness_verdict(0.85, 0.004, 0.841, k=3.0) == "inconclusive"
    # NaN in any argument raises; it used to read as "inconclusive"
    nan = float("nan")
    for args in ((nan, 0.004, 0.841), (0.9, nan, 0.8), (0.9, 0.01, nan), (0.9, 0.01, 0.8, nan)):
        with pytest.raises(ValueError):
            quantumness_verdict(*args)
