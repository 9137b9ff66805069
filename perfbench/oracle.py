"""Reference computations made apart from afcmem.

Nothing here imports afcmem. The bounds are recomputed from
scipy.stats.poisson over a complete distribution, the estimators are
written out from the counting model, and the process-matrix identities
are checked on the raw CSV entries. scipy is imported only by the bound
functions, so the estimator checks can run inside a process whose
memory is being measured without loading it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


def read_columns(path):
    """Columns of an afcmem CSV (after its '#' preamble) by header name,
    as lists of strings."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# classical bounds

@dataclass(frozen=True)
class Threshold:
    bound: float
    degenerate: bool


def _poisson_tables(mu):
    """pmf over n = 0..N with P(n > N) below double precision, and the
    strict upper tails S(n) = P(N > n), W(n) = sum_{k>n} (k+1)/(k+2) P(k)."""
    from scipy.stats import poisson

    n_max = int(mu + 40.0 * math.sqrt(mu) + 100.0)
    n = np.arange(n_max + 1)
    pmf = poisson.pmf(n, mu)
    s_gt = poisson.sf(n, mu)
    w_terms = (n + 1.0) / (n + 2.0) * pmf
    w_gt = np.concatenate([np.cumsum(w_terms[::-1])[::-1][1:], [0.0]])
    return pmf, s_gt, w_gt


def poisson_pmf(n, mu):
    from scipy.stats import poisson

    return float(poisson.pmf(n, mu))


def poisson_tail(n, mu):
    """P(N > n)."""
    from scipy.stats import poisson

    return float(poisson.sf(n, mu))


def plain_bound(mu):
    """sum_{n>=1} (n+1)/(n+2) P(n) / P(N >= 1)."""
    pmf, s_gt, w_gt = _poisson_tables(mu)
    return float(w_gt[0] / s_gt[0])


def emission_probability(mu, eta_m):
    return -math.expm1(-eta_m * mu)


def threshold(mu, eta_m):
    """Best measure-and-prepare fidelity when emission happens with
    probability 1 - exp(-eta_m mu): emit on every n > n_min and on the
    share gamma of n = n_min, n_min >= 1 the smallest n whose strict
    tail is below the budget. degenerate: the budget exceeds P(N >= 1)."""
    pmf, s_gt, w_gt = _poisson_tables(mu)
    p_emit = emission_probability(mu, eta_m)
    below = np.nonzero(s_gt < p_emit)[0]
    n_min = max(int(below[0]), 1)
    gamma = min(max(p_emit - s_gt[n_min], 0.0), pmf[n_min])
    bound = (gamma * (n_min + 1.0) / (n_min + 2.0) + w_gt[n_min]) / p_emit
    return Threshold(float(bound), bool(p_emit > s_gt[0] * (1.0 + 1e-9)))


@dataclass(frozen=True)
class StrategyCheck:
    objective: float
    fidelity_residual: float
    transmission_residual: float
    budget_residual: float
    in_range: bool


def transmitted_strategy(mu, f_t, eta_t, eta_m, p, q, delta, eta_m1, eta_m2):
    """Re-evaluate a transmitted-constrained cheat from its parameters.

    Strategy 1 (probability p) transmits with probability eta_m1 a
    re-prepared state of the threshold fidelity f1 = F(mu, eta_m1) and
    emits a share delta of that into the memory output. Strategy 2 sends
    the pulse through a beamsplitter of transmission eta, transmits a
    state of fidelity (1 + q) / 2 and feeds the reflected (1 - eta) mu
    to a threshold emitter at eta_m2. The beamsplitter is not reported,
    so it is rebuilt from the transmission equation; the residuals of
    the transmitted fidelity and of the output budget are independent
    checks of the reported parameters.
    """
    if p == 0.0:
        f1, w1, eta1 = 0.0, 0.0, 0.0
    else:
        f1 = threshold(mu, eta_m1).bound
        eta1 = eta_m1
        w1 = p * delta * eta1
    eta = (eta_t - p * eta1) / (1.0 - p)
    mu2 = (1.0 - eta) * mu
    fm2 = threshold(mu2, eta_m2).bound
    objective = (w1 * f1 + (eta_m - w1) * fm2) / eta_m
    fid_res = p * eta1 * f1 + (1.0 - p) * eta * 0.5 * (1.0 + q) - f_t * eta_t
    trans_res = p * eta1 + (1.0 - p) * eta - eta_t
    budget_res = w1 + (1.0 - p) * (1.0 - eta) * eta_m2 - eta_m
    in_range = (0.0 <= p < 1.0 and 0.0 <= q <= 1.0 and 0.0 <= delta <= 1.0
                and 0.0 <= eta <= 1.0 and 0.0 < eta_m2 <= 1.0
                and (p == 0.0 or 0.0 < eta_m1 <= 1.0))
    return StrategyCheck(objective, fid_res, trans_res, budget_res, in_range)


def fallback_bound(mu, eta_t, eta_m):
    """The p = 0 cheat, feasible at every mu: plain beamsplitter at eta_t,
    transmitted purity 2 f_t - 1, all of the output budget on strategy 2."""
    return threshold((1.0 - eta_t) * mu, min(eta_m / (1.0 - eta_t), 1.0)).bound


def verdict(fidelity, err, bound, k=1.0):
    return "quantum" if fidelity - k * err > bound else "inconclusive"


# ---------------------------------------------------------------------------
# estimators from counting histograms

def histogram_windows(path, mode_duration):
    """Per-mode counts of the 'input' and 'output' windows of a histogram CSV."""
    cols = read_columns(path)
    start = np.array(cols["bin_start_us"], dtype=float)
    counts = np.array(cols["counts"], dtype=np.int64)
    labels = np.array(cols["window_label"])
    out = {}
    for label in ("input", "output"):
        sel = labels == label
        t0 = start[sel].min()
        mode = np.floor((start[sel] - t0) / mode_duration + 1e-9).astype(int)
        out[label] = np.bincount(mode, weights=counts[sel]).astype(np.int64)
    return out


@dataclass(frozen=True)
class Detection:
    """Detection chain of the simulated experiment."""

    detector_efficiency: float
    transmission_to_detector: float
    dark_rate_hz: float
    gate_us: float

    @property
    def t_det(self):
        return self.transmission_to_detector * self.detector_efficiency

    @property
    def dark(self):
        return self.dark_rate_hz * self.gate_us * 1e-6 * self.detector_efficiency


def estimates(par, orth, noise, mus, trials, det):
    """eta, p_n and the count-ratio fidelities with their Poisson errors.

    par, orth, noise are histogram_windows() of the parallel, orthogonal
    and no-input runs; mus the per-mode photon numbers.
    """
    n_modes = len(mus)
    t, d = det.t_det, det.dark
    gates = trials * n_modes
    n_noise = float(noise["output"].sum())
    p_n = (n_noise / gates - d) / t
    p_n_err = math.sqrt(max(n_noise, 1.0)) / (gates * t)
    s_p, s_o = float(par["output"].sum()), float(orth["output"].sum())
    flux = trials * float(sum(mus)) * t
    eta = (s_p + s_o - 2.0 * gates * (p_n * t + d)) / flux
    eta_err = math.hypot(math.sqrt(s_p + s_o) / flux, 2.0 * gates * t * p_n_err / flux)
    tot = s_p + s_o
    fid = s_p / tot
    fid_err = math.sqrt(s_p * s_o / tot ** 3)
    pm, om = par["output"].astype(float), orth["output"].astype(float)
    mode_fid = pm / (pm + om)
    mode_err = np.sqrt(pm * om / (pm + om) ** 3)
    pi, oi = par["input"].astype(float), orth["input"].astype(float)
    trans = (pi + oi - 2.0 * trials * d) / (trials * np.asarray(mus) * t)
    trans_err = np.sqrt(pi + oi) / (trials * np.asarray(mus) * t)
    trans_fid = pi / (pi + oi)
    trans_fid_err = np.sqrt(pi * oi / (pi + oi) ** 3)
    return {"eta": (eta, eta_err), "p_n": (p_n, p_n_err), "fidelity": (fid, fid_err),
            "mode_fidelity": (mode_fid, mode_err), "transmission": (trans, trans_err),
            "transmitted_fidelity": (trans_fid, trans_fid_err)}


def true_fidelity(mus, eta, p_n, f_c, det):
    """Mean count ratio of the train: parallel port sees contrast f_c,
    orthogonal 1 - f_c, both see the unpolarized p_n and dark counts."""
    mu = float(sum(mus))
    n = len(mus)
    par = (mu * eta * f_c + n * p_n) * det.t_det + n * det.dark
    orth = (mu * eta * (1.0 - f_c) + n * p_n) * det.t_det + n * det.dark
    return par / (par + orth)


# ---------------------------------------------------------------------------
# process matrices

_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def read_chi(path):
    cols = read_columns(path)
    chi = np.zeros((4, 4), dtype=complex)
    for r, c, re, im in zip(cols["row"], cols["col"], cols["re"], cols["im"]):
        chi[int(r), int(c)] = float(re) + 1j * float(im)
    return chi


def cptp_defects(chi):
    """(Hermiticity defect, most negative eigenvalue, trace-preservation
    defect) of chi; sum_kl chi_kl sigma_l^dag sigma_k = I for a TP map."""
    herm = float(np.abs(chi - chi.conj().T).max())
    min_eig = float(np.linalg.eigvalsh(0.5 * (chi + chi.conj().T)).min())
    op = sum(chi[k, l] * _PAULIS[l].conj().T @ _PAULIS[k] for k in range(4) for l in range(4))
    tp = float(np.abs(op - np.eye(2)).max())
    return herm, min_eig, tp
