"""Output checks of each workload against the oracle.

Every check returns a list of problems; an empty list means the outputs
are right. Inputs the checks need (the paper's working point and its
reported conclusions) are stated here, not read from afcmem.
"""

from __future__ import annotations

import filecmp
import math
import os

import numpy as np

import oracle

# benchmark working point of the paper (arXiv 1509.03537): measurement
# efficiency, transmitted fidelity and transmission
ETA_M, F_T, ETA_T = 0.0385, 0.972, 0.296
# photon-number scan: mu, measured fidelity, error and the stated conclusion
SCAN = ((0.8, 0.795, 0.002, "inconclusive"), (1.4, 0.855, 0.001, "quantum"),
        (3.6, 0.936, 0.001, "quantum"), (8.2, 0.957, 0.0004, "quantum"))

BOUND_TOL = 1e-9        # oracle agreement of a bound printed with 12 digits
RESIDUAL_TOL = 1e-10    # constraint residual from 12-digit strategy parameters
CPTP_TOL = 1e-9         # chi identities from 12-digit entries
FLOOR = 2.0 / 3.0

# summary.csv quantities computed from simulated counts; the rest involve
# no random draw and must always be ok
_STOCHASTIC = ("eta(", "p_n(", "fidelity(", "fidelity_closure(", "chi00",
               "transmission(", "transmitted_fidelity(")
# 3-sigma rows (37 today, p = 0.0027 each): more than 3 excursions has
# probability below 1e-5 for a correct program
MAX_EXCURSIONS = 3


def same_tree(a, b):
    """Problems if directories a and b differ in listing or bytes."""
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if names_a != names_b:
        return [f"{b}: files {names_b} differ from {names_a}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return [f"{b}/{name}: bytes differ from the first run" for name in mismatch + errors]


def _floats(cols, name):
    return [float(v) for v in cols[name]]


def check_threshold(mu, reported, what):
    ref = oracle.threshold(mu, ETA_M).bound
    if abs(reported - ref) > BOUND_TOL:
        return [f"{what}: threshold {reported!r} vs oracle {ref!r} at mu={mu}"]
    return []


def check_ordering(mu, plain, thr, tra, what):
    problems = []
    if plain > thr + 1e-12:
        problems.append(f"{what}: plain {plain} above threshold {thr} at mu={mu}")
    if tra > thr + 1e-12:
        problems.append(f"{what}: transmitted {tra} above threshold {thr} at mu={mu}")
    if min(plain, thr, tra) < FLOOR - 1e-12 or max(plain, thr, tra) > 1.0:
        problems.append(f"{what}: bound outside [2/3, 1] at mu={mu}")
    return problems


def check_verdicts(path):
    cols = oracle.read_columns(path)
    problems = []
    if [float(m) for m in cols["mu"]] != [s[0] for s in SCAN]:
        return [f"{path}: mu column {cols['mu']} is not the photon-number scan"]
    for i, (mu, f, err, expected) in enumerate(SCAN):
        thr = float(cols["threshold_bound"][i])
        tra = float(cols["transmitted_bound"][i])
        problems += check_threshold(mu, thr, path)
        problems += check_ordering(mu, oracle.plain_bound(mu), thr, tra, path)
        if tra < oracle.fallback_bound(mu, ETA_T, ETA_M) - 1e-12:
            problems.append(f"{path}: transmitted {tra} below the p = 0 fallback at mu={mu}")
        if cols["verdict"][i] != expected or oracle.verdict(f, err, thr) != expected:
            problems.append(f"{path}: verdict {cols['verdict'][i]} at mu={mu}, paper says {expected}")
        if cols["verdict_transmitted"][i] != oracle.verdict(f, err, tra):
            problems.append(f"{path}: transmitted verdict {cols['verdict_transmitted'][i]} at mu={mu}")
    return problems


def check_chi(path):
    herm, min_eig, tp = oracle.cptp_defects(oracle.read_chi(path))
    if herm > CPTP_TOL or min_eig < -CPTP_TOL or tp > CPTP_TOL:
        return [f"{path}: not CPTP (hermiticity {herm:.2e}, min eigenvalue {min_eig:.2e}, "
                f"TP defect {tp:.2e})"]
    return []


def check_summary(path):
    cols = oracle.read_columns(path)
    problems, excursions = [], []
    for quantity, status in zip(cols["quantity"], cols["status"]):
        if status == "ok":
            continue
        if quantity.startswith(_STOCHASTIC):
            excursions.append(quantity)
        else:
            problems.append(f"{path}: deterministic row {quantity} is {status}")
    if len(excursions) > MAX_EXCURSIONS:
        problems.append(f"{path}: {len(excursions)} Monte Carlo rows beyond 3 sigma: {excursions}")
    return problems


def check_reproduce(out):
    """Outputs of one reproduce-paper run."""
    problems = check_summary(os.path.join(out, "summary.csv"))
    d = oracle.read_columns(os.path.join(out, "figD1_bounds.csv"))
    for mu, plain, thr, tra in zip(*(_floats(d, k) for k in ("mu", "plain", "threshold", "transmitted"))):
        ref = oracle.plain_bound(mu)
        if abs(plain - ref) > BOUND_TOL:
            problems.append(f"figD1: plain {plain!r} vs oracle {ref!r} at mu={mu}")
        problems += check_threshold(mu, thr, "figD1")
        problems += check_ordering(mu, plain, thr, tra, "figD1")
    f3 = oracle.read_columns(os.path.join(out, "fig3a.csv"))
    for mu, thr in zip(_floats(f3, "mu"), _floats(f3, "threshold_bound")):
        problems += check_threshold(mu, thr, "fig3a")
    problems += check_verdicts(os.path.join(out, "verdicts.csv"))
    problems += check_chi(os.path.join(out, "fig3b_chi.csv"))
    return problems


def check_bound_curve(path):
    """Every row of bound_curve.csv against the oracle."""
    cols = oracle.read_columns(path)
    problems = []
    for i, mu in enumerate(_floats(cols, "mu")):
        row = {k: float(cols[k][i]) for k in cols}
        plain, thr, tra = row["plain"], row["threshold"], row["transmitted"]
        ref_plain = oracle.plain_bound(mu)
        if abs(plain - ref_plain) > BOUND_TOL:
            problems.append(f"{path}: plain {plain!r} vs oracle {ref_plain!r} at mu={mu}")
        problems += check_threshold(mu, thr, path)
        # the reported threshold strategy spends exactly the emission budget
        pmf_nmin = oracle.poisson_pmf(int(row["threshold_n_min"]), mu)
        spent = row["threshold_gamma"] + oracle.poisson_tail(int(row["threshold_n_min"]), mu)
        if abs(spent - oracle.emission_probability(mu, ETA_M)) > BOUND_TOL \
                or not -1e-15 <= row["threshold_gamma"] <= pmf_nmin * (1 + 1e-9) + 1e-15:
            problems.append(f"{path}: threshold strategy (n_min, gamma) misses the budget at mu={mu}")
        problems += check_ordering(mu, plain, thr, tra, path)
        s = oracle.transmitted_strategy(mu, F_T, ETA_T, ETA_M, row["strategy_p"], row["strategy_q"],
                                        row["strategy_delta"], row["strategy_eta_m1"],
                                        row["strategy_eta_m2"])
        if abs(s.objective - tra) > BOUND_TOL:
            problems.append(f"{path}: transmitted {tra!r} not attained, strategy gives {s.objective!r} at mu={mu}")
        worst = max(abs(s.fidelity_residual), abs(s.transmission_residual), abs(s.budget_residual))
        if worst > RESIDUAL_TOL or not s.in_range:
            problems.append(f"{path}: strategy infeasible at mu={mu} (residual {worst:.2e}, "
                            f"in range {s.in_range})")
        if tra < oracle.fallback_bound(mu, ETA_T, ETA_M) - 1e-12:
            problems.append(f"{path}: transmitted {tra} below the p = 0 fallback at mu={mu}")
    return problems


def check_bounds(out):
    return (check_bound_curve(os.path.join(out, "bound_curve.csv"))
            + check_verdicts(os.path.join(out, "verdicts.csv")))


def probe_passes(mu, eta_m, result):
    """A threshold_bound probe passes when it matches the oracle in value
    and degenerate flag, or when it was rejected with ValueError."""
    if result.get("error") == "ValueError":
        return True
    if "bound" not in result:
        return False
    ref = oracle.threshold(mu, eta_m)
    return abs(result["bound"] - ref.bound) <= BOUND_TOL and result["degenerate"] == ref.degenerate


# ---------------------------------------------------------------------------
# simulate

# configured truth and detection chain of the default config
ETA, P_N, F_C = 0.036, 0.0101, 0.991
TRIALS = 1_000_000
MODE_US = 1.25
DETECTION = oracle.Detection(detector_efficiency=0.57, transmission_to_detector=0.07,
                             dark_rate_hz=15.0, gate_us=MODE_US)
SIM_TOL = 1e-9


def _close(a, b):
    return abs(a - b) <= SIM_TOL * max(abs(b), 1e-12)


def check_simulate(out, mus):
    """Recompute estimate.csv and transmitted.csv from the histogram CSVs.

    Returns (problems, z) with z the (estimate - truth) / error of eta,
    p_n and the train fidelity.
    """
    wins = {k: oracle.histogram_windows(os.path.join(out, f"histogram_{k}.csv"), MODE_US)
            for k in ("parallel", "orthogonal", "noise")}
    ref = oracle.estimates(wins["parallel"], wins["orthogonal"], wins["noise"], mus, TRIALS, DETECTION)
    est = oracle.read_columns(os.path.join(out, "estimate.csv"))
    got = {q: (float(v), float(e)) for q, v, e in zip(est["quantity"], est["value"], est["error"])}
    expected = {q: ref[q] for q in ("eta", "p_n", "fidelity")}
    for m in range(len(mus)):
        expected[f"fidelity_mode_{m + 1}"] = (ref["mode_fidelity"][0][m], ref["mode_fidelity"][1][m])
    problems = []
    if set(got) != set(expected):
        problems.append(f"{out}/estimate.csv: quantities {sorted(got)}")
    for q, (v, e) in expected.items():
        if q in got and not (_close(got[q][0], v) and _close(got[q][1], e)):
            problems.append(f"{out}/estimate.csv: {q} = {got[q]} vs oracle ({v!r}, {e!r})")
    tr = oracle.read_columns(os.path.join(out, "transmitted.csv"))
    for m in range(len(mus)):
        for col, key, k in (("transmission", "transmission", 0), ("transmission_err", "transmission", 1),
                            ("fidelity", "transmitted_fidelity", 0),
                            ("fidelity_err", "transmitted_fidelity", 1)):
            if not _close(float(tr[col][m]), ref[key][k][m]):
                problems.append(f"{out}/transmitted.csv: mode {m + 1} {col} = {tr[col][m]} "
                                f"vs oracle {ref[key][k][m]!r}")
    truth = {"eta": ETA, "p_n": P_N,
             "fidelity": oracle.true_fidelity(mus, ETA, P_N, F_C, DETECTION)}
    z = {q: (got[q][0] - truth[q]) / got[q][1] for q in truth if q in got}
    return problems, z


def check_z_scores(z):
    """Pooled z-scores must look standard normal: |mean| and |sd - 1|
    within 5 standard errors (plus 0.05 on the sd for the Poisson
    error approximation)."""
    problems = []
    for q, values in z.items():
        n = len(values)
        if n < 2:
            continue
        mean, sd = float(np.mean(values)), float(np.std(values, ddof=1))
        if abs(mean) > 5.0 / math.sqrt(n) or abs(sd - 1.0) > 5.0 / math.sqrt(2.0 * n) + 0.05:
            problems.append(f"z-scores of {q} over {n} calls: mean {mean:.3f}, sd {sd:.3f}")
    return problems
