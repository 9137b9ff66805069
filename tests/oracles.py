"""Test oracles: independent state and channel algebra that no command runs.

Channel propagation, the chi <-> Choi change of frame, random CPTP
channels, the trace distance and the Bloch vector; the closed-form
six-setting state MLE, and the normalized gradient ascent that the
state fit used before its Newton fitter; the out-of-place build of the
bounds' Poisson tables and the comparison form of their threshold
evaluator; and two values of the transmitted cheat found
apart from the search, from scipy's Poisson distribution: its
eta_m2 = 0 face and a dense grid of its objective. The tests use them to
check the reconstructions in afcmem against known answers, the in-place
table build against the one it replaced, and the search's value against
strategies it should not miss.
"""

import math

import numpy as np
from scipy import stats

from afcmem.bounds import _MP, _MU_MAX, _N, _PMF_REL_CUTOFF
from afcmem.errors import EstimationError
from afcmem.polarization import PAULIS, PolarizationState
from afcmem.tomography import ProcessMatrix, TomographyData

_PAULI_DAGGERS = PAULIS.conj().transpose(0, 2, 1)

# columns (sigma_k (x) I)|Omega>, the frame mapping chi to the Choi matrix
_OMEGA = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
_FRAME = np.stack([np.kron(s, np.eye(2)) @ _OMEGA for s in PAULIS], axis=1)


def bloch(state: PolarizationState) -> np.ndarray:
    """Bloch vector (x, y, z); H sits at z = +1."""
    return np.array([np.trace(state.rho @ s).real for s in PAULIS[1:]])


def trace_distance(a: PolarizationState, b: PolarizationState) -> float:
    ev = np.linalg.eigvalsh(a.rho - b.rho)
    return float(0.5 * np.sum(np.abs(ev)))


def apply_process(chi: ProcessMatrix, state: PolarizationState) -> PolarizationState:
    """Propagate a state through the channel described by chi.

    The output trace is renormalized when chi is not trace preserving;
    use ProcessMatrix.tp_defect to check for that beforehand.
    """
    out = np.einsum("kl,kab,bc,lcd->ad", chi.chi, PAULIS, state.rho, _PAULI_DAGGERS)
    out = 0.5 * (out + out.conj().T)
    tr = np.trace(out).real
    if tr <= 0:
        raise EstimationError("channel maps the state to zero trace")
    return PolarizationState(out / tr)


def chi_to_choi(chi: np.ndarray) -> np.ndarray:
    return _FRAME @ np.asarray(chi, dtype=complex) @ _FRAME.conj().T


def choi_to_chi(choi: np.ndarray) -> np.ndarray:
    return _FRAME.conj().T @ np.asarray(choi, dtype=complex) @ _FRAME / 4.0


def random_process_matrix(seed: int) -> ProcessMatrix:
    """Random completely positive trace-preserving chi (Ginibre Choi state)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    choi = g @ g.conj().T
    w = np.einsum("aiaj->ij", choi.reshape(2, 2, 2, 2))
    ev, vec = np.linalg.eigh(w)
    w_isqrt = (vec * (1.0 / np.sqrt(ev))) @ vec.conj().T
    sandwich = np.kron(np.eye(2), w_isqrt)
    chi = choi_to_chi(sandwich @ choi @ sandwich)
    return ProcessMatrix(0.5 * (chi + chi.conj().T), projected=True)


def closed_form_rho(counts) -> np.ndarray:
    """MLE of six equal-exposure settings without background, inside the Bloch
    ball: r_i = (n+ - n-) / (n+ + n-) on each axis, counts in SETTING_LABELS order."""
    h, v, d, a, r, l = (float(c) for c in counts)
    x, y, z = (d - a) / (d + a), (r - l) / (r + l), (h - v) / (h + v)
    return 0.5 * (np.eye(2) + x * PAULIS[1] + y * PAULIS[2] + z * PAULIS[3])


def ascent_mle(data: TomographyData):
    """The state fit before the Newton fitter, kept as the reference for its
    log-likelihood: normalized gradient ascent with backtracking from the
    linear inversion, stopping once an accepted step gains less than
    1e-10 |LL| (or after 10,000 steps). Returns (rho, log-likelihood)."""
    # T = sum_i t_i E_i, so tr(T^dag T P_j) = t . Q_j t with Q_j,ik = Re tr(E_i^dag E_k P_j)
    e = np.zeros((4, 2, 2), dtype=complex)
    e[0, 0, 0], e[1, 1, 1], e[2, 1, 0], e[3, 1, 0] = 1.0, 1.0, 1.0, 1.0j
    projectors = np.stack([s.projector for s in data.settings])
    qs = np.einsum("iba,kbc,jca->jik", e.conj(), e, projectors).real
    n = data.counts.astype(float)
    bg = data.backgrounds

    def ll_of(t):
        m = np.einsum("i,jik,k->j", t, qs, t) + bg
        m = np.clip(m, 1e-300, None)
        return float(np.sum(n * np.log(m) - m))

    rows = [[s.projector[0, 0].real, s.projector[1, 1].real, 2.0 * s.projector[0, 1].real,
             2.0 * s.projector[0, 1].imag] for s in data.settings]
    x, *_ = np.linalg.lstsq(np.asarray(rows), n - bg, rcond=None)
    m = np.array([[x[0], x[2] + 1j * x[3]], [x[2] - 1j * x[3], x[1]]], dtype=complex)
    w, v = np.linalg.eigh(m)
    w = np.clip(w, max(w.max(), 1.0) * 1e-6, None)
    tchol = np.linalg.cholesky((v * w) @ v.conj().T)
    t = np.array([tchol[0, 0].real, tchol[1, 1].real, tchol[1, 0].real, tchol[1, 0].imag])

    ll = ll_of(t)
    step = 0.1 * np.linalg.norm(t) + 1e-12
    for _ in range(10_000):
        qt = qs @ t
        m = np.clip(qt @ t + bg, 1e-300, None)
        grad = 2.0 * (n / m - 1.0) @ qt
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            break
        direction = grad / gnorm
        accepted = False
        while step > 1e-16 * (np.linalg.norm(t) + 1.0):
            cand = t + step * direction
            ll_cand = ll_of(cand)
            if ll_cand >= ll:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        delta = ll_cand - ll
        t, ll = cand, ll_cand
        step *= 1.3
        if delta <= 1e-10 * max(1.0, abs(ll)):
            break
    a, d, c = t[0], t[1], t[2] + 1j * t[3]
    rho = np.array([[a * a + abs(c) ** 2, np.conj(c) * d], [c * d, d * d]], dtype=complex)
    return rho / np.trace(rho).real, ll


def poisson_tables(mus) -> tuple:
    """bounds._poisson_tables as it was built before the in-place build, one
    temporary per step: pmf, per-n fidelity, and the strict upper-tail sums of
    the pmf and of the fidelity-weighted pmf."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    if mus.min() < 0:
        raise ValueError("mu must be nonnegative")
    if mus.max() > _MU_MAX:
        raise ValueError("mu too large for the direct pmf recurrence")
    n_max = np.ceil(mus + 20.0 * np.sqrt(mus + 1.0) + 25.0)
    n = _N[: int(n_max.max()) + 1]
    ratios = mus[:, None] / np.maximum(n, 1.0) * (n <= n_max[:, None])
    ratios[:, 0] = [math.exp(-m) for m in mus]
    pmf = np.cumprod(ratios, axis=1)
    keep = pmf >= _PMF_REL_CUTOFF * pmf[:, 1:].max(axis=1, keepdims=True)
    last = n.size - 1 - np.argmax(keep[:, ::-1], axis=1)
    width = last.max() + 1
    pmf = pmf[:, :width] * (n[:width] <= last[:, None])
    mp = _MP[:width]
    s_gt = np.zeros_like(pmf)
    w_gt = np.zeros_like(pmf)
    s_gt[:, :-1] = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]
    w_gt[:, :-1] = np.cumsum((mp * pmf)[:, :0:-1], axis=1)[:, ::-1]
    return pmf, mp, s_gt, w_gt


def threshold_eval(tables, p_emit):
    """bounds._threshold_eval as it was before its sorted search: n_min from one
    (row, k, n) comparison of the tail table with p_emit, then gamma and the
    bound read from the same tables."""
    pmf, mp, s_gt, w_gt = tables
    # smallest n with tail(n) < p_emit; tail(N) = 0 guarantees a hit
    n_min = np.maximum(np.argmax(s_gt[:, None, :] < p_emit[:, :, None], axis=2), 1)
    # flat indices into the contiguous (row, n) tables
    at = n_min + (np.arange(len(pmf)) * pmf.shape[1])[:, None]
    gamma = np.minimum(np.maximum(p_emit - s_gt.take(at), 0.0), pmf.take(at))
    bound = (gamma * mp.take(n_min) + w_gt.take(at)) / p_emit
    return bound, n_min, gamma


def p_emit(mu, eta_m, matching):
    """Emission probability of a memory of efficiency eta_m for input mean mu."""
    if matching == "exp":
        return -np.expm1(-np.asarray(eta_m, dtype=float) * mu)
    return np.asarray(eta_m, dtype=float) * -math.expm1(-mu)


def threshold(mu, p):
    """Threshold bound of mean mu at emission probabilities p, from scipy's
    Poisson distribution over n = 0..mu + 40 sqrt(mu) + 100: emit on every
    n above n_min and on the part of n = n_min that p leaves (n_min >= 1)."""
    n = np.arange(int(mu + 40.0 * math.sqrt(mu) + 100.0) + 1)
    pmf = stats.poisson.pmf(n, mu)
    tail = stats.poisson.sf(n, mu)  # P(N > n)
    mp = (n + 1.0) / (n + 2.0)
    w_gt = np.append(np.cumsum((mp * pmf)[:0:-1])[::-1], 0.0)  # sum of mp pmf over N > n
    p = np.asarray(p, dtype=float)
    n_min = np.maximum(np.argmax(tail < p[..., None], axis=-1), 1)
    return ((p - tail[n_min]) * mp[n_min] + w_gt[n_min]) / p


def transmitted_face(mu, f_t, eta_t, eta_m, matching="exp", points=6000):
    """The transmitted cheat on its eta_m2 = 0 face: strategy 1 carries the
    whole output budget (p delta eta_m1 = eta_m, delta <= 1) and the bound is
    its fidelity f1(eta_m1). Returns the largest f1 over 6,000 log-spaced
    eta_m1 in [1e-4, 1] where some q in [0, 1] gives 0 < p <= 1 - 1e-12,
    0 <= eta <= 1 - 1e-12 and p eta_m1 >= eta_m; -inf where none does.

    The q are found in closed form. With h = (1 + q) / 2 and k = eta_t /
    eta_m1, p = k (h - f_t) / (h - f1) = k + d / (h - f1), d = k (f1 - f_t).
    The pole h = f1 lies inside (1/2, 1), and the search keeps |h - f1| >=
    1e-14, so the q below the pole reach the p between k + d / (1/2 - f1)
    and k - 1e14 d, and the q above it those between k + d / (1 - f1) and
    k + 1e14 d, each side monotonically. The conditions ask p in [lo, hi]:
    lo = eta_m / eta_m1 (the face), and hi the least of 1 - 1e-12, k (eta >=
    0) and (c - eta_t) / (c - eta_m1), c = 1 - 1e-12, when eta_m1 < c (eta
    <= c). So an eta_m1 is feasible when [lo, hi] meets either interval.
    """
    eta1 = np.geomspace(1e-4, 1.0, points)
    f1 = threshold(mu, p_emit(mu, eta1, matching))
    k = eta_t / eta1
    d = k * (f1 - f_t)
    c = 1.0 - 1e-12
    lo = eta_m / eta1
    hi = np.minimum(np.minimum(c, k), np.where(eta1 < c, (c - eta_t) / (c - eta1), np.inf))
    feasible = np.zeros(points, dtype=bool)
    for near, far in ((k + d / (0.5 - f1), k - 1e14 * d), (k + d / (1.0 - f1), k + 1e14 * d)):
        feasible |= np.maximum(lo, np.minimum(near, far)) <= np.minimum(hi, np.maximum(near, far))
    return float(f1[feasible].max()) if feasible.any() else -math.inf


def transmitted_dense(mu, f_t, eta_t, eta_m, matching="exp", points=12):
    """The transmitted search's own objective, (w1 f1 + (eta_m - w1) f2) / eta_m
    with w1 = p delta eta_m1, at its largest over a points^3 grid of eta_m1
    (log-spaced in [1e-2, 1]), q (in [0, 1]) and delta (in [1/points, 1]),
    evaluated cell by cell with the search's feasibility conditions; -inf
    where no cell is feasible."""
    eta1_axis = np.geomspace(1e-2, 1.0, points)
    deltas = np.linspace(1.0 / points, 1.0, points)
    best = -math.inf
    for eta1, f1 in zip(eta1_axis, threshold(mu, p_emit(mu, eta1_axis, matching))):
        for q in np.linspace(0.0, 1.0, points):
            half = 0.5 * (1.0 + q)
            if abs(half - f1) < 1e-14:
                continue
            p = eta_t / eta1 * (half - f_t) / (half - f1)
            if not 0.0 < p <= 1.0 - 1e-12:
                continue
            eta = (eta_t - p * eta1) / (1.0 - p)
            if not 0.0 <= eta <= 1.0 - 1e-12:
                continue
            w1 = p * deltas * eta1
            eta_m2 = (eta_m - w1) / ((1.0 - p) * (1.0 - eta))
            ok = (eta_m2 > 0.0) & (eta_m2 <= 1.0)
            if ok.any():
                mu2 = (1.0 - eta) * mu
                f2 = threshold(mu2, p_emit(mu2, eta_m2[ok], matching))
                best = max(best, float(np.max((w1[ok] * f1 + (eta_m - w1[ok]) * f2) / eta_m)))
    return best
