"""Test oracles: independent state and channel algebra that no command runs.

Channel propagation, the chi <-> Choi change of frame, random CPTP
channels, the trace distance and the Bloch vector; the closed-form
six-setting state MLE, and the normalized gradient ascent that the
state fit used before its Newton fitter; and the out-of-place build of
the bounds' Poisson tables. The tests use them to check the
reconstructions in afcmem against known answers, and the in-place table
build against the one it replaced.
"""

import math

import numpy as np

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
