"""Qubit state and process tomography on photon counting data.

State reconstruction is maximum likelihood over Poissonian counts with
the unnormalized density matrix parametrized as T^dag T, T lower
triangular with a real diagonal (4 real parameters t = (a, d, Re c,
Im c); James, Kwiat, Munro & White, PRA 64, 052312 (2001)), so every
iterate is physical and tr(T^dag T) carries the overall flux. One
batched fitter serves the fit of the data and every bootstrap
resample: each row of an (R, 4) parameter array takes damped
(Levenberg-Marquardt) Newton steps on the analytic gradient and Hessian
of its Poisson log-likelihood, starting from the linear inversion, and
stops on its own gradient norm (the KKT condition of the unconstrained
parameters). Process reconstruction is linear inversion of the
four-input action

    rho_out = sum_kl chi_kl sigma_k rho_in sigma_l^dag

in the Pauli basis (I, X, Y, Z) (Chuang & Nielsen, J. Mod. Opt. 44,
2455 (1997)), followed by alternating projections onto the
trace-preserving affine subspace A(chi) = I and the positive cone,
where A(chi) = sum_kl chi_kl sigma_l sigma_k. On 2 x 2 matrices
A A^* = 8 I, with A^*(Y)_kl = tr(sigma_k sigma_l Y), so the Frobenius
projection onto that subspace is chi - A^*(A(chi) - I) / 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EstimationError
from .polarization import _PURITY_TOL, PAULIS, AnalysisSetting, PolarizationState, standard_setting
from .tableio import write_csv

SETTING_LABELS = ("H", "V", "D", "A", "R", "L")

# a fit row stops once |grad LL| |t| / (2 sum n) falls to _GRAD_TOL; that is
# about the relative error left in t, and Newton steps take it from 1e-6
# to rounding in one or two steps more
_GRAD_TOL = 1e-12
_MAX_STEPS = 100
# Levenberg-Marquardt damping, relative to the largest Hessian eigenvalue:
# divided by 10 after an accepted step, multiplied by 10 after a rejected
# one; a row whose damping passes _DAMP_MAX has no ascent step left
_DAMP_START = 1e-3
_DAMP_MIN = 1e-15
_DAMP_MAX = 1e12
_MAX_ITER = 10_000
_PROJ_TOL = 1e-9
_LOW_RANK_EIG = 1e-9


@dataclass(frozen=True, eq=False)
class TomographyData:
    """Counts per analyzer setting, all taken with equal exposure, and their backgrounds."""

    settings: tuple[AnalysisSetting, ...]
    counts: np.ndarray
    backgrounds: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.settings)
        if counts.shape != (n,):
            raise ValueError("counts must match the number of settings")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        backgrounds = np.zeros(n) if self.backgrounds is None else np.asarray(self.backgrounds, dtype=float)
        if backgrounds.shape != (n,):
            raise ValueError("backgrounds must match the number of settings")
        if (backgrounds < 0).any():
            raise ValueError("backgrounds must be nonnegative")
        projs = np.stack([s.projector.reshape(4) for s in self.settings])
        if np.linalg.matrix_rank(projs, tol=1e-9) < 4:
            raise ValueError("settings must contain at least 4 linearly independent projectors")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "backgrounds", backgrounds)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int],
                    backgrounds: Mapping[str, float] | None = None) -> "TomographyData":
        labels = [lab for lab in SETTING_LABELS if lab in counts]
        if set(counts) - set(labels):
            raise ValueError(f"unknown setting labels {sorted(set(counts) - set(labels))}")
        settings = tuple(standard_setting(lab) for lab in labels)
        n = np.array([counts[lab] for lab in labels])
        bg = None if backgrounds is None else np.array([backgrounds[lab] for lab in labels], dtype=float)
        return cls(settings, n, bg)


@dataclass(frozen=True, eq=False)
class DensityMatrixEstimate:
    """Maximum-likelihood state with its fit diagnostics: the Newton steps
    tried and whether the gradient stop was reached."""

    state: PolarizationState
    log_likelihood: float
    iterations: int
    converged: bool
    low_rank: bool


class BootstrapSigma(float):
    """The bootstrap fidelity sigma, a float, with the resamples it did not
    rest on fully: all-zero resamples skipped, and fitted resamples whose
    fit stopped short of the gradient stop (they still count)."""

    resamples_skipped: int
    resamples_unconverged: int

    def __new__(cls, sigma: float, skipped: int, unconverged: int):
        self = super().__new__(cls, sigma)
        self.resamples_skipped = skipped
        self.resamples_unconverged = unconverged
        return self


def _design(settings: Sequence[AnalysisSetting]) -> np.ndarray:
    """Linear-inversion rows (P00, P11, 2 Re P01, 2 Im P01), so that
    tr(M P) = row . (M00, M11, Re M01, Im M01) for Hermitian M."""
    return np.array([[s.projector[0, 0].real, s.projector[1, 1].real,
                      2.0 * s.projector[0, 1].real, 2.0 * s.projector[0, 1].imag] for s in settings])


def _forms(projectors: np.ndarray) -> np.ndarray:
    """Matrices Q (..., 4, 4) with tr(T^dag T P) = t . Q t, t = (a, d, Re c, Im c),
    for projectors (..., 2, 2)."""
    qs = np.zeros(projectors.shape[:-2] + (4, 4))
    qs[..., 0, 0] = qs[..., 2, 2] = qs[..., 3, 3] = projectors[..., 0, 0].real
    qs[..., 1, 1] = projectors[..., 1, 1].real
    qs[..., 1, 2] = qs[..., 2, 1] = projectors[..., 0, 1].real
    qs[..., 1, 3] = qs[..., 3, 1] = -projectors[..., 0, 1].imag
    return qs


def _t_params_to_rho(t: np.ndarray) -> np.ndarray:
    """Normalized T^dag T / tr(T^dag T) (R, 2, 2) for rows t = (a, d, Re c, Im c) (R, 4)."""
    a, d, c_re, c_im = t.T
    c = c_re + 1j * c_im
    m = np.empty((len(t), 2, 2), dtype=complex)
    m[:, 0, 0] = a * a + c_re * c_re + c_im * c_im
    m[:, 0, 1] = np.conj(c) * d
    m[:, 1, 0] = c * d
    m[:, 1, 1] = d * d
    return m / (m[:, 0, 0].real + m[:, 1, 1].real)[:, None, None]


def _linear_inversion(design: np.ndarray, counts: np.ndarray, backgrounds: np.ndarray) -> np.ndarray:
    """Least-squares T^dag T (R, 2, 2) for each row of counts (R, k), its
    eigenvalues clipped to at least 1e-6 of the largest (and of 1)."""
    x = np.linalg.lstsq(design, (counts - backgrounds).T, rcond=None)[0].T
    m = np.empty((len(x), 2, 2), dtype=complex)
    m[:, 0, 0] = x[:, 0]
    m[:, 1, 1] = x[:, 1]
    m[:, 0, 1] = x[:, 2] + 1j * x[:, 3]
    m[:, 1, 0] = x[:, 2] - 1j * x[:, 3]
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, np.maximum(w.max(axis=1), 1.0)[:, None] * 1e-6)
    return (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _cholesky_params(m: np.ndarray) -> np.ndarray:
    """t = (a, d, Re c, Im c) (R, 4) with T^dag T = m for positive m (R, 2, 2):
    d = sqrt(m11), c = m10 / d, a = sqrt(m00 - |c|^2)."""
    d = np.sqrt(m[:, 1, 1].real)
    c = m[:, 1, 0] / d
    return np.stack([np.sqrt(m[:, 0, 0].real - np.abs(c) ** 2), d, c.real, c.imag], axis=1)


def _model(qs: np.ndarray, bg: np.ndarray, t: np.ndarray):
    """Expected counts m_j = t . Q_j t + b_j (R, k) and Q_j t (R, k, 4) per row
    of t (R, 4) and of qs (R, k, 4, 4)."""
    qt = np.einsum("rjab,rb->rja", qs, t)
    return np.maximum(np.einsum("rja,ra->rj", qt, t) + bg, 1e-300), qt


def _derivatives(qs: np.ndarray, n: np.ndarray, m: np.ndarray, qt: np.ndarray):
    """Gradient (R, 4) and Hessian (R, 4, 4) in t of sum_j [n_j log m_j - m_j]."""
    r = n / m
    grad = 2.0 * np.einsum("rj,rja->ra", r - 1.0, qt)
    hess = 2.0 * np.einsum("rj,rjab->rab", r - 1.0, qs) \
        - 4.0 * np.einsum("rj,rja,rjb->rab", r / m, qt, qt)
    return grad, hess


def _fit(qs: np.ndarray, n: np.ndarray, bg: np.ndarray, t: np.ndarray):
    """Maximize each row's log-likelihood sum_j [n_j log m_j - m_j] from its
    start t (R, 4); n holds the counts (R, k).

    A step solves (|H| + lam s) step = grad, with |H| the Hessian's
    eigenvalues taken by absolute value (an ascent direction even where
    the likelihood is not concave in t), s the largest of them and lam
    the row's damping. It is taken only if the log-likelihood does not
    fall; the change is summed as n log1p(dm / m) - dm over the change
    dm of each expected count, so that its sign stays exact next to a
    log-likelihood many orders larger. A row stops once |grad| |t| /
    (2 sum n) <= _GRAD_TOL (converged), once its damping passes
    _DAMP_MAX, or after _MAX_STEPS steps. Returns t, the
    log-likelihoods, the steps tried per row and the converged mask.
    """
    t = np.array(t, dtype=float)
    m, qt = _model(qs, bg, t)
    grad, hess = _derivatives(qs, n, m, qt)
    half_total = 0.5 * n.sum(axis=1)
    lam = np.full(len(t), _DAMP_START)
    steps = np.zeros(len(t), dtype=np.int64)
    converged = np.zeros(len(t), dtype=bool)
    active = np.ones(len(t), dtype=bool)
    while True:
        kkt = np.linalg.norm(grad, axis=1) * np.linalg.norm(t, axis=1) / half_total
        converged |= active & (kkt <= _GRAD_TOL)
        active &= ~converged & (steps < _MAX_STEPS)
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        # the complex Hermitian solver, which the seeds and the process fit
        # load anyway: the real symmetric one adds about 0.2 MB of LAPACK
        # to the process's peak resident memory, for a 4 x 4 problem
        w, v = np.linalg.eigh(-hess[rows].astype(complex))
        w = np.abs(w)
        w += lam[rows, None] * w.max(axis=1, keepdims=True)
        step = np.einsum("rab,rb->ra", v, np.einsum("rba,rb->ra", v.conj(), grad[rows]) / w).real
        dm = np.einsum("ra,rjab,rb->rj", step, qs[rows], 2.0 * t[rows] + step)
        with np.errstate(over="ignore"):
            ratio = np.clip(dm / m[rows], -1.0 + 1e-16, 1e300)
        ok = np.sum(n[rows] * np.log1p(ratio) - dm, axis=1) >= 0.0
        steps[rows] += 1
        up = rows[ok]
        t[up] += step[ok]
        m[up], qt[up] = _model(qs[up], bg, t[up])
        grad[up], hess[up] = _derivatives(qs[up], n[up], m[up], qt[up])
        lam[rows] = np.where(ok, np.maximum(lam[rows] * 0.1, _DAMP_MIN), lam[rows] * 10.0)
        active[rows[lam[rows] > _DAMP_MAX]] = False
    ll = np.sum(n * np.log(m) - m, axis=1)
    return t, ll, steps, converged


def _fit_rows(settings: Sequence[AnalysisSetting], counts: np.ndarray, backgrounds: np.ndarray):
    """Fit each row of counts (R, k) from its linear inversion; returns the
    normalized rho (R, 2, 2), the log-likelihoods, the Newton steps tried
    and the converged mask.

    T^dag T has rho11 = d^2, so a state near H puts d near 0, where a and
    |c| trade along an almost flat ring and Newton steps crawl. A row
    whose start has rho00 > rho11 is therefore fitted in the basis order
    (V, H): its projectors and start are conjugated by sigma_x, and so is
    the fitted state.
    """
    start = _linear_inversion(_design(settings), counts, backgrounds)
    flip = np.where((start[:, 0, 0].real > start[:, 1, 1].real)[:, None, None], PAULIS[1], PAULIS[0])
    projectors = np.stack([s.projector for s in settings])
    qs = _forms(flip[:, None] @ projectors @ flip[:, None])
    t, ll, steps, converged = _fit(qs, counts, backgrounds, _cholesky_params(flip @ start @ flip))
    return flip @ _t_params_to_rho(t) @ flip, ll, steps, converged


def mle_state(data: TomographyData) -> DensityMatrixEstimate:
    """Maximum-likelihood density matrix from counting data.

    Maximizes sum_j [n_j log m_j - m_j] with m_j = tr(rho~ P_j) + b_j
    over rho~ = T^dag T, whose trace absorbs the overall flux, so no
    separate scale parameter is needed. This is the one-row call of the
    batched fitter that monte_carlo_errors uses: damped Newton steps
    from the linear inversion, each accepted only if the likelihood
    does not fall, until the gradient stop |grad| |t| / (2 sum n) <=
    1e-12 (converged=True), or until 100 steps or a step too damped to
    move (converged=False). iterations counts the Newton steps tried,
    rejected ones included.
    """
    if data.counts.sum() <= 0:
        raise EstimationError("no counts to fit")
    rho, ll, steps, converged = _fit_rows(data.settings, data.counts[None, :].astype(float),
                                          data.backgrounds)
    low_rank = bool(np.linalg.eigvalsh(rho[0]).min() < _LOW_RANK_EIG)
    return DensityMatrixEstimate(PolarizationState(rho[0]), float(ll[0]), int(steps[0]),
                                 bool(converged[0]), low_rank)


def monte_carlo_errors(data: TomographyData, target: PolarizationState, *,
                       resamples: int = 200, seed: int = 0) -> BootstrapSigma:
    """Bootstrap error of the fidelity by Poisson-resampling each recorded count.

    Draws all resamples at once, rng.poisson(counts, size=(resamples,
    k)) (the same draws as resamples one at a time), skips those that
    come out all zero, and fits the rest in one call of mle_state's
    batched fitter. Returns the sample standard deviation of the fitted
    states' fidelity tr(rho target) to a pure target, as a float that
    also carries how many resamples were skipped and how many fits
    stopped short of the gradient stop (those are kept).
    """
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    if data.counts.sum() <= 0:
        raise EstimationError("no counts to resample")
    if target.purity < 1.0 - _PURITY_TOL:
        raise ValueError(f"fidelity needs a pure target, got purity {target.purity}")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(data.counts, size=(resamples, data.counts.size))
    counts = counts[counts.sum(axis=1) > 0].astype(float)
    if len(counts) == 0:
        raise EstimationError("all resamples were empty")
    rho, _, _, converged = _fit_rows(data.settings, counts, data.backgrounds)
    fid = np.clip(np.einsum("rab,ba->r", rho, target.rho).real, 0.0, 1.0)
    return BootstrapSigma(float(np.std(fid, ddof=1)), resamples - len(counts),
                          int(np.count_nonzero(~converged)))


# ---------------------------------------------------------------------------
# process matrices


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """Process matrix chi in the Pauli basis (I, X, Y, Z).

    chi holds the physical (projected) matrix when projected is True,
    and the Hermitian part of the plain linear inversion otherwise.
    """

    chi: np.ndarray
    projected: bool = True
    iterations: int = 0

    def __post_init__(self):
        chi = np.array(self.chi, dtype=complex)
        if chi.shape != (4, 4):
            raise ValueError("chi must be 4x4")
        if np.abs(chi - chi.conj().T).max() > 1e-8:
            raise ValueError("chi must be Hermitian")
        chi.setflags(write=False)
        object.__setattr__(self, "chi", chi)

    @property
    def chi00(self) -> float:
        return float(self.chi[0, 0].real)

    def tp_defect(self) -> float:
        """Frobenius distance of A(chi) = sum_kl chi_kl sigma_l sigma_k from the identity."""
        return float(np.linalg.norm(_tp_map(self.chi) - np.eye(2)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.chi).min())


def _tp_map(chi: np.ndarray) -> np.ndarray:
    """A(chi) = sum_kl chi_kl sigma_l sigma_k, which is I exactly when chi is trace preserving."""
    return np.einsum("kl,lab,kbc->ac", chi, PAULIS, PAULIS)


def _project_tp(chi: np.ndarray) -> np.ndarray:
    """The Frobenius-nearest Hermitian chi with A(chi) = I: the Hermitian part
    minus A^*(A(chi) - I) / 8, A^*(Y)_kl = tr(sigma_k sigma_l Y)."""
    chi = 0.5 * (chi + chi.conj().T)
    return chi - np.einsum("kab,lbc,ca->kl", PAULIS, PAULIS, _tp_map(chi) - np.eye(2)) / 8.0


def _project_psd(chi: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (chi + chi.conj().T))
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def project_process_matrix(chi: np.ndarray) -> tuple[np.ndarray, int]:
    """Alternate between the TP affine subspace and the positive cone.

    Stops when successive iterates move by less than _PROJ_TOL in
    Frobenius norm, or after _MAX_ITER rounds.
    """
    current = 0.5 * (chi + chi.conj().T)
    iters = 0
    for iters in range(1, _MAX_ITER + 1):
        previous = current
        current = _project_psd(_project_tp(current))
        if np.linalg.norm(current - previous) < _PROJ_TOL:
            break
    return current, iters


def process_tomography(inputs: Sequence[PolarizationState],
                       outputs: Sequence[PolarizationState], *, project: bool = True) -> ProcessMatrix:
    """Reconstruct chi from matched input/output state pairs.

    Four linearly independent inputs determine the map exactly; extra
    pairs are used in the least-squares sense. With project=True the
    inversion is pushed to a trace-preserving positive chi by
    project_process_matrix.
    """
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must pair up")
    if len(inputs) < 4:
        raise ValueError("need at least 4 input states")
    rhos = np.stack([s.rho for s in inputs])
    if np.linalg.matrix_rank(rhos.reshape(-1, 4), tol=1e-9) < 4:
        raise ValueError("input states must span the operator space")
    # row (input n, entry ad) of the system: (sigma_k rho_n sigma_l^dag)_ad against chi_kl
    a = np.einsum("kab,nbc,lcd->nadkl", PAULIS, rhos, PAULIS).reshape(-1, 16)
    b = np.stack([s.rho for s in outputs]).reshape(-1)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    chi_lin = x.reshape(4, 4)
    if not project:
        return ProcessMatrix(0.5 * (chi_lin + chi_lin.conj().T), projected=False)
    chi_proj, iters = project_process_matrix(chi_lin)
    return ProcessMatrix(chi_proj, projected=True, iterations=iters)


def export_process_matrix(proc: ProcessMatrix, path: str,
                          metadata: Mapping[str, object] | None = None) -> None:
    """Write the 16 chi entries as (row, col, re, im) rows, after a preamble
    with chi00, tp_defect, min_eigenvalue and projection_applied."""
    meta = {**(metadata or {}), "chi00": proc.chi00, "tp_defect": proc.tp_defect(),
            "min_eigenvalue": proc.min_eigenvalue(),
            "projection_applied": "yes" if proc.projected else "no"}
    rows = ((i, j, proc.chi[i, j].real, proc.chi[i, j].imag) for i in range(4) for j in range(4))
    write_csv(path, meta, ["row", "col", "re", "im"], rows)
