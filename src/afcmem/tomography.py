"""Qubit state and process tomography on photon counting data.

State reconstruction is maximum likelihood over Poissonian counts with
the density matrix parametrized as T^dag T / tr(T^dag T), T lower
triangular (4 real parameters), so every iterate is physical. Process
reconstruction is linear inversion of the four-input action

    rho_out = sum_kl chi_kl sigma_k rho_in sigma_l^dag

in the Pauli basis (I, X, Y, Z), followed by alternating projections
onto the trace-preserving affine subspace and the positive cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from .errors import EstimationError
from .polarization import PAULIS, AnalysisSetting, PolarizationState, fidelity, standard_setting
from .tableio import write_csv

SETTING_LABELS = ("H", "V", "D", "A", "R", "L")

_LL_TOL = 1e-10
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
    """Maximum-likelihood state with its ascent diagnostics."""

    state: PolarizationState
    log_likelihood: float
    iterations: int
    converged: bool
    low_rank: bool


def _quadratic_forms(data: TomographyData) -> np.ndarray:
    """Per-setting matrices Q with tr(T^dag T P) = t . Q t, t = (a, d, Re c, Im c)."""
    qs = np.zeros((len(data.settings), 4, 4))
    for j, setting in enumerate(data.settings):
        p = setting.projector
        p00, p11 = p[0, 0].real, p[1, 1].real
        re01, im01 = p[0, 1].real, p[0, 1].imag
        q = qs[j]
        q[0, 0] = p00
        q[2, 2] = p00
        q[3, 3] = p00
        q[1, 1] = p11
        q[1, 2] = q[2, 1] = re01
        q[1, 3] = q[3, 1] = -im01
    return qs


def _t_params_to_rho(t: np.ndarray) -> np.ndarray:
    a, d, c_re, c_im = t
    c = c_re + 1j * c_im
    m = np.array([[a * a + abs(c) ** 2, np.conj(c) * d], [c * d, d * d]], dtype=complex)
    return m


def _linear_inversion_seed(data: TomographyData) -> np.ndarray:
    """Least-squares inversion, clipped to positive and Cholesky factored."""
    rows = []
    for setting in data.settings:
        p = setting.projector
        rows.append([p[0, 0].real, p[1, 1].real, 2.0 * p[0, 1].real, 2.0 * p[0, 1].imag])
    a = np.asarray(rows)
    b = data.counts - data.backgrounds
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    m = np.array([[x[0], x[2] + 1j * x[3]], [x[2] - 1j * x[3], x[1]]], dtype=complex)
    w, v = np.linalg.eigh(m)
    floor = max(w.max(), 1.0) * 1e-6
    w = np.clip(w, floor, None)
    m = (v * w) @ v.conj().T
    tchol = np.linalg.cholesky(m)
    return np.array([tchol[0, 0].real, tchol[1, 1].real, tchol[1, 0].real, tchol[1, 0].imag])


def mle_state(data: TomographyData) -> DensityMatrixEstimate:
    """Maximum-likelihood density matrix from counting data.

    Maximizes sum_j [n_j log m_j - m_j] with m_j = tr(rho~ P_j) + b_j
    and rho~ = T^dag T by monotone gradient ascent with backtracking;
    the trace of rho~ absorbs the overall flux, so no separate scale
    parameter is needed. Stops when the relative log-likelihood change
    drops below _LL_TOL or after _MAX_ITER accepted steps.
    """
    if data.counts.sum() <= 0:
        raise EstimationError("no counts to fit")
    qs = _quadratic_forms(data)
    n = data.counts.astype(float)
    bg = data.backgrounds

    def ll_of(t):
        m = np.einsum("i,jik,k->j", t, qs, t) + bg
        m = np.clip(m, 1e-300, None)
        return float(np.sum(n * np.log(m) - m))

    t = _linear_inversion_seed(data)
    ll = ll_of(t)
    step = 0.1 * np.linalg.norm(t) + 1e-12
    converged = False
    iters = 0
    for iters in range(1, _MAX_ITER + 1):
        qt = qs @ t
        m = qt @ t + bg
        m = np.clip(m, 1e-300, None)
        grad = 2.0 * (n / m - 1.0) @ qt
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            converged = True
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
            converged = True  # no ascent direction left at machine precision
            break
        delta = ll_cand - ll
        t, ll = cand, ll_cand
        step *= 1.3
        if delta <= _LL_TOL * max(1.0, abs(ll)):
            converged = True
            break

    rho_unnorm = _t_params_to_rho(t)
    tr = np.trace(rho_unnorm).real
    if tr <= 0:
        raise EstimationError("degenerate fit, zero trace")
    rho = rho_unnorm / tr
    rho = 0.5 * (rho + rho.conj().T)
    state = PolarizationState(rho)
    low_rank = bool(np.linalg.eigvalsh(rho).min() < _LOW_RANK_EIG)
    return DensityMatrixEstimate(state, ll, iters, converged, low_rank)


def monte_carlo_errors(data: TomographyData, target: PolarizationState, *,
                       resamples: int = 200, seed: int = 0) -> float:
    """Bootstrap error of the fidelity by Poisson-resampling each recorded count.

    Returns the sample standard deviation of the reconstructed state's
    fidelity against target. Resamples that come out all zero are skipped.
    """
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    if data.counts.sum() <= 0:
        raise EstimationError("no counts to resample")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(resamples):
        counts = rng.poisson(data.counts)
        if counts.sum() == 0:
            continue
        est = mle_state(TomographyData(data.settings, counts, data.backgrounds))
        samples.append(fidelity(est.state, target))
    if not samples:
        raise EstimationError("all resamples were empty")
    return float(np.std(samples, ddof=1))


# ---------------------------------------------------------------------------
# process matrices

_PAULI_DAGGERS = PAULIS.conj().transpose(0, 2, 1)


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
        """Frobenius distance of sum_kl chi_kl sigma_l^dag sigma_k from the identity."""
        op = np.einsum("kl,lab,kbc->ac", self.chi, PAULIS, PAULIS)
        return float(np.linalg.norm(op - np.eye(2)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.chi).min())


def _hermitian_basis_4() -> list[np.ndarray]:
    basis = []
    for i in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(4):
        for j in range(i + 1, 4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = 1.0j / np.sqrt(2.0)
            e[j, i] = -1.0j / np.sqrt(2.0)
            basis.append(e)
    return basis


@cache
def _tp_projector():
    """Affine projection data for the constraint sum chi_kl sigma_l sigma_k = I."""
    basis = _hermitian_basis_4()
    gs = [s / np.sqrt(2.0) for s in PAULIS]
    m = np.zeros((4, len(basis)))
    for a, b_a in enumerate(basis):
        op = np.einsum("kl,lab,kbc->ac", b_a, PAULIS, PAULIS)
        for b, g in enumerate(gs):
            m[b, a] = np.trace(g @ op).real
    target = np.array([np.sqrt(2.0), 0.0, 0.0, 0.0])
    correction = m.T @ np.linalg.inv(m @ m.T)
    return basis, m, target, correction


def _project_tp(chi: np.ndarray) -> np.ndarray:
    basis, m, target, correction = _tp_projector()
    chi = 0.5 * (chi + chi.conj().T)
    r = np.array([np.trace(b @ chi).real for b in basis])
    r = r - correction @ (m @ r - target)
    out = np.zeros((4, 4), dtype=complex)
    for coef, b in zip(r, basis):
        out += coef * b
    return out


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
    span = np.stack([s.rho.reshape(4) for s in inputs])
    if np.linalg.matrix_rank(span, tol=1e-9) < 4:
        raise ValueError("input states must span the operator space")
    n = len(inputs)
    a = np.empty((4 * n, 16), dtype=complex)
    b = np.empty(4 * n, dtype=complex)
    for i, (sin, sout) in enumerate(zip(inputs, outputs)):
        block = np.einsum("kab,bc,lcd->klad", PAULIS, sin.rho, _PAULI_DAGGERS)
        a[4 * i:4 * i + 4, :] = block.reshape(16, 4).T
        b[4 * i:4 * i + 4] = sout.rho.reshape(4)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    chi_lin = x.reshape(4, 4)
    if not project:
        return ProcessMatrix(0.5 * (chi_lin + chi_lin.conj().T), projected=False)
    chi_proj, iters = project_process_matrix(chi_lin)
    return ProcessMatrix(chi_proj, projected=True, iterations=iters)


def export_process_matrix(chi: np.ndarray, path: str, *, projected: bool,
                          metadata: Mapping[str, object] | None = None) -> None:
    """Write the 16 chi entries as (row, col, re, im) rows."""
    meta = dict(metadata or {})
    meta["projection_applied"] = "yes" if projected else "no"
    chi = np.asarray(chi, dtype=complex)
    rows = ((i, j, chi[i, j].real, chi[i, j].imag) for i in range(4) for j in range(4))
    write_csv(path, meta, ["row", "col", "re", "im"], rows)
