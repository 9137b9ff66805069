"""Classical benchmark fidelities for measure-and-prepare storage.

A classical memory intercepts the Poissonian input pulse, measures the
n photons it finds, and later re-prepares a state. The best average
fidelity on n copies of an unknown qubit is (n + 1) / (n + 2), so the
benchmark conditioned on at least one photon is the Poisson-weighted
average of that. A lossy classical memory can do better by emitting
only on high-n events, as long as its emission probability matches the
measured memory efficiency (threshold strategy with n_min and a partial
weight gamma on the threshold occupation). When the transmitted part of
the input is also characterized, the cheat must additionally reproduce
the transmitted fidelity and transmission, which constrains the
strategy mix and lowers the achievable benchmark. One loop over grid
levels, from the p = 0 fallback, finds that optimum: level 0 spans the
domain and each later level is centred on the last winner. A level
lists its feasible (eta_m1, q) cells with p > 0 in row-major order,
drops those where no delta lets strategy 2 match the output budget
(0 < eta_m2 <= 1), and evaluates the rest in blocks of a fixed number
of cells, which may span eta_m1 rows: one numpy pass per block covers
all of its (cell, delta) candidates, with their Poisson tables stacked
zero-padded in one array, one sorted search over those tables for every
candidate's threshold photon number, and their output shares, emission
budgets and objective written in place into buffers the level reuses.
A block's memory grows with its candidates and its table entries, not
with their product, and a level's not with its number of feasible cells.

All bounds read their photon-number statistics from one table builder,
which covers mu up to 600 without truncating the distribution, and
evaluate the threshold strategy with one evaluator.

Emission matching uses P_emit = 1 - exp(-eta_m mu) by default (the
memory acts as a loss eta_m before an ideal emitter); the alternative
convention eta_m (1 - exp(-mu)) is available as matching="linear".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .refdata import ETA_M_BENCH, ETA_T_MEAN, F_T_MEAN

_NAN = float("nan")
_PMF_REL_CUTOFF = 1e-15
# largest mean of the Poisson tables, and the photon numbers n and per-n
# fidelities (n + 1) / (n + 2) of its table, which every smaller table slices
_MU_MAX = 600.0
_N = np.arange(math.ceil(_MU_MAX + 20.0 * math.sqrt(_MU_MAX + 1.0) + 25.0) + 1.0)
_MP = (_N + 1.0) / (_N + 2.0)
_N.flags.writeable = _MP.flags.writeable = False
# feasible (eta_m1, q) cells per block of the transmitted-bound search: at
# the default grid a call then peaks at 0.27-0.31 MiB of traced allocation
# (mu = 0.5, 1.4, 3.6, 8.2 and 10; most of it the block's (cell, delta)
# arrays and tables, and the level's feasible cells), where one pass over a
# whole level would take several MiB
_BLOCK_CELLS = 80
# smallest emission budget of the scalar bounds: a subnormal budget x is
# resolved only to 5e-324 / x relative, and the bound is a ratio over it;
# from here up that error stays below 1e-12
_MIN_P_EMIT = 5e-312


@dataclass(frozen=True)
class StrategyParams:
    """Cheat strategy description; fields not used by a bound stay NaN.

    p        probability of routing the input to strategy 1
    eta_bs   beamsplitter transmission seen by strategy 2
    q        polarized fraction of strategy 2's transmitted re-preparation
    delta    emission probability scaling of strategy 1
    eta_m1   output-matching efficiency of strategy 1
    eta_m2   output-matching efficiency of strategy 2
    n_min    photon-number threshold of the dominant strategy
    gamma    emission weight assigned to threshold occupation n_min
    """

    p: float = _NAN
    eta_bs: float = _NAN
    q: float = _NAN
    delta: float = _NAN
    eta_m1: float = _NAN
    eta_m2: float = _NAN
    n_min: int = 0
    gamma: float = _NAN


@dataclass(frozen=True)
class BoundResult:
    """A classical fidelity benchmark with the strategy that attains it."""

    bound: float
    params: StrategyParams = field(default_factory=StrategyParams)
    degenerate: bool = False


def _poisson_tables(mus) -> tuple:
    """Zero-padded Poisson tables, one row per mean in mus.

    Returns the pmf, the per-n fidelity (n + 1) / (n + 2) shared by all
    rows, and the strict upper-tail sums of the pmf and of the
    fidelity-weighted pmf. Each row runs over n = 0..ceil(mu + 20
    sqrt(mu + 1) + 25) and is cut after its last term of at least 1e-15
    of its largest n >= 1 term (every bound conditions on at least one
    photon, so for mu < 1 the n = 0 peak must not set the cut); entries
    past the cut are 0.0, so every row reads as the table of its own mu
    alone. Means above 600 are refused: exp(-mu), the first term of the
    recurrence, heads for underflow.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    if mus.min() < 0:
        raise ValueError("mu must be nonnegative")
    if mus.max() > _MU_MAX:
        raise ValueError("mu too large for the direct pmf recurrence")
    n_max = np.ceil(mus + 20.0 * np.sqrt(mus + 1.0) + 25.0)
    n = _N[: int(n_max.max()) + 1]
    # the ratios of the recurrence, turned into the pmf in place
    pmf = mus[:, None] / np.maximum(n, 1.0)
    pmf *= n <= n_max[:, None]
    # math.exp, not np.exp: keeps each row bit-identical to a scalar build
    pmf[:, 0] = [math.exp(-m) for m in mus]
    np.cumprod(pmf, axis=1, out=pmf)
    keep = pmf >= _PMF_REL_CUTOFF * pmf[:, 1:].max(axis=1, keepdims=True)
    last = n.size - 1 - np.argmax(keep[:, ::-1], axis=1)
    del keep
    width = last.max() + 1
    pmf = pmf[:, :width] * (n[:width] <= last[:, None])
    mp = _MP[:width]
    # strict upper tails: sums from the top of each row down, written reversed
    s_gt = np.empty_like(pmf)
    w_gt = np.empty_like(pmf)
    s_gt[:, -1] = w_gt[:, -1] = 0.0
    np.cumsum(pmf[:, :0:-1], axis=1, out=s_gt[:, -2::-1])
    np.cumsum((mp * pmf)[:, :0:-1], axis=1, out=w_gt[:, -2::-1])
    return pmf, mp, s_gt, w_gt


def _threshold_eval(tables, p_emit: np.ndarray):
    """Threshold bound, n_min and gamma for emission probabilities p_emit[r, k] on table row r.

    Every p_emit must be finite and above 0, and every row of the tail
    table s_gt nonincreasing, which the table builder makes exact (its
    rows are reversed cumulative sums of nonnegative terms, ending in 0).
    Then the complex keys offset - 1j s_gt, with each row's flat offset
    as the real part and tail(0) keyed as +inf (numpy orders complex
    numbers lexicographically), are sorted in the flat table, and one
    sorted search finds every flat index of n_min: the smallest n >= 1
    with tail(n) < p_emit, ties included, below the row width.
    """
    pmf, mp, s_gt, w_gt = tables
    offsets = np.arange(0, pmf.size, pmf.shape[1])[:, None]
    keys = _row_keys(offsets, s_gt)
    keys.imag[::pmf.shape[1]] = -np.inf
    at = keys.searchsorted(_row_keys(offsets, p_emit), side="right").reshape(p_emit.shape)
    del keys
    # the part of p_emit left at n_min, at most its pmf; tail(n_min) < p_emit, so it is above 0
    gamma = s_gt.take(at)
    np.subtract(p_emit, gamma, out=gamma)
    np.minimum(gamma, pmf.take(at), out=gamma)
    # bound = (gamma mp(n_min) + w_gt(n_min)) / p_emit; n_min is written over at
    bound = w_gt.take(at)
    n_min = np.subtract(at, offsets, out=at)
    fm = mp.take(n_min)
    fm *= gamma
    bound += fm
    bound /= p_emit
    return bound, n_min, gamma


def _row_keys(offsets, x):
    """Flat complex keys offsets - 1j x of a table x, with one offset per row."""
    keys = np.empty(x.shape, complex)
    keys.real = offsets
    np.negative(x, out=keys.imag)
    return keys.ravel()


def _p_emit(mu, eta_m, matching: str, out=None):
    """Emission probability at efficiency eta_m for input mean mu (the two
    broadcast), written to out when it is given."""
    if matching == "exp":
        x = np.multiply(np.negative(eta_m, out=out), mu, out=out)
        return np.negative(np.expm1(x, out=out), out=out)
    if matching == "linear":
        return np.multiply(eta_m, -np.expm1(-mu), out=out)
    raise _matching_error(matching)


def _matching_error(matching) -> ValueError:
    return ValueError(f"matching must be 'exp' or 'linear', got {matching!r}")


def _check_mu(mu: float) -> None:
    # subnormal mu loses the digits of the n = 1 term every bound rests on
    if not mu >= sys.float_info.min:
        raise ValueError(f"mu must be at least {sys.float_info.min:g}, got {mu}")


def poisson_conditional_bound(mu: float) -> float:
    """Classical benchmark conditioned on at least one photon arriving.

    Closed form of sum_n>=1 (n+1)/(n+2) P(mu, n) / (1 - P(mu, 0)); the
    direct series is used below mu = 0.5, where the closed form loses
    digits to cancellation.
    """
    _check_mu(mu)
    denom = -math.expm1(-mu)
    if mu < 0.5:
        pmf, mp, _, _ = _poisson_tables(mu)
        return float(np.dot(mp[1:], pmf[0, 1:]) / denom)
    return float(((denom - mu + mu * mu) / (mu * mu) - math.exp(-mu) / 2.0) / denom)


def threshold_bound(mu: float, eta_m: float, *, matching: str = "exp") -> BoundResult:
    """Classical benchmark for a memory that only emits with probability
    matching the measured efficiency.

    The strategy emits on all n > n_min and on a fraction gamma of the
    n = n_min events, with n_min and gamma fixed by the emission budget
    P_emit; the bound is the emission-weighted mean re-preparation
    fidelity. P_emit can never exceed the probability that at least one
    photon arrived; at equality the threshold degenerates to n_min = 1
    (flagged, not an error) and the bound equals the plain conditional
    benchmark. Supported mean photon numbers run from the smallest
    normal float to 600; mu outside raises ValueError, and so does an
    emission budget that underflows below 5e-312 (eta_m mu near the
    float floor), where too few of its digits are left for the bound.
    """
    _check_mu(mu)
    if not 0.0 < eta_m <= 1.0:
        raise ValueError(f"eta_m must be in (0, 1], got {eta_m}")
    return _threshold(mu, eta_m, matching)


def _threshold(mu: float, eta_m: float, matching: str, budget: str = "emission budget") -> BoundResult:
    """threshold_bound without the input checks; the transmitted bound's
    fallback runs it at (1 - eta_t) mu, which may be subnormal. An
    emission budget below _MIN_P_EMIT raises ValueError: the bound is a
    ratio over the budget, and a subnormal budget carries too few digits
    for it (0 divides 0 by 0)."""
    p_emit = _p_emit(mu, eta_m, matching).reshape(1, 1)
    if not p_emit[0, 0] >= _MIN_P_EMIT:
        raise ValueError(f"{budget} P_emit = {p_emit[0, 0]:.3g} (mu = {mu:.3g}, "
                         f"eta_m = {eta_m:.3g}) underflows: it must be at least {_MIN_P_EMIT:.3g}")
    tables = _poisson_tables(mu)
    bound, n_min, gamma = _threshold_eval(tables, p_emit)
    # flag emission demands exceeding the whole conditioned mass; the
    # slack absorbs the truncation of the pmf table at eta_m = 1
    degenerate = p_emit[0, 0] > tables[2][0, 0] * (1.0 + 1e-9)
    params = StrategyParams(eta_m1=eta_m, n_min=int(n_min[0, 0]), gamma=float(gamma[0, 0]))
    return BoundResult(float(bound[0, 0]), params, bool(degenerate))


def _output_shares(p, delta, eta1, eta, eta_m: float, w1=None, eta_m2=None):
    """Strategy 1's share w1 = p delta eta1 of the output budget eta_m, and the
    eta_m2 that strategy 2 must then match; the arguments broadcast, and the
    results are written to w1 and eta_m2 when those are given."""
    w1 = np.multiply(p, delta, out=w1)
    w1 *= eta1
    eta_m2 = np.subtract(eta_m, w1, out=eta_m2)
    eta_m2 /= (1.0 - p) * (1.0 - eta)
    return w1, eta_m2


def _feasible_cells(eta1_axis, q_axis, delta_axis, f1, f_t: float, eta_t: float, eta_m: float):
    """Feasible (eta_m1, q) cells of the transmitted cheat, as flat indices
    into the plane in row-major order, with the p and eta that f_t and
    eta_t pin there; f1 is strategy 1's fidelity on eta1_axis. A cell is
    kept only if some delta of delta_axis may give 0 < eta_m2 <= 1."""
    half = 0.5 * (1.0 + q_axis)
    den = half - f1[:, None]
    # infeasible cells may divide by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (eta_t / eta1_axis)[:, None] * (half - f_t) / den
        eta = (eta_t - p * eta1_axis[:, None]) / (1.0 - p)
    cells = np.flatnonzero((np.abs(den) >= 1e-14) & (0.0 < p) & (p <= 1.0 - 1e-12)
                           & (0.0 <= eta) & (eta <= 1.0 - 1e-12))
    p, eta = p.ravel()[cells], eta.ravel()[cells]
    # p > 0, eta_m1 > 0 and (1 - p)(1 - eta) > 0 here, and rounding to nearest is
    # monotone, so each step of the search's own expression for eta_m2 (same
    # operands, same order) is monotone in delta: eta_m2 is nonincreasing in delta,
    # largest at the axis's smallest delta and smallest at its largest. A cell
    # with eta_m2 <= 0 at the one or eta_m2 > 1 at the other has no candidate;
    # it would score only -inf, and the kept cells stay in row-major order, so
    # dropping it moves neither the winner nor the tie rule
    ends = np.array([delta_axis.min(), delta_axis.max()])
    _, eta_m2 = _output_shares(p[:, None], ends, eta1_axis[cells // q_axis.size, None], eta[:, None], eta_m)
    keep = (eta_m2[:, 0] > 0.0) & (eta_m2[:, 1] <= 1.0)
    return cells[keep], p[keep], eta[keep]


def check_transmitted_inputs(f_t: float, eta_t: float, eta_m: float, grid_points: int,
                             matching: str) -> None:
    """ValueError unless transmitted_constrained_bound accepts these inputs
    (its checks of every input but mu)."""
    if not 0.0 < eta_t < 1.0:
        raise ValueError(f"eta_t must be in (0, 1), got {eta_t}")
    if not 0.5 < f_t < 1.0:
        raise ValueError(f"f_t must be in (1/2, 1), got {f_t}")
    if not 0.0 < eta_m <= 1.0:
        raise ValueError(f"eta_m must be in (0, 1], got {eta_m}")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if matching not in ("exp", "linear"):
        raise _matching_error(matching)


def transmitted_constrained_bound(mu: float, f_t: float = F_T_MEAN, eta_t: float = ETA_T_MEAN,
                                  eta_m: float = ETA_M_BENCH, *, grid_points: int = 50,
                                  refine_rounds: int = 2, matching: str = "exp") -> BoundResult:
    """Classical benchmark when the transmitted input is also verified.

    The cheat splits into strategy 1 (applied with probability p,
    threshold emitter at efficiency eta_m1, scaled by delta on the
    output side) and strategy 2 (a beamsplitter of transmission eta
    feeding a threshold emitter at eta_m2 on the reflected part, with a
    partially polarized transmitted re-preparation of purity q). The
    measured transmitted fidelity f_t, transmission eta_t and memory
    efficiency eta_m pin p, eta and eta_m2 once (eta_m1, delta, q) are
    chosen, so those three are searched in one loop over grid levels
    (eta_m1 log spaced): level 0 spans the whole domain, each later one
    a step of the previous level's spacing each way of the last winner,
    until a level would start with no winner. Each level keeps the
    feasible (eta_m1, q) cells with p > 0 where some delta of the
    level may give 0 < eta_m2 <= 1 (eta_m2 falls monotonically with
    delta, so the ends of the delta axis decide it), and evaluates them
    in fixed-size blocks, one batched pass over all (cell, delta)
    candidates of a block.

    The always-feasible point p = 0, q = 2 f_t - 1, eta = eta_t seeds
    the search (its emitter must carry the whole output budget, so
    eta_m2 = eta_m / (1 - eta_t)), and the result is never below that
    fallback, the search's only p = 0 strategy (a grid winner reports
    strategy 1's n_min and gamma); a fallback emission budget that
    underflows below 5e-312 raises ValueError, as in threshold_bound. On
    exact objective ties the first candidate in row-major (eta_m1, q,
    delta) grid order is kept.
    """
    _check_mu(mu)
    check_transmitted_inputs(f_t, eta_t, eta_m, grid_points, matching)
    eta_m2_fb = min(eta_m / (1.0 - eta_t), 1.0)
    fallback = _threshold((1.0 - eta_t) * mu, eta_m2_fb, matching, "fallback emission budget")
    fallback = replace(fallback, params=replace(fallback.params, p=0.0, eta_bs=eta_t, q=2.0 * f_t - 1.0,
                                                delta=0.0, eta_m1=_NAN, eta_m2=eta_m2_fb))
    tables1 = _poisson_tables(mu)

    def search(eta1_axis, q_axis, delta_axis, best):
        fm1, nmin1, gamma1 = _threshold_eval(tables1, _p_emit(mu, eta1_axis, matching)[None, :])
        cells, p, eta = _feasible_cells(eta1_axis, q_axis, delta_axis, fm1[0], f_t, eta_t, eta_m)
        # buffers every block reuses; each step writes in place with the operands
        # and order of the plain expression, so every float is the same: w1, then
        # the objective; eta_m2, then the emission budget, then eta_m - w1
        shape = (min(cells.size, _BLOCK_CELLS), delta_axis.size)
        w1_buf, budget_buf = np.empty(shape), np.empty(shape)
        for lo in range(0, cells.size, _BLOCK_CELLS):
            # (cell, delta) block; w1 is strategy 1's share of the output budget
            blk = slice(lo, lo + _BLOCK_CELLS)
            i, j = np.divmod(cells[blk], q_axis.size)
            pb, etab, eta1 = p[blk], eta[blk], eta1_axis[i]
            m = pb.size
            w1, eta_m2 = _output_shares(pb[:, None], delta_axis, eta1[:, None], etab[:, None], eta_m,
                                        w1_buf[:m], budget_buf[:m])
            ok = (eta_m2 > 0.0) & (eta_m2 <= 1.0)
            mu2 = (1.0 - etab) * mu
            # eta_m2 outside (0, 1], and budgets that underflow to 0 (mu near the
            # float floor), are masked out of obj; their budget is set to 1
            np.copyto(eta_m2, 1.0, where=~ok)
            p_emit = _p_emit(mu2[:, None], eta_m2, matching, out=eta_m2)
            ok &= p_emit > 0.0
            masked = np.logical_not(ok, out=ok)
            np.copyto(p_emit, 1.0, where=masked)
            fm2 = _threshold_eval(_poisson_tables(mu2), p_emit)[0]
            # obj = (w1 fm1 + (eta_m - w1) fm2) / eta_m
            fm2 *= np.subtract(eta_m, w1, out=p_emit)
            obj = w1
            obj *= fm1[0, i, None]
            obj += fm2
            del fm2  # not held through the next block's evaluation
            obj /= eta_m
            np.copyto(obj, -np.inf, where=masked)
            # first maximum in row-major (eta_m1, q, delta) order, and a later block
            # must beat it strictly: earlier cells win exact ties
            c, k = np.unravel_index(np.argmax(obj), obj.shape)
            if obj[c, k] > best.bound:
                # the winner's eta_m2 again, as a scalar: its buffer is reused above
                eta_m2 = _output_shares(pb[c], delta_axis[k], eta1[c], etab[c], eta_m)[1]
                best = BoundResult(float(obj[c, k]), StrategyParams(
                    p=float(pb[c]), eta_bs=float(etab[c]), q=float(q_axis[j[c]]), delta=float(delta_axis[k]),
                    eta_m1=float(eta1[c]), eta_m2=float(eta_m2), n_min=int(nmin1[0, i[c]]),
                    gamma=float(gamma1[0, i[c]])))
        return best

    best = fallback
    for level in range(refine_rounds + 1):
        if level == 0:
            eta1_axis = np.geomspace(1e-2, 1.0, grid_points)
            q_axis = np.linspace(0.0, 1.0, grid_points)
            delta_axis = np.linspace(1.0 / grid_points, 1.0, grid_points)
        elif best is fallback:
            break
        else:
            # one step of the previous level's spacing each way of the last winner
            at = best.params
            ratio = (eta1_axis[-1] / eta1_axis[0]) ** (1.0 / (grid_points - 1))
            eta1_axis = np.geomspace(max(at.eta_m1 / ratio, 1e-4), min(at.eta_m1 * ratio, 1.0), grid_points)
            dq = (q_axis[-1] - q_axis[0]) / (grid_points - 1)
            q_axis = np.linspace(max(at.q - dq, 0.0), min(at.q + dq, 1.0), grid_points)
            dd = (delta_axis[-1] - delta_axis[0]) / (grid_points - 1)
            delta_axis = np.linspace(max(at.delta - dd, 1e-6), min(at.delta + dd, 1.0), grid_points)
        best = search(eta1_axis, q_axis, delta_axis, best)
    return best


def quantumness_verdict(measured_f: float, measured_err: float, bound: float, k: float = 1.0) -> str:
    """'quantum' when the measured fidelity clears the bound by k error bars."""
    if measured_err < 0 or k < 0:
        raise ValueError("error bar and k must be nonnegative")
    if not 0.0 <= measured_f <= 1.0:
        raise ValueError(f"measured fidelity {measured_f} outside [0, 1]")
    return "quantum" if measured_f - k * measured_err > bound else "inconclusive"
