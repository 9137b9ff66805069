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
first bounds each of its feasible (eta_m1, q) cells from above in one
pass that costs a few numbers per cell: a cell's valid deltas form one
run of the delta axis, and three monotone facts put its bound at the
ends of that run, read on a ladder of means built once per level. It
then walks the cells in row-major order, in blocks of a fixed number of
cells. Only cells whose bound comes within 1e-9 of the running best, so
that no skipped cell can win or tie, get one numpy pass over their
(cell, delta) candidates, with their Poisson tables stacked zero-padded
and one sorted search for every threshold photon number. A block's
memory grows with its candidates and its table entries, not with their
product.

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
# feasible (eta_m1, q) cells per block of the transmitted-bound search: at the
# default grid a call then peaks at 0.24-0.32 MiB of traced allocation (mu = 0.5,
# 1.4, 3.6, 8.2 and 10; a block's (cell, delta) arrays and tables, or the level's
# bound pass, a few numbers per cell), where one (cell, delta) pass over a whole
# level would take several MiB
_BLOCK_CELLS = 80
# smallest emission budget of the scalar bounds: a subnormal budget x is
# resolved only to 5e-324 / x relative, and the bound is a ratio over it;
# from here up that error stays below 1e-12
_MIN_P_EMIT = 5e-312
# transmitted-bound prune: its margin, above the bound's float error (1e-15,
# 1e-12 at _MIN_P_EMIT), and the rungs of its ladder, fewer past an entry cap
_PRUNE_MARGIN = 1e-9
_RUNGS = 32
_LADDER_ENTRIES = 2048


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
    s_gt, w_gt = np.empty_like(pmf), np.empty_like(pmf)
    s_gt[:, -1] = w_gt[:, -1] = 0.0
    np.cumsum(pmf[:, :0:-1], axis=1, out=s_gt[:, -2::-1])
    np.cumsum((mp * pmf)[:, :0:-1], axis=1, out=w_gt[:, -2::-1])
    return pmf, mp, s_gt, w_gt


def _threshold_eval(tables, p_emit: np.ndarray, rows=None):
    """Threshold bound, n_min and gamma for budgets p_emit[r, k] on table row r, or on row rows[r].

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
    if rows is not None:
        offsets = offsets[rows]
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
    # subnormal mu loses the digits of the n = 1 term every bound rests on; above
    # _MU_MAX exp(-mu) heads for underflow and the closed form's mu * mu for overflow
    if not mu >= sys.float_info.min:
        raise ValueError(f"mu must be at least {sys.float_info.min:g}, got {mu}")
    if not mu <= _MU_MAX:
        raise ValueError(f"mu must be at most {_MU_MAX:g}, got {mu}")


def poisson_conditional_bound(mu: float) -> float:
    """Classical benchmark conditioned on at least one photon arriving.

    Closed form of sum_n>=1 (n+1)/(n+2) P(mu, n) / (1 - P(mu, 0)); the
    direct series is used below mu = 0.5, where the closed form loses
    digits to cancellation. mu runs from the smallest normal float to
    600, as for threshold_bound; mu outside raises ValueError.
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
    """threshold_bound without the input checks (the transmitted bound's fallback
    runs it at (1 - eta_t) mu, which may be subnormal); a budget below _MIN_P_EMIT,
    too few digits for the ratio the bound is, raises ValueError."""
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


def _output_shares(p, delta, eta1, eta, eta_m: float):
    """Strategy 1's share w1 = p delta eta1 of the output budget eta_m, and the eta_m2 left to strategy 2."""
    w1 = p * delta * eta1
    return w1, (eta_m - w1) / ((1.0 - p) * (1.0 - eta))


def _objective(w1, f1, fm2, eta_m: float):
    """The strategies' fidelities f1, fm2 weighted by their shares w1, eta_m - w1 of the output budget."""
    return (w1 * f1 + (eta_m - w1) * fm2) / eta_m


def _feasible_cells(eta1_axis, q_axis, f1, f_t: float, eta_t: float):
    """Feasible (eta_m1, q) cells, as row-major flat indices into the plane, with the p and
    eta that f_t and eta_t pin there; f1 is strategy 1's fidelity on eta1_axis."""
    half = 0.5 * (1.0 + q_axis)
    den = half - f1[:, None]
    # infeasible cells may divide by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (eta_t / eta1_axis)[:, None] * (half - f_t) / den
        eta = (eta_t - p * eta1_axis[:, None]) / (1.0 - p)
    cells = np.flatnonzero((np.abs(den) >= 1e-14) & (0.0 < p) & (p <= 1.0 - 1e-12)
                           & (0.0 <= eta) & (eta <= 1.0 - 1e-12))
    return cells, p.ravel()[cells], eta.ravel()[cells]


def _valid_runs(p, eta1, eta, delta_axis, eta_m: float):
    """Each cell's run of valid deltas (0 < eta_m2 <= 1) on the sorted delta_axis, as the index
    of its first delta and one past its last; a cell with no valid delta has first >= stop.

    w1 = p delta eta1 does not fall along the axis, so the eta_m2 of _output_shares does not
    rise: the run starts at the first delta with eta_m2 <= 1 and stops at the first with
    eta_m2 <= 0. Each end starts where the closed form puts it and then moves, one value of
    the axis at a time (equal deltas share their eta_m2), until _output_shares puts eta_m2
    on its side at the end and on the other side just below it.
    """
    # the axis padded with -inf and +inf, where eta_m2 is +inf and -inf, so no end moves off it
    padded = np.concatenate(([-np.inf], delta_axis, [np.inf]))
    ends = []
    for c in (1.0, 0.0):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            end = delta_axis.searchsorted((eta_m - c * (1.0 - p) * (1.0 - eta)) / (p * eta1))
        # the first pass reads every cell in place, later ones only the cells that moved
        rows = slice(None)
        while True:
            k, pr, e1, er = end[rows], p[rows], eta1[rows], eta[rows]
            up = _output_shares(pr, padded[k + 1], e1, er, eta_m)[1] > c
            down = _output_shares(pr, padded[k], e1, er, eta_m)[1] <= c
            rows = np.arange(end.size)[rows]
            end[rows[up]] = delta_axis.searchsorted(padded[k[up] + 1], side="right")
            end[rows[down]] = delta_axis.searchsorted(padded[k[down]])
            rows = rows[up | down]
            if not rows.size:
                break
        ends.append(end)
    return ends[0], ends[1]


def _cell_bounds(cells, p, eta, n_q: int, eta1_axis, fm1, delta_axis, mu: float, eta_m: float,
                 matching: str):
    """Upper bound of each feasible cell's objective over its valid deltas, from the ends of
    their run by the three monotone facts of transmitted_constrained_bound: -inf for a cell
    with no valid delta, +inf where its smallest valid budget is below _MIN_P_EMIT. A cell is
    a flat index into the (eta_m1, q) plane of n_q columns, and fm1 is strategy 1's fidelity
    along eta1_axis. Each array is dropped once spent, since each holds a number per cell.
    """
    # divmod, take and flatnonzero rather than //, integer comparisons and any(): numpy
    # loops the search already runs, as each new one faults in 64 kB or more of code pages
    i = np.divmod(cells, n_q)[0]
    eta1 = eta1_axis[i]
    first, stop = _valid_runs(p, eta1, eta, delta_axis, eta_m)
    # a cell has a valid delta if its first delta with eta_m2 <= 1 is valid
    w1_lo, eta_m2 = _output_shares(p, delta_axis.take(first, mode="clip"), eta1, eta, eta_m)
    live = np.flatnonzero((eta_m2 > 0.0) & (eta_m2 <= 1.0))
    del first, eta_m2
    if not live.size:
        return np.full(cells.size, -np.inf)
    # mu2 falls as eta rises; the ladder's rows are at most top + 20 sqrt(top + 1) + 26 wide
    top = (1.0 - eta.min()) * mu
    rungs = np.geomspace((1.0 - eta.max()) * mu, top, max(2, min(_RUNGS, _LADDER_ENTRIES // int(
        top + 20.0 * math.sqrt(top + 1.0) + 26.0))))
    i, w1_lo, stop = i[live], w1_lo[live], stop[live]
    p, eta, eta1 = p[live], eta[live], eta1[live]
    w1_hi, budget = _output_shares(p, delta_axis[stop - 1], eta1, eta, eta_m)
    del stop, p, eta1
    mu2 = np.subtract(1.0, eta, out=eta)
    mu2 *= mu
    budget = _p_emit(mu2, budget, matching, out=budget)
    rows = rungs.searchsorted(mu2)
    del eta, mu2
    tiny = budget < _MIN_P_EMIT
    fm2 = _threshold_eval(_poisson_tables(rungs), np.maximum(budget, _MIN_P_EMIT, out=budget)[:, None],
                          rows)[0][:, 0]
    del budget, rows
    f1 = fm1[i]
    upper = np.maximum(_objective(w1_lo, f1, fm2, eta_m), _objective(w1_hi, f1, fm2, eta_m))
    np.copyto(upper, np.inf, where=tiny)
    reach = np.full(cells.size, -np.inf)
    reach[live] = upper
    return reach


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
    until a level would start with no winner. A level bounds every
    feasible (eta_m1, q) cell with p > 0 in one pass, then walks the
    cells in fixed-size blocks, and one batched pass over (cell, delta)
    candidates evaluates only the cells whose upper bound reaches the
    running best less 1e-9 (or whose smallest budget is below 5e-312).
    Along the delta axis w1 = p delta eta1 does not fall and eta_m2 does
    not rise, so a cell's valid deltas (0 < eta_m2 <= 1) are one run of
    the axis, and the bound reads only its two ends. Strategy 2's
    fidelity fm2 does not increase with its emission budget, so over the
    run it is at most its value at the smallest valid budget, at the
    run's top end; at a fixed budget it does not decrease with the mean
    (Poisson(mu) is stochastically ordered and (n + 1) / (n + 2) rises
    with n), so it is at most its value on the smallest rung at or above
    the cell's mu2 = (1 - eta) mu of a ladder of up to 32 means spanning
    the level's mu2; and the objective is affine in strategy 1's share
    w1 (fm2 weighs eta_m - w1 > 0), so the bound is largest at an end of
    the run, whose w1 are its smallest and largest. The margin is far
    above the float error: a skipped cell lies strictly below the running
    best, so the winner and the tie rule below are those of evaluating
    every cell.

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
    eta_m2_fb = min(eta_m / (1.0 - eta_t), 1.0)
    fallback = _threshold((1.0 - eta_t) * mu, eta_m2_fb, matching, "fallback emission budget")
    fallback = replace(fallback, params=replace(fallback.params, p=0.0, eta_bs=eta_t, q=2.0 * f_t - 1.0,
                                                delta=0.0, eta_m1=_NAN, eta_m2=eta_m2_fb))
    tables1 = _poisson_tables(mu)

    def search(eta1_axis, q_axis, delta_axis, best):
        fm1, nmin1, gamma1 = _threshold_eval(tables1, _p_emit(mu, eta1_axis, matching)[None, :])
        cells, p, eta = _feasible_cells(eta1_axis, q_axis, fm1[0], f_t, eta_t)
        if not cells.size:
            return best
        reach = _cell_bounds(cells, p, eta, q_axis.size, eta1_axis, fm1[0], delta_axis, mu, eta_m, matching)
        # a block none of whose cells reaches the level's first best is skipped unseen: the
        # running best only rises
        starts = np.arange(0, cells.size, _BLOCK_CELLS)
        for lo in starts[np.fmax.reduceat(reach, starts) >= best.bound - _PRUNE_MARGIN]:
            keep = lo + np.flatnonzero(reach[lo:lo + _BLOCK_CELLS] >= best.bound - _PRUNE_MARGIN)
            if not keep.size:
                continue
            i, j = np.divmod(cells[keep], q_axis.size)
            pb, etab, eta1, mu2 = p[keep], eta[keep], eta1_axis[i], (1.0 - eta[keep]) * mu
            w1, eta_m2 = _output_shares(pb[:, None], delta_axis, eta1[:, None], etab[:, None], eta_m)
            masked = ~((eta_m2 > 0.0) & (eta_m2 <= 1.0))
            # eta_m2 outside (0, 1] and budgets that underflow to 0 are masked out of obj, at budget 1
            np.copyto(eta_m2, 1.0, where=masked)
            p_emit = _p_emit(mu2[:, None], eta_m2, matching, out=eta_m2)
            masked |= p_emit <= 0.0
            np.copyto(p_emit, 1.0, where=masked)
            fm2 = _threshold_eval(_poisson_tables(mu2), p_emit)[0]
            obj = _objective(w1, fm1[0, i, None], fm2, eta_m)
            np.copyto(obj, -np.inf, where=masked)
            # first maximum in row-major (eta_m1, q, delta) order, and a later block
            # must beat it strictly: earlier cells win exact ties
            c, k = np.unravel_index(np.argmax(obj), obj.shape)
            if obj[c, k] > best.bound:
                value = float(obj[c, k])
                eta_m2 = _output_shares(pb[c], delta_axis[k], eta1[c], etab[c], eta_m)[1]
                best = BoundResult(value, StrategyParams(
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
    """'quantum' when the measured fidelity clears the bound by k error bars; NaN in any
    argument raises ValueError."""
    if not (measured_err >= 0 and k >= 0):
        raise ValueError("error bar and k must be nonnegative")
    if not 0.0 <= measured_f <= 1.0:
        raise ValueError(f"measured fidelity {measured_f} outside [0, 1]")
    if not 0.0 <= bound <= 1.0:
        raise ValueError(f"bound {bound} outside [0, 1]")
    return "quantum" if measured_f - k * measured_err > bound else "inconclusive"
