"""Poissonian counting simulation of the storage experiment.

One run plays the pulse sequence of Fig-style histograms: a train of
input modes, a transfer pulse into the spin state (CP1), the decoupled
spin storage, the retrieval pulse (CP2) and the echo train one comb
delay plus one spin storage time after the input. The detector is gated
on only during the input and output mode windows; the CP windows are
blanked.

Detected mean counts per trial and mode, at analyzer port P:

    output:  (mu eta [F_c <P>_sig + (1 - F_c) <P>_flip] + p_n) T_det + d
    input:   mu eta_t [F_t <P>_sig + (1 - F_t) <P>_flip] T_det + d

with T_det = transmission_to_detector * detector_efficiency and
d = dark_rate * mode_duration * detector_efficiency, the dark counts of
one mode-long gate. The noise floor p_n is unpolarized, so every
analyzer port sees the same p_n; this matches the convention in which
the conditional fidelity of the retrieved qubit is
S_max / (S_max + S_min) = (mu eta F_c + p_n) / (mu eta + 2 p_n).

Counts are Poissonian and independent between trials, so the histogram
accumulated over N trials is drawn in one shot as Poisson(N * lam) per
bin. Identical (config, seed) gives bit-identical histograms.

Times are microseconds, dark_rate is counts per second.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import EstimationError
from .memory import MemoryParams, StorageSchedule
from .polarization import STATE_LABELS, fidelity, orthogonal_label, standard_state
from .tableio import format_float, write_csv_lines

_REL_TOL = 1e-9
# bins per step of the histogram exporter, which builds and formats their edges and
# window labels once for all histograms of the time axis and holds no per-bin data
# for a whole histogram. A default simulate-and-export (300,000 trials, best of 30,
# 2-core Xeon) took 1.94-2.12 ms at 256 bins a chunk, 2.07-2.19 at 64, 2.19-2.26 at 1,024
_EXPORT_CHUNK = 256
# at its peak the simulate command holds 40 B per bin (tracemalloc in a fresh
# process, 20,850 to 166,800 bins): two runs' counts, and three arrays while it
# draws the third run; so does reproduce-paper, which holds one row's runs at a
# time. Its first call in a process adds about 0.93 MB that does not grow with
# the bins. The cap budgets 64 B per bin, 128 MiB of bins; they measure about 81 MiB
_BYTES_PER_BIN = 64
_MAX_BINS = (128 << 20) // _BYTES_PER_BIN
# largest expected count of a whole run: numpy's Poisson draw refuses a bin mean above
# about 9.22e18, and an int64 sum of counts wraps at 2**63 = 9.22e18; a run's total, which
# bounds every bin, window, mode and train sum, then stays about 7e6 standard deviations below
_MAX_RUN_MEAN = 9.2e18


def _as_tuple(value, n: int, name: str) -> tuple:
    """Broadcast a scalar or validate a length-n sequence."""
    if isinstance(value, (MemoryParams, float, int)):
        return (value,) * n
    value = tuple(value)
    if len(value) != n:
        raise ValueError(f"{name} must be scalar or length {n}, got length {len(value)}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated counting run.

    input_state is one of the labels STATE_LABELS. mu_per_mode and params
    accept either one value for all modes or one per mode. bin_width must
    divide the mode duration; 0.0, the default and the INI's value, stands
    for a fifth of it. n_bins, the bins over total storage plus one mode
    train, may not exceed _MAX_BINS. Each mu_per_mode and dark_rate must be
    finite and nonnegative and trials an integer from 1 to 2**63 - 1, and
    the run's expected count at unit port contrast, trials times the sum over
    modes of (mu (eta + eta_t) + p_n) T_det + 2 d, may not exceed
    _MAX_RUN_MEAN, else ValueError.
    """

    input_state: str = "D"
    mu_per_mode: float | Sequence[float] = 1.4
    schedule: StorageSchedule = field(default_factory=StorageSchedule)
    params: MemoryParams | Sequence[MemoryParams] = field(default_factory=MemoryParams)
    detector_efficiency: float = 0.57
    dark_rate: float = 15.0
    transmission_to_detector: float = 0.07
    bin_width: float = 0.0
    trials: int = 1_000_000
    n_bins: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.input_state not in STATE_LABELS:
            raise ValueError(f"unknown input state {self.input_state!r}, expected one of {STATE_LABELS}")
        n = self.schedule.n_modes
        mus = _as_tuple(self.mu_per_mode, n, "mu_per_mode")
        if not all(0.0 <= m < math.inf for m in mus):
            raise ValueError(f"mu_per_mode must be finite and nonnegative, got {mus}")
        object.__setattr__(self, "mu_per_mode", tuple(float(m) for m in mus))
        object.__setattr__(self, "params", _as_tuple(self.params, n, "params"))
        for name in ("detector_efficiency", "transmission_to_detector"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} = {getattr(self, name)} outside (0, 1]")
        if self.t_det == 0.0:
            raise ValueError("transmission_to_detector * detector_efficiency underflows to 0")
        if not 0.0 <= self.dark_rate < math.inf:
            raise ValueError(f"dark_rate must be finite and nonnegative, got {self.dark_rate}")
        if not (isinstance(self.trials, (int, np.integer)) and 1 <= self.trials < 2 ** 63):
            raise ValueError(f"trials must be an integer from 1 to 2**63 - 1, got {self.trials!r}")
        bw = self.schedule.mode_duration / 5.0 if self.bin_width == 0.0 else float(self.bin_width)
        if not 0.0 < bw < math.inf:
            raise ValueError(f"bin_width must be finite and positive, got {bw}")
        ratio = self.schedule.mode_duration / bw
        if abs(ratio - round(ratio)) > _REL_TOL * ratio:
            raise ValueError(f"bin_width {bw} does not divide the mode duration {self.schedule.mode_duration}")
        span = self.schedule.total_storage + self.schedule.n_modes * self.schedule.mode_duration
        bins = span / bw
        if not bins <= _MAX_BINS:
            raise ValueError(f"bin_width {bw:g} us over the {span:g} us sequence span gives {bins:.3g} "
                             f"histogram bins, more than the {_MAX_BINS} allowed")
        # each mode's input and output windows, at most their rates at unit port contrast
        rate = sum((mu * (par.eta + par.eta_t) + par.p_n) * self.t_det + 2.0 * self.dark_per_gate
                   for mu, par in zip(mus, self.params))
        mean = float(self.trials) * rate
        if not mean <= _MAX_RUN_MEAN:
            raise ValueError(f"trials = {self.trials} at mu_per_mode up to {max(mus):g} gives a run of "
                             f"{mean:.3g} expected counts, more than the {_MAX_RUN_MEAN:.3g} allowed")
        object.__setattr__(self, "bin_width", bw)
        object.__setattr__(self, "n_bins", int(round(bins)))

    @property
    def t_det(self) -> float:
        """Transmission from memory output to a detection event."""
        return self.transmission_to_detector * self.detector_efficiency

    @property
    def dark_per_gate(self) -> float:
        """Mean dark counts per gate window of one mode (dark_rate is per second, mode in us)."""
        return self.dark_rate * self.schedule.mode_duration * 1e-6 * self.detector_efficiency

    @property
    def windows(self) -> tuple[tuple[Window, slice], ...]:
        """Each window of _sequence_windows with its bins, those whose centre lies in [start, stop);
        configs with an equal schedule and bin_width share one tuple (_window_bins)."""
        return _window_bins(self.schedule, self.bin_width, self.n_bins)


@lru_cache
def _window_bins(schedule: StorageSchedule, bin_width: float, n_bins: int) -> tuple[tuple[Window, slice], ...]:
    """The windows of ExperimentConfig.windows for one time axis, cached by value.

    The centres are sorted, so each window is one run of bins. bisect_left
    gives np.searchsorted's index without the ~100 kB that numpy's search
    machinery adds to peak memory on first use.
    """
    edges = np.arange(n_bins + 1) * bin_width  # bin k spans [k, k + 1) * bin_width from 0 us
    centers = 0.5 * (edges[:-1] + edges[1:])
    return tuple((w, slice(bisect_left(centers, w.start), bisect_left(centers, w.stop)))
                 for w in _sequence_windows(schedule))


@dataclass(frozen=True)
class Window:
    """Labeled time interval of the sequence; CP windows are blanked."""

    label: str
    start: float
    stop: float
    mode: int | None = None


@dataclass(frozen=True, eq=False)
class CountHistogram:
    """Binned detection record of one simulated run behind the analyzer port labeled analysis,
    on the time axis of the config that drew it."""

    config: ExperimentConfig
    counts: np.ndarray
    analysis: str
    seed: int

    def mode_counts(self, label: str) -> np.ndarray:
        """Counts in each mode window of 'input' or 'output', in mode order."""
        return np.array([int(self.counts[bins].sum()) for win, bins in self.config.windows
                         if win.label == label and win.mode is not None], dtype=np.int64)


def _sequence_windows(schedule: StorageSchedule) -> tuple[Window, ...]:
    """Input modes, CP1, CP2 and output modes on the common time axis."""
    dm = schedule.mode_duration
    wins = [Window("input", m * dm, (m + 1) * dm, mode=m) for m in range(schedule.n_modes)]
    cp1_start = schedule.n_modes * dm
    wins.append(Window("CP1", cp1_start, cp1_start + schedule.control_duration))
    cp2_start = cp1_start + schedule.spin_storage
    wins.append(Window("CP2", cp2_start, cp2_start + schedule.control_duration))
    t_out = schedule.total_storage
    wins += [Window("output", t_out + m * dm, t_out + (m + 1) * dm, mode=m) for m in range(schedule.n_modes)]
    return tuple(wins)


def _mode_rates(config: ExperimentConfig, analysis: str) -> tuple[np.ndarray, np.ndarray]:
    """Mean detected counts per trial in each (input, output) mode window at the port analysis."""
    e_sig = fidelity(standard_state(config.input_state), standard_state(analysis))
    t_det = config.t_det
    dark = config.dark_per_gate
    lam_in = np.empty(config.schedule.n_modes)
    lam_out = np.empty(config.schedule.n_modes)
    for m, (mu, par) in enumerate(zip(config.mu_per_mode, config.params)):
        contrast_out = par.f_c * e_sig + (1.0 - par.f_c) * (1.0 - e_sig)
        lam_out[m] = (mu * par.eta * contrast_out + par.p_n) * t_det + dark
        contrast_t = par.f_t * e_sig + (1.0 - par.f_t) * (1.0 - e_sig)
        lam_in[m] = mu * par.eta_t * contrast_t * t_det + dark
    return lam_in, lam_out


def model_fidelity(config: ExperimentConfig) -> tuple[np.ndarray, float]:
    """Exact mean of the count-ratio fidelity, dark counts included, per mode and for the
    whole train, at the ports along and against config.input_state.

    This is what the estimator converges to as trials grow; it differs
    from the noise-model prediction by the dark-count dilution of both
    analyzer ports.
    """
    _, lam_p = _mode_rates(config, config.input_state)
    _, lam_o = _mode_rates(config, orthogonal_label(config.input_state))
    return lam_p / (lam_p + lam_o), float(lam_p.sum() / (lam_p.sum() + lam_o.sum()))


def simulate_run(config: ExperimentConfig, analysis: str, *, seed: int) -> CountHistogram:
    """Simulate one accumulated counting histogram.

    Parameters
    ----------
    config : ExperimentConfig
    analysis : str
        Label of the single analyzer port in front of the detector (else ValueError).
    seed : int
        Seed of the run's random stream.

    Returns
    -------
    CountHistogram with integer counts accumulated over config.trials.
    """
    rng = np.random.default_rng(seed)
    lam = np.zeros(config.n_bins)

    rates = dict(zip(("input", "output"), _mode_rates(config, analysis)))
    for win, bins in config.windows:
        size = bins.stop - bins.start
        if win.label in rates and size > 0:
            lam[bins] += rates[win.label][win.mode] / size

    counts = rng.poisson(lam * config.trials)
    return CountHistogram(config, counts.astype(np.int64), analysis, seed)


@dataclass(frozen=True)
class ParamEstimate:
    """Memory parameters recovered from counting histograms."""

    eta_hat: float
    eta_err: float
    p_n_hat: float
    p_n_err: float
    fidelity_hat: float
    fidelity_err: float
    mode_fidelity: np.ndarray
    mode_fidelity_err: np.ndarray


def _shared_config(parallel: CountHistogram, orthogonal: CountHistogram) -> ExperimentConfig:
    """The runs' one config; ValueError unless they are analyzed along and against its input."""
    config = parallel.config
    if orthogonal.config != config:
        raise ValueError("the orthogonal run was drawn with another config than the parallel run")
    if parallel.analysis != config.input_state:
        raise ValueError(f"the parallel run is analyzed at {parallel.analysis}, not along the input")
    if orthogonal.analysis != orthogonal_label(config.input_state):
        raise ValueError(f"the orthogonal run is analyzed at {orthogonal.analysis}, not against the input")
    return config


def _count_ratio(par: np.ndarray, orth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity par / (par + orth) and its Poisson error, per mode or for a whole train; NaN
    where both are zero, and where one is, the error is 1 / (par + orth)."""
    tot = par + orth
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.where(par * orth > 0, np.sqrt(par * orth / tot**3), 1.0 / tot)
        return np.where(tot > 0, par / tot, np.nan), np.where(tot > 0, err, np.nan)


def estimate_params(parallel: CountHistogram, orthogonal: CountHistogram, noise: CountHistogram) -> ParamEstimate:
    """Invert the counting model for eta, p_n and the conditional fidelity.

    parallel and orthogonal are runs of one config, analyzed along and
    against its input state; noise is a run of that config with all
    mu_per_mode zero, at any port. Configs are equal when all fields
    are. The noise floor comes from the noise run, dark-count
    corrected. The efficiency comes from the background-subtracted sum
    of both analyzer ports, corrected for T_det and mu. The conditional
    fidelity is the raw count ratio S_par / (S_par + S_orth); noise is
    part of the retrieved state by convention, so it is not subtracted
    there. Errors are Poissonian, and 1 / (S_par + S_orth) where one
    port counts nothing. The per-mode fidelities are the same ratio in
    each output mode, with the same errors; a mode with no input (mu =
    0) stores no qubit, and both of its values are NaN. Runs at the
    wrong port, a noise run with input, or runs of other configs raise
    ValueError.
    """
    config = _shared_config(parallel, orthogonal)
    if noise.config != replace(config, mu_per_mode=0.0):
        raise ValueError("the noise run must have the analyzer runs' config and no input (all mu_per_mode zero)")
    t_det = config.t_det
    dark = config.dark_per_gate
    n_modes = config.schedule.n_modes
    trials = config.trials

    n_noise = int(noise.mode_counts("output").sum())
    noise_exposure = trials * n_modes  # gate windows observed
    p_n_hat = (n_noise - noise_exposure * dark) / (noise_exposure * t_det)
    p_n_err = np.sqrt(max(n_noise, 1)) / (noise_exposure * t_det)

    par_m = parallel.mode_counts("output")
    orth_m = orthogonal.mode_counts("output")
    s_par, s_orth = int(par_m.sum()), int(orth_m.sum())
    if s_par + s_orth == 0:
        raise EstimationError("zero output counts in both analyzer ports")
    mu_total = float(sum(config.mu_per_mode))
    if mu_total <= 0:
        raise EstimationError("cannot estimate efficiency without input photons")
    background = 2.0 * trials * n_modes * (p_n_hat * t_det + dark)
    denom = trials * mu_total * t_det
    if denom ** 2 == 0.0:
        raise EstimationError(f"signal too weak to estimate: trials * mu * T_det = {denom:g} "
                              "underflows when squared")
    eta_hat = (s_par + s_orth - background) / denom
    eta_err = np.sqrt((s_par + s_orth) / denom**2 + (2.0 * n_modes * trials * t_det * p_n_err / denom) ** 2)

    fid, fid_err = _count_ratio(float(s_par), float(s_orth))

    lit = np.asarray(config.mu_per_mode, dtype=float) > 0
    fid_m, fid_m_err = _count_ratio(np.where(lit, par_m, 0.0), np.where(lit, orth_m, 0.0))
    return ParamEstimate(float(eta_hat), float(eta_err), float(p_n_hat), float(p_n_err),
                         float(fid), float(fid_err), fid_m, fid_m_err)


@dataclass(frozen=True)
class TransmissionEstimate:
    """Per-mode transmission and transmitted-state fidelity from the input windows."""

    transmission: np.ndarray
    transmission_err: np.ndarray
    fidelity: np.ndarray
    fidelity_err: np.ndarray


def estimate_transmission(parallel: CountHistogram, orthogonal: CountHistogram) -> TransmissionEstimate:
    """Characterize the unabsorbed, transmitted input from the input windows.

    parallel and orthogonal are runs of one config (as in estimate_params)
    analyzed along and against its input state, else ValueError. A mode
    with no input (mu = 0) transmits nothing: all four of its values are NaN.
    """
    config = _shared_config(parallel, orthogonal)
    par_m = parallel.mode_counts("input").astype(float)
    orth_m = orthogonal.mode_counts("input").astype(float)
    if (par_m + orth_m).sum() == 0:
        raise EstimationError("zero input-window counts")
    trials = config.trials
    dark = config.dark_per_gate
    mu = np.asarray(config.mu_per_mode, dtype=float)
    lit = mu > 0
    denom = np.where(lit, trials * mu * config.t_det, np.nan)
    weak = denom[denom ** 2 == 0.0]
    if weak.size:
        raise EstimationError(f"signal too weak to estimate: trials * mu * T_det = {weak[0]:g} "
                              "underflows when squared")
    trans = (par_m + orth_m - 2.0 * trials * dark) / denom
    trans_err = np.sqrt(par_m + orth_m) / denom
    return TransmissionEstimate(trans, trans_err, *_count_ratio(np.where(lit, par_m, 0.0),
                                                                np.where(lit, orth_m, 0.0)))


def _histogram_chunks(hists: Sequence[CountHistogram]) -> Iterator[list[str]]:
    """The CSV rows of histograms on one time axis, _EXPORT_CHUNK bins at a
    time: one joined string per histogram, with the text write_csv would
    give its cells. Each bin edge is formatted once for all histograms (a
    row's end is the next row's start), and so is each window label."""
    axis = hists[0].config
    # the window cells of each window's bins; a later window's label wins where windows overlap
    spans = [(bins.start, bins.stop, f",{win.label},") for win, bins in axis.windows]
    tails = [hist.analysis + "\n" for hist in hists]
    end = format_float(0.0)
    n = axis.n_bins
    for a in range(0, n, _EXPORT_CHUNK):
        b = min(a + _EXPORT_CHUNK, n)
        # edge k is k * bin_width, as in _window_bins
        ends = list(map(format_float, (np.arange(a + 1, b + 1) * axis.bin_width).tolist()))
        starts = [end, *ends[:-1]]
        end = ends[-1]
        posts = [",,"] * (b - a)
        for lo, hi, post in spans:
            lo, hi = max(lo, a), min(hi, b)
            if lo < hi:
                posts[lo - a:hi - a] = [post] * (hi - lo)
        # a simulated run counts nothing outside the mode windows, so most chunks
        # are all zeros in every histogram and share one set of rows
        zeros = [f"{s},{e},0{p}" for s, e, p in zip(starts, ends, posts)]
        texts = []
        for hist, tail in zip(hists, tails):
            counts = hist.counts[a:b].tolist()
            rows = [f"{s},{e},{c}{p}" for s, e, c, p in zip(starts, ends, counts, posts)] if any(counts) else zeros
            texts.append(tail.join(rows) + tail)
        yield texts


def export_histograms(hists: Sequence[CountHistogram], paths: Sequence[str],
                      metadata: Mapping[str, object] | None = None) -> None:
    """Write histograms that share one time axis as CSVs with one row per bin,
    in one pass over the axis.

    Each file gets metadata plus its own histogram's analysis, trials and
    rng_seed, and the bytes write_csv would give. The rows go pre-joined to
    tableio's one writer, one chunk of bins at a time for every file, so no
    per-bin data is held for a whole histogram. ValueError unless every
    config has the schedule and bin_width (so the time axis) of the first.
    """
    if len(paths) != len(hists):
        raise ValueError(f"{len(hists)} histograms but {len(paths)} paths")
    axis = hists[0].config
    if any(hist.config.schedule != axis.schedule or hist.config.bin_width != axis.bin_width for hist in hists):
        raise ValueError("histograms exported in one pass must share the schedule and bin_width of the first")
    metas = []
    for hist in hists:
        meta = dict(metadata or {})
        meta.setdefault("analysis", hist.analysis)
        meta.setdefault("trials", hist.config.trials)
        meta.setdefault("rng_seed", hist.seed)
        metas.append(meta)
    write_csv_lines(paths, metas, ["bin_start_us", "bin_end_us", "counts", "window_label", "analysis_label"],
                    _histogram_chunks(hists))


def export_histogram(hist: CountHistogram, path: str, metadata: Mapping[str, object] | None = None) -> None:
    """Write a histogram as CSV with one row per bin: export_histograms of one."""
    export_histograms((hist,), (path,), metadata)
