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
bin; the result is independent of how trials would be partitioned
across workers, which makes the merge order trivially deterministic.
Identical (config, seed) gives bit-identical histograms.

Times are microseconds, dark_rate is counts per second.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import EstimationError
from .memory import MemoryParams, StorageSchedule
from .polarization import AnalysisSetting, PolarizationState, expectation, standard_state
from .tableio import write_csv_lines

_REL_TOL = 1e-9
# histogram bins are turned into Python floats and ints this many at a time,
# so the exporter never holds them for the whole histogram at once
_EXPORT_CHUNK = 64
# at its peak the simulate command holds 64 B per bin (tracemalloc, 20,850 to
# 417,000 bins): three histograms of edges and counts, and the run it draws or
# exports; so does reproduce-paper, which holds one row's runs at a time. Its
# first call in a process adds about 0.73 MB that does not grow with the bins, so
# the 128 MiB of bins at the cap are about 128.7 MiB in all
_BYTES_PER_BIN = 64
_FIXED_BYTES = 730_000
_MAX_BINS = (128 << 20) // _BYTES_PER_BIN


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

    mu_per_mode and params accept either one value for all modes or one
    per mode. bin_width must divide the mode duration; 0.0, the default
    and the INI's value, stands for a fifth of it. n_bins, the bins over
    total storage plus one mode train, may not exceed _MAX_BINS.
    """

    input_state: PolarizationState = field(default_factory=lambda: standard_state("D"))
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
        n = self.schedule.n_modes
        mus = _as_tuple(self.mu_per_mode, n, "mu_per_mode")
        if any(m < 0 for m in mus):
            raise ValueError("mu_per_mode must be nonnegative")
        object.__setattr__(self, "mu_per_mode", tuple(float(m) for m in mus))
        object.__setattr__(self, "params", _as_tuple(self.params, n, "params"))
        for name in ("detector_efficiency", "transmission_to_detector"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} = {getattr(self, name)} outside (0, 1]")
        if self.t_det == 0.0:
            raise ValueError("transmission_to_detector * detector_efficiency underflows to 0")
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be nonnegative")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        bw = self.schedule.mode_duration / 5.0 if self.bin_width == 0.0 else float(self.bin_width)
        if bw <= 0:
            raise ValueError("bin_width must be positive")
        ratio = self.schedule.mode_duration / bw
        if abs(ratio - round(ratio)) > _REL_TOL * ratio:
            raise ValueError(f"bin_width {bw} does not divide the mode duration {self.schedule.mode_duration}")
        span = self.schedule.total_storage + self.schedule.n_modes * self.schedule.mode_duration
        bins = span / bw
        if not bins <= _MAX_BINS:
            raise ValueError(f"bin_width {bw:g} us over the {span:g} us sequence span gives {bins:.3g} "
                             f"histogram bins, more than the {_MAX_BINS} allowed ({_BYTES_PER_BIN} B each and "
                             f"{_FIXED_BYTES / 1e6:.2f} MB more, "
                             f"{(_MAX_BINS * _BYTES_PER_BIN + _FIXED_BYTES) / 2 ** 20:.1f} MiB in all)")
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


@dataclass(frozen=True)
class Window:
    """Labeled time interval of the sequence; CP windows are blanked."""

    label: str
    start: float
    stop: float
    mode: int | None = None


@dataclass(frozen=True, eq=False)
class CountHistogram:
    """Binned detection record of one simulated run."""

    bin_edges: np.ndarray
    counts: np.ndarray
    analysis: AnalysisSetting
    windows: tuple[Window, ...]
    mu_per_mode: tuple[float, ...]
    trials: int
    seed: int

    @cached_property
    def window_slices(self) -> tuple[slice, ...]:
        """The bins of each window, in the order of windows."""
        return _window_slices(self.bin_edges, self.windows)

    def mode_counts(self, label: str) -> np.ndarray:
        """Counts in each mode window of 'input' or 'output', in mode order."""
        return np.array([int(self.counts[bins].sum()) for win, bins in zip(self.windows, self.window_slices)
                         if win.label == label and win.mode is not None], dtype=np.int64)

    def window_counts(self, label: str) -> int:
        """Counts summed over the mode windows of label."""
        return int(self.mode_counts(label).sum())


def _window_slices(bin_edges: np.ndarray, windows: Sequence[Window]) -> tuple[slice, ...]:
    """Bins whose centre lies in [start, stop) of each window.

    The centres are sorted, so each window is one run of bins. bisect_left
    gives np.searchsorted's index without the ~100 kB that numpy's search
    machinery adds to peak memory on first use.
    """
    centers = 0.5 * (bin_edges[:-1] + bin_edges[1:])
    return tuple(slice(bisect_left(centers, w.start), bisect_left(centers, w.stop)) for w in windows)


def sequence_windows(schedule: StorageSchedule) -> tuple[Window, ...]:
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


def _mode_rates(config: ExperimentConfig, analysis: AnalysisSetting) -> tuple[np.ndarray, np.ndarray]:
    """Mean detected counts per trial in each (input, output) mode window."""
    e_sig = expectation(config.input_state, analysis)
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


def model_mode_fidelity(config: ExperimentConfig, parallel: AnalysisSetting,
                        orthogonal: AnalysisSetting) -> np.ndarray:
    """Exact per-mode mean of the count-ratio fidelity, dark counts included.

    This is what the estimator converges to as trials grow; it differs
    from the noise-model prediction by the dark-count dilution of both
    analyzer ports.
    """
    _, lam_p = _mode_rates(config, parallel)
    _, lam_o = _mode_rates(config, orthogonal)
    return lam_p / (lam_p + lam_o)


def model_conditional_fidelity(config: ExperimentConfig, parallel: AnalysisSetting,
                               orthogonal: AnalysisSetting) -> float:
    """Exact mean of the train-summed count-ratio fidelity for this configuration."""
    _, lam_p = _mode_rates(config, parallel)
    _, lam_o = _mode_rates(config, orthogonal)
    return float(lam_p.sum() / (lam_p.sum() + lam_o.sum()))


def simulate_run(config: ExperimentConfig, analysis: AnalysisSetting, *, seed: int) -> CountHistogram:
    """Simulate one accumulated counting histogram.

    Parameters
    ----------
    config : ExperimentConfig
    analysis : AnalysisSetting
        The single analyzer port in front of the detector.
    seed : int
        Seed of the run's random stream.

    Returns
    -------
    CountHistogram with integer counts accumulated over config.trials.
    """
    rng = np.random.default_rng(seed)
    schedule = config.schedule
    windows = sequence_windows(schedule)
    edges = np.arange(config.n_bins + 1) * config.bin_width
    lam = np.zeros(config.n_bins)

    lam_in, lam_out = _mode_rates(config, analysis)
    for win, bins in zip(windows, _window_slices(edges, windows)):
        size = bins.stop - bins.start
        if size <= 0:
            continue
        if win.label == "input":
            lam[bins] += lam_in[win.mode] / size
        elif win.label == "output":
            lam[bins] += lam_out[win.mode] / size

    counts = rng.poisson(lam * config.trials)
    return CountHistogram(edges, counts.astype(np.int64), analysis, windows,
                          config.mu_per_mode, config.trials, seed)


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


def _check_ports(parallel: CountHistogram, orthogonal: CountHistogram, input_state: PolarizationState) -> None:
    """Raise ValueError unless the runs are analyzed parallel and orthogonal to the input state."""
    if expectation(input_state, parallel.analysis) < 1.0 - 1e-6:
        raise ValueError(f"the parallel run is analyzed at {parallel.analysis.label}, not along the input")
    if expectation(input_state, orthogonal.analysis) > 1e-6:
        raise ValueError(f"the orthogonal run is analyzed at {orthogonal.analysis.label}, not against the input")


def _count_ratio(par: np.ndarray, orth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode fidelity par / (par + orth) and its Poisson error, NaN where both are zero."""
    tot = par + orth
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(tot > 0, par / tot, np.nan), np.where(tot > 0, np.sqrt(par * orth / tot**3), np.nan)


def estimate_params(parallel: CountHistogram, orthogonal: CountHistogram, noise: CountHistogram,
                    config: ExperimentConfig) -> ParamEstimate:
    """Invert the counting model for eta, p_n and the conditional fidelity.

    parallel and orthogonal are the runs of config analyzed along and
    against its input state; noise is a run with no input (all
    mu_per_mode zero) at any analyzer port. The noise floor comes from
    the noise run, dark-count corrected. The efficiency comes from the
    background-subtracted sum of both analyzer ports, corrected for
    T_det and mu. The conditional fidelity is the raw count ratio
    S_par / (S_par + S_orth); noise is part of the retrieved state by
    convention, so it is not subtracted there. Errors are Poissonian.
    The per-mode fidelities are the same ratio in each output mode; a
    mode with no input (mu = 0) stores no qubit, and both of its values
    are NaN. Runs at the wrong port, or a noise run with input, raise
    ValueError.
    """
    _check_ports(parallel, orthogonal, config.input_state)
    if any(noise.mu_per_mode):
        raise ValueError("the noise run must have no input (all mu_per_mode zero)")
    t_det = config.t_det
    dark = config.dark_per_gate
    n_modes = config.schedule.n_modes

    n_noise = noise.window_counts("output")
    noise_exposure = noise.trials * n_modes  # gate windows observed
    p_n_hat = (n_noise - noise_exposure * dark) / (noise_exposure * t_det)
    p_n_err = np.sqrt(max(n_noise, 1)) / (noise_exposure * t_det)

    s_par = parallel.window_counts("output")
    s_orth = orthogonal.window_counts("output")
    if s_par + s_orth == 0:
        raise EstimationError("zero output counts in both analyzer ports")
    trials = parallel.trials
    mu_total = float(sum(parallel.mu_per_mode))
    if mu_total <= 0:
        raise EstimationError("cannot estimate efficiency without input photons")
    background = 2.0 * trials * n_modes * (p_n_hat * t_det + dark)
    denom = trials * mu_total * t_det
    if denom ** 2 == 0.0:
        raise EstimationError(f"signal too weak to estimate: trials * mu * T_det = {denom:g} "
                              "underflows when squared")
    eta_hat = (s_par + s_orth - background) / denom
    eta_err = np.sqrt((s_par + s_orth) / denom**2 + (2.0 * n_modes * trials * t_det * p_n_err / denom) ** 2)

    fid = s_par / (s_par + s_orth)
    fid_err = np.sqrt(s_par * s_orth / (s_par + s_orth) ** 3) if s_par and s_orth else 1.0 / (s_par + s_orth)

    lit = np.asarray(parallel.mu_per_mode, dtype=float) > 0
    fid_m, fid_m_err = _count_ratio(np.where(lit, parallel.mode_counts("output"), 0.0),
                                    np.where(lit, orthogonal.mode_counts("output"), 0.0))
    return ParamEstimate(float(eta_hat), float(eta_err), float(p_n_hat), float(p_n_err),
                         float(fid), float(fid_err), fid_m, fid_m_err)


@dataclass(frozen=True)
class TransmissionEstimate:
    """Per-mode transmission and transmitted-state fidelity from the input windows."""

    transmission: np.ndarray
    transmission_err: np.ndarray
    fidelity: np.ndarray
    fidelity_err: np.ndarray


def estimate_transmission(parallel: CountHistogram, orthogonal: CountHistogram,
                          config: ExperimentConfig) -> TransmissionEstimate:
    """Characterize the unabsorbed, transmitted input from the input windows.

    parallel and orthogonal are the runs of config analyzed along and
    against its input state; a run at the wrong port raises ValueError.
    A mode with no input (mu = 0) transmits nothing, and all four of its
    values are NaN.
    """
    _check_ports(parallel, orthogonal, config.input_state)
    par_m = parallel.mode_counts("input").astype(float)
    orth_m = orthogonal.mode_counts("input").astype(float)
    if (par_m + orth_m).sum() == 0:
        raise EstimationError("zero input-window counts")
    trials = parallel.trials
    dark = config.dark_per_gate
    mu = np.asarray(parallel.mu_per_mode, dtype=float)
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


def _histogram_lines(hist: CountHistogram) -> Iterator[str]:
    """One CSV line per bin, with the text write_csv would give its cells."""
    labels = [""] * len(hist.counts)
    for win, bins in zip(hist.windows, hist.window_slices):
        labels[bins] = [win.label] * (bins.stop - bins.start)
    tail = hist.analysis.label + "\n"
    fmt = "{:.12g}".format
    start = fmt(float(hist.bin_edges[0]))
    for a in range(0, len(labels), _EXPORT_CHUNK):
        b = a + _EXPORT_CHUNK
        ends = map(fmt, hist.bin_edges[a + 1:b + 1].tolist())
        for end, count, label in zip(ends, hist.counts[a:b].tolist(), labels[a:b]):
            yield f"{start},{end},{count},{label},{tail}"
            start = end


def export_histogram(hist: CountHistogram, path: str, metadata: Mapping[str, object] | None = None) -> None:
    """Write a histogram as CSV with one row per bin.

    The rows go pre-joined to tableio's one writer: each bin edge is
    formatted once (a row's end is the next row's start) with the %.12g
    of write_csv, so the bytes are those write_csv would give.
    """
    meta = dict(metadata or {})
    meta.setdefault("analysis", hist.analysis.label)
    meta.setdefault("trials", hist.trials)
    meta.setdefault("rng_seed", hist.seed)
    write_csv_lines(path, meta, ["bin_start_us", "bin_end_us", "counts", "window_label", "analysis_label"],
                    _histogram_lines(hist))
