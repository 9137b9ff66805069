"""Command-line front end: reproducible runs from INI configs.

Every command is a pure function of (config file, seed, --mu, --trials).
Output CSVs carry the tool version, the seed, a hash of the effective
config and the --mu and --trials given in their '#' preamble, and a
re-run with the same arguments is byte identical. Commands that draw
random numbers refuse to run without an explicit --seed.

reproduce-paper runs one stage per reference table: table1 (with fig2),
tableA1, tableB1 (with fig3b), tableC1, fig3a, and figD1 with verdicts. Each
appends its comparisons to the one summary.csv list and returns its CSVs as
(file name, write) pairs, which run after the last stage.
The one bound-and-verdict pass, the six-setting tomography and the mu1
band are the same helpers that bounds, tomography and predict use.

Every simulated configuration comes from _experiment. _pair makes the
runs analyzed parallel and orthogonal to the input, _triple_run adds the
no-input run; each run carries its config, and the estimators take runs by role.

main loads the config, checks [schedule] and --seed, parses --mu and
calls the runner that the command's parser names; each runner checks
what it reads before its work. Exit codes: 0 success, 2 configuration/
validation error (also an --out that is a file or lies under one), 3
runtime or estimation failure, or an OSError while writing. Every command
computes all of its results before its first write, so a run that exits
2, or 3 on a runtime or estimation failure, writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import poisson_conditional_bound, quantumness_verdict, threshold_bound, \
    transmitted_constrained_bound
from .config import _parse_value, canonical_text, check_bound_budget, config_hash, default_config, \
    load_config
from .errors import ConfigError
from .memory import MemoryParams, StorageSchedule, fidelity_vs_photon_number
from .montecarlo import ExperimentConfig, estimate_params, estimate_transmission, \
    export_histogram, export_histograms, model_fidelity, simulate_run
from .polarization import STATE_LABELS, fidelity, orthogonal_label, standard_state
from .refdata import CHI00_MEASURED, EXPECTED_VERDICTS, F_C_MEAN, MODE_SCAN, MU1_MEAN, \
    MU_SCAN, STATE_SCAN, TRANSMITTED_MODES, matched_noise_floor
from .tableio import write_csv
from .tomography import TomographyData, export_process_matrix, mle_state, monte_carlo_errors, \
    process_tomography

_VERDICT_HEADER = ["mu", "fidelity", "fidelity_err", "threshold_bound", "verdict",
                   "transmitted_bound", "verdict_transmitted"]


def _derived_seed(*parts: int) -> int:
    """Stable per-run stream id; SeedSequence hashing is fixed by numpy."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _metadata(args, cfg, **extra):
    meta = {"tool": f"afcmem {__version__}", "command": args.command,
            "seed": "-" if args.seed is None else int(args.seed), "config_sha256": config_hash(cfg)}
    # the --mu and --trials given, which override the config the hash is taken of
    if getattr(args, "mu", None) is not None:
        meta["mu"] = ", ".join(map(repr, args.mu))
    if getattr(args, "trials", None) is not None:
        meta["trials"] = args.trials
    return {**meta, **extra}


def _mu_grid(section, mu_list):
    if mu_list is not None:
        mus = np.asarray(mu_list, dtype=float)
    else:
        lo, hi, n = section["mu_min"], section["mu_max"], section["n_points"]
        if not 0.0 < lo < hi:
            raise ConfigError(f"need 0 < mu_min < mu_max, got ({lo}, {hi})")
        mus = np.linspace(lo, hi, n)
    if (mus <= 0).any():
        raise ConfigError("photon numbers must be positive")
    return mus


def _mu1_band(p, mus):
    """(mu, low, model, high) rows of the fidelity model for mu1 -+ mu1_err."""
    mu1, mu1_err, f_c = p["mu1"], p["mu1_err"], p["f_c"]
    if mu1 < 0 or mu1_err < 0:
        raise ConfigError("mu1 and mu1_err must be nonnegative")
    band = (mu1 + mu1_err, mu1, max(mu1 - mu1_err, 0.0))
    return [(float(mu), *(fidelity_vs_photon_number(mu, m, f_c) for m in band)) for mu in mus]


def _bound_rows(b, mus):
    """One pass over mus and then the MU_SCAN working points under the [bounds] section b.

    Threshold and transmitted bounds are evaluated once per mu, the plain bound on mus only.
    Returns the curve rows (mu, plain bound, threshold result, transmitted result) at mus and
    the verdict rows at the working points.
    """
    curve, verdicts = [], []
    for mu, rec in [(float(mu), None) for mu in mus] + [(rec.mu, rec) for rec in MU_SCAN]:
        thr = threshold_bound(mu, b["eta_m"], matching=b["matching"])
        tra = transmitted_constrained_bound(mu, b["f_t"], b["eta_t"], b["eta_m"],
                                            grid_points=b["grid_points"],
                                            refine_rounds=b["refine_rounds"],
                                            matching=b["matching"])
        if rec is None:
            curve.append((mu, poisson_conditional_bound(mu), thr, tra))
        else:
            f, err, k = rec.fidelity, rec.fidelity_err, b["k_sigma"]
            verdicts.append((mu, f, err, thr.bound, quantumness_verdict(f, err, thr.bound, k),
                             tra.bound, quantumness_verdict(f, err, tra.bound, k)))
    return curve, verdicts


def _experiment(cfg, label: str, mu, trials: int, params=None, **detection) -> ExperimentConfig:
    """One configuration to simulate: the configured schedule and [detection], and [memory]
    unless params is given; detection overrides [detection] keys."""
    return ExperimentConfig(input_state=label, mu_per_mode=mu,
                            schedule=StorageSchedule(**cfg["schedule"]),
                            params=MemoryParams(**cfg["memory"]) if params is None else params,
                            trials=trials, **{**cfg["detection"], **detection})


def _pair(exp: ExperimentConfig, seed: int, stream: int):
    """The runs analyzed parallel and orthogonal to the input, on streams stream and stream + 1."""
    return (simulate_run(exp, exp.input_state, seed=_derived_seed(seed, stream)),
            simulate_run(exp, orthogonal_label(exp.input_state), seed=_derived_seed(seed, stream + 1)))


def _triple_run(exp: ExperimentConfig, seed: int, stream: int):
    """_pair's parallel and orthogonal runs, then the no-input run on stream + 2."""
    noise = simulate_run(replace(exp, mu_per_mode=0.0), exp.input_state, seed=_derived_seed(seed, stream + 2))
    return (*_pair(exp, seed, stream), noise)


def _six_settings(exp: ExperimentConfig, seed: int, stream: int) -> TomographyData:
    """Output-window counts in the six analyzer settings, with their dark backgrounds."""
    counts = [int(simulate_run(exp, s, seed=_derived_seed(seed, stream, j)).mode_counts("output").sum())
              for j, s in enumerate(STATE_LABELS)]
    bg = exp.trials * exp.dark_per_gate * exp.schedule.n_modes
    return TomographyData(STATE_LABELS, counts, [bg] * len(STATE_LABELS))


def _fit_state(data: TomographyData, label: str, resamples: int, seed: int):
    """MLE state, its fidelity to the ideal input and the bootstrap sigma of that fidelity."""
    est = mle_state(data)
    sigma = monte_carlo_errors(data, standard_state(label), resamples=resamples, seed=seed)
    return est, fidelity(est.state, standard_state(label)), sigma


def cmd_predict(cfg, args) -> int:
    p = cfg["predict"]
    rows = _mu1_band(p, _mu_grid(p, args.mu))
    path = os.path.join(args.out, "predict_fidelity.csv")
    write_csv(path, _metadata(args, cfg, mu1=p["mu1"], mu1_err=p["mu1_err"], f_c=p["f_c"]),
              ["mu", "band_low", "fidelity", "band_high"], rows)
    print(f"predict: wrote {path} ({len(rows)} points)")
    return 0


def cmd_simulate(cfg, args) -> int:
    sim, out = cfg["simulate"], args.out
    mus = sim["mu_per_mode"] if args.mu is None else args.mu
    exp = _experiment(cfg, sim["input_state"], mus[0] if len(mus) == 1 else mus,
                      sim["trials"] if args.trials is None else args.trials)
    par, orth, noise = _triple_run(exp, args.seed, 0)
    est = estimate_params(par, orth, noise)
    tr = estimate_transmission(par, orth)  # both estimates before the first write
    meta = _metadata(args, cfg)
    export_histograms((par, orth, noise), [os.path.join(out, f"histogram_{name}.csv")
                                           for name in ("parallel", "orthogonal", "noise")], meta)
    rows = [("eta", est.eta_hat, est.eta_err),
            ("p_n", est.p_n_hat, est.p_n_err),
            ("fidelity", est.fidelity_hat, est.fidelity_err)]
    rows += [(f"fidelity_mode_{m + 1}", float(est.mode_fidelity[m]), float(est.mode_fidelity_err[m]))
             for m in range(exp.schedule.n_modes)]
    write_csv(os.path.join(out, "estimate.csv"), meta, ["quantity", "value", "error"], rows)
    trows = [(m + 1, *map(float, cols)) for m, cols in
             enumerate(zip(tr.transmission, tr.transmission_err, tr.fidelity, tr.fidelity_err))]
    write_csv(os.path.join(out, "transmitted.csv"), meta,
              ["mode", "transmission", "transmission_err", "fidelity", "fidelity_err"], trows)
    print(f"simulate: eta_hat={est.eta_hat:.5f}+-{est.eta_err:.5f} "
          f"p_n_hat={est.p_n_hat:.5f}+-{est.p_n_err:.5f} "
          f"fidelity={est.fidelity_hat:.4f}+-{est.fidelity_err:.4f}")
    return 0


def _read_counts_file(path: str):
    """CSV of input,setting,counts rows; '#' comments and a header allowed."""
    table: dict[str, dict[str, int]] = {}
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from None
    with fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#") or row[0].strip().lower() == "input":
                continue
            if len(row) != 3:
                raise ConfigError(f"{path}:{line_no}: expected input,setting,counts")
            inp, setting, raw = (tok.strip() for tok in row)
            if inp not in STATE_LABELS or setting not in STATE_LABELS:
                raise ConfigError(f"{path}:{line_no}: unknown label {inp!r}/{setting!r}")
            try:
                n = int(raw)
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: counts must be an integer") from None
            # the fit and the bootstrap use each count as a float64, which is exact up to 2^53
            if not 0 <= n <= 2 ** 53:
                raise ConfigError(f"{path}:{line_no}: counts must be in [0, 2^53], got {n}")
            if setting in table.setdefault(inp, {}):
                raise ConfigError(f"{path}:{line_no}: duplicate entry for {inp}/{setting}")
            table[inp][setting] = n
    return table


def cmd_tomography(cfg, args) -> int:
    tomo, seed, out = cfg["tomography"], args.seed, args.out
    labels = tomo["input_labels"]
    if not set(labels) <= set(STATE_LABELS) or len(set(labels)) != len(labels):
        raise ConfigError(f"input_labels must be distinct members of {STATE_LABELS}")
    span = np.stack([standard_state(l).rho.reshape(4) for l in labels])
    if np.linalg.matrix_rank(span, tol=1e-9) < 4:
        raise ConfigError("input_labels do not span the state space; process tomography needs 4 independent inputs")
    meta = _metadata(args, cfg)

    if tomo["counts_file"]:
        table = _read_counts_file(tomo["counts_file"])
        missing = [l for l in labels if l not in table]
        if missing:
            raise ConfigError(f"counts file lacks input states {missing}")
        datasets = [TomographyData.from_counts(table[l]) for l in labels]
    else:
        datasets = []
        for i, l in enumerate(labels):
            exp = _experiment(cfg, l, tomo["mu"], tomo["trials"])
            datasets.append(_six_settings(exp, seed, 10 + i))

    rows, states = [], []
    for i, (l, data) in enumerate(zip(labels, datasets)):
        est, f_hat, sigma = _fit_state(data, l, tomo["resamples"], _derived_seed(seed, 500, i))
        states.append(est.state)
        rows.append((l, f_hat, sigma, est.state.purity,
                     est.log_likelihood, est.iterations, est.converged, est.low_rank,
                     sigma.resamples_skipped, sigma.resamples_unconverged))
    proc = process_tomography([standard_state(l) for l in labels], states, project=tomo["project"])
    write_csv(os.path.join(out, "state_fidelity.csv"), meta,
              ["input", "fidelity", "fidelity_err", "purity",
               "log_likelihood", "iterations", "converged", "low_rank",
               "resamples_skipped", "resamples_unconverged"], rows)
    export_process_matrix(proc, os.path.join(out, "chi.csv"), meta)
    print(f"tomography: chi00={proc.chi00:.4f}; state fidelities " +
          " ".join(f"{l}={r[1]:.4f}" for l, r in zip(labels, rows)))
    return 0


def cmd_bounds(cfg, args) -> int:
    b, out = cfg["bounds"], args.out
    points, source = (b["n_points"], "[bounds] n_points") if args.mu is None else (len(args.mu), "--mu")
    check_bound_budget(points, source, b)
    curve, vrows = _bound_rows(b, _mu_grid(b, args.mu))
    meta = _metadata(args, cfg, **{k: b[k] for k in ("eta_m", "f_t", "eta_t", "matching")})
    rows = [(mu, plain, thr.bound, tra.bound, thr.params.n_min, thr.params.gamma,
             tra.params.p, tra.params.q, tra.params.delta, tra.params.eta_m1, tra.params.eta_m2)
            for mu, plain, thr, tra in curve]
    write_csv(os.path.join(out, "bound_curve.csv"), meta,
              ["mu", "plain", "threshold", "transmitted", "threshold_n_min", "threshold_gamma",
               "strategy_p", "strategy_q", "strategy_delta", "strategy_eta_m1", "strategy_eta_m2"], rows)
    write_csv(os.path.join(out, "verdicts.csv"), meta, _VERDICT_HEADER, vrows)
    print("bounds: " + "; ".join(f"mu={r[0]:g}: {r[4]}" for r in vrows))
    return 0


def _stage_table1(cfg, seed, meta, check):
    """Photon-number scan: closure of the generator/estimator pair per row; fig2 is row 2's
    parallel run, redrawn when it is written (a run is a pure function of its config and seed)."""
    mem = MemoryParams(**cfg["memory"])
    rows = []
    for i, rec in enumerate(MU_SCAN):
        exp = _experiment(cfg, "D", rec.mu, cfg["reproduce"]["trials"], replace(mem, eta=rec.eta, p_n=rec.p_n))
        par, orth, noise = _triple_run(exp, seed, 100 + 10 * i)
        est = estimate_params(par, orth, noise)
        if i == 1:
            fig2 = functools.partial(simulate_run, exp, "D", seed=par.seed)
        mu1_row = rec.p_n / rec.eta
        f_row = fidelity_vs_photon_number(rec.mu, mu1_row, mem.f_c)
        f_model = model_fidelity(exp)[1]
        del par, orth, noise  # the next row's runs are drawn with this row's released
        f_glob = fidelity_vs_photon_number(rec.mu, MU1_MEAN, F_C_MEAN)
        rows.append((rec.mu, rec.eta, est.eta_hat, est.eta_err, rec.p_n, est.p_n_hat,
                     est.p_n_err, mu1_row, rec.mu1, rec.mu1_err, rec.fidelity,
                     est.fidelity_hat, est.fidelity_err, f_row, f_glob))
        check("table1", f"eta(mu={rec.mu:g})", est.eta_hat, rec.eta, 3 * est.eta_err)
        check("table1", f"p_n(mu={rec.mu:g})", est.p_n_hat, rec.p_n, 3 * est.p_n_err)
        check("table1", f"fidelity(mu={rec.mu:g})", est.fidelity_hat, f_model, 3 * est.fidelity_err)
        check("table1", f"predicted_fidelity(mu={rec.mu:g})", f_glob, rec.fidelity, 0.02)
        check("table1", f"mu1(mu={rec.mu:g})", mu1_row, rec.mu1, rec.mu1_err)
    return [("fig2_histogram.csv", lambda path: export_histogram(fig2(), path, meta)),
            ("table1.csv", lambda path: write_csv(
                path, meta, ["mu", "eta_ref", "eta_hat", "eta_err", "p_n_ref", "p_n_hat", "p_n_err",
                             "mu1", "mu1_ref", "mu1_ref_err", "fidelity_ref", "fidelity_hat",
                             "fidelity_err", "fidelity_row_model", "fidelity_global_model"], rows))]


def _stage_table_a1(cfg, seed, meta, check):
    """Mode-resolved run: five modes with their own efficiencies and noise floors."""
    mem = MemoryParams(**cfg["memory"])
    exp = _experiment(cfg, "D", tuple(r.mu for r in MODE_SCAN), cfg["reproduce"]["trials"],
                      tuple(replace(mem, eta=r.eta, p_n=r.p_n) for r in MODE_SCAN))
    par, orth, noise = _triple_run(exp, seed, 200)
    est = estimate_params(par, orth, noise)
    f_model = model_fidelity(exp)[0]
    rows = []
    for m, r in enumerate(MODE_SCAN):
        mu1_row = r.p_n / r.eta
        f_row = fidelity_vs_photon_number(r.mu, mu1_row, mem.f_c)
        f_hat = float(est.mode_fidelity[m])
        f_err = float(est.mode_fidelity_err[m])
        rows.append((m + 1, r.mu, r.eta, r.p_n, mu1_row, r.mu1, r.mu1_err,
                     r.fidelity, r.fidelity_err, f_hat, f_err, f_row))
        check("tableA1", f"mu1(mode {m + 1})", mu1_row, r.mu1, r.mu1_err)
        check("tableA1", f"fidelity_closure(mode {m + 1})", f_hat, float(f_model[m]), 3 * f_err)
        check("tableA1", f"fidelity(mode {m + 1})", f_hat, r.fidelity,
              3 * float(np.hypot(f_err, r.fidelity_err)))
    return [("tableA1.csv", lambda path: write_csv(
        path, meta, ["mode", "mu", "eta_ref", "p_n_ref", "mu1", "mu1_ref", "mu1_ref_err",
                     "fidelity_ref", "fidelity_ref_err", "fidelity_hat", "fidelity_err",
                     "fidelity_row_model"], rows))]


def _stage_table_b1(cfg, seed, meta, check):
    """Per-input-state tomography and the fig3b process matrix. The noise floor is matched
    to the measured fidelity (it stays inside the quoted p_n uncertainty for every state)."""
    mem = MemoryParams(**cfg["memory"])
    rows, states = [], []
    for i, rec in enumerate(STATE_SCAN):
        p_match = matched_noise_floor(rec.eta, rec.fidelity, rec.mu, mem.f_c)
        exp = _experiment(cfg, rec.label, rec.mu, cfg["reproduce"]["trials"],
                          replace(mem, eta=rec.eta, p_n=p_match), dark_rate=0.0)
        est, f_hat, sigma = _fit_state(_six_settings(exp, seed, 300 + 10 * i), rec.label,
                                       cfg["reproduce"]["resamples"], _derived_seed(seed, 400, i))
        states.append(est.state)
        rows.append((rec.label, rec.mu, rec.eta, p_match, rec.p_n, rec.p_n_err,
                     rec.fidelity, rec.fidelity_err, f_hat, sigma, est.converged))
        check("tableB1", f"fidelity({rec.label})", f_hat, rec.fidelity,
              3 * float(np.hypot(sigma, rec.fidelity_err)))
        check("tableB1", f"matched_p_n({rec.label})", p_match, rec.p_n, rec.p_n_err)
    proc = process_tomography([standard_state(rec.label) for rec in STATE_SCAN], states)
    check("fig3b", "chi00", proc.chi00, CHI00_MEASURED, 0.04)
    return [("tableB1.csv", lambda path: write_csv(
                path, meta, ["input", "mu", "eta_ref", "p_n_matched", "p_n_ref", "p_n_ref_err",
                             "fidelity_ref", "fidelity_ref_err", "fidelity_hat", "fidelity_err",
                             "mle_converged"], rows)),
            ("fig3b_chi.csv", lambda path: export_process_matrix(proc, path, meta))]


def _stage_table_c1(cfg, seed, meta, check):
    """Transmitted-state characterization: R input, per-mode transmissions."""
    mem = MemoryParams(**cfg["memory"])
    rrec = STATE_SCAN[3]
    exp = _experiment(cfg, "R", rrec.mu, cfg["reproduce"]["trials"],
                      tuple(replace(mem, eta=rrec.eta, p_n=rrec.p_n, eta_t=t.transmission, f_t=t.fidelity)
                            for t in TRANSMITTED_MODES))
    par, orth = _pair(exp, seed, 250)
    tr = estimate_transmission(par, orth)
    par_in, orth_in = par.mode_counts("input"), orth.mode_counts("input")
    rows = []
    for m, t in enumerate(TRANSMITTED_MODES):
        snr = float(par_in[m]) / max(float(orth_in[m]), 1.0)
        rows.append((m + 1, t.transmission, float(tr.transmission[m]), float(tr.transmission_err[m]),
                     t.fidelity, t.fidelity_err, float(tr.fidelity[m]), float(tr.fidelity_err[m]), snr))
        check("tableC1", f"transmission(mode {m + 1})", tr.transmission[m], t.transmission,
              3 * float(tr.transmission_err[m]))
        check("tableC1", f"transmitted_fidelity(mode {m + 1})", tr.fidelity[m], t.fidelity,
              3 * float(np.hypot(tr.fidelity_err[m], t.fidelity_err)))
    return [("tableC1.csv", lambda path: write_csv(
        path, meta, ["mode", "transmission_ref", "transmission_hat", "transmission_err",
                     "fidelity_ref", "fidelity_ref_err", "fidelity_hat", "fidelity_err",
                     "parallel_to_orthogonal_ratio"], rows))]


def _stage_fig3a(cfg, seed, meta, check):
    """Fidelity prediction vs photon number, with the mu1 band and the threshold bound."""
    b = cfg["bounds"]
    rows = [(mu, lo, mid, hi, threshold_bound(mu, b["eta_m"], matching=b["matching"]).bound)
            for mu, lo, mid, hi in _mu1_band(cfg["predict"], np.linspace(0.5, 10.0, 39))]
    check("fig3a", "band_ordering_violations", sum(not lo <= mid <= hi for _, lo, mid, hi, _ in rows), 0, 0)
    return [("fig3a.csv", lambda path: write_csv(
        path, meta, ["mu", "band_low", "predicted", "band_high", "threshold_bound"], rows))]


def _stage_bounds(cfg, seed, meta, check):
    """figD1, the three classical benchmarks over a log photon-number grid, then the
    quantumness verdicts at the measured working points against the published ones."""
    curve, verdicts = _bound_rows(cfg["bounds"], np.geomspace(0.5, 10.0, cfg["reproduce"]["bound_points"]))
    rows = [(mu, plain, thr.bound, tra.bound) for mu, plain, thr, tra in curve]
    arr = np.asarray(rows)
    check("figD1", "plain_le_threshold_violations", int((arr[:, 1] > arr[:, 2] + 1e-12).sum()), 0, 0)
    check("figD1", "transmitted_le_threshold_violations", int((arr[:, 3] > arr[:, 2] + 1e-12).sum()), 0, 0)
    check("figD1", "bound_floor_deficit", max(0.0, 2.0 / 3.0 - float(arr[:, 1:].min())), 0.0, 0.0)
    vrows = []
    for row, expected in zip(verdicts, EXPECTED_VERDICTS):
        vrows.append((*row, expected))
        check("verdicts", f"verdict_matches(mu={row[0]:g})", float(row[4] == expected), 1.0, 0.0)
    return [("figD1_bounds.csv",
             lambda path: write_csv(path, meta, ["mu", "plain", "threshold", "transmitted"], rows)),
            ("verdicts.csv", lambda path: write_csv(path, meta, _VERDICT_HEADER + ["expected"], vrows))]


def cmd_reproduce_paper(cfg, args) -> int:
    check_bound_budget(cfg["reproduce"]["bound_points"], "[reproduce] bound_points", cfg["bounds"])
    seed, out = args.seed, args.out
    meta = _metadata(args, cfg)
    summary = []

    def check(table, quantity, value, reference, tol):
        value, reference, tol = float(value), float(reference), float(tol)
        err = abs(value - reference)
        summary.append((table, quantity, value, reference, tol, err, "ok" if err <= tol else "FAIL"))

    check("schedule", "total_storage_us", StorageSchedule(**cfg["schedule"]).total_storage, 515.0, 1e-9)
    writes = []
    for stage in (_stage_table1, _stage_table_a1, _stage_table_b1, _stage_table_c1,
                  _stage_fig3a, _stage_bounds):
        writes += stage(cfg, seed, meta, check)
    for name, write in writes:
        write(os.path.join(out, name))
    write_csv(os.path.join(out, "summary.csv"), meta,
              ["table", "quantity", "value", "reference", "tolerance", "abs_error", "status"], summary)
    with open(os.path.join(out, "effective_config.ini"), "w", newline="\n") as fh:
        fh.write(canonical_text(cfg))
    n_fail = sum(row[6] == "FAIL" for row in summary)
    print(f"reproduce-paper: {len(summary)} comparisons, {n_fail} out of tolerance; outputs in {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later main() call. Each
    command's parser sets its runner (run) and whether it needs --seed (seeded)."""
    parser = argparse.ArgumentParser(prog="afcmem",
                                     description="Simulation and analysis of a multimode spin-wave "
                                                 "quantum memory for polarization qubits.")
    parser.add_argument("--version", action="version", version=f"afcmem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; defaults are built in")
    common.add_argument("--seed", type=int, help="RNG seed (required for stochastic commands)")
    common.add_argument("--out", default="afcmem_out", help="output directory")
    sub.add_parser("show-defaults", help="print the built-in configuration")
    p = sub.add_parser("predict", parents=[common], help="fidelity vs photon number from the noise model")
    p.add_argument("--mu", help="comma-separated photon numbers overriding the grid")
    p.set_defaults(run=cmd_predict, seeded=False)
    p = sub.add_parser("simulate", parents=[common], help="counting histograms and parameter estimates")
    p.add_argument("--mu", help="per-mode mean photon number(s)")
    p.add_argument("--trials", type=int, help="number of storage-and-retrieval trials")
    p.set_defaults(run=cmd_simulate, seeded=True)
    sub.add_parser("tomography", parents=[common], help="state and process reconstruction") \
        .set_defaults(run=cmd_tomography, seeded=True)
    p = sub.add_parser("bounds", parents=[common], help="classical benchmarks and verdicts")
    p.add_argument("--mu", help="comma-separated photon numbers overriding the grid")
    p.set_defaults(run=cmd_bounds, seeded=False)
    sub.add_parser("reproduce-paper", parents=[common], help="regenerate the reference tables and figures") \
        .set_defaults(run=cmd_reproduce_paper, seeded=True)
    return parser


def _check_out(out: str) -> None:
    """ConfigError unless --out is a directory or can be made one: no part of its path is a file."""
    path = os.path.abspath(out)
    while not os.path.isdir(path):
        if os.path.lexists(path):
            raise ConfigError(f"--out {out}: {path} exists and is not a directory")
        path = os.path.dirname(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "show-defaults":
        sys.stdout.write(canonical_text(default_config()))
        return 0
    try:
        cfg = load_config(args.config)
        StorageSchedule(**cfg["schedule"])  # a timing violation exits 2 before any command runs
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        if args.seeded and args.seed is None:
            raise ConfigError(f"--seed is required for '{args.command}'")
        if getattr(args, "mu", None) is not None:
            args.mu = _parse_value("floatlist", args.mu, "--mu")
        _check_out(args.out)
        return args.run(cfg, args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:  # EstimationError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, ValueError)) else 3


if __name__ == "__main__":
    sys.exit(main())
