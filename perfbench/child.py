"""One benchmark process: runs afcmem CLI commands and reports on them.

    python3 child.py call  SPEC_JSON   one CLI command, then optional
                                       threshold_bound probes
    python3 child.py sweep SPEC_JSON   simulate calls until time is up,
                                       each checked against the oracle

The parent starts it with PYTHONPATH pointing at the checkout's src, so
the afcmem under test is the one being benchmarked. The last stdout
line is a JSON report. Times are normalized to a reference machine
speed (calib.py). Tracing alternates with untraced calls so one traced
run also measures its own overhead.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

import numpy as np

import afcmem.cli
import afcmem.bounds
from calib import Sampler
from spans import ROOT, Recorder

SWEEP_ROUND = 5  # four scalar photon numbers and one five-mode list per round


def _rss_kb():
    """Peak resident set of this process image. getrusage's ru_maxrss
    would also carry the parent's peak across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _main(argv):
    """afcmem.cli.main(argv); a crash is a failed operation (exit code -1)."""
    try:
        return afcmem.cli.main(argv)
    except Exception:  # the benchmark counts it and goes on
        traceback.print_exc()
        return -1


def _timed_main(argv, recorder, sampler):
    """Wall time of main(argv) less the sampler's share; traced when a
    recorder is given."""
    spent = sampler.spent
    t0 = time.perf_counter()
    if recorder is None:
        code = _main(argv)
    else:
        with recorder.installed(), recorder.span(ROOT):
            code = _main(argv)
    return time.perf_counter() - t0 - (sampler.spent - spent), code


def _sampler(recorder):
    """Speed sampler; in a traced process a sample's time is taken out of
    the self time of the span it interrupts."""
    return Sampler(None if recorder is None else recorder.exclude)


def _probe(mu, eta_m):
    try:
        r = afcmem.bounds.threshold_bound(mu, eta_m)
    except ValueError:
        return {"error": "ValueError"}
    return {"bound": r.bound, "degenerate": r.degenerate}


def run_call(spec):
    """One CLI call, then the probes (traced with it, if traced)."""
    recorder = Recorder() if spec["trace"] else None
    with _sampler(recorder) as sampler:
        wall, code = _timed_main(spec["argv"], recorder, sampler)
    scale = sampler.scale()
    rss = _rss_kb()
    if recorder is None:
        probes = [_probe(mu, eta_m) for mu, eta_m in spec["probes"]]
    else:
        with recorder.installed():
            probes = [_probe(mu, eta_m) for mu, eta_m in spec["probes"]]
        recorder.rescale(0, scale)
        recorder.write(spec["spans"])
    return {"cmd_s": wall * scale, "wall_s": wall, "scale": scale, "exit": code, "rss_kb": rss,
            "probes": probes}


def sweep_round(seed, r):
    """argv tails (--seed, --mu) and per-mode photon numbers of round r."""
    rng = np.random.default_rng([seed, r])
    calls = []
    for i in range(SWEEP_ROUND):
        call_seed = int(rng.integers(1, 2 ** 62))
        if i < SWEEP_ROUND - 1:
            mus = [float(f"{np.exp(rng.uniform(np.log(0.5), np.log(10.0))):.6g}")] * 5
            mu_arg = f"{mus[0]:.6g}"
        else:
            mus = [float(f"{m:.6g}") for m in rng.uniform(0.5, 5.0, 5)]
            mu_arg = ",".join(f"{m:.6g}" for m in mus)
        calls.append((["--seed", str(call_seed), "--mu", mu_arg], mus))
    return calls


def run_sweep(spec):
    import checks

    recorder = Recorder() if spec["trace"] else None
    times = {"untraced": [], "traced": []}
    walls, scales = [], []  # raw wall time and speed factor of each untraced call
    failed, problems, rss = 0, [], 0
    z = {"eta": [], "p_n": [], "fidelity": []}
    n = 0
    start = time.perf_counter()
    r = 0
    while r < 2 or time.perf_counter() - start < spec["seconds"]:
        first = len(recorder.spans) if recorder is not None else 0
        done = []
        with _sampler(recorder) as sampler:
            for tail, mus in sweep_round(spec["seed"], r):
                traced = recorder is not None and n % 2 == 1
                wall, code = _timed_main(["simulate", "--out", spec["out"]] + tail,
                                         recorder if traced else None, sampler)
                n += 1
                rss = max(rss, _rss_kb())
                if code != 0:
                    failed += 1
                    continue
                done.append(("traced" if traced else "untraced", wall))
                found, zs = checks.check_simulate(spec["out"], mus)
                problems += found
                for q, v in zs.items():
                    z[q].append(v)
        # a call is about one sampling period long, so the round shares one scale
        scale = sampler.scale()
        for kind, wall in done:
            times[kind].append(wall * scale)
            if kind == "untraced":
                walls.append(wall)
                scales.append(scale)
        if recorder is not None:
            recorder.rescale(first, scale)
        r += 1
    problems += checks.check_z_scores(z)
    if recorder is not None:
        recorder.write(spec["spans"])
    return {"attempted": n, "failed": failed, "rss_kb": rss, "times": times, "walls": walls,
            "scales": scales, "problems": problems}


def main():
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if not os.path.realpath(afcmem.cli.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"afcmem imported from {afcmem.cli.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    report = run_call(spec) if mode == "call" else run_sweep(spec)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
