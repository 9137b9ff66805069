"""End-to-end benchmark of the afcmem CLI.

    python3 perfbench/run.py --workload reproduce|bound-scan|simulate-sweep
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; afcmem is imported from its src/.
Workloads:

  reproduce       reproduce-paper --seed N, each call in a fresh
                  interpreter; every call after the first must write
                  the same bytes.
  bound-scan      the bounds command at its default grid, each call in
                  a fresh interpreter, followed in the same process by
                  threshold_bound probes: five at fixed high mu (the
                  range edge) and five at photon numbers drawn from N.
  simulate-sweep  simulate calls in one process, each with its own
                  seed and photon numbers drawn from N.

Each workload repeats whole rounds until S seconds have passed (at
least two rounds) and checks every output against oracle.py. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of spans.py. The last stdout line is the JSON result.
The line before it is {"calibration": {...}}: the mean speed factor of
calib.py that turned the untraced command times (and, untraced, the
set-up times) into reference seconds, and their raw median wall times,
so a gap in cmd_s or setup_s can be told apart from a gap in the factor.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("reproduce", "bound-scan", "simulate-sweep")
SETUP_REPEATS = 8  # before the workload and again after it
DEADLINE_S = 170  # a run must end within 180 s; children are killed past this
# threshold_bound(mu, 0.0385) past the table cap of afcmem.bounds._poisson_pmf;
# mu = 300 is inside it
RANGE_PROBES = ((300.0, checks.ETA_M), (400.0, checks.ETA_M), (450.0, checks.ETA_M),
                (480.0, checks.ETA_M), (550.0, checks.ETA_M))
SEEDED_PROBES = 5


class Bench:
    def __init__(self, root, workload, seed, seconds, trace):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.problems = []
        self.attempted = self.failed = 0
        self.times = {"untraced": [], "traced": []}
        self.walls, self.scales = [], []  # raw wall time and speed factor per untraced call
        self.rss_kb = 0
        self.span_files = []
        self.deadline = time.perf_counter() + DEADLINE_S

    def timeout(self):
        return max(1.0, self.deadline - time.perf_counter())

    def child(self, mode, spec):
        spec = dict(spec, src=self.src)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(spec)],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=self.timeout())
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_samples(self, n):
        """(reference seconds, wall seconds, speed factor) of n fresh
        interpreters that import afcmem.cli and load the default config,
        each bracketed by calibration."""
        code = "import afcmem.cli as c; c.load_config(None)"
        samples = []
        for _ in range(n):
            bracket = calib.Bracket()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env, check=True,
                           timeout=self.timeout())
            wall, scale = time.perf_counter() - t0, bracket.scale()
            samples.append((wall * scale, wall, scale))
        return samples

    def command(self, r, argv, out, probes=()):
        """Round r's CLI call in a fresh interpreter; odd rounds are traced
        in a traced run."""
        traced = self.trace and r % 2 == 1
        span_file = os.path.join(self.work, f"spans-{r}.json")
        rep = self.child("call", {"argv": argv + ["--out", out], "trace": traced,
                                  "spans": span_file, "probes": list(probes)})
        self.rss_kb = max(self.rss_kb, rep["rss_kb"])
        if traced:
            self.span_files.append(span_file)
        if rep["exit"] != 0:
            self.failed += 1
        elif traced:
            self.times["traced"].append(rep["cmd_s"])
        else:
            self.times["untraced"].append(rep["cmd_s"])
            self.walls.append(rep["wall_s"])
            self.scales.append(rep["scale"])
        return rep

    def rounds(self, one_round):
        start, r = time.perf_counter(), 0
        while r < 2 or time.perf_counter() - start < self.seconds:
            one_round(r)
            r += 1

    def run_repeated(self, argv, check_outputs, probes=lambda r: ((), ())):
        """Rounds of one command, each in a fresh interpreter. The outputs
        of the first call that succeeds are checked; every later call must
        write the same bytes. probes(r) gives round r's (range, seeded)
        threshold_bound probes."""
        reference = None

        def one_round(r):
            nonlocal reference
            ranged, seeded = probes(r)
            out = os.path.join(self.work, f"out-{r}")
            self.attempted += 1 + len(ranged) + len(seeded)
            rep = self.command(r, argv, out, ranged + seeded)
            for (mu, eta_m), res in zip(ranged, rep["probes"]):
                if not checks.probe_passes(mu, eta_m, res):
                    self.failed += 1
            for (mu, eta_m), res in zip(seeded, rep["probes"][len(ranged):]):
                if not checks.probe_passes(mu, eta_m, res):
                    self.problems.append(f"threshold_bound({mu}, {eta_m}) = {res} disagrees with the oracle")
            if rep["exit"] != 0:
                return
            if reference is None:
                reference = out
                self.problems += check_outputs(out)
            else:
                self.problems += checks.same_tree(reference, out)
                shutil.rmtree(out)

        self.rounds(one_round)

    def run_reproduce(self):
        self.run_repeated(["reproduce-paper", "--seed", str(self.seed)], checks.check_reproduce)

    def run_bound_scan(self):
        def probes(r):
            rng = np.random.default_rng([self.seed, r])
            seeded = tuple((float(np.exp(rng.uniform(np.log(0.5), np.log(250.0)))),
                            float(np.exp(rng.uniform(np.log(0.01), np.log(0.5)))))
                           for _ in range(SEEDED_PROBES))
            return RANGE_PROBES, seeded

        self.run_repeated(["bounds"], checks.check_bounds, probes)

    def run_simulate_sweep(self):
        span_file = os.path.join(self.work, "spans-sweep.json")
        rep = self.child("sweep", {"seed": self.seed, "seconds": self.seconds, "trace": self.trace,
                                   "spans": span_file, "out": os.path.join(self.work, "out")})
        self.attempted, self.failed = rep["attempted"], rep["failed"]
        self.times, self.rss_kb = rep["times"], rep["rss_kb"]
        self.walls, self.scales = rep["walls"], rep["scales"]
        self.problems += rep["problems"]
        if self.trace:
            self.span_files.append(span_file)

    def run(self):
        os.makedirs(self.work)
        try:
            # the first start may compile bytecode and is not counted
            setup = [] if self.trace else self.setup_samples(1 + SETUP_REPEATS)[1:]
            {"reproduce": self.run_reproduce, "bound-scan": self.run_bound_scan,
             "simulate-sweep": self.run_simulate_sweep}[self.workload]()
            calibration = {"scale": statistics.mean(self.scales),
                           "cmd_wall_s": statistics.median(self.walls)}
            if self.trace:
                metrics = self.layer_metrics()
            else:
                setup += self.setup_samples(SETUP_REPEATS)
                scaled, walls, scales = zip(*setup)
                calibration.update(setup_scale=statistics.mean(scales),
                                   setup_wall_s=statistics.median(walls))
                metrics = {
                    "cmd_s": {"value": statistics.median(self.times["untraced"]), "unit": "s"},
                    "setup_s": {"value": statistics.median(scaled), "unit": "s"},
                    "peak_rss_mb": {"value": self.rss_kb / 1024.0, "unit": "MB"},
                }
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        for p in self.problems:
            print(f"check failed: {p}", file=sys.stderr)
        result = {"correct": not self.problems, "attempted": self.attempted, "failed": self.failed,
                  "metrics": metrics}
        return calibration, result

    def layer_metrics(self):
        recorded = []
        for path in self.span_files:
            with open(path) as fh:
                recorded.append(json.load(fh))
        traced, untraced = self.times["traced"], self.times["untraced"]
        overhead = statistics.median(traced) - statistics.median(untraced)
        values = spans.layer_metrics(recorded, len(traced), overhead)
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in spans.LAYER_METRICS.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "afcmem", "cli.py")):
        print(f"no afcmem source tree under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    calibration, result = bench.run()
    print(json.dumps({"calibration": calibration}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
