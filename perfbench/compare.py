"""Summarize one set of benchmark results, or compare two.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds result files written by collect.py
(<workload>-seed<n>-trace<t>.json). With one directory it prints, per
workload and metric, the median, quartiles and spread (quartile
distance over median) against the metric's bound. With two it pairs
runs by file name and prints both sides, the share of pairs the change
won, and a verdict:

  improved    the change won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              quartile distance
  worse       the change's median is worse than the base's by more than
              the bound (per-layer metrics, which have no bound: lost 9
              of 10 pairs by more than the quartile distance)
  unresolved  the base's spread is wider than the bound and not every
              change run beats every base run (per-layer: neither of
              the above, but the medians differ by more than the base's
              quartile distance)
  no worse    otherwise

The failed-operation share of each side is printed per workload, and
so is the calibration of each side (calib.py): the median over runs of
the speed factor that turned wall seconds into reference seconds, and
of the raw wall times. When the two sides' factor medians differ by
more than the wider of their quartile distances, a WARNING says that a
gap in cmd_s or setup_s may come from the machine, not the program.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: dict(m, bound=None) for m in spec["per_layer"]})
    return metrics


def load_results(directory):
    """{workload, with traced runs apart: {file name: result}}"""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            group = name.split("-seed")[0] + ("" if name.endswith("-trace0.json") else " (traced)")
            with open(os.path.join(directory, name)) as fh:
                out.setdefault(group, {})[name] = json.loads(fh.read())
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


CALIBRATION = ("scale", "cmd_wall_s", "setup_scale", "setup_wall_s")


def calibration_values(results, key):
    return [r["calibration"][key] for r in results.values() if key in r.get("calibration", {})]


def summarize_calibration(runs):
    for key in CALIBRATION:
        vals = calibration_values(runs, key)
        if vals:
            q1, med, q3 = quartiles(vals)
            print(f"  calibration {key:43s} {med:12.6g} [{q1:.6g}, {q3:.6g}]")


def compare_calibration(b_runs, c_runs):
    for key in CALIBRATION:
        b_vals, c_vals = calibration_values(b_runs, key), calibration_values(c_runs, key)
        if not b_vals or not c_vals:
            continue
        bq, cq = quartiles(b_vals), quartiles(c_vals)
        warn = ""
        if key.endswith("scale") and abs(cq[1] - bq[1]) > max(bq[2] - bq[0], cq[2] - cq[0]):
            warn = "  WARNING: factors differ by more than their quartile distance"
        print(f"  calibration {key:43s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]{warn}")


def failed_share(results):
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return f"{failed}/{attempted} failed"


def verdict(spec, base, change, pairs):
    lower = spec["better"] == "lower"
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    worse_by = (c_med - b_med) if lower else (b_med - c_med)
    iqr = b_q3 - b_q1
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    losses = sum((c > b) if lower else (c < b) for b, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > iqr:
        return wins, "improved"
    bound = spec["bound"]
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and worse_by > iqr:
            return wins, "worse"
        return wins, "unresolved" if abs(worse_by) > iqr else "no worse"
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if iqr > bound * abs(b_med) and not all_better:
        return wins, "unresolved"
    return wins, "worse" if worse_by > bound * abs(b_med) else "no worse"


def values_of(results, metric):
    return [r["metrics"][metric]["value"] for r in results.values() if metric in r["metrics"]]


def summarize(specs, results):
    for workload, runs in results.items():
        print(f"{workload}: {len(runs)} runs, {failed_share(runs)}, "
              f"correct in {sum(r['correct'] for r in runs.values())}")
        summarize_calibration(runs)
        for metric, spec in specs.items():
            vals = values_of(runs, metric)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = spec["bound"]
            note = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'TOO WIDE'}"
            print(f"  {metric:55s} {med:12.6g} [{q1:.6g}, {q3:.6g}] {spec['unit']:6s} spread {spread:.3f}{note}")


def compare(specs, base, change):
    for workload in base:
        if workload not in change:
            continue
        b_runs, c_runs = base[workload], change[workload]
        print(f"{workload}: base {failed_share(b_runs)}, change {failed_share(c_runs)}")
        compare_calibration(b_runs, c_runs)
        for metric, spec in specs.items():
            b_vals, c_vals = values_of(b_runs, metric), values_of(c_runs, metric)
            if not b_vals or not c_vals:
                continue
            pairs = [(b_runs[n]["metrics"][metric]["value"], c_runs[n]["metrics"][metric]["value"])
                     for n in b_runs if n in c_runs and metric in c_runs[n]["metrics"]]
            wins, word = verdict(spec, b_vals, c_vals, pairs)
            bq, cq = quartiles(b_vals), quartiles(c_vals)
            print(f"  {metric:55s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {spec['unit']}  "
                  f"won {wins}/{len(pairs)}  {word}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = load_spec()
    if len(argv) == 1:
        summarize(specs, load_results(argv[0]))
    else:
        compare(specs, load_results(argv[0]), load_results(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
