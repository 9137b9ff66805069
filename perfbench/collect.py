"""Run the benchmark over several seeds and store each result.

    python3 perfbench/collect.py OUT_DIR [NAME=CHECKOUT ...] [--seeds 1-10] [--trace 0]

Each NAME=CHECKOUT (default current=.) is the root of a source tree;
this copy of the benchmark measures every one of them, so both sides of
a comparison run identical benchmark code and settings: every workload
of BENCHMARK.json, each run run_seconds long. Runs alternate which side
goes first from one seed to the next. Results go to
OUT_DIR/NAME/<workload>-seed<n>-trace<t>.json: the result line, with
the calibration line of run.py under the key "calibration". compare.py
reads them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out")
    ap.add_argument("sides", nargs="*", default=["current=."])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = [s.split("=", 1) for s in args.sides]
    for name, root in sides:
        os.makedirs(os.path.join(args.out, name), exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for k, seed in enumerate(parse_seeds(args.seeds)):
            for name, root in (sides if k % 2 == 0 else sides[::-1]):
                stem = os.path.join(args.out, name, f"{workload}-seed{seed}-trace{args.trace}")
                proc = subprocess.run([sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                                      cwd=root, capture_output=True, text=True)
                if proc.returncode != 0:
                    with open(stem + ".err", "w") as fh:
                        fh.write(proc.stderr)
                    print(f"{name} {workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    continue
                calibration, line = proc.stdout.strip().splitlines()[-2:]
                result = json.loads(line)
                with open(stem + ".json", "w") as fh:
                    fh.write(json.dumps(dict(result, **json.loads(calibration))) + "\n")
                shown = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()
                                 if not args.trace)
                print(f"{name} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
