#!/usr/bin/env python3
"""Run one workload under several seeds and report, per metric, the
median and the quartile spread (IQR / median) against its bound.

    python3 benchmark/spread.py --workload cold_full --runs 10 [--trace 1]

Run from the root of a checkout, like run.py.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        took = time.perf_counter() - t0
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: rc {out.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} "
              f"in {took:.0f} s", flush=True)
        if out.returncode != 0 or not result["correct"]:
            sys.stderr.write(out.stderr[-2000:])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vs in values.items():
        bound = bounds.get(name)
        spread = benchlib.relative_spread(vs)
        verdict = "" if bound is None else (
            "ok" if spread < bound / 3 else "WIDE" if spread > bound else "near")
        print(f"{name:34s} median {benchlib.median(vs):<14.6g} "
              f"spread {spread:6.3f}  bound {bound}  {verdict}  "
              f"[{' '.join(f'{v:.4g}' for v in vs)}]")


if __name__ == "__main__":
    main()
