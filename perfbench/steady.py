#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark.

Runs the BENCHMARK.json command once per (workload, seed), one run at a
time, and reports for each end-to-end metric the median, the quartiles
(statistics.quantiles(n=4)), and the quartile spread (Q3 - Q1) as a
share of the median, next to the metric's bound.

    python3 perfbench/steady.py --seeds 100-109 --out perfbench/steadiness/set_a.json

Run it from the repository root. Every run must report correct=true and
failed=0; the script exits non-zero otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("100-109"))
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            t = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                ok = False
                print(out.stderr, file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  + ", ".join(f"{n}={values[n][-1]:.6g}" for n in bounds),
                  flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {
                "median": statistics.median(vals),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "bound": bounds[name],
                "values": vals,
            }
            print(f"  {name:14} median {rows[name]['median']:.6g}  "
                  f"spread {rows[name]['spread']:.4f}  bound {bounds[name]}",
                  flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
