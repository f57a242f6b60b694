#!/usr/bin/env python3
"""Host-speed drift, the noise floor behind the benchmark's bounds.

Times a fixed CPU-bound kernel repeatedly for --seconds, then reports the
coefficient of variation of the kernel's time when averaged over windows
of increasing length, and the spread (Q3 - Q1) / median of window means
of the benchmark's own run length.

    python3 perfbench/noise.py --seconds 60 --out perfbench/steadiness/noise.json
"""

import argparse
import json
import statistics
import time


def kernel():
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    samples = []  # (end time, kernel seconds)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        t = time.perf_counter()
        kernel()
        now = time.perf_counter()
        samples.append((now - start, now - t))

    def window_means(width):
        buckets = {}
        for end, dt in samples:
            buckets.setdefault(int(end // width), []).append(dt)
        full = sorted(buckets)[:-1] or sorted(buckets)
        return [statistics.mean(buckets[k]) for k in full]

    report = {"seconds": args.seconds, "kernel_ms": 1e3 * statistics.median(
        dt for _, dt in samples), "windows": {}}
    # The last width is the benchmark's run length (BENCHMARK.json).
    for width in [0.05, 0.5, 1.0, 3.0, 5.0, 20.0]:
        means = window_means(width)
        if len(means) < 2:
            continue
        row = {
            "n": len(means),
            "cv": statistics.stdev(means) / statistics.mean(means),
            "min_ms": 1e3 * min(means),
            "max_ms": 1e3 * max(means),
        }
        if len(means) >= 4:
            q1, med, q3 = statistics.quantiles(means, n=4)
            row["spread"] = (q3 - q1) / med
        report["windows"][str(width)] = row
        print(f"window {width:5} s: n={row['n']:5}  cv={row['cv']:.4f}  "
              f"range {row['min_ms']:.3f}-{row['max_ms']:.3f} ms"
              + (f"  spread {row['spread']:.4f}" if "spread" in row else ""))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
