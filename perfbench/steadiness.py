"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload resolve-hot --seeds 1-10
    python3 perfbench/steadiness.py --workload resolve-hot --seeds 1,1,1 --seeds-b 2,2,2

For every end-to-end metric it prints the median and the spread (the
distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, divided by the
median) next to the metric's bound from ``BENCHMARK.json``.  With
``--seeds-b`` it also runs a second seed set and reports how far the
second median lies from the first, as a share of the first, so a
held-out seed can be checked against the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> "list[int]":
    if "-" in text and "," not in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values: "list[float]") -> "tuple[float, float]":
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def _series(workload: str, seeds, seconds: int, trace: int) -> dict:
    series: "dict[str, list[float]]" = {}
    for seed in seeds:
        result = run_once(workload, seed, seconds, trace)
        print(f"  seed {seed}: {result['wall_s']:.1f} s wall, "
              f"{result['attempted']} ops, correct={result['correct']}",
              flush=True)
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
    return series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--seeds-b", type=_seeds, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]

    first = _series(args.workload, args.seeds, seconds, args.trace)
    second = None
    if args.seeds_b:
        second = _series(args.workload, args.seeds_b, seconds, args.trace)
    for name, values in first.items():
        median, share = spread(values)
        bound = bounds.get(name)
        line = f"{name:28s} median {median:12.6g}  spread {share:6.3f}"
        if bound is not None:
            line += f"  bound {bound:.3f}  ({share / bound:.2f} of bound)"
        if second is not None:
            other, other_share = spread(second[name])
            line += (f"  | B median {other:12.6g} spread {other_share:6.3f}"
                     f"  shift {(other - median) / median:+.3f}")
        print(line)
        print("    " + " ".join(f"{v:.4g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
