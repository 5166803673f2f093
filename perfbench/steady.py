"""Steadiness check: run workloads repeatedly, one seed per run, and
print each end-to-end metric's median and quartiles next to its bound.

Run from the repository root::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads rewrite_rand --runs 5 --first-seed 100

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; a
metric is ``steady`` when its spread is below a third of its bound.
The share of failed operations must be the same in every run.  Exits
1 when a run fails, reports ``"correct": false``, a spread exceeds its
bound, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        lines = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            line = json.loads(done.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            lines.append(line)
            notes = [n for n in done.stderr.splitlines() if "stolen" in n]
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()
            ) + "".join(f"\n    {n}" for n in notes), flush=True)
        ok &= report(workload, lines, bounds)
    return 0 if ok else 1


def report(workload: str, lines: list[dict], bounds: dict) -> bool:
    ok = True
    shares = {(line["failed"], line["attempted"]) for line in lines}
    failed_shares = {f / a for f, a in shares}
    incorrect = [line["seed"] for line in lines if not line["correct"]]
    print(f"\n{workload}: {len(lines)} runs, failed/attempted {sorted(shares)}")
    if incorrect:
        print(f"  INCORRECT on seeds {incorrect}")
        ok = False
    if len(failed_shares) > 1:
        print("  FAILED SHARE DIFFERS between runs")
        ok = False
    print(f"  {'metric':14s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>7s}")
    for name, bound in bounds.items():
        values = [line["metrics"][name]["value"] for line in lines]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
        if verdict == "TOO WIDE":
            ok = False
        print(f"  {name:14s} {q1:12.6g} {median:12.6g} {q3:12.6g} {spread:8.3f} {bound:7.3f}  {verdict}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
