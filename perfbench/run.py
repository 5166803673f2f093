"""Benchmark command: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload table1_npn4 --seed 1 --seconds 10 --trace 0

Workloads: ``table1_npn4``, ``serve_warm``, ``rewrite_rand`` (see
README.md).  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics and the spans go to ``.perfbench_traces/``.  A run
whose outputs fail a check reports ``"correct": false``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Workload name -> the module that runs it.
WORKLOADS = {"table1_npn4": "wl_table1", "serve_warm": "wl_serve", "rewrite_rand": "wl_rewrite"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    from common import END_TO_END, PER_LAYER, Context

    module = WORKLOADS[args.workload]
    workload = importlib.import_module(module)
    ctx = Context(
        workload=args.workload,
        module=module,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=ROOT,
        started=STARTED,
        imported=time.perf_counter(),
    )
    try:
        result = workload.run(ctx)
    finally:
        ctx.cleanup()

    names = PER_LAYER if ctx.trace else END_TO_END
    unknown = set(result.metrics) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from the declared set: {sorted(unknown)}")
    for note in result.notes:
        print(f"# {note}", file=sys.stderr)
    for error in result.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    print(f"attempted {result.attempted}  failed {result.failed}", file=sys.stderr)
    line = {
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
