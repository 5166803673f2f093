"""``table1_npn4``: the paper's Table I mode through the batch layer.

One round is one ``run_suite`` call, the way ``repro-batch`` makes it:
the ``stp`` engine alone, all optimal chains, 2 forked workers, no
store, over :func:`inputs.table1_functions`.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from functools import partial

import inputs
import layers
import oracle
from common import Context, Result, rounds, steal_share, steal_ticks, timed_setups
from repro.bench import runner
from repro.engine import run_engine
from repro.parallel.scheduler import BatchScheduler
from repro.runtime.executor import FaultTolerantExecutor
from repro.truthtable.table import TruthTable
from spans import Tracer, percentile

JOBS = 2
#: Per-instance budget; the stragglers need about 20 s on 2 cores.
TIMEOUT = 120.0
#: The tail percentile (18 of the 189 instances lie beyond it),
#: reported by the traced run.
TAIL = 0.90


def run(ctx: Context) -> Result:
    def prepare():
        return [TruthTable(bits, 4) for bits in inputs.table1_functions(ctx.seed)]

    functions, setup_s = timed_setups(ctx, prepare, lambda _: None)
    kwargs = {"all_solutions": True}
    algorithm = runner.Algorithm(
        "STP",
        partial(run_engine, "stp", **kwargs),
        all_solutions=True,
        engines=("stp",),
        engine_kwargs={"stp": kwargs},
    )

    # The suite report drops the chains; keep the executor outcomes.
    captured: dict[str, object] = {}
    to_instance = runner._to_instance_outcome

    def capture(outcome, worker=-1):
        captured[outcome.function_hex] = outcome
        return to_instance(outcome, worker=worker)

    runner._to_instance_outcome = capture
    tracer = Tracer() if ctx.trace else None
    schedulers: list = []
    if tracer is not None:
        tracer.wrap(
            BatchScheduler, "run", "parallel.run",
            lambda record, args, kwargs, out: schedulers.append(args[0]),
        )
        tracer.wrap(FaultTolerantExecutor, "run", "runtime.attempt")

    result = Result()
    walls: list[float] = []
    reports = []
    steal_before = steal_ticks()
    try:
        for _ in rounds(ctx):
            captured.clear()
            start = time.perf_counter()
            with tracer.span("bench.run_suite") if tracer else nullcontext():
                report = runner.run_suite("npn4", functions, [algorithm], TIMEOUT, jobs=JOBS)[0]
            walls.append(time.perf_counter() - start)
            reports.append(report)
            _check(result, functions, report, dict(captured))
    finally:
        runner._to_instance_outcome = to_instance
        if tracer is not None:
            tracer.restore()

    steal = steal_share(steal_before, steal_ticks())
    latencies = [o.runtime for report in reports for o in report.outcomes]
    tail_ms = percentile(latencies, TAIL) * 1e3
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result.notes.append(
        f"{len(walls)} round(s); p{TAIL * 100:.0f} of {len(latencies)} instances "
        f"{tail_ms:.1f} ms; {steal:.1%} of CPU time stolen by the host"
    )
    if tracer is None:
        result.metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_rss,
            "luts_after": sum(o.num_gates for o in reports[0].outcomes),
        }
        return result
    result.metrics = _layer_metrics(tracer, reports, captured, schedulers, walls)
    result.metrics.update({"latency.tail_ms": tail_ms, "host.steal_share": steal})
    tracer.write(ctx.trace_path())
    result.notes += tracer.summary()
    return result


def _check(result: Result, functions, report, outcomes: dict) -> None:
    """Every instance solved exactly by ``stp``; every chain realizes its
    target; all members of a class agree on the optimum, which is the
    oracle's, and the optima expanded over their orbits give Knuth's
    counts."""
    costs = dict(inputs.CLASSES4_UPTO4)
    stragglers = {bits: (gates, sols) for bits, gates, sols in inputs.STRAGGLERS}
    optima: dict[int, set] = {}
    for function, instance in zip(functions, report.outcomes):
        result.attempted += 1
        name = f"0x{function.to_hex()}"
        outcome = outcomes.get(function.to_hex())
        if not instance.solved or outcome is None or outcome.result is None:
            result.check(False, f"{name}: {instance.status} {instance.error}")
            continue
        result.check(
            outcome.engine == "stp" and not outcome.fallback_from,
            f"{name}: served by {outcome.engine!r}, not stp",
        )
        chains = outcome.result.chains
        result.check(
            len(chains) == instance.num_solutions > 0,
            f"{name}: {len(chains)} chains for {instance.num_solutions} solutions",
        )
        for chain in chains:
            tables = oracle.eval_chain(
                chain.num_inputs,
                [(g.op, g.fanins) for g in chain.gates],
                chain.outputs,
            )
            if tables != [function.bits] or chain.num_gates != instance.num_gates:
                result.check(False, f"{name}: a returned chain does not realize it")
                break
        if function.bits in stragglers:
            want = stragglers[function.bits]
            got = (instance.num_gates, instance.num_solutions)
            result.check(got == want, f"{name}: (gates, solutions) {got}, expected {want}")
            continue
        canon = min(oracle.npn_orbit(function.bits, 4))
        optima.setdefault(canon, set()).add(instance.num_gates)
    counts = [0] * 5
    for canon, found in optima.items():
        expected = costs[canon]
        result.check(found == {expected}, f"class 0x{canon:04x}: optima {found}, oracle says {expected}")
        if len(found) == 1 and 0 <= min(found) <= 4:
            counts[min(found)] += len(oracle.npn_orbit(canon, 4))
    result.check(
        len(optima) == len(costs) and tuple(counts) == oracle.KNUTH_COST_COUNTS_4[:5],
        f"optima over orbits count {counts}, Knuth has {oracle.KNUTH_COST_COUNTS_4[:5]}",
    )


def _layer_metrics(tracer, reports, captured, schedulers, walls) -> dict:
    outcomes = [o for report in reports for o in report.outcomes]
    records = [o.stats for o in outcomes if o.stats]
    solutions = [(o.num_gates, o.num_solutions) for o in outcomes if o.solved]
    metrics = layers.pipeline_metrics(records, solutions)
    # The child re-verifies inside the pipeline; only the sampled
    # kernel time is returned, so verify.ms is a mean here.
    allsat_calls = sum(r.get("kernel_calls", {}).get("chain_allsat", 0) for r in records)
    allsat_s = sum(r.get("kernel_seconds", {}).get("chain_allsat", 0.0) for r in records)
    engine_runtime = {
        hex_: o.result.runtime for hex_, o in captured.items() if o.result is not None
    }
    overheads = [
        o.runtime - engine_runtime[o.function_hex]
        for o in reports[-1].outcomes
        if o.function_hex in engine_runtime
    ]
    timeouts = [o.runtime for o in outcomes if o.status == "timeout"]
    busy = [w.busy_seconds for s in schedulers for w in s.worker_stats]
    capacity = sum(JOBS * wall for wall in walls)
    metrics.update(
        {
            "verify.ms": allsat_s / allsat_calls * 1e3 if allsat_calls else 0.0,
            "runtime.attempt_overhead_ms": statistics.median(overheads) * 1e3,
            "runtime.instance_p50_ms": statistics.median(o.runtime for o in outcomes) * 1e3,
            "runtime.synth_calls": len(outcomes),
            "runtime.synth_s": sum(o.runtime for o in outcomes),
            "runtime.timeouts": len(timeouts),
            "runtime.timeout_s": sum(timeouts),
            "parallel.busy_s.w0": sum(busy[0::JOBS]),
            "parallel.busy_s.w1": sum(busy[1::JOBS]),
            "parallel.capacity_s": capacity,
            "parallel.utilization": sum(busy) / capacity,
            "trace.wall_s": statistics.median(walls),
            "trace.spans": len(tracer.spans),
        }
    )
    return metrics
