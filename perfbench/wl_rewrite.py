"""``rewrite_rand``: store-backed rewriting of random LUT networks.

One round rewrites every network of :func:`inputs.rewrite_networks`
in order with ``rewrite_with_store`` (cut size 4, 5 s per cut, the
``stp`` engine), in this process, against a store that starts empty.
Each round draws fresh labels for the same network structures.
"""

from __future__ import annotations

import glob
import os
import random
import statistics
import time
from contextlib import nullcontext

import inputs
import layers
import oracle
from common import Context, Result, peak_rss_mb, rounds, steal_share, steal_ticks, timed_setups
from repro.cache import get_cache
from repro.network import rewrite as rewrite_mod
from repro.network.network import LogicNetwork
from repro.store import ChainStore
from repro.truthtable.table import TruthTable
from spans import Tracer, percentile

TIMEOUT_PER_CUT = 5.0
#: What ``cut_function`` raises when a cut went stale during the pass.
STALE_CUT = "reached outside the cut"
#: Every run rewrites at least this many rounds of 30 networks, each
#: round under fresh seeded labels.
MIN_ROUNDS = 3
#: The tail percentile (at least 18 of the run's 90 or more rewrites lie
#: beyond it), reported by the traced run.
TAIL = 0.80


def _round_inputs(rng: random.Random) -> tuple[list[dict], list[list[int]]]:
    """One round's networks and the oracle's PO tables for each."""
    nets = inputs.rewrite_networks(rng)
    return nets, [inputs.network_tables(net) for net in nets]


def _build(net: dict):
    network = LogicNetwork()
    ids = [network.add_pi() for _ in range(net["pis"])]
    for fanins, op in net["nodes"]:
        ids.append(network.add_node(TruthTable(op, 2), [ids[f] for f in fanins]))
    for signal, complemented in net["pos"]:
        network.add_po(ids[signal], complemented)
    return network


def _oracle_view(network) -> tuple[int, list[int]]:
    """LUTs reachable from the POs, and the PO tables, by the oracle."""
    nodes: dict[int, tuple] = {}
    pis = set(network.pis)
    stack = [uid for uid, _ in network.pos]
    while stack:
        uid = stack.pop()
        if uid in pis or uid in nodes:
            continue
        node = network.node(uid)
        nodes[uid] = (node.fanins, node.function.bits)
        stack.extend(node.fanins)
    tables = oracle.simulate_network(len(network.pis), nodes, network.pis, network.pos)
    return len(nodes), tables


def run(ctx: Context) -> Result:
    def prepare():
        rng = random.Random(ctx.seed)
        return rng, _round_inputs(rng)

    (rng, (nets, expected)), setup_s = timed_setups(ctx, prepare, lambda _: None)

    tracer = Tracer() if ctx.trace else None
    executor_runs: list[tuple[dict, object]] = []
    if tracer is not None:
        _install(tracer, executor_runs)
    npn = get_cache().npn
    npn_before = (npn.hits, npn.misses)

    result = Result()
    latencies: list[float] = []
    walls: list[float] = []
    luts_after: list[int] = []
    cuts_tried = replacements = 0
    steal_before = steal_ticks()
    try:
        for number in rounds(ctx, minimum=MIN_ROUNDS):
            if number:
                nets, expected = _round_inputs(rng)
            store_path = os.path.join(ctx.workdir, f"round{number}.db")
            round_start = time.perf_counter()
            store = ChainStore(store_path)
            outcomes = []
            for net in nets:
                network = _build(net)
                start = time.perf_counter()
                try:
                    with tracer.span("network.rewrite") if tracer else nullcontext():
                        rewritten = rewrite_mod.rewrite_with_store(
                            network, store, timeout_per_cut=TIMEOUT_PER_CUT, engines=("stp",)
                        )
                    outcomes.append(network)
                    cuts_tried += rewritten.cuts_tried
                    replacements += rewritten.replacements
                except ValueError as exc:
                    if STALE_CUT not in str(exc):
                        raise
                    outcomes.append(None)
                latencies.append(time.perf_counter() - start)
            store.close()
            walls.append(time.perf_counter() - round_start)
            for path in glob.glob(store_path + "*"):
                os.remove(path)

            total = 0
            for index, (net, network) in enumerate(zip(nets, outcomes)):
                result.attempted += 1
                if network is None:
                    result.failed += 1
                    total += len(net["nodes"])
                    continue
                count, tables = _oracle_view(network)
                total += count
                result.check(
                    tables == expected[index],
                    f"round {number} network {index}: rewritten network differs from its input",
                )
                result.check(
                    count <= len(net["nodes"]),
                    f"round {number} network {index}: grew from {len(net['nodes'])} to {count} LUTs",
                )
            luts_after.append(total)
    finally:
        if tracer is not None:
            tracer.restore()

    steal = steal_share(steal_before, steal_ticks())
    tail_ms = percentile(latencies, TAIL) * 1e3
    # A network's latency is its median over the rounds: a full
    # garbage collection lands on about one rewrite in four, and taking
    # the median over a network's rewrites keeps single pauses out.
    per_network = [statistics.median(latencies[i :: len(nets)]) for i in range(len(nets))]
    failing = [i for i, network in enumerate(outcomes) if network is None]
    result.notes.append(
        f"{len(walls)} round(s) of {len(nets)} networks; stale-cut failures on networks "
        f"{failing}; LUTs after each round {luts_after}; p{TAIL * 100:.0f} {tail_ms:.1f} ms; "
        f"{steal:.1%} of CPU time stolen by the host"
    )
    if tracer is None:
        result.metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "p50_ms": statistics.median(per_network) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "luts_after": statistics.median(luts_after),
        }
        return result

    result.metrics = _layer_metrics(
        tracer, executor_runs, npn, npn_before, walls, cuts_tried, replacements
    )
    result.metrics.update({"latency.tail_ms": tail_ms, "host.steal_share": steal})
    tracer.write(ctx.trace_path())
    result.notes += tracer.summary()
    return result


def _install(tracer, executor_runs) -> None:
    import repro.cache.npn as cache_npn
    import repro.core.pipeline as pipeline
    import repro.store.chainstore as chainstore
    from repro.runtime.executor import FaultTolerantExecutor

    def keep_outcome(record, args, kwargs, outcome):
        executor_runs.append((record, outcome))

    tracer.wrap(rewrite_mod, "enumerate_cuts", "network.enumerate_cuts")
    tracer.wrap(rewrite_mod, "cut_function", "network.cut_function")
    tracer.wrap(LogicNetwork, "simulate", "network.simulate")
    tracer.wrap(ChainStore, "lookup", "store.lookup", layers.count_chains)
    tracer.wrap(ChainStore, "put", "store.put")
    tracer.wrap(FaultTolerantExecutor, "run", "runtime.attempt", keep_outcome)
    tracer.wrap(chainstore, "verify_chain", "verify")
    tracer.wrap(pipeline, "verify_chain", "verify")
    tracer.wrap(cache_npn, "canonicalize", "npn.canonicalize")


def _layer_metrics(tracer, executor_runs, npn, npn_before, walls, cuts_tried, replacements):
    synthesized = [
        (record, outcome) for record, outcome in executor_runs if outcome.engine != "store"
    ]
    duration = lambda record: record["end"] - record["start"]  # noqa: E731
    records, solutions, overheads = [], [], []
    for record, outcome in synthesized:
        if outcome.result is not None:
            records.append(outcome.result.stats.to_record())
            solutions.append((outcome.result.num_gates, outcome.result.num_solutions))
            overheads.append(duration(record) - outcome.result.runtime)
    timeouts = [duration(r) for r, o in executor_runs if o.status == "timeout"]
    metrics = layers.pipeline_metrics(records, solutions)
    hits, misses = npn.hits - npn_before[0], npn.misses - npn_before[1]
    verify = tracer.durations("verify")
    metrics.update(layers.store_metrics(tracer))
    metrics.update(
        {
            "cache.npn.lookups": hits + misses,
            "cache.npn.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.attempt_overhead_ms": statistics.median(overheads) * 1e3
            if overheads
            else 0.0,
            "runtime.instance_p50_ms": layers.span_p50(tracer, "runtime.attempt", 1e3),
            "runtime.synth_calls": len(synthesized),
            "runtime.synth_s": sum(duration(r) for r, _ in synthesized),
            "runtime.timeouts": len(timeouts),
            "runtime.timeout_s": sum(timeouts),
            "npn.canonicalize_calls": len(tracer.durations("npn.canonicalize")),
            "npn.canonicalize_us": layers.span_p50(tracer, "npn.canonicalize", 1e6),
            "verify.calls": len(verify),
            "verify.ms": statistics.median(verify) * 1e3 if verify else 0.0,
            "network.enumerate_cuts_s": sum(tracer.durations("network.enumerate_cuts")),
            "network.cut_function_s": sum(tracer.durations("network.cut_function")),
            "network.simulate_s": sum(tracer.durations("network.simulate")),
            "network.cuts_tried": cuts_tried,
            "network.replacements": replacements,
            "trace.wall_s": statistics.median(walls),
            "trace.spans": len(tracer.spans),
        }
    )
    return metrics
