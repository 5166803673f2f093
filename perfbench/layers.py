"""Per-layer metrics derived from spans and from the counters the
program already returns (``SynthesisStats.to_record()`` dicts)."""

from __future__ import annotations

import statistics

from spans import Tracer, percentile, ratio

STAGES = ("search", "topology", "expand", "finalize")
KERNELS = ("fact_quartering_batch", "fact_quartering", "chain_allsat", "tt_support")


def pipeline_metrics(records: list[dict], solutions: list[tuple[int, int]]) -> dict:
    """Pipeline, kernel and synthesis-cache metrics summed over the
    stats records of every synthesis run.

    ``solutions`` holds ``(num_gates, num_solutions)`` per run: a normal
    chain of ``r`` gates expands into ``2^(r-1)`` optimal chains, so
    the distinct normal solutions are recovered from the final count.
    """
    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"pipeline.{stage}_s"] = sum(
            r.get("stage_seconds", {}).get(stage, 0.0) for r in records
        )
    for key in ("dags_examined", "dags_pruned_dsd", "candidates_generated"):
        out[f"pipeline.{key}"] = sum(r.get(key, 0) for r in records)
    normal = sum(count / (1 << max(0, gates - 1)) for gates, count in solutions if gates > 0)
    out["pipeline.candidate_yield"] = ratio(normal, out["pipeline.candidates_generated"])
    kernel_s = sum(sum(r.get("kernel_seconds", {}).values()) for r in records)
    out["kernels.timed_s"] = kernel_s
    out["pipeline.bookkeeping_s"] = out["pipeline.search_s"] - kernel_s
    for name in KERNELS:
        out[f"kernels.calls.{name}"] = sum(
            r.get("kernel_calls", {}).get(name, 0) for r in records
        )
    for cache in ("topology", "factorization"):
        hits = sum(r.get("cache_hits", {}).get(cache, 0) for r in records)
        misses = sum(r.get("cache_misses", {}).get(cache, 0) for r in records)
        out[f"cache.{cache}.lookups"] = hits + misses
        out[f"cache.{cache}.hit_ratio"] = ratio(hits, hits + misses)
    out["verify.calls"] = sum(r.get("candidates_verified", 0) for r in records)
    return out


def count_chains(record, args, kwargs, found) -> None:
    """``Tracer.wrap`` hook for ``ChainStore.lookup``: the number of
    chains the lookup rebuilt (0 on a miss)."""
    record["chains"] = len(found.chains) if found is not None else 0


def store_metrics(tracer: Tracer, served: int | None = None) -> dict:
    """Store metrics from ``store.lookup`` / ``store.put`` spans.

    Lookup spans carry ``chains`` (chains rebuilt; 0 on a miss);
    ``served`` is how many of them reached a caller (all, when None).
    """
    lookups = [s for s in tracer.spans if s["name"] == "store.lookup"]
    times = [(s["end"] - s["start"]) * 1e3 for s in lookups]
    hits = [s for s in lookups if s.get("chains", 0) > 0]
    rebuilt = sum(s["chains"] for s in hits)
    puts = [d * 1e3 for d in tracer.durations("store.put")]
    return {
        "store.lookups": len(lookups),
        "store.hit_ratio": ratio(len(hits), len(lookups)),
        "store.lookup_ms.p50": percentile(times, 0.5),
        "store.lookup_ms.max": max(times, default=0.0),
        "store.chains_rebuilt": rebuilt,
        "store.chains_rebuilt_per_lookup": ratio(rebuilt, len(hits)),
        "store.rebuild_yield": ratio(rebuilt if served is None else served, rebuilt),
        "store.puts": len(puts),
        "store.put_ms": percentile(puts, 0.5),
    }


def span_p50(tracer: Tracer, name: str, scale: float) -> float:
    """Median duration of the spans called ``name``, times ``scale``."""
    durations = tracer.durations(name)
    return statistics.median(durations) * scale if durations else 0.0
