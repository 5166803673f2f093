"""What every workload shares: the run context, its result, metric
names and the helpers that time set-up and rounds."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: End-to-end metrics, reported by every workload (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
    "luts_after": "count",
}

#: Per-layer metrics of the traced run (name -> unit).  A workload
#: that leaves a layer idle reports its metrics as 0.
PER_LAYER = {
    "pipeline.search_s": "s",
    "pipeline.topology_s": "s",
    "pipeline.expand_s": "s",
    "pipeline.finalize_s": "s",
    "pipeline.dags_examined": "count",
    "pipeline.dags_pruned_dsd": "count",
    "pipeline.candidates_generated": "count",
    "pipeline.candidate_yield": "ratio",
    "pipeline.bookkeeping_s": "s",
    "kernels.timed_s": "s",
    "kernels.calls.fact_quartering_batch": "count",
    "kernels.calls.fact_quartering": "count",
    "kernels.calls.chain_allsat": "count",
    "kernels.calls.tt_support": "count",
    "cache.topology.lookups": "count",
    "cache.topology.hit_ratio": "ratio",
    "cache.factorization.lookups": "count",
    "cache.factorization.hit_ratio": "ratio",
    "cache.npn.lookups": "count",
    "cache.npn.hit_ratio": "ratio",
    "runtime.attempt_overhead_ms": "ms",
    "runtime.instance_p50_ms": "ms",
    "runtime.synth_calls": "count",
    "runtime.synth_s": "s",
    "runtime.timeouts": "count",
    "runtime.timeout_s": "s",
    "parallel.busy_s.w0": "s",
    "parallel.busy_s.w1": "s",
    "parallel.capacity_s": "s",
    "parallel.utilization": "ratio",
    "store.lookups": "count",
    "store.hit_ratio": "ratio",
    "store.lookup_ms.p50": "ms",
    "store.lookup_ms.max": "ms",
    "store.chains_rebuilt": "count",
    "store.chains_rebuilt_per_lookup": "count",
    "store.rebuild_yield": "ratio",
    "store.puts": "count",
    "store.put_ms": "ms",
    "npn.canonicalize_calls": "count",
    "npn.canonicalize_us": "us",
    "verify.calls": "count",
    "verify.ms": "ms",
    "serve.requests": "count",
    "serve.server_ms.p50": "ms",
    "serve.server_ms.p99": "ms",
    "serve.http_ms": "ms",
    "network.enumerate_cuts_s": "s",
    "network.cut_function_s": "s",
    "network.simulate_s": "s",
    "network.cuts_tried": "count",
    "network.replacements": "count",
    "latency.tail_ms": "ms",
    "host.steal_share": "ratio",
    "serve.server_cpu_ms": "ms",
    "trace.wall_s": "s",
    "trace.spans": "count",
}

#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 7

#: Run by a fresh interpreter: import a workload module (and through
#: it the program) the way ``run.py`` does, and print the seconds it
#: took from the interpreter's first statement.
_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import sys; "
    "sys.path[:0] = sys.argv[1:3]; __import__(sys.argv[3]); "
    "print(time.perf_counter() - start)"
)


@dataclass
class Context:
    """One benchmark run, as the command line asked for it."""

    workload: str
    #: The module that runs the workload (``wl_*``).
    module: str
    seed: int
    seconds: float
    trace: bool
    root: str
    #: ``perf_counter`` at the first statement of ``run.py`` and after
    #: the workload module was imported.
    started: float
    imported: float

    @property
    def workdir(self) -> str:
        """Scratch directory of this run, inside the checkout."""
        path = os.path.join(self.root, ".perfbench_run", str(os.getpid()))
        os.makedirs(path, exist_ok=True)
        return path

    def cleanup(self) -> None:
        """Remove this run's scratch directory (and the parent, once
        no other run uses it)."""
        parent = os.path.join(self.root, ".perfbench_run")
        shutil.rmtree(os.path.join(parent, str(os.getpid())), ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass

    def trace_path(self) -> str:
        directory = os.path.join(self.root, ".perfbench_traces")
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, f"{self.workload}-seed{self.seed}.jsonl")


@dataclass
class Result:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Record ``message`` as a correctness error unless ``ok``."""
        if ok:
            return
        if len(self.errors) < 20:
            self.errors.append(message)
        elif self.errors[-1] != "...":
            self.errors.append("...")


def import_seconds(ctx: Context) -> float:
    """Seconds a fresh interpreter takes to import the workload module."""
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, here, os.path.join(ctx.root, "src"), ctx.module],
        cwd=ctx.root, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.split()[-1])


def timed_setups(ctx: Context, prepare, discard, repeats: int = SETUP_REPEATS):
    """Set up ``repeats`` times and return the last product of
    ``prepare()`` with ``setup_s``, the median set-up.

    A set-up is the imports plus ``prepare()``: this process's own
    imports for the first, a fresh interpreter's for every other (one
    import is a single sample of a figure the host's noise moves by a
    third).  ``discard`` gets every product but the last.
    """
    durations = []
    product = None
    for attempt in range(repeats):
        imports = ctx.imported - ctx.started
        if attempt:
            discard(product)
            imports = import_seconds(ctx)
        start = time.perf_counter()
        product = prepare()
        durations.append(imports + time.perf_counter() - start)
    return product, statistics.median(durations)


def rounds(ctx: Context, minimum: int = 1):
    """Yield round numbers until ``ctx.seconds`` have passed since the
    first round began and at least ``minimum`` rounds ran."""
    start = time.perf_counter()
    number = 0
    while number < minimum or time.perf_counter() - start < ctx.seconds:
        yield number
        number += 1


def steal_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far, from
    ``/proc/stat``; a share of stolen ticks means the host ran someone
    else on our CPUs."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU ticks stolen between two :func:`steal_ticks`."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(status_path: str = "/proc/self/status") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(status_path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status_path}")
