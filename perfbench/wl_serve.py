"""``serve_warm``: warm-store requests to ``repro-serve --store``.

Set-up starts the server as its own process and warms its store with
one request per class: every NPN3 class and every 4-input class whose
optimum is at most 4 gates.  The timed phase is a closed loop over 2
keep-alive connections from this process, with the server and this
process bound to the same CPU.  One round asks for one seeded orbit
member of every class, in seeded order; every reply must come from the
store.
"""

from __future__ import annotations

import collections
import glob
import http.client
import itertools
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time

import inputs
import layers
import oracle
from common import (
    Context, Result, cpu_seconds, peak_rss_mb, steal_share, steal_ticks, timed_setups,
)
from spans import Tracer, percentile

CONNECTIONS = 2
#: The tail percentile, reported by the traced run; the timed phase
#: runs until at least MIN_REQUESTS replies are in, so at least 10 lie
#: beyond it.
TAIL = 0.99
MIN_REQUESTS = 1000
#: Chains per reply (the server's default).
MAX_CHAINS = 4
#: Set-ups per run (each starts and warms a server).
SETUP_REPEATS = 3
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class Server:
    """``python -m repro.serve.cli`` over a fresh store in ``directory``."""

    def __init__(self, ctx: Context, directory: str) -> None:
        self.store_path = os.path.join(directory, "serve.db")
        self._log = open(os.path.join(directory, "server.log"), "wb")
        env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "--host", "127.0.0.1",
             "--port", "0", "--store", self.store_path, "--jobs", "2"],
            cwd=ctx.root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.host, self.port = self._banner()
        except BaseException:
            self.stop()
            raise

    def _banner(self) -> tuple[str, int]:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT):
                raise RuntimeError("server did not start listening")
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            raise RuntimeError(f"unexpected server banner {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        return host, int(port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(f"/proc/{self.proc.pid}/status")

    def pin(self, cpu: int) -> None:
        """Bind every thread of the server process to ``cpu``; threads
        it starts later inherit the binding."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), {cpu})

    def stop(self) -> None:
        """SIGTERM, wait for the drain, then remove the store."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def remove_store(self) -> None:
        for path in glob.glob(self.store_path + "*"):
            os.remove(path)


def _body(bits: int, num_vars: int) -> bytes:
    digits = max(1, (1 << num_vars) // 4)
    return json.dumps({"function": f"{bits:0{digits}x}", "vars": num_vars}).encode()


def _post(connection: http.client.HTTPConnection, bits: int, num_vars: int) -> tuple[int, bytes]:
    """One synthesis request on a keep-alive connection.  The
    connection reopens by itself after the server answered
    ``Connection: close``."""
    connection.request(
        "POST", "/synthesize", _body(bits, num_vars), {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, response.read()


def run(ctx: Context) -> Result:
    classes = [(3, rep, cost) for rep, cost in inputs.classes3()]
    classes += [(4, rep, cost) for rep, cost in inputs.CLASSES4_UPTO4]
    result = Result()
    attempts = itertools.count()

    def prepare():
        directory = os.path.join(ctx.workdir, f"setup{next(attempts)}")
        os.makedirs(directory)
        server = Server(ctx, directory)
        try:
            gates = _warm(server, classes, result)
        except BaseException:
            server.stop()
            raise
        return server, gates

    def discard(product):
        server, _ = product
        server.stop()
        server.remove_store()

    (server, warm_gates), setup_s = timed_setups(ctx, prepare, discard, SETUP_REPEATS)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        orbits = [sorted(oracle.npn_orbit(rep, n)) for n, rep, _ in classes]
        # Server and client share one CPU: a request then wakes no other
        # CPU, and latency does not depend on where the OS places their
        # threads or on how often the host deschedules a second CPU.
        server.pin(cpus[0])
        os.sched_setaffinity(0, {cpus[0]})
        steal_before, cpu_before = steal_ticks(), cpu_seconds(server.proc.pid)
        records, walls = _timed_phase(ctx, server, classes, orbits)
        server_cpu = cpu_seconds(server.proc.pid) - cpu_before
        steal = steal_share(steal_before, steal_ticks())
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
        os.sched_setaffinity(0, cpus)

    _check(result, classes, warm_gates, records)
    latencies = [r["latency"] for r in records]
    tail_ms = percentile(latencies, TAIL) * 1e3
    server_cpu_ms = server_cpu / len(records) * 1e3
    result.notes.append(
        f"{len(walls)} round(s), {len(records)} requests over {CONNECTIONS} connections; "
        f"p{TAIL * 100:.0f} {tail_ms:.1f} ms; server CPU {server_cpu_ms:.3f} ms per request; "
        f"{steal:.1%} of CPU time stolen by the host"
    )
    if not ctx.trace:
        result.metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_rss,
            "luts_after": sum(r["gates"] for r in records if r["round"] == 0),
        }
        return result

    tracer = Tracer()
    server_ms = [r["runtime"] * 1e3 for r in records]
    http_ms = [(r["latency"] - r["runtime"]) * 1e3 for r in records]
    result.metrics = _replay(tracer, server.store_path, classes, records)
    result.metrics.update(
        {
            "serve.requests": len(records),
            "serve.server_ms.p50": percentile(server_ms, 0.5),
            "serve.server_ms.p99": percentile(server_ms, TAIL),
            "serve.http_ms": percentile(http_ms, 0.5),
            "serve.server_cpu_ms": server_cpu_ms,
            "latency.tail_ms": tail_ms,
            "host.steal_share": steal,
            "trace.wall_s": statistics.median(walls),
            "trace.spans": len(tracer.spans),
        }
    )
    tracer.write(ctx.trace_path())
    result.notes += tracer.summary()
    return result


def _warm(server: Server, classes, result: Result) -> dict:
    """One request per class; returns the served gate count per class."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=STOP_TIMEOUT)
    gates = {}
    try:
        for n, rep, _ in classes:
            status, payload = _post(connection, rep, n)
            reply = json.loads(payload)
            result.check(status == 200, f"warm-up 0x{rep:x}/{n}: HTTP {status} {reply}")
            gates[(n, rep)] = reply.get("num_gates")
    finally:
        connection.close()
    return gates


def _timed_phase(ctx: Context, server: Server, classes, orbits):
    """Closed loop over ``CONNECTIONS`` connections, whole rounds until
    ``ctx.seconds`` have passed and ``MIN_REQUESTS`` replies are in."""
    rng = random.Random(ctx.seed)
    lock = threading.Lock()
    pending: collections.deque = collections.deque()
    round_start: list[float] = []
    records: list[dict] = []
    started = time.perf_counter()

    def next_request():
        with lock:
            if not pending:
                issued = len(round_start) * len(classes)
                if time.perf_counter() - started >= ctx.seconds and issued >= MIN_REQUESTS:
                    return None
                order = list(range(len(classes)))
                rng.shuffle(order)
                number = len(round_start)
                round_start.append(time.perf_counter())
                for index in order:
                    member = rng.choice(orbits[index])
                    pending.append((number, index, member))
            return pending.popleft()

    def client():
        connection = http.client.HTTPConnection(server.host, server.port, timeout=STOP_TIMEOUT)
        try:
            while (item := next_request()) is not None:
                number, index, member = item
                start = time.perf_counter()
                status, payload = _post(connection, member, classes[index][0])
                end = time.perf_counter()
                records.append(
                    {"round": number, "class": index, "function": member, "status": status,
                     "payload": payload, "latency": end - start, "end": end}
                )
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ends = collections.defaultdict(float)
    for record in records:
        ends[record["round"]] = max(ends[record["round"]], record["end"])
        reply = json.loads(record.pop("payload"))
        record["reply"] = reply
        record["gates"] = reply.get("num_gates", 0)
        record["runtime"] = reply.get("runtime", 0.0)
    if len(records) != len(round_start) * len(classes):
        raise RuntimeError("a client connection stopped before its round ended")
    walls = [ends[number] - start for number, start in enumerate(round_start)]
    return records, walls


def _check(result: Result, classes, warm_gates, records) -> None:
    """Every reply: HTTP 200 from the store, the class's optimum, and
    chains that realize the requested function under the oracle."""
    for (n, rep, cost) in classes:
        got = warm_gates.get((n, rep))
        result.check(got == cost, f"warm-up 0x{rep:x}/{n}: {got} gates, oracle says {cost}")
    for record in records:
        result.attempted += 1
        n, rep, cost = classes[record["class"]]
        reply, member = record["reply"], record["function"]
        where = f"round {record['round']} 0x{member:x}/{n}"
        if record["status"] != 200:
            result.check(False, f"{where}: HTTP {record['status']} {reply}")
            continue
        result.check(reply.get("source") == "store", f"{where}: source {reply.get('source')!r}")
        result.check(record["gates"] == cost, f"{where}: {record['gates']} gates, class has {cost}")
        chains = reply.get("chains") or []
        result.check(bool(chains), f"{where}: no chains")
        for chain in chains:
            if oracle.eval_record(chain) != [member] or len(chain["gates"]) != cost:
                result.check(False, f"{where}: a served chain does not realize it")
                break


def _replay(tracer: Tracer, store_path: str, classes, records) -> dict:
    """The timed request stream again, in this process, against the
    warmed store: canonicalize, ``ChainStore.lookup`` (which re-verifies
    inside) and the service's verification of the first served chain."""
    import repro.store.chainstore as chainstore
    from repro.cache import get_cache
    from repro.core import circuit_sat
    from repro.store import ChainStore
    from repro.truthtable.npn import canonicalize
    from repro.truthtable.table import TruthTable

    npn = get_cache().npn
    before = (npn.hits, npn.misses)
    store = ChainStore(store_path)
    tracer.wrap(ChainStore, "lookup", "store.lookup", layers.count_chains)
    tracer.wrap(chainstore, "verify_chain", "verify")
    served = 0
    try:
        for record in records:
            if record["status"] != 200:
                continue
            function = TruthTable(record["function"], classes[record["class"]][0])
            with tracer.span("serve.replay"):
                with tracer.span("npn.canonicalize"):
                    canonicalize(function)
                found = store.lookup(function)
                chains = found.chains[:MAX_CHAINS]
                served += len(chains)
                with tracer.span("verify"):
                    circuit_sat.verify_chain(chains[0], function)
    finally:
        tracer.restore()
        store.close()
    hits, misses = npn.hits - before[0], npn.misses - before[1]
    verify = tracer.durations("verify")
    metrics = layers.store_metrics(tracer, served)
    metrics.update(
        {
            "cache.npn.lookups": hits + misses,
            "cache.npn.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "npn.canonicalize_calls": len(tracer.durations("npn.canonicalize")),
            "npn.canonicalize_us": layers.span_p50(tracer, "npn.canonicalize", 1e6),
            "verify.calls": len(verify),
            "verify.ms": statistics.median(verify) * 1e3,
        }
    )
    return metrics
