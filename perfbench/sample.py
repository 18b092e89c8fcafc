"""One benchmark sample, run in a fresh process by ``run.py``.

The parent pins the environment (an empty ``REPRO_CACHE_DIR`` of this
sample's own, the ``REPRO_*`` knobs the workload depends on) and records
the launch time.  This process sets up, stamps the moment the first
timed operation can start, runs the timed window, checks every output
against the reference capture and writes a JSON summary to ``--out``.

Modes: ``untraced`` imports the program unpatched; ``traced`` installs
the layer wrappers of ``layers.py`` during set-up; ``setup`` stops once
set-up is done (extra ``setup_s`` samples).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import resource
import sys
import threading
import time

import workloads


def load_reference(path):
    """``{cell label: {"cell": ..., "value": ...}}`` from the capture."""
    reference = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                reference[record["label"]] = record
    return reference


def check_line(line, reference):
    """Why a ``result`` line differs from the reference, or ``None``."""
    record = json.loads(line)
    if record.get("event") != "result":
        return f"not a result line: {line[:200]}"
    cell = record["cell"]
    label = "|".join(str(cell[field]) for field in (
        "benchmark", "target", "toolchain", "opt_level", "size", "profile",
        "repetitions"))
    expected = reference.get(label)
    if expected is None:
        return f"{label}: no reference result"
    if cell != expected["cell"] or record["value"] != expected["value"]:
        return f"{label}: result differs from the reference"
    return None


class Outcomes:
    """Attempted/failed operation counts plus the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


# ---------------------------------------------------------------------------
# Direct workloads: one cell per direct_lines call, serially.

#: The reference loop's thread CPU time, in ms, at the speed the scaled
#: cold-sweep times are expressed in (about its median on the 2-vCPU host
#: the benchmark was built on).
REFERENCE_LOOP_MS = 2.5


def reference_loop_ms():
    """Thread CPU time, in ms, of a fixed pure-Python loop that calls
    nothing of the program: how fast the host runs the interpreter now."""
    start = time.thread_time()
    total = 0
    for number in range(30_000):
        total += number * number % 7
    return (time.thread_time() - start) * 1e3


def _run_cells(cells, tracer):
    """Run each cell once; returns ``[(CPU time s, lines or error, scale)]``.

    A cell's time is the CPU time this process spent on it.  The cells run
    serially in this single-threaded process and are CPU-bound, so on an
    idle host that equals their wall time (within 3%), but it does not
    grow while the host's scheduler runs another process on the CPU.

    Untraced, :func:`reference_loop_ms` runs just before each cell, and
    the cell's scale is ``REFERENCE_LOOP_MS`` over the loop's time (see
    README.md, "How a run measures").  Traced, the loop does not run (its
    time would read as unattributed) and the scale is ``None``."""
    from repro.service.cells import direct_lines

    records = []
    for spec in cells:
        scale = None if tracer is not None \
            else REFERENCE_LOOP_MS / reference_loop_ms()
        index = tracer.begin("cell", root=spec.label()) \
            if tracer is not None else None
        start = time.process_time()
        try:
            outcome = direct_lines([spec])
        except Exception as exc:  # a failed cell is a counted failure
            outcome = f"{spec.label()}: {type(exc).__name__}: {exc}"
        records.append((time.process_time() - start, outcome, scale))
        if index is not None:
            tracer.end(index)
    return records


def _check_cells(records, reference, outcomes):
    """Each cell's timings in ms (one), ``None`` where the cell failed."""
    latencies = []
    for latency, outcome, _scale in records:
        if isinstance(outcome, str):
            reason = outcome
        elif len(outcome) != 1:
            reason = f"expected 1 result line, got {len(outcome)}"
        else:
            reason = check_line(outcome[0], reference)
        outcomes.record(reason)
        latencies.append([latency * 1e3] if reason is None else None)
    return latencies


def run_direct(workload, args, reference, tracer, ready):
    import repro.service.cells  # noqa: F401  (imported during set-up)

    outcomes = Outcomes()
    ready()
    if args.mode == "setup":
        return {}, outcomes, None
    first = tracer.start_window() if tracer is not None else None
    registry = _registry()
    start = time.perf_counter()
    records = _run_cells(workload.cells, tracer)
    elapsed = time.perf_counter() - start
    latencies = _check_cells(records, reference, outcomes)
    timed = {"window_s": elapsed, "serial": True, "req_ms": latencies,
             "req_cells": [1] * len(latencies)}
    if tracer is None:
        timed["scale"] = [scale for _cpu, _outcome, scale in records]
    return {"timed": timed}, outcomes, (first, elapsed,
                                        _registry_delta(registry), ())


# ---------------------------------------------------------------------------
# Service workload: an in-process SweepServer, and nproc closed-loop clients
# in one client process.

class _ServerThread:
    """A SweepServer on its own event loop in a background thread."""

    def __init__(self, jobs):
        from repro.service.server import SweepServer
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-server", daemon=True)
        self.thread.start()
        self.server = SweepServer(host="127.0.0.1", port=0, jobs=jobs)
        self._call(self.server.start())

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def close(self):
        try:
            self._call(self.server.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=60)
            self.loop.close()


def _client(host, port, payloads, client_id, cursor, results):
    """Closed loop: take the next request, send it, wait for its end."""
    from repro.service.client import ServiceError, request_lines

    while True:
        with cursor["lock"]:
            index = next(cursor["indexes"], None)
        if index is None:
            return
        payload = dict(payloads[index], client=f"perfbench-{client_id}")
        start = time.perf_counter()
        first = None
        lines = []
        try:
            for line in request_lines(host, port, payload, timeout=120.0):
                if first is None and b'"event": "result"' in line:
                    first = time.perf_counter() - start
                lines.append(line)
            outcome = lines
        except (ServiceError, OSError) as exc:
            outcome = f"request {index}: {type(exc).__name__}: {exc}"
        results[index] = (time.perf_counter() - start, first, outcome)


def _closed_loop(host, port, payloads, indexes, clients):
    """``clients`` closed-loop threads sending the requests at
    ``indexes``, in order; returns ``(window s, {index: result})``."""
    results = {}
    cursor = {"indexes": iter(indexes), "lock": threading.Lock()}
    threads = [threading.Thread(target=_client, args=(
        host, port, payloads, k, cursor, results)) for k in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, results


def _client_process(conn, host, port, payloads, clients, warm_from,
                    rounds):
    """The load generator, in a process of its own so that its threads
    do not share the server's interpreter lock.  Signals readiness, waits
    for the start signal (``None`` = exit), sends the whole sequence, then
    ``rounds`` more times its warm part (from ``warm_from`` on), and sends
    back ``(window s of the sequence, [results of each round])``."""
    import repro.service.client  # noqa: F401  (imported during set-up)

    conn.send("ready")
    if conn.recv() is None:
        return
    window, results = _closed_loop(host, port, payloads,
                                   range(len(payloads)), clients)
    replays = [_closed_loop(host, port, payloads,
                            range(warm_from, len(payloads)), clients)[1]
               for _ in range(rounds)]
    conn.send((window, [results] + replays))
    conn.close()


def _check_stream(payload, outcome, reference):
    """Why one request's stream is wrong, or ``None``; and its cell
    count."""
    from repro.service import canonicalize_request

    cells = len(canonicalize_request(payload).cells)
    if isinstance(outcome, str):
        return outcome, cells
    events = [json.loads(line) for line in outcome]
    kinds = [event.get("event") for event in events]
    if not kinds or kinds[0] != "accepted" or kinds[-1] != "done":
        return f"malformed stream: {kinds}", cells
    results = [line for line, kind in zip(outcome, kinds)
               if kind == "result"]
    if "cell_failed" in kinds or len(results) != cells \
            or events[-1].get("failed") != 0:
        return f"stream incomplete: {kinds}", cells
    for line in results:
        reason = check_line(line.decode("utf-8"), reference)
        if reason is not None:
            return reason, cells
    return None, cells


def run_service(workload, args, reference, tracer, ready):
    """The request sequence once, then its memo-warm part
    ``--warm-rounds`` more times.  The rounds add timings of the warm
    requests, not requests."""
    outcomes = Outcomes()
    server = _ServerThread(jobs=args.nproc)
    context = multiprocessing.get_context("spawn")
    conn, child_conn = context.Pipe()
    client = context.Process(target=_client_process, args=(
        child_conn, server.server.host, server.server.port,
        workload.payloads, args.nproc, workload.warm_from, args.warm_rounds))
    try:
        client.start()
        child_conn.close()
        conn.recv()
        ready()
        if args.mode == "setup":
            conn.send(None)
            return {}, outcomes, None
        first_span = tracer.start_window() if tracer is not None else None
        registry = _registry()
        conn.send("go")
        elapsed, rounds = conn.recv()
        delta = _registry_delta(registry)
    finally:
        client.join(timeout=60)
        if client.is_alive():
            client.kill()
            client.join()
        server.close()
    req_ms, req_cells, first_ms = [], [], []
    for index, payload in enumerate(workload.payloads):
        sent = [results[index] for results in rounds[1:] if index in results]
        timings = []
        for number, (latency, first, outcome) in enumerate(
                [rounds[0].get(index, (None, None, "no response"))] + sent):
            reason, cells = _check_stream(payload, outcome, reference)
            outcomes.record(reason)
            timings.append(latency * 1e3 if reason is None else None)
            if reason is None and number == 0:
                first_ms.append(first * 1e3)
        req_ms.append(None if None in timings else timings)
        req_cells.append(cells)
    timed = {"window_s": elapsed, "serial": False, "req_ms": req_ms,
             "req_cells": req_cells}
    return {"timed": timed}, outcomes, (first_span, elapsed, delta,
                                        first_ms)


# ---------------------------------------------------------------------------

def _registry():
    from repro.obs import get_registry
    return get_registry().export()


def _registry_delta(before):
    from repro.obs import get_registry
    after = get_registry().export()
    return {name: value - before.get(name, 0) for name, value in after.items()
            if isinstance(value, (int, float))}


def _peak_rss_mb(include_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("untraced", "traced", "setup"))
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--warm-rounds", type=int, default=0,
                        help="service: extra rounds of the warm requests")
    parser.add_argument("--spans", help="traced mode: write spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)
    workload = workloads.build(args.workload, args.seed)
    reference = load_reference(args.reference)
    stamps = {}

    def ready():
        stamps["ready_ts"] = time.time()

    run = run_service if workload.kind == "service" else run_direct
    summary, outcomes, window = run(workload, args, reference, tracer,
                                    ready)

    from repro.cache import code_fingerprint
    summary.update(stamps)
    summary.update({
        "attempted": outcomes.attempted, "failed": outcomes.failed,
        "reasons": outcomes.reasons,
        "peak_rss_mb": _peak_rss_mb(workload.kind == "service"),
        "code_fingerprint": code_fingerprint(),
    })
    if tracer is not None and window is not None:
        first_span, elapsed, delta, first_ms = window
        summary["layers"] = layers.layer_metrics(tracer, first_span,
                                                 elapsed, delta, first_ms)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
