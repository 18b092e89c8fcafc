"""Per-layer tracing from outside the program.

The traced run calls :func:`install`, which replaces the functions each
caller looks a layer up through (a module attribute bound at import, or a
class attribute) with a wrapper that records a span around the call.  The
program's own code is unchanged; the untraced run never imports this
module.

A span holds a name, start, end, parent and root id.  Parents come from
a per-thread stack, so nesting is exact within a thread.  A span's *self
time* is its duration minus the part of it its child spans cover.  Spans
stay in memory; :meth:`Tracer.dump` writes them when the run ends.

The wrappers are inert in processes forked from the traced one (the
scheduler's workers): they call the original function at once, without
touching the tracer, whose spans would be lost there and whose lock may
have been held by another thread at the fork.

:func:`layer_metrics` turns the spans of one timed window, plus the
counters the wrappers collected and the program's own metrics registry,
into the per-layer metrics listed in README.md.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict

#: Root span name: one per cell of a direct workload.  (Service requests
#: are sent from the client process, which records no spans.)
ROOTS = ("cell",)

#: Passes whose wall time is reported as ``ir.pass.<name>.ms``.  These are
#: the passes the workloads' pipelines run (cheerp O2/Oz/Ofast, llvm-x86
#: O2); a pass that does not run in a window reads 0.
PASSES = ("constfold", "fast-math", "inline", "licm", "gvn",
          "vectorize-loops", "remat-consts", "libcalls-shrinkwrap",
          "global_opt_conservative", "globalopt", "dce")


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self):
        self.pid = os.getpid()
        # [name, start, end, parent index or None, root id]
        self.spans = []
        self.counts = Counter()
        self.values = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, root=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if root is None and parent is not None:
            root = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, root]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def start_window(self):
        """Reset the counters for a new timed window; returns the index
        of the window's first span (spans before it are kept for the
        dump but not counted)."""
        with self._lock:
            self.counts.clear()
            self.values.clear()
            return len(self.spans)

    def set_root(self, index, root):
        self.spans[index][4] = root

    # -- counters ------------------------------------------------------------

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def value(self, name, sample):
        with self._lock:
            self.values[name].append(sample)

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write every span as JSON (times in ms from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": name, "start_ms": (start - origin) * 1e3,
                 "end_ms": (end - origin) * 1e3, "parent": parent,
                 "root": root}
                for i, (name, start, end, parent, root)
                in enumerate(self.spans) if end is not None]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def _wrap(tracer, owner, attr, layer, before=None, after=None):
    """Replace ``owner.attr`` with a span-recording wrapper.  ``before``
    (called with the arguments) returns a state handed to ``after``
    together with the span index and the result."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if os.getpid() != tracer.pid:
            return original(*args, **kwargs)
        state = before(args) if before is not None else None
        index = tracer.begin(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(index, args, result, state)
        return result

    setattr(owner, attr, wrapper)


def install(tracer):
    """Install every layer wrapper onto the program's lookup points."""
    import repro.compilers.base as base
    import repro.compilers.cheerp as cheerp
    import repro.compilers.llvm_x86 as llvm_x86
    import repro.engine.codegen as engine_codegen
    import repro.harness.runner as runner
    import repro.ir.passes as passes
    import repro.jsengine.codegen as js_codegen
    import repro.native as native
    import repro.native.codegen as native_codegen
    import repro.service.cells as cells
    import repro.service.jobs as jobs
    import repro.wasm.codegen as wasm_codegen
    from repro.cache import MISS, result_key, results_enabled
    from repro.cache.store import ArtifactCache
    from repro.jsengine.engine import JsEngine
    from repro.jsengine.gc import GcHeap
    from repro.native import program_byte_size
    from repro.service.jobs import SweepService
    from repro.service.requests import CellSpec
    from repro.wasm.vm import WasmInstance, WasmVM

    count = tracer.count

    # cfront: the toolchain frontend (preprocess, transforms, parse).
    _wrap(tracer, base.ToolchainBase, "frontend", "cfront",
          after=lambda i, a, r, s: count("cfront.calls"))

    # ir.passes: the pass manager, plus the frontend's own DCE call.
    def pipeline_before(args):
        return len(args[0].meta.get("pass_telemetry", ()))

    def pipeline_after(index, args, result, seen):
        ran = args[0].meta.get("pass_telemetry", [])[seen:]
        for entry in ran:
            count(f"ir.pass.{entry['pass']}.ms", entry["wall_ms"])
            count("ir.passes.rewrites", entry["rewrites"])
        if ran:
            count("ir.nodes_out", ran[-1]["nodes_out"])

    _wrap(tracer, base, "run_pipeline", "ir.passes",
          before=pipeline_before, after=pipeline_after)
    _wrap(tracer, passes, "dead_code_elimination", "ir.passes")

    # backends: code generation, validation, encoding.
    def code_bytes(measure):
        return lambda i, a, result, s: count("backends.code_bytes",
                                             measure(result))

    _wrap(tracer, cheerp, "generate_wasm", "backends")
    _wrap(tracer, cheerp, "validate_module", "backends")
    _wrap(tracer, cheerp, "encode_module", "backends",
          after=code_bytes(len))
    _wrap(tracer, cheerp, "generate_js", "backends",
          after=code_bytes(lambda js: len(js.encode("utf-8"))))
    _wrap(tracer, llvm_x86, "generate_x86", "backends",
          after=code_bytes(program_byte_size))

    # compilers: key derivation and cache plumbing around the build.
    _wrap(tracer, base.ToolchainBase, "_cached_compile", "compilers")

    # cache.store: every artifact-store read and write.
    def store_after(index, args, result, state):
        count("cache.store.gets")
        if result is not None:
            count("cache.store.hits")

    _wrap(tracer, ArtifactCache, "get", "cache.store.get",
          after=store_after)
    _wrap(tracer, ArtifactCache, "put", "cache.store.put")

    # engine.codegen: tier translation, with Python compile() split out.
    def compile_after(index, args, result, state):
        count("engine.codegen.compiles")

    def factory_after(index, args, result, state):
        count("engine.codegen.units")

    for module in (wasm_codegen, js_codegen, native_codegen):
        _wrap(tracer, module, "load_factory", "engine.codegen",
              after=factory_after)
    engine_codegen.compile = compile
    _wrap(tracer, engine_codegen, "compile", "engine.codegen.compile",
          after=compile_after)

    # Engines.  Modeled instructions are read off each engine's stats.
    def instructions_of(stats_of):
        def before(args):
            return stats_of(args).instructions

        def after(index, args, result, start):
            count(f"{tracer.spans[index][0]}.instructions",
                  stats_of(args).instructions - start)
        return before, after

    _wrap(tracer, WasmVM, "instantiate", "wasm")
    wasm_before, wasm_after = instructions_of(lambda a: a[0].stats)
    _wrap(tracer, WasmInstance, "invoke", "wasm",
          before=wasm_before, after=wasm_after)
    js_before, js_after = instructions_of(lambda a: a[0].stats)
    _wrap(tracer, JsEngine, "load_script", "jsengine",
          before=js_before, after=js_after)
    _wrap(tracer, GcHeap, "collect", "jsengine.gc")
    _wrap(tracer, native, "execute_program", "native",
          after=lambda i, a, result, s: count("native.instructions",
                                              result[1].instructions))

    # harness.runner: the page-runner protocol around the engines.
    _wrap(tracer, runner.PageRunner, "run_wasm", "harness.runner")
    _wrap(tracer, runner.PageRunner, "run_js", "harness.runner")

    # cache.memo: result memo reads (and the writes on a miss).
    def memoized(owner):
        original = owner.cached_result

        @functools.wraps(original)
        def cached_result(kind, parts, compute, replay_metrics=False):
            if os.getpid() != tracer.pid:
                return original(kind, parts, compute, replay_metrics)
            enabled = results_enabled()
            computed = []

            def counted():
                computed.append(True)
                return compute()

            index = tracer.begin("cache.memo")
            try:
                return original(kind, parts, counted, replay_metrics)
            finally:
                tracer.end(index)
                if enabled:
                    count("cache.memo.lookups")
                    if not computed:
                        count("cache.memo.hits")

        owner.cached_result = cached_result

    memoized(cells)
    memoized(runner)

    # The service's warm probe, rooted at the request that admitted it.
    owners = {}

    def lookup_after(index, args, result, state):
        count("cache.memo.lookups")
        if result is not MISS:
            count("cache.memo.hits")
        key = result_key(args[0], args[1], replay_metrics=True)
        tracer.set_root(index, owners.get(key))

    _wrap(tracer, jobs, "lookup", "cache.memo", after=lookup_after)

    # harness.parallel: scheduler sweeps driven by the service batcher.
    admitted = {}

    def sweep_before(args):
        now = time.perf_counter()
        for item in args[1]:
            key = CellSpec.from_tuple(item).cell_key()
            if key in admitted:
                tracer.value("harness.parallel.queue_wait_ms",
                             (now - admitted.pop(key)) * 1e3)
        count("harness.parallel.sweeps")
        count("harness.parallel.cells", len(args[1]))

    def sweep_after(index, args, result, state):
        tracer.set_root(index, f"batch-{index}")

    _wrap(tracer, jobs, "run_sweep", "harness.parallel",
          before=sweep_before, after=sweep_after)

    # service: request admission.
    def admit_after(index, args, job, state):
        root = job.trace.trace_id
        tracer.set_root(index, root)
        now = time.perf_counter()
        for key in job.new_keys:
            owners[key] = root
            admitted[key] = now

    _wrap(tracer, SweepService, "admit", "service.admit", after=admit_after)


# ---------------------------------------------------------------------------
# Metrics from one window of spans.

def _merge(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans, first=0):
    """``{layer name: self seconds}`` over the closed spans from index
    ``first`` on (parents are indices into the whole ``spans`` list)."""
    children = defaultdict(list)
    for name, start, end, parent, _root in spans[first:]:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for index in range(first, len(spans)):
        name, start, end, _parent, _root = spans[index]
        if end is not None:
            totals[name] += (end - start) - _merge(children.get(index, ()))
    return totals


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, first_span, window_s, registry_delta,
                  first_line_ms=()):
    """Per-layer metrics for the spans recorded since ``first_span``.

    Times are totals over the window in ms unless named otherwise;
    ratios are 0 where the layer made no attempt in the window."""
    c = tracer.counts
    ms = {name: seconds * 1e3 for name, seconds
          in self_times(tracer.spans, first_span).items()}
    layered = [(start, end)
               for name, start, end, _p, _r in tracer.spans[first_span:]
               if end is not None and name not in ROOTS]
    metrics = {
        "cfront.ms": ms.get("cfront", 0.0),
        "cfront.calls": c["cfront.calls"],
        "ir.passes.ms": ms.get("ir.passes", 0.0),
        "ir.passes.rewrites": c["ir.passes.rewrites"],
        "ir.nodes_out": c["ir.nodes_out"],
        "backends.ms": ms.get("backends", 0.0),
        "backends.code_bytes": c["backends.code_bytes"],
        "compilers.self_ms": ms.get("compilers", 0.0),
        "cache.store.get_ms": ms.get("cache.store.get", 0.0),
        "cache.store.put_ms": ms.get("cache.store.put", 0.0),
        "cache.store.hit_ratio": _ratio(c["cache.store.hits"],
                                        c["cache.store.gets"]),
        "engine.codegen.ms": ms.get("engine.codegen", 0.0),
        "engine.codegen.compile_ms": ms.get("engine.codegen.compile", 0.0),
        "engine.codegen.units": c["engine.codegen.units"],
        "engine.codegen.hit_ratio": _ratio(
            c["engine.codegen.units"] - c["engine.codegen.compiles"],
            c["engine.codegen.units"]),
        "jsengine.gc_ms": ms.get("jsengine.gc", 0.0),
        "harness.runner.self_ms": ms.get("harness.runner", 0.0),
        "cache.memo.ms": ms.get("cache.memo", 0.0),
        "cache.memo.hit_ratio": _ratio(c["cache.memo.hits"],
                                       c["cache.memo.lookups"]),
        "harness.parallel.sweep_ms": ms.get("harness.parallel", 0.0),
        "harness.parallel.cells_per_sweep": _ratio(
            c["harness.parallel.cells"], c["harness.parallel.sweeps"]),
        "harness.parallel.attempts_per_cell": _ratio(
            registry_delta.get("sched.cells", 0)
            + registry_delta.get("sched.retries", 0),
            registry_delta.get("sched.cells", 0)),
        "harness.parallel.queue_wait_ms": _mean(
            tracer.values["harness.parallel.queue_wait_ms"]),
        "service.admit_ms": ms.get("service.admit", 0.0),
        "service.first_line_ms": (statistics.median(first_line_ms)
                                  if first_line_ms else 0.0),
        "service.warm_ratio": _ratio(
            registry_delta.get("service.cells.warm", 0),
            registry_delta.get("service.cells.requested", 0)),
        "service.dedupe_ratio": _ratio(
            registry_delta.get("service.cells.deduped", 0),
            registry_delta.get("service.cells.requested", 0)),
        "service.rejected": registry_delta.get("service.rejected", 0),
        "unattributed_ms": (window_s - _merge(layered)) * 1e3,
    }
    for engine in ("wasm", "jsengine", "native"):
        exec_ms = ms.get(engine, 0.0)
        metrics[f"{engine}.exec_ms"] = exec_ms
        metrics[f"{engine}.minstr_per_s"] = _ratio(
            c[f"{engine}.instructions"] / 1e6, exec_ms / 1e3)
    for name in PASSES:
        metrics[f"ir.pass.{name}.ms"] = c[f"ir.pass.{name}.ms"]
    return metrics


def _mean(values):
    return sum(values) / len(values) if values else 0.0
