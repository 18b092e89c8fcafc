"""Shared substrate of the generated-Python (codegen) execution tier.

The three engines (``wasm/vm.py``, ``jsengine/interpreter.py``,
``native/machine.py``) each ship a reference interpreter: a ``while`` loop
that fetches one instruction, charges its cycle cost and operation class,
and dispatches through a ~100-arm ``if/elif`` ladder.  That loop is the
differential oracle — simple, obviously faithful, and slow.

The codegen tier translates each prepared function *once* into basic
blocks and emits them as straight-line Python source: operand stacks
lowered to local variables, batched accounting constants folded into
literal statements, trap points compiled to explicit guards that rewind
the batched charges.  The source is ``compile()``d once per translation
unit and the resulting ``make(ns)`` factory is called per engine
instance to pre-bind that instance's state.

Two tiers, one knob::

    REPRO_FAST_INTERP=0   reference ladders (differential oracle)
    default               generated Python (this tier)

Exactness rules (each engine's translator documents how it applies them;
the generated code must be observably bit-identical to the oracle — same
stats, same traces, same GC pauses, same per-opclass×per-function
profiles):

1. **Integer counters batch freely.**  ``op_counts``, ``instructions``
   and the instruction budget are integers; charging a block's total at
   block entry is exact.  Every trap point is guarded by a rewind of the
   suffix (the instructions after the trapping one), restoring the
   reference ladder's charge-then-execute prefix: at a trap on
   instruction *k* the reference has charged instructions ``0..k``
   inclusive.  The guard is table-driven: its ``except`` body is one
   ``rw_('<suffix>')`` call (see :func:`rewinder`), the suffix spelled
   as a string literal (:func:`rewind_suffix`), followed by ``raise``.
2. **Float cycle batching needs an exact grid.**  Summing per-op costs in
   a different order than the reference is only bit-identical when every
   addend is dyadic and the partial sums stay exactly representable.
   Wasm's ``OP_COST`` table is entirely quarter-multiples (asserted by
   tests), so its per-block sums are exact at any association.  The JS
   and native charge streams include non-dyadic products
   (``cost × tier_factor``, ``cost × VECTOR_COST_FACTOR``), so their
   generated code adds the same products in the reference's left-fold
   order.  Native spells one literal per instruction.  JS reads them from
   a per-tier table (``C0``/``C1``: the products ``cost[op] * factor``
   the reference computes, built at translation and bound through
   ``ns``), and folds a run of non-raising ops into the next barrier's
   charge as one ``cyc = cyc + a + b + ...`` statement: Python evaluates
   it left to right, which is the reference's fold, hence the same bits.
3. **Mid-run observers see flushed state only at the reference's flush
   points.**  Frame-local accumulators are flushed exactly where the
   ladder flushes (JS function-call boundaries, native CALL/RETV), so
   ``performance.now()`` and friends read identical values mid-run.
4. **Rare paths run on the oracle.**  When a block cannot be entered
   under batched accounting (instruction budget smaller than the block,
   a JS frame entered with the GC already over-trigger), the frame
   continues in the reference loop, which is exact by construction.  A
   translator may also *decline* a whole function (returning ``None``)
   when a static property it relies on does not hold — e.g. an
   inconsistent operand-stack depth at a join point; the engine then
   runs that function on its reference ladder.
5. **Unknown opcodes fail loudly.**  The reference ladders fall through
   to a structured error at execution time; the translators refuse the
   whole function at translation time instead of silently mis-emitting.

Persistent compile cache: generated source depends only on the prepared
code and a handful of translation flags, never on instance state (state
is handed to ``make`` through ``ns``), so translation units are
content-addressed exactly like compiled artifacts.  Warm runs are served
from the same disk store the compile cache uses (``src/repro/cache/``):
an entry is ``(tag, SCHEMA_VERSION, marshal bytes)`` — only the
``marshal`` of the compiled code object, not the source — so a warm
process skips both source generation and ``compile()``; an entry that
does not unmarshal is rebuilt from source.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal

from repro.obs.envflags import env_flag

#: Bump when the shape of cached translation units changes.
SCHEMA_VERSION = 2

_TAG = "codegen"

#: Sentinel an engine caches on a prepared function when its translator
#: declined it (so the decline is not retried on every call).
DECLINED = object()


def fast_interp_enabled():
    """The ``REPRO_FAST_INTERP`` knob: default on (generated code); an
    explicit off (``0``/``off``/``false``/``no``) selects the reference
    ladders (the differential oracle)."""
    return env_flag("REPRO_FAST_INTERP", default=True)


def split_blocks(n, leaders):
    """Partition ``range(n)`` into half-open basic-block ranges.

    ``leaders`` is the set of pcs that must start a block (function entry,
    every jump target, every instruction after a block terminator).
    Out-of-range leaders (e.g. a branch target equal to ``n``) are
    ignored — they denote function exit, not a block.
    """
    starts = sorted(pc for pc in set(leaders) | {0} if 0 <= pc < n)
    return [(start, starts[i + 1] if i + 1 < len(starts) else n)
            for i, start in enumerate(starts)]


def class_deltas(classes):
    """Collapse a per-instruction op-class list into sparse, sorted
    ``(class_index, count)`` pairs — one block's batched ``op_counts``
    charge (or a rewind suffix)."""
    by_class = {}
    for cls in classes:
        by_class[cls] = by_class.get(cls, 0) + 1
    return tuple(sorted(by_class.items()))


def rewind_suffix(classes, keys=(), cycles=0.0):
    """Source of one trap guard's suffix literal for :func:`rewinder`,
    over the instructions after the trapping one:
    ``'<cycles> <n> <class>:<d> ... / <profile_key>:<d> ...'``.

    A string, not a tuple: it is one constant to the Python compiler,
    where a tuple literal costs a node and a constant per number.
    ``cycles`` (finite) round-trips through ``repr``; ``keys`` stays
    empty when the unit is built without profiling."""
    deltas = "".join(f" {c}:{d}" for c, d in
                     class_deltas([int(c) for c in classes]))
    cells = " ".join(f"{k}:{d}" for k, d in
                     class_deltas([int(k) for k in keys]))
    return repr(f"{float(cycles)!r} {len(classes)}{deltas} / {cells}")


def rewinder(stats, budget=None, fprof=None, tier_of=None,
             instructions=True):
    """The ``rw_`` helper every trap guard calls with its suffix literal.

    Subtracts the suffix's cycles (only wasm batches them), instructions
    (unless the translator keeps them in a frame local it rewinds inline),
    op-class deltas and profile cells, and refunds the instruction budget
    (``budget`` is an ``(owner, attribute)`` pair, ``None`` outside budget
    mode).  JS profile keys carry the executing tier in bits 8+, read off
    ``tier_of()`` at the trap.  Profile cells are subtracted before the
    frame's ``finally`` adds the whole block back, so a cell the trap
    skipped entirely nets to zero; :meth:`EngineProfile.to_dict` omits
    zero cells, as the reference ladder never creates them.  Runs only on
    trap paths, so decoding the literal here costs nothing elsewhere.
    """
    counts = stats.op_counts

    def rw_(sfx):
        head, _sep, tail = sfx.partition(" / ")
        cycles, n, *deltas = head.split()
        cycles, n = float(cycles), int(n)
        if cycles:
            stats.cycles -= cycles
        if instructions:
            stats.instructions -= n
        for pair in deltas:
            ci, d = pair.split(":")
            counts[int(ci)] -= int(d)
        if budget is not None:
            owner, attr = budget
            setattr(owner, attr, getattr(owner, attr) + n)
        tbit = tier_of() << 8 if tier_of is not None else 0
        for pair in tail.split():
            key, d = pair.split(":")
            key = int(key) + tbit
            fprof[key] = fprof.get(key, 0) - int(d)
    return rw_


# ---------------------------------------------------------------------------
# Source emission helpers shared by the three translators.

def literal(value):
    """Python source for one embedded constant.

    ``repr`` round-trips ints (arbitrary precision) and finite floats
    exactly; the non-literal floats are spelled out so the generated
    module needs no imports.  Strings/bools/None appear in JS bytecode
    arguments and repr cleanly.
    """
    if isinstance(value, float):
        if value != value:
            return "float('nan')"
        if value == float("inf"):
            return "float('inf')"
        if value == float("-inf"):
            return "float('-inf')"
        return repr(value)
    if isinstance(value, (int, str, bytes, bool)) or value is None:
        return repr(value)
    raise ValueError(f"unsupported literal {value!r}")


class Emitter:
    """An indentation-tracking line buffer for generated source."""

    def __init__(self):
        self.lines = []
        self.indent = 0

    def emit(self, text):
        if text:
            self.lines.append("    " * self.indent + text)
        else:
            self.lines.append("")

    def block(self):
        """Context manager raising the indent by one level."""
        emitter = self

        class _Block:
            def __enter__(self):
                emitter.indent += 1

            def __exit__(self, *exc):
                emitter.indent -= 1
                return False
        return _Block()

    def guarded(self, body_lines, rewind_lines):
        """Emit ``body_lines`` inside a trap guard whose ``except`` body
        runs ``rewind_lines`` and re-raises; unguarded when there is
        nothing to rewind."""
        if rewind_lines:
            self.emit("try:")
            self.indent += 1
        for line in body_lines:
            self.emit(line)
        if rewind_lines:
            self.indent -= 1
            self.emit("except BaseException:")
            with self.block():
                for line in rewind_lines:
                    self.emit(line)
                self.emit("raise")

    def source(self):
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# The translation-unit cache: memory (compiled ``make`` factories) over
# the persistent artifact store (marshalled code objects).

_FACTORIES = {}          # key -> make() factory (compiled once per process)
_STORE = None            # lazily built ArtifactCache (own stats, shared root)


def _store():
    global _STORE
    if _STORE is None:
        from repro.cache.store import ArtifactCache
        _STORE = ArtifactCache()
    return _STORE


def reset_cache():
    """Drop the in-process layers (tests: cold/warm differentials)."""
    global _STORE
    _FACTORIES.clear()
    _STORE = None


def unit_key(engine, parts):
    """Content-address one translation unit.

    ``parts`` must pin everything the emitted source depends on: the
    prepared code (its repr), and every translation flag folded into the
    source (budget mode, profiling, cost/factor constants).  The package
    code fingerprint invalidates on any translator edit; the interpreter
    ``cache_tag`` scopes the marshalled code object to the bytecode
    format that produced it.
    """
    from repro.cache.keys import code_fingerprint
    digest = hashlib.sha256()
    for part in ("repro-codegen", SCHEMA_VERSION, code_fingerprint(),
                 importlib.util.MAGIC_NUMBER.hex(), engine, *parts):
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def load_factory(engine, key, build_source):
    """Return the compiled ``make`` factory for one translation unit.

    Layered lookup: in-process factory cache, then the persistent store
    (the marshalled code object — skips ``build_source`` *and*
    ``compile``), then a cold build that populates both and books the
    emitted line count as ``interp.<engine>.codegen_source_lines``.  The
    factory is the module-level ``make`` function of the generated
    source; callers invoke it once per engine instance with the
    pre-bound namespace.
    """
    from repro.obs import SCHED, get_registry
    factory = _FACTORIES.get(key)
    if factory is not None:
        return factory
    reg = get_registry()
    store = _store()
    entry = store.get(key)
    code = None
    if isinstance(entry, tuple) and len(entry) == 3 \
            and entry[0] == _TAG and entry[1] == SCHEMA_VERSION:
        try:
            code = marshal.loads(entry[2])
        except (ValueError, EOFError, TypeError):
            code = None                   # foreign bytecode: rebuild
    if code is not None:
        reg.counter_add(f"interp.{engine}.codegen_cache_hits", 1, SCHED)
    else:
        source = build_source()
        reg.counter_add(f"interp.{engine}.codegen_cache_misses", 1, SCHED)
        reg.counter_add(f"interp.{engine}.codegen_source_lines",
                        source.count("\n"), SCHED)
        code = compile(source, f"<repro-codegen:{engine}:{key[:12]}>",
                       "exec")
        store.put(key, (_TAG, SCHEMA_VERSION, marshal.dumps(code)))
    namespace = {}
    exec(code, namespace)
    factory = _FACTORIES[key] = namespace["make"]
    return factory
