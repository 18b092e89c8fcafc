"""Codegen-tier invariants beyond the differential suites: dispatch
completeness checked against the cost tables, declined functions running
on the reference ladder, budget-deopt resume mid-frame on the wasm VM,
GC-pause parity on the JS engine, cold-vs-warm compile-cache runs
replaying identical DET counters (and JS units shared across browser
profiles), and mid-block trap rewinds.

The two tiers under test (see ``engine/codegen.py``)::

    REPRO_FAST_INTERP=0   reference ladders (differential oracle)
    default               generated Python (codegen tier)
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import codegen as substrate
from repro.errors import TrapError
from repro.obs import DET, SCHED, get_registry, reset_registry

TIERS = ("ref", "codegen")


def _set_tier(monkeypatch, tier):
    monkeypatch.setenv("REPRO_FAST_INTERP", "0" if tier == "ref" else "1")


def _stats_dict(stats):
    """Repr-normalized stats snapshot (repr distinguishes -0.0 and int
    vs float, which `==` does not)."""
    snap = dataclasses.asdict(stats)
    return {k: repr(tuple(v) if isinstance(v, list) else v)
            for k, v in snap.items()}


# ---------------------------------------------------------------------------
# Dispatch completeness vs the cost tables.

class TestDispatchCompleteness:
    """Every opcode an engine's cost/class tables price must be
    translatable by its codegen tier."""

    def test_js_tables_cover_supported_ops(self):
        from repro.jsengine import codegen as jcg
        from repro.jsengine.bytecode import (
            JS_OP_CLASS, JS_OP_COST, JS_OP_COST_OPT, JsOp)

        n = max(JsOp) + 1
        assert len(JS_OP_COST) == len(JS_OP_COST_OPT) == len(JS_OP_CLASS) == n
        # COMMA is the one priced opcode the compiler never emits; the
        # codegen tier refuses it loudly (see test below) rather than
        # mispricing it silently.
        assert jcg.SUPPORTED_OPS == set(range(n)) - {JsOp.COMMA}
        for op in jcg.SUPPORTED_OPS:
            assert JS_OP_COST[op] > 0.0
            assert JS_OP_COST_OPT[op] > 0.0

    def test_js_codegen_shadow_table_in_lockstep(self, monkeypatch):
        """Every pure binop has a shadow-write kind the emitter knows,
        every bound value function belongs to a pure binop, and each
        binop's generated code computes the reference ladder's value
        (and stats) from mixed operand types."""
        from repro.jsengine import codegen as jcg
        from repro.jsengine.engine import JsEngine
        from repro.jsengine.interpreter import execute
        from repro.jsengine.values import JSFunction, UNDEFINED

        assert set(jcg._SHADOW_KIND.values()) <= {
            "ab", "ab_num", "b", "b_num", "shl"}
        assert set(jcg._VALUE_FNS) <= set(jcg._SHADOW_KIND)
        operands = [(6.0, 4.0), (-0.0, 0.0), (7.5, -0.0), ("ab", "b"),
                    ("7", 2.0), (None, 1.0), (3.0, True)]

        def run(code):
            engine = JsEngine()
            fn = JSFunction("binop", [], code, [], 0)
            try:
                value = ("ok", repr(execute(engine, fn, [], UNDEFINED)))
            except Exception as exc:      # noqa: BLE001 - compared below
                value = ("raise", type(exc).__name__, str(exc))
            return value, _stats_dict(engine.stats)

        for op in sorted(jcg._SHADOW_KIND):
            for a, b in operands:
                code = [(0, a), (0, b), (op, None), (33, None)]
                runs = {}
                for tier in TIERS:
                    _set_tier(monkeypatch, tier)
                    runs[tier] = run(code)
                assert runs["ref"] == runs["codegen"], (op, a, b)

    def test_wasm_tables_cover_supported_ops(self):
        from repro.wasm import codegen as wcg
        from repro.wasm.instructions import OP_CLASS, OP_COST, Op

        n = max(Op) + 1
        assert len(OP_COST) == len(OP_CLASS) == n
        for op in wcg.SUPPORTED_OPS:
            assert 0 <= op < n
            # UNREACHABLE is priced at zero on purpose: it only ever traps.
            assert OP_COST[op] > 0.0 or op == Op.UNREACHABLE

    def test_native_tables_cover_supported_ops(self):
        from repro.native import codegen as ncg
        from repro.native.machine import N_COST, N_OP_CLASS, NOp

        n = max(NOp) + 1
        assert len(N_COST) == len(N_OP_CLASS) == n
        for op in ncg.SUPPORTED_OPS:
            assert 0 <= op < n
            assert N_COST[op] > 0.0

    def test_js_unsupported_op_fails_loudly_in_codegen(self, monkeypatch):
        from repro.jsengine.engine import JsEngine
        from repro.jsengine.interpreter import JsRuntimeError, execute
        from repro.jsengine.values import JSFunction, UNDEFINED

        _set_tier(monkeypatch, "codegen")
        fn = JSFunction("bogus", [], [(48, None)], [], 0)
        with pytest.raises(JsRuntimeError, match="no handler"):
            execute(JsEngine(), fn, [], UNDEFINED)

    def test_wasm_program_translates_with_no_declines(
            self, cheerp, monkeypatch):
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM
        from tests.conftest import TINY_C

        _set_tier(monkeypatch, "codegen")
        reset_registry()
        artifact = cheerp.compile_wasm(TINY_C, name="cgfull")
        inst = WasmVM().instantiate(artifact.module,
                                    wasm_host_imports([], None))
        inst.invoke("main")
        exported = get_registry().export([SCHED])
        reset_registry()
        assert exported["interp.wasm.codegen_functions"] > 0
        assert exported["interp.wasm.codegen_blocks"] >= \
            exported["interp.wasm.codegen_functions"]
        assert exported.get("interp.wasm.codegen_declined", 0) == 0

    def test_native_program_translates_with_no_declines(
            self, llvm_x86, monkeypatch):
        from repro.native import execute_program
        from tests.conftest import TINY_C

        _set_tier(monkeypatch, "codegen")
        reset_registry()
        artifact = llvm_x86.compile(TINY_C, name="cgfull")
        execute_program(artifact.program, "main")
        exported = get_registry().export([SCHED])
        reset_registry()
        assert exported["interp.native.codegen_functions"] > 0
        assert exported.get("interp.native.codegen_declined", 0) == 0

    def test_js_program_translates_with_no_declines(self, monkeypatch):
        from repro.jsengine.engine import JsEngine

        _set_tier(monkeypatch, "codegen")
        reset_registry()
        engine = JsEngine()
        engine.load_script(GC_JS)
        exported = get_registry().export([SCHED])
        reset_registry()
        assert exported["interp.js.codegen_functions"] > 0
        assert exported.get("interp.js.codegen_declined", 0) == 0


# ---------------------------------------------------------------------------
# Declines: a function the translator cannot lower (here: a join block
# entered at two operand-stack depths, which compiler output never
# produces) runs whole on the reference ladder, exact by construction.

def _split_depth_wasm(monkeypatch, tier):
    """Run a hand-built wasm function whose join block is entered at
    depth 1 (``if`` false edge) and depth 2 (``br`` from the then-arm)."""
    from repro.wasm import (
        FuncType, Function, WasmModule, WasmVM, validate_module,
    )
    from repro.wasm.instructions import Op, instr as I

    _set_tier(monkeypatch, tier)
    monkeypatch.setenv("REPRO_PROFILE", "1")
    module = WasmModule()
    module.add_function(Function("main", FuncType(("i32",), ("i32",)), [],
                                 [I(Op.I32_CONST, 0)], exported=True))
    validate_module(module)
    reset_registry()
    inst = WasmVM().instantiate(module)
    inst._prepared["main"].code = [
        (int(Op.I32_CONST), 5, None),     # 0: depth 1
        (int(Op.LOCAL_GET), 0, None),     # 1: depth 2
        (int(Op.IF), 5, None),            # 2: false -> 5 at depth 1
        (int(Op.I32_CONST), 7, None),     # 3: depth 2
        (int(Op.BR), 5, None),            # 4: -> 5 at depth 2
        (int(Op.RETURN), None, None),     # 5: the join
    ]
    results = [inst.invoke("main", arg) for arg in (0, 1, 1)]
    declined = get_registry().export([SCHED]).get(
        "interp.wasm.codegen_declined", 0)
    reset_registry()
    return (results, _stats_dict(inst.stats),
            inst._profile.to_dict()), declined


def _split_depth_js(monkeypatch, tier):
    """The same shape as JS bytecode: ``JF`` leaves depth 1 at the join,
    the fall-through arm's ``JMP`` arrives at depth 2."""
    from repro.jsengine.engine import JsEngine
    from repro.jsengine.interpreter import execute
    from repro.jsengine.values import JSFunction, UNDEFINED

    _set_tier(monkeypatch, tier)
    monkeypatch.setenv("REPRO_PROFILE", "1")
    reset_registry()
    engine = JsEngine()
    fn = JSFunction("split", ["x"], [
        (0, 5.0),                         # 0: CONST, depth 1
        (1, 0),                           # 1: LOADL x, depth 2
        (28, 5),                          # 2: JF -> 5 at depth 1
        (0, 7.0),                         # 3: CONST, depth 2
        (27, 5),                          # 4: JMP -> 5 at depth 2
        (33, None),                       # 5: RET (the join)
    ], [], 1)
    results = [repr(execute(engine, fn, [arg], UNDEFINED))
               for arg in (0.0, 1.0, 1.0)]
    declined = get_registry().export([SCHED]).get(
        "interp.js.codegen_declined", 0)
    reset_registry()
    return (results, _stats_dict(engine.stats),
            engine._profile.to_dict()), declined


class TestDeclinedFunctions:
    @pytest.mark.parametrize("run", [_split_depth_wasm, _split_depth_js],
                             ids=["wasm", "js"])
    def test_decline_runs_reference_ladder_exactly(self, monkeypatch, run):
        ref, ref_declined = run(monkeypatch, "ref")
        cg, cg_declined = run(monkeypatch, "codegen")
        assert ref_declined == 0              # the oracle never translates
        # Declined once, then pinned: later calls skip the translator.
        assert cg_declined == 1
        results, stats, profile = cg
        assert results[0] != results[1]       # both join depths taken
        # Result, op_counts, cycles and the per-function profile all
        # equal the reference run's.
        assert cg == ref
        assert profile["calls"] and any(profile["ops"].values())


# ---------------------------------------------------------------------------
# Budget deopt: the generated code checks the remaining instruction
# budget at block entry and bails to the per-op reference loop mid-frame
# (``run_from``) when the block would overrun it.

BUDGET_C = """
double buf[64];
double work(int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    buf[i % 64] = i * 0.5;
    s = s + buf[i % 64] - (double)(i % 3);
  }
  return s;
}
int main() {
  double s = work(150);
  printf("%d", (int)s);
  return (int)s;
}
"""


class TestBudgetDeoptResume:
    def _run(self, cheerp, monkeypatch, tier, budget):
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM

        _set_tier(monkeypatch, tier)
        artifact = cheerp.compile_wasm(BUDGET_C, name="cgbudget")
        output = []
        inst = WasmVM(max_instructions=budget).instantiate(
            artifact.module, wasm_host_imports(output, None))
        try:
            result = ("ok", inst.invoke("main"))
        except TrapError as exc:
            result = ("trap", str(exc))
        return result, _stats_dict(inst.stats), output

    def _instruction_count(self, cheerp, monkeypatch):
        (kind, _), stats, _ = self._run(cheerp, monkeypatch, "ref", None)
        assert kind == "ok"
        return int(stats["instructions"])

    def test_exact_budget_completes_without_deopt(self, cheerp, monkeypatch):
        total = self._instruction_count(cheerp, monkeypatch)
        runs = {}
        reset_registry()
        for tier in TIERS:
            runs[tier] = self._run(cheerp, monkeypatch, tier, total)
        exported = get_registry().export([SCHED])
        reset_registry()
        assert runs["ref"][0][0] == "ok"
        assert runs["ref"] == runs["codegen"]
        # An exact budget never enters a block short: no deopt taken.
        assert exported.get("interp.wasm.codegen_deopts", 0) == 0

    @pytest.mark.parametrize("shortfall", ["one", "half"])
    def test_short_budget_traps_identically_after_deopt(
            self, cheerp, monkeypatch, shortfall):
        total = self._instruction_count(cheerp, monkeypatch)
        budget = total - 1 if shortfall == "one" else total // 2
        runs = {}
        reset_registry()
        for tier in TIERS:
            runs[tier] = self._run(cheerp, monkeypatch, tier, budget)
        exported = get_registry().export([SCHED])
        reset_registry()
        kind, message = runs["ref"][0]
        assert kind == "trap" and "instruction budget exhausted" in message
        # Identical trap point, stats (instructions, cycles, op_counts)
        # and partial host output across both tiers: the generated frame
        # handed its locals and operand stack to ``run_from`` mid-frame
        # and the reference loop finished the accounting.
        assert runs["ref"] == runs["codegen"]
        assert exported["interp.wasm.codegen_deopts"] > 0

    def test_budget_restored_between_invokes(self, cheerp, monkeypatch):
        # The same instance can be invoked again after a budget trap:
        # each invoke sees the full budget, in every tier.
        total = self._instruction_count(cheerp, monkeypatch)
        for tier in TIERS:
            first = self._run(cheerp, monkeypatch, tier, total)
            again = self._run(cheerp, monkeypatch, tier, total)
            assert first[0][0] == "ok"
            assert first[0] == again[0]


# ---------------------------------------------------------------------------
# GC-pause parity on the JS engine: the generated frames must present
# the same live set to the collector as the reference frames, so pause
# cycles (charged from live bytes) stay bit-identical.

GC_JS = r"""
function churn(n) {
  var a = [];
  var o = {count: 0, name: "o"};
  var t = "";
  for (var i = 0; i < n; i++) {
    a.push([i, i * 1.5]);
    o.count = o.count + i % 5;
    o.count++;
    t = t + "x" + i;
  }
  return o.count + a.length + t.length;
}
var total = 0;
for (var k = 0; k < 30; k++) { total = total + churn(45); }
console.log(total);
"""


class TestJsGcPauseParity:
    def _run(self, monkeypatch, tier):
        from repro.jsengine.config import JsEngineConfig
        from repro.jsengine.engine import JsEngine

        _set_tier(monkeypatch, tier)
        engine = JsEngine(config=JsEngineConfig(gc_trigger_bytes=20000))
        engine.load_script(GC_JS)
        return [str(x) for x in engine.console_output], \
            _stats_dict(engine.stats)

    def test_gc_pauses_identical_across_tiers(self, monkeypatch):
        runs = {tier: self._run(monkeypatch, tier) for tier in TIERS}
        _out, stats = runs["ref"]
        assert int(stats["gc_runs"]) > 0        # the program must collect
        assert runs["ref"] == runs["codegen"]


# ---------------------------------------------------------------------------
# Cold vs warm compile cache: a warm process loads marshalled code
# objects from the persistent store instead of re-emitting, and the run
# it serves must replay identical DET counters.

class TestColdWarmCache:
    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        _set_tier(monkeypatch, "codegen")
        substrate.reset_cache()
        reset_registry()
        yield
        substrate.reset_cache()
        reset_registry()

    def _measure(self, artifact):
        from repro.env import DESKTOP, chrome_desktop
        from repro.harness import PageRunner

        reset_registry()
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=1)
        result = runner.run_wasm(artifact)
        reg = get_registry()
        det, sched = reg.export([DET]), reg.export([SCHED])
        return result, det, sched

    def test_warm_hits_replay_identical_det_counters(self, cheerp,
                                                     monkeypatch):
        from repro.wasm import codegen as wcg
        from tests.conftest import TINY_C

        artifact = cheerp.compile_wasm(TINY_C, name="cgwarm")
        cold_result, cold_det, cold_sched = self._measure(artifact)
        assert cold_sched["interp.wasm.codegen_cache_misses"] > 0
        assert cold_sched.get("interp.wasm.codegen_cache_hits", 0) == 0
        assert cold_sched["interp.wasm.codegen_source_lines"] > 0

        # Dropping the in-process layers models a fresh process over the
        # same store: translation is served from disk, skipping both
        # source generation and compile().
        substrate.reset_cache()
        calls = []
        monkeypatch.setattr(substrate, "compile", lambda *a: calls.append(
            "compile") or compile(*a), raising=False)
        load = wcg.load_factory

        def load_factory(engine, key, build_source):
            return load(engine, key,
                        lambda: calls.append("build") or build_source())
        monkeypatch.setattr(wcg, "load_factory", load_factory)
        warm_result, warm_det, warm_sched = self._measure(artifact)
        assert calls == []
        assert warm_sched["interp.wasm.codegen_cache_hits"] > 0
        assert warm_sched.get("interp.wasm.codegen_cache_misses", 0) == 0
        assert "interp.wasm.codegen_source_lines" not in warm_sched

        assert cold_det            # profiling was on: opclass counters
        assert warm_det == cold_det
        assert warm_result.times_ms == cold_result.times_ms
        assert warm_result.detail["profile"] == \
            cold_result.detail["profile"]

    def test_js_warm_run_bit_identical(self, monkeypatch):
        from repro.jsengine.engine import JsEngine

        def run():
            reset_registry()
            engine = JsEngine()
            engine.load_script(GC_JS)
            return ([str(x) for x in engine.console_output],
                    _stats_dict(engine.stats),
                    get_registry().export([SCHED]))

        cold_out, cold_stats, cold_sched = run()
        assert cold_sched["interp.js.codegen_cache_misses"] > 0
        substrate.reset_cache()
        warm_out, warm_stats, warm_sched = run()
        assert warm_sched["interp.js.codegen_cache_hits"] > 0
        assert warm_out == cold_out
        assert warm_stats == cold_stats

    def test_js_units_shared_across_profiles(self, monkeypatch):
        """JS units carry no tier factors (those ride ``ns``), so a
        Firefox run reuses every unit a Chrome run built, and each run's
        stats still equal its own reference-ladder run."""
        from repro.env import chrome_desktop, firefox_desktop
        from repro.jsengine.engine import JsEngine

        def run(profile):
            reset_registry()
            engine = JsEngine(profile.js)
            engine.load_script(GC_JS)
            return ([str(x) for x in engine.console_output],
                    _stats_dict(engine.stats), engine._profile.to_dict(),
                    get_registry().export([SCHED]))

        chrome, firefox = chrome_desktop(), firefox_desktop()
        assert (chrome.js.tier0_factor, chrome.js.tier1_factor) != \
            (firefox.js.tier0_factor, firefox.js.tier1_factor)
        cold = run(chrome)
        assert cold[3]["interp.js.codegen_cache_misses"] > 0
        shared = run(firefox)
        assert shared[3].get("interp.js.codegen_cache_misses", 0) == 0
        _set_tier(monkeypatch, "ref")
        assert run(chrome)[:3] == cold[:3]
        assert run(firefox)[:3] == shared[:3]


# ---------------------------------------------------------------------------
# Mid-block trap rewinds: a trap followed, in the same block, by ops the
# block entry already charged.  The guard's ``rw_`` suffix literal must
# restore the reference ladder's charge-up-to-the-trap state in every
# counter it batches — cycles (wasm), instructions, op_counts, the
# instruction budget and the profile.

def _trap_native(monkeypatch, tier, case):
    from repro.native.machine import NativeFunction, NativeProgram, _Machine

    _set_tier(monkeypatch, tier)
    monkeypatch.setenv("REPRO_PROFILE", "1")
    trap = ((5, 2, 1, 0, False) if case == "div0"      # DIVS32 r2 = r1 / r0
            else (72, 2, 3, 0, False))                 # F2I32 r2 = int(r3)
    code = [
        (0, 1, 7, 0, False),              # MOVI r1 = 7
        (0, 3, 1e300, 0, False),          # MOVI r3 = 1e300
        trap,
        (4, 4, 2, 1, True),               # MUL32 (vector-marked)
        (2, 4, 4, 1, False),              # ADD32
        (62, 3, 3, 3, True),              # FMUL (vector-marked)
        (93, -1, 4, 0, False),            # RETV r4
    ]
    program = NativeProgram(functions={
        "main": NativeFunction("main", 1, 5, code, returns_value=True)})
    machine = _Machine(program, max_instructions=1000)
    with pytest.raises(TrapError) as info:
        machine.call("main", 0)
    return (str(info.value), _stats_dict(machine.stats), machine.budget,
            machine._profile.to_dict())


def _trap_js(monkeypatch, tier):
    from repro.jsengine.engine import JsEngine
    from repro.jsengine.interpreter import JsRuntimeError
    from repro.jsengine.values import UNDEFINED

    _set_tier(monkeypatch, tier)
    monkeypatch.setenv("REPRO_PROFILE", "1")
    engine = JsEngine()
    engine.load_script(
        "function f(o, x) { var y = x * 2 - 1; var z = -y;"
        " o.p = y - z; return y * x + z; }")
    with pytest.raises(JsRuntimeError) as info:
        engine.call_global("f", UNDEFINED, 3.0)
    return (str(info.value), _stats_dict(engine.stats),
            engine._profile.to_dict())


def _trap_wasm(monkeypatch, tier):
    from repro.wasm import (
        FuncType, Function, WasmModule, WasmVM, validate_module,
    )
    from repro.wasm.instructions import Op, instr as I

    _set_tier(monkeypatch, tier)
    monkeypatch.setenv("REPRO_PROFILE", "1")
    module = WasmModule()
    module.add_function(Function(
        "main", FuncType(("i32",), ("i32",)), [],
        [I(Op.I32_CONST, 4), I(Op.LOCAL_GET, 0), I(Op.I32_ADD),
         I(Op.I32_CONST, 99), I(Op.I32_STORE, 0),   # out of bounds
         I(Op.I32_CONST, 5), I(Op.I32_CONST, 6), I(Op.I32_MUL),
         I(Op.F64_CONST, 1.5), I(Op.F64_CONST, 0.1), I(Op.F64_MUL),
         I(Op.DROP), I(Op.LOCAL_SET, 0), I(Op.LOCAL_GET, 0)],
        exported=True))
    validate_module(module)
    inst = WasmVM(max_instructions=1000).instantiate(module)
    with pytest.raises(TrapError) as info:
        inst.invoke("main", 10 ** 7)
    return (str(info.value), _stats_dict(inst.stats), inst._instr_budget,
            inst._profile.to_dict())


class TestMidBlockTrapRewinds:
    @pytest.mark.parametrize("case", ["div0", "f2i"])
    def test_native_trap_rewinds_suffix(self, monkeypatch, case):
        runs = {t: _trap_native(monkeypatch, t, case) for t in TIERS}
        assert runs["ref"][2] < 1000          # budget was spent
        assert runs["codegen"] == runs["ref"]

    def test_js_trap_after_merged_run_rewinds_suffix(self, monkeypatch):
        runs = {t: _trap_js(monkeypatch, t) for t in TIERS}
        assert "cannot set p" in runs["ref"][0]
        assert runs["codegen"] == runs["ref"]

    def test_wasm_budget_trap_rewinds_suffix(self, monkeypatch):
        runs = {t: _trap_wasm(monkeypatch, t) for t in TIERS}
        message, _stats, budget, _profile = runs["ref"]
        assert "out-of-bounds" in message
        assert budget < 1000
        assert runs["codegen"] == runs["ref"]
