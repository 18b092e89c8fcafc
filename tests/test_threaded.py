"""Tier-boundary guarantees of the fast tier (generated-Python codegen)
against the reference ladders: the ``REPRO_FAST_INTERP`` knob, dispatch
completeness, structured unknown-opcode errors, budget-trap parity,
GC-pause parity, the LinearMemory bounds edge, and the bench harness
smoke mode.

The module keeps its historical name (it once covered a threaded-closure
tier that sat between the two); every ``REPRO_FAST_INTERP=1`` run below
executes generated code.  The golden suite already proves sweep-level
parity (the committed goldens were produced by the reference ladders and
CI replays them under the default); these tests pin the tier-boundary
behaviours a sweep does not reach.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import codegen as substrate
from repro.errors import TrapError, ValidationError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _snap(stats):
    """Order-stable stats snapshot (dataclass fields incl. op_counts)."""
    d = dataclasses.asdict(stats)
    return {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}


class TestKnob:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_INTERP", raising=False)
        assert substrate.fast_interp_enabled()

    def test_zero_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")
        assert not substrate.fast_interp_enabled()

    @pytest.mark.parametrize("raw", ["off", "false", "OFF"])
    def test_off_spellings_select_reference(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FAST_INTERP", raw)
        assert not substrate.fast_interp_enabled()


class TestDispatchCompleteness:
    """Cost tables ⊆ codegen tier ⊆ reference ladder, per engine."""

    def test_wasm(self):
        from repro.wasm.instructions import OP_CLASS, OP_COST, Op
        from repro.wasm.codegen import SUPPORTED_OPS
        assert len(OP_COST) == len(OP_CLASS)
        # ELSE is rewritten to a resolved BR at prepare time; every other
        # opcode the cost model can charge has a codegen emitter.
        assert set(range(len(OP_COST))) - SUPPORTED_OPS == {int(Op.ELSE)}
        text = (SRC / "wasm" / "vm.py").read_text()
        ladder = text[text.index("def _run_from"):]
        arms = {int(m) for m in re.findall(r"op == (\d+)", ladder)}
        for group in re.findall(r"op in \(([\d, ]+)\)", ladder):
            arms |= {int(m) for m in group.split(",") if m.strip()}
        missing = SUPPORTED_OPS - arms
        assert not missing, f"ops without a reference arm: {sorted(missing)}"

    def test_wasm_costs_stay_on_quarter_grid(self):
        # Precondition for per-block cycle batching (substrate rule 2):
        # quarter-multiples sum exactly at any association.
        from repro.wasm.instructions import OP_COST
        assert all(cost % 0.25 == 0.0 for cost in OP_COST)

    def test_native(self):
        from repro.native.machine import N_COST, N_OP_CLASS, NOp
        from repro.native.codegen import SUPPORTED_OPS
        assert len(N_COST) == len(N_OP_CLASS)
        assert SUPPORTED_OPS == set(range(len(N_COST)))
        text = (SRC / "native" / "machine.py").read_text()
        arms = {int(getattr(NOp, name))
                for name in re.findall(r"op == NOp\.(\w+)", text)}
        for lo, hi in re.findall(r"NOp\.(\w+) <= op <= NOp\.(\w+)", text):
            arms |= set(range(int(getattr(NOp, lo)),
                              int(getattr(NOp, hi)) + 1))
        missing = SUPPORTED_OPS - arms
        assert not missing, f"ops without a reference arm: {sorted(missing)}"

    def test_js(self):
        from repro.jsengine.bytecode import (
            JS_OP_CLASS, JS_OP_COST, JS_OP_COST_OPT,
        )
        from repro.jsengine.codegen import SUPPORTED_OPS
        assert len(JS_OP_COST) == len(JS_OP_COST_OPT) == len(JS_OP_CLASS)
        # COMMA (48) is never emitted and has no reference arm either.
        assert set(range(len(JS_OP_COST))) - SUPPORTED_OPS == {48}
        text = (SRC / "jsengine" / "interpreter.py").read_text()
        arms = {int(m) for m in re.findall(r"op == (\d+)", text)}
        missing = SUPPORTED_OPS - arms
        assert not missing, f"ops without a reference arm: {sorted(missing)}"


def _tiny_wasm_instance():
    from repro.wasm import (
        FuncType, Function, WasmModule, WasmVM, validate_module,
    )
    from repro.wasm.instructions import Op, instr as I
    module = WasmModule()
    module.add_function(Function("main", FuncType((), ("i32",)), [],
                                 [I(Op.I32_CONST, 7)], exported=True))
    validate_module(module)
    return WasmVM().instantiate(module)


class TestUnknownOpcode:
    """Both tiers must fail loudly: the reference ladder's default arm at
    runtime, the translator with a structured error before running."""

    def test_wasm(self, monkeypatch):
        from repro.wasm.instructions import Op
        monkeypatch.setenv("REPRO_FAST_INTERP", "1")
        inst = _tiny_wasm_instance()
        prepared = inst._prepared["main"]
        prepared.code = [(int(Op.ELSE), None, None)] + list(prepared.code)
        with pytest.raises(ValidationError, match="no handler"):
            inst.invoke("main")
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")
        inst = _tiny_wasm_instance()
        prepared = inst._prepared["main"]
        prepared.code = [(int(Op.ELSE), None, None)] + list(prepared.code)
        with pytest.raises(TrapError, match="unimplemented opcode 5"):
            inst.invoke("main")

    def test_native(self, monkeypatch):
        from repro.native.machine import (
            N_COST, NativeFunction, NativeProgram, _Machine,
        )
        bogus_op = len(N_COST)

        def machine():
            fn = NativeFunction("bogus", 0, 1,
                                [(bogus_op, 0, 0, 0, False)], False)
            return _Machine(NativeProgram(functions={"bogus": fn}))

        monkeypatch.setenv("REPRO_FAST_INTERP", "1")
        with pytest.raises(TrapError, match="no handler"):
            machine().call("bogus")
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")
        with pytest.raises((TrapError, IndexError)):
            machine().call("bogus")

    def test_js(self, monkeypatch):
        from repro.jsengine.engine import JsEngine
        from repro.jsengine.interpreter import JsRuntimeError, execute
        from repro.jsengine.values import JSFunction, UNDEFINED

        def run():
            fn = JSFunction("bogus", [], [(48, None)], [], 0)
            execute(JsEngine(), fn, [], UNDEFINED)

        monkeypatch.setenv("REPRO_FAST_INTERP", "1")
        with pytest.raises(JsRuntimeError, match="no handler"):
            run()
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")
        with pytest.raises(JsRuntimeError,
                           match="unimplemented bytecode op 48"):
            run()


def _compile(generate, source):
    from repro.cfront import parse_c, preprocess
    return generate(parse_c(preprocess(source)))


_LOOP_C = """
int main() {
  int s = 0;
  for (int i = 1; i < 50000; i++) { s = s + i % 7; }
  return s;
}
"""


class TestBudgetDifferential:
    """Instruction-budget exhaustion must trap at the same instruction
    with the same partial stats under both tiers (the batched-accounting
    reconstruction, including mid-block deopt to the reference loop)."""

    # Budgets chosen to land inside blocks, on block boundaries, and
    # barely past function entry.
    BUDGETS = (3, 11, 100, 777, 5000)

    def test_wasm(self, monkeypatch):
        from repro.backends import generate_wasm
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM
        module = _compile(generate_wasm, _LOOP_C)
        for budget in self.BUDGETS:
            snaps = []
            for fast in ("1", "0"):
                monkeypatch.setenv("REPRO_FAST_INTERP", fast)
                inst = None
                err = None
                try:
                    # The tiniest budgets trap inside the __mem_init
                    # start function, i.e. during instantiation.
                    inst = WasmVM(max_instructions=budget)\
                        .instantiate(module, wasm_host_imports([], None))
                    inst.invoke("main")
                except TrapError as exc:
                    err = str(exc)
                assert err is not None and "budget exhausted" in err
                snaps.append((err,
                              _snap(inst.stats) if inst is not None
                              else None))
            assert snaps[0] == snaps[1], f"budget={budget}"

    def test_native(self, monkeypatch):
        from repro.backends import generate_x86
        from repro.native.machine import _Machine
        program = _compile(generate_x86, _LOOP_C)
        for budget in self.BUDGETS:
            snaps = []
            for fast in ("1", "0"):
                monkeypatch.setenv("REPRO_FAST_INTERP", fast)
                machine = _Machine(program, max_instructions=budget)
                with pytest.raises(TrapError) as excinfo:
                    machine.call("main")
                snaps.append((str(excinfo.value), _snap(machine.stats),
                              machine.budget, bytes(machine.memory)))
            assert snaps[0] == snaps[1], f"budget={budget}"


_GC_JS = """
function mix(a, i) {
  a[i % 16] = a[(i * 7) % 16] + i * 0.5;
  return a[i % 16];
}
function main() {
  var arr = [];
  for (var j = 0; j < 16; j++) { arr[j] = 0.0; }
  var obj = {hits: 0, tag: "t"};
  var s = "";
  var total = 0.0;
  for (var i = 0; i < 3000; i++) {
    arr[i % 16] = i * 1.5;
    total = total + mix(arr, i);
    obj.hits = obj.hits + 1;
    if ((i % 37) == 0) { s = s + "x" + i; }
    var tmp = [i, i + 1, i + 2, i + 3];
    total = total + tmp[0] - tmp[3];
  }
  return total + obj.hits + s.length;
}
"""


class TestJsGcParity:
    def test_pause_cycles_identical(self, monkeypatch):
        """GC pauses depend on *liveness* at collection time, so this
        pins the codegen tier's shadow locals: stale reference-frame
        arm locals must pin exactly the same heap bytes in both tiers."""
        from repro.jsengine.engine import JsEngine
        snaps = []
        for fast in ("1", "0"):
            monkeypatch.setenv("REPRO_FAST_INTERP", fast)
            engine = JsEngine()
            # Shrink the trigger so the loop collects many times.
            engine.heap.trigger_bytes = 48 * 1024
            engine.load_script(_GC_JS)
            value = engine.call_global("main")
            snaps.append((value, _snap(engine.stats)))
        assert snaps[0] == snaps[1]
        assert snaps[0][1]["gc_runs"] > 3


class TestLinearMemoryBoundsEdge:
    def test_straddling_access_traps(self):
        from repro.wasm.memory import LinearMemory
        mem = LinearMemory(min_pages=1, max_pages=1)
        limit = 65536
        mem.store_i32(limit - 4, -123)
        assert mem.load_i32(limit - 4) == -123
        # Last byte in bounds, access straddles the committed limit.
        for width, load in ((2, mem.load_u16), (4, mem.load_i32),
                            (8, mem.load_f64)):
            load(limit - width)          # flush against the edge: fine
            with pytest.raises(TrapError, match="committed"):
                load(limit - width + 1)
        with pytest.raises(TrapError, match="committed"):
            mem.store_f64(limit - 7, 1.0)
        with pytest.raises(TrapError, match="committed"):
            mem.load_u8(-1)

    def test_vm_trap_identical_both_tiers(self, monkeypatch):
        from repro.wasm import (
            FuncType, Function, WasmModule, WasmVM, validate_module,
        )
        from repro.wasm.instructions import Op, instr as I
        module = WasmModule()
        # A straddling f64 load: address 65532 with 1 committed page.
        module.add_function(Function(
            "main", FuncType((), ("f64",)), [],
            [I(Op.I32_CONST, 65532), I(Op.F64_LOAD, 0)], exported=True))
        validate_module(module)
        snaps = []
        for fast in ("1", "0"):
            monkeypatch.setenv("REPRO_FAST_INTERP", fast)
            inst = WasmVM().instantiate(module)
            with pytest.raises(TrapError) as excinfo:
                inst.invoke("main")
            snaps.append((str(excinfo.value), _snap(inst.stats)))
        assert snaps[0] == snaps[1]
        assert "out-of-bounds" in snaps[0][0]


class TestBenchSmoke:
    def test_bench_smoke_runs(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)])
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench.py"), "--smoke"],
            capture_output=True, text=True, timeout=570, env=env,
            cwd=str(ROOT))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "smoke ok" in result.stdout
