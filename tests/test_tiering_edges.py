"""Tiering edge cases, differential across the two interpreter tiers.

The promotion machinery has sharp corners — contradictory enable flags,
degenerate hotness thresholds, tier-up landing exactly on the threshold,
OSR in the middle of a running loop.  Each case is pinned at the plan
level and, where the engines execute it, asserted byte-identical across
the reference ladder (``REPRO_FAST_INTERP=0``) and the codegen tier — a
mispriced edge in one tier shows up as a stats diff.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from repro.engine.compilemodel import CodeUnit
from repro.engine.tiering import TierController, TierPolicy
from repro.env import chrome_desktop, firefox_desktop

TIERS = ("ref", "codegen")


def _set_tier(monkeypatch, tier):
    monkeypatch.setenv("REPRO_FAST_INTERP", "0" if tier == "ref" else "1")


def _snap(stats):
    snap = dataclasses.asdict(stats)
    return {k: repr(tuple(v) if isinstance(v, list) else v)
            for k, v in snap.items()}


UNIT = CodeUnit(static_instrs=300)


# ---------------------------------------------------------------------------
# Plan-level corners.

class TestPlanEdges:
    def test_eager_flag_without_basic_tier_degrades_to_opt_only(self):
        """eager_opt_compile only means 'compile both at startup' when
        both tiers exist; with the basic tier disabled it is an opt-only
        host, not an error and not a double charge."""
        policy = chrome_desktop().wasm.tier_policy().tweak(
            basic_enabled=False, eager_opt_compile=True)
        plan = TierController(policy).plan(UNIT, 10 ** 9)
        assert [(p, t) for p, t, _c in plan.compiles] == \
            [("compile", policy.optimizing_name)]
        assert plan.compile_cycles == policy.optimizing.compile_cycles(UNIT)
        assert plan.exec_factor == policy.opt_exec_factor
        assert not plan.tiered_up           # never *promoted* — started there

    def test_zero_threshold_promotes_on_any_execution(self):
        policy = chrome_desktop().wasm.tier_policy().tweak(
            tier_up_instructions=0)
        controller = TierController(policy)
        hot = controller.plan(UNIT, 1)
        assert hot.tiered_up and hot.switch_instructions == 0
        # frac_basic = 0/1: every retired instruction ran optimized.
        assert hot.exec_factor == policy.opt_exec_factor
        cold = controller.plan(UNIT, 0)     # never executed: strict >
        assert not cold.tiered_up
        assert cold.exec_factor == policy.basic_exec_factor

    def test_threshold_of_one_blends_at_the_second_instruction(self):
        policy = chrome_desktop().wasm.tier_policy().tweak(
            tier_up_instructions=1)
        controller = TierController(policy)
        assert not controller.plan(UNIT, 1).tiered_up
        hot = controller.plan(UNIT, 2)
        assert hot.tiered_up
        assert hot.exec_factor == (policy.basic_exec_factor * 0.5
                                   + policy.opt_exec_factor * 0.5)

    @pytest.mark.parametrize("policy_fn", [
        lambda: chrome_desktop().wasm.tier_policy(),
        lambda: firefox_desktop().wasm.tier_policy().tweak(
            eager_opt_compile=False),
    ], ids=["chrome", "firefox-lazy"])
    def test_tier_up_exactly_on_threshold_stays_basic(self, policy_fn):
        policy = policy_fn()
        controller = TierController(policy)
        at = controller.plan(UNIT, policy.tier_up_instructions)
        above = controller.plan(UNIT, policy.tier_up_instructions + 1)
        assert not at.tiered_up
        assert at.switch_instructions is None
        assert at.startup_compile_cycles == at.compile_cycles
        assert above.tiered_up
        assert above.tier_up_cycles == \
            policy.optimizing.compile_cycles(UNIT)


# ---------------------------------------------------------------------------
# Engine-level corners, differential across interpreter tiers.

def _run_wasm(policy):
    from repro.engine.hostlib import wasm_host_imports
    from repro.wasm import FuncType, Function, WasmModule, WasmVM, \
        validate_module
    from repro.wasm.instructions import Op, instr as I

    module = WasmModule()
    # for (i = 400; i != 0; i--) ;  — enough back-edges to matter.
    module.add_function(Function(
        "main", FuncType((), ("i32",)), ["i32"],
        [I(Op.I32_CONST, 400), I(Op.LOCAL_SET, 0),
         I(Op.BLOCK, "void"), I(Op.LOOP, "void"),
         I(Op.LOCAL_GET, 0), I(Op.I32_CONST, 1), I(Op.I32_SUB),
         I(Op.LOCAL_TEE, 0), I(Op.I32_EQZ), I(Op.BR_IF, 1),
         I(Op.BR, 0), I(Op.END), I(Op.END),
         I(Op.LOCAL_GET, 0)], exported=True))
    validate_module(module)
    output = []
    inst = WasmVM(tier_policy=policy).instantiate(
        module, wasm_host_imports(output, None))
    result = inst.invoke("main")
    return result, inst.stats


def _run_js_osr(threshold):
    from repro.engine.hostlib import install_js_host
    from repro.jsengine import JsEngine
    from repro.jsengine.config import JsEngineConfig

    engine = JsEngine(JsEngineConfig(backedge_threshold=threshold))
    install_js_host(engine, [])
    engine.load_script(
        "function f() { var s = 0;"
        " for (var i = 0; i < 300; i++) { s = s + i; } return s; }")
    result = engine.call_global("f")
    fn = engine.globals["f"]
    return result, fn.tier, engine.stats


def _run_js_mixed_osr():
    """A loop that OSR-promotes mid-call while touching a boxed array,
    calling a native function and allocating (small GC trigger)."""
    from repro.engine.hostlib import install_js_host
    from repro.jsengine import JsEngine
    from repro.jsengine.config import JsEngineConfig

    engine = JsEngine(JsEngineConfig(backedge_threshold=30,
                                     gc_trigger_bytes=3000))
    install_js_host(engine, [])
    engine.load_script(
        "function f() { var a = [1, 2, 3, 4, 5]; var s = 0;"
        " for (var i = 0; i < 80; i++) {"
        "   var t = [i, s];"
        "   s = s + a[i % 5] * 0.5 + Math.sqrt(i) + t[0];"
        "   a[i % 5] = s % 7; }"
        " return s; }")
    result = engine.call_global("f")
    fn = engine.globals["f"]
    return repr(result), fn.tier, _snap(engine.stats), \
        engine._profile.to_dict()


class TestEngineEdgesDifferential:
    @pytest.mark.parametrize("policy_kwargs", [
        {"tier_up_instructions": 0},
        {"tier_up_instructions": 1},
        {"basic_enabled": False, "eager_opt_compile": True},
    ], ids=["zero-threshold", "one-threshold", "eager-no-basic"])
    def test_wasm_stats_identical_across_tiers(self, monkeypatch,
                                               policy_kwargs):
        policy = chrome_desktop().wasm.tier_policy().tweak(**policy_kwargs)
        snaps = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            result, stats = _run_wasm(policy)
            assert result == 0
            assert stats.compile_cycles > 0
            snaps[tier] = _snap(stats)
        assert snaps["ref"] == snaps["codegen"]

    @pytest.mark.parametrize("threshold", [1, 50],
                             ids=["osr-first-backedge", "osr-mid-loop"])
    def test_js_osr_promotes_mid_loop_identically(self, monkeypatch,
                                                  threshold):
        """The loop gets hot *during* its single invocation: the function
        must finish the call on the optimizing tier (OSR), with the
        promotion compile charged — identically in every interpreter
        tier."""
        snaps = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            result, fn_tier, stats = _run_js_osr(threshold)
            assert result == sum(range(300))
            assert fn_tier == 1                  # promoted mid-call
            assert stats.tier_ups == 1
            assert stats.tier_up_compile_cycles > 0
            snaps[tier] = _snap(stats)
        assert snaps["ref"] == snaps["codegen"]

    def test_js_one_body_across_osr_charges_both_tiers(self, monkeypatch):
        """One generated body serves both tiers: it rebinds its charge
        table after the back-edge that promotes the function mid-call.
        Boxed-``JSArray`` GETIDX/SETIDX penalties, ``Math.sqrt`` native
        calls and GC pauses land before and after the promotion, and
        every one of them must be priced by the tier that ran it."""
        monkeypatch.setenv("REPRO_PROFILE", "1")
        runs = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            runs[tier] = _run_js_mixed_osr()
        result, fn_tier, stats, profile = runs["ref"]
        assert fn_tier == 1 and stats["tier_ups"] == "1"
        assert int(stats["gc_runs"]) > 0
        ops = profile["ops"]["f"]
        # Both tiers ran GETIDX (37), SETIDX (38) and METHOD (32) calls.
        for op in (37, 38, 32):
            assert str(op) in ops and str(op + 256) in ops
        assert runs["codegen"] == runs["ref"]

    def test_js_below_threshold_never_promotes(self, monkeypatch):
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            _result, fn_tier, stats = _run_js_osr(10 ** 6)
            assert fn_tier == 0
            assert stats.tier_ups == 0
            assert stats.tier_up_compile_cycles == 0.0


# ---------------------------------------------------------------------------
# tweak() keeps accepting the legacy spellings the satellites removed
# from the config (regression guard for the alias table).

class TestTweakAliases:
    def test_legacy_scalar_spellings_rewrite_the_models(self):
        policy = TierPolicy()
        tweaked = policy.tweak(basic_compile_cycles_per_instr=3.25,
                               opt_compile_cycles_per_instr=40.0,
                               basic_exec_factor=1.5,
                               tier_up_instructions=123)
        assert tweaked.basic.cycles_per_instr == 3.25
        assert tweaked.optimizing.cycles_per_instr == 40.0
        assert tweaked.basic.exec_factor == 1.5
        assert tweaked.tier_up_instructions == 123
        # The original frozen policy is untouched.
        assert policy.basic.cycles_per_instr == 2.0

    def test_unknown_kwarg_still_raises(self):
        with pytest.raises(TypeError):
            TierPolicy().tweak(not_a_field=1)
