// Tiered-execution-engine tests (DESIGN.md §13).
//
// The tier-2 fast engine's contract is byte-identical architectural
// behaviour to the fully instrumented step() loop: same registers, step
// counts and traps for every program, with deoptimization at page
// generation bumps, budget boundaries (including *inside* a fused
// superinstruction), observer attach, and NX/PMA transitions.  These tests
// pin the deopt points one by one; the fuzzer's engine-A/engine-B oracle
// covers the same contract over generated programs.
#include <gtest/gtest.h>

#include <utility>

#include "fault/fault.hpp"
#include "isa/encoder.hpp"
#include "profile/profiler.hpp"
#include "trace/trace.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"

namespace {

using namespace swsec::vm;
using swsec::isa::Encoder;
using swsec::isa::Op;
using swsec::isa::Reg;

constexpr std::uint32_t kCode = 0x1000;
constexpr std::uint32_t kStackTop = 0xff00;

struct Runner {
    Machine m;

    explicit Runner(MachineOptions opts = {}) : m(opts) {
        m.memory().map(kCode, 0x1000, Perm::RWX); // writable code: SMC tests
        m.memory().map(0xf000, 0x1000, Perm::RW); // stack
        m.set_ip(kCode);
        m.set_sp(kStackTop);
    }

    RunResult run(const Encoder& e, std::uint64_t max_steps = 10000) {
        m.memory().raw_write(kCode, e.bytes());
        return m.run(max_steps);
    }
};

/// Mixed straight-line + branch + call/ret workload exercising every fused
/// pattern once per iteration (cmp+jcc, cmpi+jcc, push+call, load+push,
/// movi+pop, leave+ret): a loop summing values through a one-argument
/// function call.
Encoder mixed_program() {
    Encoder e;
    // main: r2 = counter, r3 = accumulator, r4 = 0
    e.reg_imm32(Op::MovI, Reg::R2, 5);
    e.reg_imm32(Op::MovI, Reg::R3, 0);
    e.reg_imm32(Op::MovI, Reg::R4, 0);
    const auto loop = e.size();
    e.reg(Op::Push, Reg::R2); // push r2; call double_it  -> FusedPushCall
    const auto call = e.rel32(Op::Call, 0);
    e.reg_imm32(Op::AddI, Reg::Sp, 4);
    e.reg_reg(Op::Add, Reg::R3, Reg::R0);
    e.reg_imm32(Op::SubI, Reg::R2, 1);
    e.reg_reg(Op::Cmp, Reg::R2, Reg::R4); // cmp+jl (never taken) -> FusedCmpJcc
    const auto jl = e.rel32(Op::Jl, 0);
    e.reg_imm32(Op::CmpI, Reg::R2, 0); // cmpi+jnz           -> FusedCmpIJcc
    const auto jnz = e.rel32(Op::Jnz, 0);
    const auto done = e.size();
    e.none(Op::Halt);
    // double_it(n): returns n * 2, classic frame
    const auto fn = e.size();
    e.reg(Op::Push, Reg::Bp);
    e.reg_reg(Op::MovR, Reg::Bp, Reg::Sp);
    e.reg_mem(Op::Load, Reg::R0, Reg::Bp, 8); // load arg; push r0 -> FusedLoadPush
    e.reg(Op::Push, Reg::R0);
    e.reg_imm32(Op::MovI, Reg::R1, 2); // movi; pop          -> FusedMovIPop
    e.reg(Op::Pop, Reg::R0);
    e.reg_reg(Op::Mul, Reg::R0, Reg::R1);
    e.none(Op::Leave); // leave; ret                         -> FusedLeaveRet
    e.none(Op::Ret);
    e.patch_rel32(call, fn);
    e.patch_rel32(jl, done);
    e.patch_rel32(jnz, loop);
    return e;
}

/// Run the same encoder under tier 2 (fast engine) and tier 1 (disabled)
/// and require identical architectural results.
void expect_ab_identical(const Encoder& e, std::uint64_t max_steps = 10000) {
    MachineOptions fast;
    MachineOptions slow;
    slow.fast_engine = false;
    Runner a(fast);
    Runner b(slow);
    const auto ra = a.run(e, max_steps);
    const auto rb = b.run(e, max_steps);
    EXPECT_EQ(ra.trap.kind, rb.trap.kind);
    EXPECT_EQ(ra.trap.ip, rb.trap.ip);
    EXPECT_EQ(ra.trap.addr, rb.trap.addr);
    EXPECT_EQ(ra.trap.detail, rb.trap.detail);
    EXPECT_EQ(ra.steps, rb.steps);
    for (int i = 0; i < swsec::isa::kNumRegs; ++i) {
        EXPECT_EQ(a.m.reg(static_cast<Reg>(i)), b.m.reg(static_cast<Reg>(i))) << "r" << i;
    }
    EXPECT_EQ(a.m.ip(), b.m.ip());
    EXPECT_EQ(b.m.dispatch_stats().tier2_entries, 0u) << "tier 1 run must not enter the engine";
}

// --- tier selection ----------------------------------------------------------

TEST(TierSelection, DefaultMachineRunsTier2) {
    Runner r;
    const auto res = r.run(mixed_program());
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R3), 2u * (5 + 4 + 3 + 2 + 1));
    const DispatchStats& d = r.m.dispatch_stats();
    EXPECT_GT(d.tier2_entries, 0u);
    EXPECT_GT(d.fast_steps, 0u);
    EXPECT_EQ(d.superinsns_retired, 6u * 5) << "six fused patterns, five iterations";
    EXPECT_GT(r.m.decode_cache().fused_built(), 0u);
}

TEST(TierSelection, ObserversAndOptionsForceTier1) {
    const Encoder e = mixed_program();
    const auto tier2_entries_with = [&](auto&& configure) {
        Runner r;
        configure(r.m);
        const auto res = r.run(e);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(r.m.reg(Reg::R3), 30u);
        return r.m.dispatch_stats().tier2_entries;
    };
    swsec::trace::Tracer tracer;
    swsec::profile::Profiler profiler;
    swsec::fault::FaultInjector faults{swsec::fault::FaultPlan{}}; // empty plan still counts
    EXPECT_EQ(tier2_entries_with([&](Machine& m) { m.set_tracer(&tracer); }), 0u);
    EXPECT_EQ(tier2_entries_with([&](Machine& m) { m.set_profiler(&profiler); }), 0u);
    EXPECT_EQ(tier2_entries_with([&](Machine& m) { m.set_fault_injector(&faults); }), 0u);
    EXPECT_EQ(tier2_entries_with([](Machine& m) { m.options().fast_engine = false; }), 0u);
    EXPECT_EQ(tier2_entries_with([](Machine& m) { m.options().decode_cache = false; }), 0u);
}

TEST(TierSelection, SanitizeAddressStaysOnTier2) {
    // sanitize_address is compiled-in instrumentation plus kernel
    // interceptors: the machine itself never consults the shadow, so the
    // flag must NOT demote execution.  The compiled shadow checks are
    // ordinary instructions tier 2 executes (and fuses) like any others,
    // and the trapping `sys` path already deopts at every syscall — so
    // A/B equivalence over the fused workload proves superinstruction
    // fusion cannot skip a check (test_sanitizer.cpp drives the same
    // contract end-to-end through compiled images).
    MachineOptions fast;
    fast.sanitize_address = true;
    MachineOptions slow = fast;
    slow.fast_engine = false;
    Runner a(fast);
    Runner b(slow);
    const Encoder e = mixed_program();
    const auto ra = a.run(e);
    const auto rb = b.run(e);
    EXPECT_EQ(ra.trap.kind, TrapKind::Halted);
    EXPECT_EQ(rb.trap.kind, TrapKind::Halted);
    EXPECT_EQ(ra.steps, rb.steps);
    for (int i = 0; i < swsec::isa::kNumRegs; ++i) {
        EXPECT_EQ(a.m.reg(static_cast<Reg>(i)), b.m.reg(static_cast<Reg>(i))) << "r" << i;
    }
    EXPECT_GT(a.m.dispatch_stats().tier2_entries, 0u)
        << "sanitize_address must not force tier 1";
    EXPECT_GT(a.m.dispatch_stats().superinsns_retired, 0u);
    EXPECT_EQ(b.m.dispatch_stats().tier2_entries, 0u);
}

TEST(TierSelection, ProtectedModulesForceTier1) {
    Runner r;
    ProtectedModule mod;
    mod.name = "m";
    mod.code_base = 0x8000;
    mod.code_size = 0x100;
    mod.entry_points = {0x8000};
    r.m.add_protected_module(mod);
    const auto res = r.run(mixed_program());
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.dispatch_stats().tier2_entries, 0u);
}

// --- A/B equivalence ---------------------------------------------------------

TEST(EngineAB, MixedWorkloadIdentical) { expect_ab_identical(mixed_program()); }

TEST(EngineAB, TrapProvenanceIdentical) {
    // A faulting store through a fused-adjacent sequence: trap ip/addr/msg
    // must match tier 1 exactly.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x5000); // unmapped
    e.reg_mem(Op::Store, Reg::R1, Reg::R0, 0);
    expect_ab_identical(e);

    Encoder div;
    div.reg_imm32(Op::MovI, Reg::R0, 7);
    div.reg_imm32(Op::MovI, Reg::R1, 0);
    div.reg_reg(Op::Divs, Reg::R0, Reg::R1);
    expect_ab_identical(div);
}

TEST(EngineAB, ShadowStackAndCfiReplicatedInTier2) {
    // Corrupt the return address on the stack; with the hardware shadow
    // stack the trap must be identical under both engines — and the tier-2
    // run must actually have executed on tier 2.
    Encoder e;
    const auto call = e.rel32(Op::Call, 0);
    e.none(Op::Halt);
    const auto fn = e.size();
    e.reg_imm32(Op::MovI, Reg::R1, 0); // r1 = &return address == sp
    e.reg_reg(Op::MovR, Reg::R1, Reg::Sp);
    e.reg_imm32(Op::MovI, Reg::R2, 0x2000);
    e.reg_mem(Op::Store, Reg::R1, Reg::R2, 0); // overwrite return address
    e.none(Op::Ret);
    e.patch_rel32(call, fn);

    MachineOptions fast;
    fast.hardware_shadow_stack = true;
    MachineOptions slow = fast;
    slow.fast_engine = false;
    Runner a(fast);
    Runner b(slow);
    const auto ra = a.run(e);
    const auto rb = b.run(e);
    EXPECT_EQ(ra.trap.kind, TrapKind::ShadowStackViolation);
    EXPECT_EQ(rb.trap.kind, TrapKind::ShadowStackViolation);
    EXPECT_EQ(ra.trap.ip, rb.trap.ip);
    EXPECT_EQ(ra.trap.addr, rb.trap.addr);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_GT(a.m.dispatch_stats().fast_steps, 0u);

    // Coarse CFI: an indirect jump to a non-approved target.
    Encoder j;
    j.reg_imm32(Op::MovI, Reg::R0, 0x1800);
    j.reg(Op::JmpR, Reg::R0);
    MachineOptions cfast;
    cfast.coarse_cfi = true;
    MachineOptions cslow = cfast;
    cslow.fast_engine = false;
    Runner ca(cfast);
    Runner cb(cslow);
    const auto rca = ca.run(j);
    const auto rcb = cb.run(j);
    EXPECT_EQ(rca.trap.kind, TrapKind::CfiViolation);
    EXPECT_EQ(rcb.trap.kind, TrapKind::CfiViolation);
    EXPECT_EQ(rca.trap.ip, rcb.trap.ip);
    EXPECT_EQ(rca.trap.addr, rcb.trap.addr);
    EXPECT_GT(ca.m.dispatch_stats().fast_steps, 0u);

    // The CFI table from unsorted, duplicated input plus a later
    // add_cfi_target: both tiers approve and reject the same targets.
    for (const std::uint32_t target : {0x1700u, 0x1800u, 0x1900u, 0x1a00u, 0x1a04u}) {
        Encoder p;
        p.reg_imm32(Op::MovI, Reg::R0, target);
        p.reg(Op::JmpR, Reg::R0);
        const auto run_on = [&](Runner& r) {
            r.m.set_cfi_targets({0x1900, 0x1800, 0x1900, 0x1800});
            r.m.add_cfi_target(0x1a00);
            r.m.memory().raw_write8(target, static_cast<std::uint8_t>(Op::Halt));
            return r.run(p);
        };
        Runner ta(cfast);
        Runner tb(cslow);
        const auto ra2 = run_on(ta);
        const auto rb2 = run_on(tb);
        const bool approved = target == 0x1800 || target == 0x1900 || target == 0x1a00;
        EXPECT_EQ(ra2.trap.kind, approved ? TrapKind::Halted : TrapKind::CfiViolation) << target;
        EXPECT_EQ(ra2.trap.kind, rb2.trap.kind) << target;
        EXPECT_EQ(ra2.trap.ip, rb2.trap.ip) << target;
        EXPECT_EQ(ra2.trap.addr, rb2.trap.addr) << target;
        EXPECT_EQ(ra2.steps, rb2.steps) << target;
        EXPECT_GT(ta.m.dispatch_stats().fast_steps, 0u) << target;
    }
}

TEST(EngineAB, AdjacentPushPushCallAndLoadAddIdentical) {
    // push; push; call dispatches as a push and a fused push+call.  With the
    // stack inside the code page, the first push overwrites the call's last
    // byte and the second push the rest of it: the engine must deoptimize
    // after each store and execute the bytes they wrote (four nops, then
    // the halt written by the first push), exactly like tier 1.
    const auto push_push_call = [](std::uint32_t sp) {
        Encoder e;
        e.reg_imm32(Op::MovI, Reg::R0, 0); // four halt bytes
        e.reg_imm32(Op::MovI, Reg::R1, static_cast<std::int32_t>(0x90909090)); // four nops
        e.reg_imm32(Op::MovI, Reg::Sp, static_cast<std::int32_t>(sp));
        e.reg(Op::Push, Reg::R0);
        e.reg(Op::Push, Reg::R1);
        const auto call = e.rel32(Op::Call, 0);
        e.none(Op::Halt);
        const auto fn = e.size();
        e.none(Op::Ret);
        e.patch_rel32(call, fn);
        return std::make_pair(e, call);
    };
    const std::uint32_t call = push_push_call(0).second;
    const Encoder e = push_push_call(kCode + call + 8).first;
    Runner r;
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(res.trap.ip, kCode + call + 4) << "the bytes the pushes wrote must execute";
    EXPECT_GT(r.m.dispatch_stats().deopt_page_gen, 0u);
    expect_ab_identical(e);

    // load; add and load; addi, with the load reading the code page and
    // faulting on an unmapped address: the trap names the load, and the
    // add never retires.
    for (const std::uint32_t addr : {kCode, 0x5000u}) {
        for (const bool imm : {false, true}) {
            Encoder l;
            l.reg_imm32(Op::MovI, Reg::R1, static_cast<std::int32_t>(addr));
            l.reg_imm32(Op::MovI, Reg::R2, 7);
            l.reg_mem(Op::Load, Reg::R0, Reg::R1, 4);
            if (imm) {
                l.reg_imm32(Op::AddI, Reg::R2, 9);
            } else {
                l.reg_reg(Op::Add, Reg::R2, Reg::R0);
            }
            l.none(Op::Halt);
            Runner lr;
            EXPECT_EQ(lr.run(l).trap.kind, addr == kCode ? TrapKind::Halted : TrapKind::SegvRead)
                << addr;
            expect_ab_identical(l);
        }
    }
}

// --- deopt: budget boundaries ------------------------------------------------

TEST(Deopt, WatchdogExpiryInsideFusedSuperinstruction) {
    // cmp+jcc fuses to one two-step dispatch.  With a budget that dies
    // between the cmp and the jcc, tier 2 must hand the head instruction to
    // tier 1 alone so the watchdog fires at exactly the same instruction —
    // and report the jcc's address as where the budget died.
    Encoder e;
    const auto loop = e.size();
    e.reg_imm32(Op::CmpI, Reg::R0, 1);
    const auto jnz = e.rel32(Op::Jnz, 0);
    e.patch_rel32(jnz, loop);
    e.none(Op::Halt);

    for (const std::uint64_t budget : {1u, 2u, 3u, 4u, 5u, 7u}) {
        MachineOptions fast;
        MachineOptions slow;
        slow.fast_engine = false;
        Runner a(fast);
        Runner b(slow);
        const auto ra = a.run(e, budget);
        const auto rb = b.run(e, budget);
        EXPECT_EQ(ra.trap.kind, TrapKind::OutOfGas) << "budget=" << budget;
        EXPECT_EQ(ra.trap.kind, rb.trap.kind) << "budget=" << budget;
        EXPECT_EQ(ra.trap.addr, rb.trap.addr) << "budget=" << budget;
        EXPECT_EQ(ra.steps, rb.steps) << "budget=" << budget;
        EXPECT_EQ(ra.steps, budget) << "budget=" << budget;
    }
    // Odd budgets die between cmp and jcc: the watchdog must name the jcc.
    Runner odd;
    const auto res = odd.run(e, 1);
    EXPECT_EQ(res.trap.addr, kCode + 6u) << "budget died at the jcc, not the cmp";
}

// --- deopt: self-modifying code / page generation ----------------------------

TEST(Deopt, SelfModifyingStoreBumpsGenerationUnderTier2) {
    // Patch the immediate of a later MovI, loop back, re-execute it.  The
    // engine must deoptimize at the generation bump and the second pass
    // must see the new immediate (no stale fused/predecoded entries).
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R2, 0); // pass counter
    const auto loop = e.size();
    const auto target = e.size();
    e.reg_imm32(Op::MovI, Reg::R0, 111);
    e.reg_imm32(Op::CmpI, Reg::R2, 0);
    const auto jnz = e.rel32(Op::Jnz, 0);
    e.reg_imm32(Op::MovI, Reg::R1, static_cast<std::int32_t>(kCode + target + 2));
    e.reg_imm32(Op::MovI, Reg::R3, 222);
    e.reg_mem(Op::Store8, Reg::R1, Reg::R3, 0);
    e.reg_imm32(Op::MovI, Reg::R2, 1);
    const auto back = e.rel32(Op::Jmp, 0);
    e.patch_rel32(back, loop);
    const auto done = e.size();
    e.none(Op::Halt);
    e.patch_rel32(jnz, done);

    Runner r;
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 222u) << "second pass must execute the patched bytes";
    const DispatchStats& d = r.m.dispatch_stats();
    EXPECT_GT(d.tier2_entries, 0u);
    EXPECT_GT(d.deopt_page_gen, 0u) << "the in-page store must deoptimize the engine";
    expect_ab_identical(e);
}

TEST(Deopt, MidFusionSelfPatchResumesAtComponent) {
    // A push whose store lands inside the executing page, immediately
    // followed by a call: push+call fuses, the push bumps the page
    // generation mid-fusion, and the engine must resume at the call under
    // tier 1 with identical end state.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::Sp, kCode + 0x800); // stack inside the code page
    e.reg_imm32(Op::MovI, Reg::R0, 42);
    e.reg(Op::Push, Reg::R0);
    const auto call = e.rel32(Op::Call, 0);
    e.none(Op::Halt);
    const auto fn = e.size();
    e.none(Op::Ret);
    e.patch_rel32(call, fn);

    Runner r;
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_GT(r.m.dispatch_stats().deopt_page_gen, 0u)
        << "the in-page push must deopt mid-fusion";
    expect_ab_identical(e);
}

// --- deopt: observer attach between slices -----------------------------------

TEST(Deopt, TracerAttachBetweenSlicesDemotesToTier1) {
    // Run a slice under tier 2, attach a tracer at the slice boundary (the
    // campaign watchdog pattern), resume: the remainder must execute fully
    // instrumented, and the total behaviour must equal an uninterrupted
    // tier-1 run.
    Encoder e = mixed_program();
    Runner a;
    (void)a.run(e, 10); // slice 1: tier 2
    EXPECT_EQ(a.m.trap().kind, TrapKind::OutOfGas);
    EXPECT_GT(a.m.dispatch_stats().fast_steps, 0u);

    swsec::trace::Tracer tracer;
    a.m.set_tracer(&tracer);
    a.m.clear_trap();
    const auto resumed = a.m.run(10000); // slice 2: tier 1 (observed)
    EXPECT_EQ(resumed.trap.kind, TrapKind::Halted);
    EXPECT_GT(tracer.counters().instructions, 0u) << "resumed slice must be traced";

    MachineOptions slow;
    slow.fast_engine = false;
    Runner b(slow);
    const auto rb = b.run(e);
    EXPECT_EQ(resumed.trap.kind, rb.trap.kind);
    EXPECT_EQ(a.m.steps_executed(), rb.steps);
    for (int i = 0; i < swsec::isa::kNumRegs; ++i) {
        EXPECT_EQ(a.m.reg(static_cast<Reg>(i)), b.m.reg(static_cast<Reg>(i))) << "r" << i;
    }
}

TEST(Deopt, FaultPlanBitFlipInvalidatesUnderTier1Demotion) {
    // Attaching a fault plan demotes to tier 1 (the injector must probe
    // every instruction boundary), and a memory bit flip in the code page
    // must still invalidate any previously fused/predecoded entries.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 3); // imm low byte at kCode+2
    e.none(Op::Halt);

    // First: one clean tier-2 run builds fast entries for the page.
    Runner r;
    const auto clean = r.run(e);
    EXPECT_EQ(clean.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 3u);
    EXPECT_GT(r.m.dispatch_stats().fast_steps, 0u);

    // Then: rerun under a plan that flips bit 2 of the immediate (3 -> 7)
    // before the first instruction retires.
    swsec::fault::FaultPlan plan;
    plan.add(swsec::fault::FaultEvent::mem_bit_flip(0, kCode + 2, 2));
    swsec::fault::FaultInjector inj(std::move(plan));
    r.m.set_fault_injector(&inj);
    r.m.clear_trap();
    r.m.set_ip(kCode);
    const std::uint64_t tier2_before = r.m.dispatch_stats().tier2_entries;
    const auto flipped = r.m.run(10000);
    EXPECT_EQ(flipped.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 7u) << "the flipped bytes must execute, not the cached ones";
    EXPECT_EQ(r.m.dispatch_stats().tier2_entries, tier2_before)
        << "a fault plan must keep the machine on tier 1";
}

// --- deopt: NX flips ---------------------------------------------------------

TEST(Deopt, NxFlipInvalidatesFusedEntries) {
    MachineOptions opts;
    opts.enforce_nx = true;
    Machine m(opts);
    m.memory().map(kCode, 0x1000, Perm::RX);
    m.memory().map(0xf000, 0x1000, Perm::RW);

    Encoder e;
    e.reg_imm32(Op::CmpI, Reg::R0, 0); // fuses with the jz
    const auto jz = e.rel32(Op::Jz, 0);
    e.none(Op::Halt);
    const auto out = e.size();
    e.none(Op::Halt);
    e.patch_rel32(jz, out);
    m.memory().protect(kCode, 0x1000, Perm::RW);
    m.memory().raw_write(kCode, e.bytes());
    m.memory().protect(kCode, 0x1000, Perm::RX);

    m.set_ip(kCode);
    m.set_sp(kStackTop);
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::Halted);
    EXPECT_GT(m.decode_cache().fused_built(), 0u);
    EXPECT_GT(m.dispatch_stats().fast_steps, 0u);

    // Revoke X: tier 2 must refuse the page and the slow fetch must trap,
    // despite the fused entries still sitting in the cache arrays.
    m.memory().protect(kCode, 0x1000, Perm::RW);
    m.clear_trap();
    m.set_ip(kCode);
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::SegvExec);

    // Restore X: the generation moved, so the fused stream is rebuilt and
    // execution proceeds as before.
    m.memory().protect(kCode, 0x1000, Perm::RX);
    m.clear_trap();
    m.set_ip(kCode);
    const std::uint64_t built_before = m.decode_cache().fused_built();
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::Halted);
    EXPECT_GT(m.decode_cache().fused_built(), built_before)
        << "the NX round-trip must rebuild, not reuse, fused entries";
}

// --- dcache stats contract ---------------------------------------------------

TEST(DispatchStats, Tier2CreditsDecodeCacheHits) {
    // Every tier-2 retired instruction is a decode-cache hit by
    // construction; the engine must credit them so hit-rate metrics remain
    // comparable across tiers.
    Runner r;
    const auto res = r.run(mixed_program());
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    const DispatchStats& d = r.m.dispatch_stats();
    EXPECT_GE(r.m.decode_cache().hits(), d.fast_steps);
    EXPECT_GT(d.fast_steps, 0u);
}

} // namespace
