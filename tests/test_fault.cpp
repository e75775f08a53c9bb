// Fault-injection tests: FaultPlan/FaultInjector semantics, machine-level
// power cuts and bit flips, kernel retry + backoff under syscall faults,
// NvStore torn writes and arm_crash_after composition, the watchdog trap
// for runaway programs, and the fail-closed sweep harness.
#include <gtest/gtest.h>

#include "cc/compiler.hpp"
#include "core/fault_sweep.hpp"
#include "fault/fault.hpp"
#include "isa/encoder.hpp"
#include "os/process.hpp"
#include "statecont/nv.hpp"
#include "trace/trace.hpp"
#include "vm/machine.hpp"

namespace {

using namespace swsec;
using fault::FaultClass;
using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultPlan;
using swsec::isa::Encoder;
using swsec::isa::Op;
using swsec::isa::Reg;

// --- FaultInjector decision semantics ---------------------------------------

TEST(Injector, MachineEventFiresOnceAtItsStep) {
    FaultInjector inj{FaultPlan().add(FaultEvent::power_cut(5))};
    for (std::uint64_t s = 0; s < 5; ++s) {
        EXPECT_EQ(inj.on_instruction(s).kind, fault::StepFault::Kind::None) << s;
    }
    EXPECT_EQ(inj.on_instruction(5).kind, fault::StepFault::Kind::PowerCut);
    EXPECT_EQ(inj.on_instruction(5).kind, fault::StepFault::Kind::None);
    EXPECT_EQ(inj.on_instruction(6).kind, fault::StepFault::Kind::None);
    EXPECT_EQ(inj.faults_fired(), 1u);
}

TEST(Injector, EarliestPendingEventFiresFirst) {
    FaultInjector inj{FaultPlan()
                          .add(FaultEvent::reg_bit_flip(7, 1, 0))
                          .add(FaultEvent::reg_bit_flip(3, 2, 0))};
    // One fault per boundary: catching up past both events drains them in
    // schedule order, earliest first.
    EXPECT_EQ(inj.on_instruction(10).a, 2u);
    EXPECT_EQ(inj.on_instruction(10).a, 1u);
    EXPECT_EQ(inj.on_instruction(10).kind, fault::StepFault::Kind::None);
}

TEST(Injector, ResetReplaysTheSameDecisions) {
    FaultInjector inj{FaultPlan().add(FaultEvent::power_cut(2))};
    EXPECT_EQ(inj.on_instruction(2).kind, fault::StepFault::Kind::PowerCut);
    EXPECT_EQ(inj.on_instruction(2).kind, fault::StepFault::Kind::None);
    inj.reset();
    EXPECT_EQ(inj.faults_fired(), 0u);
    EXPECT_EQ(inj.on_instruction(2).kind, fault::StepFault::Kind::PowerCut);
}

TEST(Injector, SyscallFailureIsTransient) {
    // The 1st syscall fails twice, then recovers on the third attempt.
    FaultInjector inj{FaultPlan().add(FaultEvent::syscall_fail(1, 2))};
    EXPECT_TRUE(inj.on_syscall(3, 0).fail);
    EXPECT_TRUE(inj.on_syscall(3, 1).fail);
    EXPECT_FALSE(inj.on_syscall(3, 2).fail);
    // The next syscall (new ordinal) is healthy.
    EXPECT_FALSE(inj.on_syscall(3, 0).fail);
    EXPECT_EQ(inj.syscalls_seen(), 2u);
}

TEST(Injector, ShortReadCapsOnlyTheScheduledSyscall) {
    FaultInjector inj{FaultPlan().add(FaultEvent::short_read(2, 3))};
    EXPECT_FALSE(inj.on_syscall(3, 0).short_read);
    const auto f = inj.on_syscall(3, 0);
    EXPECT_TRUE(f.short_read);
    EXPECT_EQ(f.max_bytes, 3u);
    EXPECT_FALSE(inj.on_syscall(3, 0).short_read);
}

TEST(Injector, RandomPlansAreDeterministicPerSeed) {
    const auto a = FaultPlan::random(99, FaultClass::RegBitFlip, 8, 1000);
    const auto b = FaultPlan::random(99, FaultClass::RegBitFlip, 8, 1000);
    const auto c = FaultPlan::random(100, FaultClass::RegBitFlip, 8, 1000);
    ASSERT_EQ(a.events().size(), 8u);
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at) << i;
        EXPECT_EQ(a.events()[i].a, b.events()[i].a) << i;
        EXPECT_EQ(a.events()[i].b, b.events()[i].b) << i;
    }
    bool differs = false;
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        differs = differs || a.events()[i].at != c.events()[i].at;
    }
    EXPECT_TRUE(differs) << "different seeds must give different schedules";
}

// --- machine-level faults ----------------------------------------------------

struct Runner {
    vm::Machine m;

    explicit Runner(vm::MachineOptions opts = {}) : m(opts) {
        m.memory().map(0x1000, 0x1000, vm::Perm::RX);
        m.memory().map(0x8000, 0x1000, vm::Perm::RW); // data
        m.memory().map(0xf000, 0x1000, vm::Perm::RW); // stack
        m.set_ip(0x1000);
        m.set_sp(0xff00);
    }

    vm::RunResult run(const Encoder& e, std::uint64_t max_steps = 10000) {
        m.memory().protect(0x1000, 0x1000, vm::Perm::RW);
        m.memory().raw_write(0x1000, e.bytes());
        m.memory().protect(0x1000, 0x1000, vm::Perm::RX);
        return m.run(max_steps);
    }
};

Encoder straight_line_program() {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 1);
    e.reg_imm32(Op::MovI, Reg::R2, 2);
    e.reg_imm32(Op::MovI, Reg::R3, 3);
    e.reg_imm32(Op::MovI, Reg::R4, 4);
    e.none(Op::Halt);
    return e;
}

TEST(MachineFaults, PowerCutStopsAtTheScheduledBoundary) {
    FaultInjector inj{FaultPlan().add(FaultEvent::power_cut(2))};
    Runner r;
    r.m.set_fault_injector(&inj);
    const auto res = r.run(straight_line_program());
    EXPECT_EQ(res.trap.kind, vm::TrapKind::PowerCut);
    EXPECT_EQ(res.steps, 2u); // two instructions retired, the third never ran
    EXPECT_EQ(r.m.reg(Reg::R3), 0u);
}

TEST(MachineFaults, RegisterBitFlipUpsetsArchitecturalState) {
    // Flip bit 5 of r1 after it was written but before the program ends.
    FaultInjector inj{FaultPlan().add(FaultEvent::reg_bit_flip(3, 1, 5))};
    Runner r;
    r.m.set_fault_injector(&inj);
    const auto res = r.run(straight_line_program());
    EXPECT_EQ(res.trap.kind, vm::TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R1), 1u ^ 32u);
    EXPECT_EQ(r.m.reg(Reg::R2), 2u); // only the targeted cell is upset
}

TEST(MachineFaults, MemoryBitFlipHitsMappedByte) {
    FaultInjector inj{FaultPlan().add(FaultEvent::mem_bit_flip(1, 0x8010, 7))};
    Runner r;
    r.m.memory().raw_write8(0x8010, 0x01);
    r.m.set_fault_injector(&inj);
    const auto res = r.run(straight_line_program());
    EXPECT_EQ(res.trap.kind, vm::TrapKind::Halted);
    EXPECT_EQ(r.m.memory().raw_read8(0x8010), 0x81);
}

TEST(MachineFaults, MemoryBitFlipOnUnmappedAddressIsHarmless) {
    // A cosmic ray hitting address space nothing is mapped at upsets nothing
    // — the run completes untouched (this is what makes ASLR-shifted sweeps
    // safe to aim at default segment addresses).
    FaultInjector inj{FaultPlan().add(FaultEvent::mem_bit_flip(1, 0x00500000, 0))};
    Runner r;
    r.m.set_fault_injector(&inj);
    const auto res = r.run(straight_line_program());
    EXPECT_EQ(res.trap.kind, vm::TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R4), 4u);
}

// --- watchdog semantics (step-budget exhaustion) -----------------------------

TEST(Watchdog, RunawayProgramIsKilledAndReported) {
    const auto img = cc::compile_program({R"(
        int main() {
            int i = 0;
            while (0 < 1) { i = i + 1; }
            return i;
        }
    )"},
                                         {});
    os::Process p(img, os::SecurityProfile::none(), 1);
    const auto r = p.run(/*max_steps=*/20000);
    EXPECT_EQ(r.trap.kind, vm::TrapKind::OutOfGas);
    EXPECT_TRUE(r.watchdog_expired());
    EXPECT_EQ(r.steps, 20000u);
    EXPECT_NE(r.trap.detail.find("watchdog"), std::string::npos) << r.trap.to_string();
}

TEST(Watchdog, TerminatingProgramDoesNotTripIt) {
    const auto img = cc::compile_program({"int main() { return 0; }"}, {});
    os::Process p(img, os::SecurityProfile::none(), 1);
    const auto r = p.run(20000);
    EXPECT_TRUE(r.exited(0));
    EXPECT_FALSE(r.watchdog_expired());
}

// --- kernel syscall faults: bounded retry + backoff --------------------------

os::Process make_reader(const os::SecurityProfile& prof) {
    static const char* kSrc = R"(
        int main() { char b[8]; int n = read(0, b, 4); return n; }
    )";
    return {cc::compile_program({kSrc}, {}), prof, 1};
}

TEST(KernelFaults, TransientFailureIsRiddenOutByRetries) {
    FaultInjector inj{FaultPlan().add(FaultEvent::syscall_fail(1, 2))};
    os::SecurityProfile prof;
    prof.fault_injector = &inj; // default policy: 4 attempts, backoff base 8
    auto p = make_reader(prof);
    p.feed_input("abcd");
    const auto r = p.run();
    EXPECT_TRUE(r.exited(4)) << r.trap.to_string();
    const auto& stats = p.kernel().fault_stats();
    EXPECT_EQ(stats.injected_failures, 2u);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.backoff_ticks, 8u + 16u); // exponential: 8, then 16
    EXPECT_EQ(stats.reported_errors, 0u);
}

TEST(KernelFaults, PersistentFailureIsReportedNotFabricated) {
    // Fail-closed at the driver layer: when the device keeps failing past
    // the retry budget the program gets -1, never made-up data.
    FaultInjector inj{FaultPlan().add(FaultEvent::syscall_fail(1, 100))};
    os::SecurityProfile prof;
    prof.fault_injector = &inj;
    prof.syscall_retry = {3, 4};
    auto p = make_reader(prof);
    p.feed_input("abcd");
    const auto r = p.run();
    EXPECT_TRUE(r.exited(-1)) << r.trap.to_string();
    const auto& stats = p.kernel().fault_stats();
    EXPECT_EQ(stats.injected_failures, 3u); // max_attempts = 3
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.reported_errors, 1u);
}

TEST(KernelFaults, ProcessWideRetryBudgetCapsTotalRetries) {
    // Per-call bounds alone let a persistently glitching device soak
    // retries x calls time; the process-wide budget stops the bleeding.
    // Budget 2: the first read burns both budgeted retries, then hits the
    // cap mid-call and fails immediately — still an error return, never
    // fabricated success.
    FaultInjector inj{FaultPlan().add(FaultEvent::syscall_fail(1, 100))};
    os::SecurityProfile prof;
    prof.fault_injector = &inj;
    prof.syscall_retry = {4, 8, 2}; // max_attempts 4, backoff 8, total budget 2
    auto p = make_reader(prof);
    p.feed_input("abcd");
    const auto r = p.run();
    EXPECT_TRUE(r.exited(-1)) << r.trap.to_string();
    const auto& stats = p.kernel().fault_stats();
    EXPECT_EQ(stats.retries, 2u);          // never exceeds the budget
    EXPECT_EQ(stats.budget_exhausted, 1u); // the degradation point was recorded
    EXPECT_EQ(stats.reported_errors, 1u);
}

TEST(KernelFaults, BudgetExhaustionEmitsTraceEvent) {
    FaultInjector inj{FaultPlan().add(FaultEvent::syscall_fail(1, 100))};
    trace::Tracer tracer;
    os::SecurityProfile prof;
    prof.fault_injector = &inj;
    prof.syscall_retry = {4, 8, 1};
    prof.tracer = &tracer;
    auto p = make_reader(prof);
    p.feed_input("abcd");
    const auto r = p.run();
    EXPECT_TRUE(r.exited(-1)) << r.trap.to_string();
    bool saw_exhaustion = false;
    for (std::size_t i = 0; i < tracer.size(); ++i) {
        const trace::TraceEvent& e = tracer.event(i);
        if (e.kind == trace::EventKind::FaultInjected &&
            e.detail == "syscall retry budget exhausted") {
            saw_exhaustion = true;
        }
    }
    EXPECT_TRUE(saw_exhaustion);
    EXPECT_EQ(p.kernel().fault_stats().budget_exhausted, 1u);
}

TEST(KernelFaults, ShortReadDeliversFewerBytes) {
    FaultInjector inj{FaultPlan().add(FaultEvent::short_read(1, 2))};
    os::SecurityProfile prof;
    prof.fault_injector = &inj;
    auto p = make_reader(prof);
    p.feed_input("abcd");
    const auto r = p.run();
    EXPECT_TRUE(r.exited(2)) << r.trap.to_string();
    EXPECT_EQ(p.kernel().fault_stats().short_reads, 1u);
}

// --- NvStore: torn writes and the single crash-scheduling path ---------------

TEST(NvFaults, TornWritePersistsOnlyAPrefix) {
    statecont::NvStore nv;
    FaultInjector inj{FaultPlan().add(FaultEvent::nv_torn_write(1, 3))};
    nv.set_fault_injector(&inj);
    const statecont::Blob blob = {10, 11, 12, 13, 14, 15, 16, 17};
    EXPECT_THROW(nv.write(0, blob), statecont::PowerCut);
    nv.set_fault_injector(nullptr);
    const auto kept = nv.attacker_read(0);
    ASSERT_TRUE(kept.has_value());
    EXPECT_EQ(*kept, (statecont::Blob{10, 11, 12}));
}

TEST(NvFaults, ArmCrashAfterSchedulesOnTheSharedInjector) {
    // arm_crash_after is sugar over the external plan: one scheduling path,
    // one accounting of the fired cut.
    statecont::NvStore nv;
    FaultInjector inj;
    nv.set_fault_injector(&inj);
    nv.arm_crash_after(2);
    ASSERT_EQ(inj.plan().events().size(), 1u);
    EXPECT_EQ(inj.plan().events()[0].cls, FaultClass::NvPowerCut);
    nv.write(0, {1});
    nv.write(1, {2});
    EXPECT_THROW(nv.write(2, {3}), statecont::PowerCut);
    EXPECT_EQ(inj.faults_fired(), 1u);
    // The cut fired exactly once: the device is healthy again.
    nv.write(2, {3});
    EXPECT_EQ(inj.faults_fired(), 1u);
}

TEST(NvFaults, DisarmCancelsPendingCuts) {
    statecont::NvStore nv;
    nv.arm_crash_after(0);
    nv.disarm();
    nv.write(0, {1}); // must not throw
    EXPECT_TRUE(nv.attacker_read(0).has_value());
}

// --- the fail-closed sweeps --------------------------------------------------

TEST(FaultSweep, StatecontLivenessHoldsForEveryCrashAndTearWindow) {
    const auto sweep = core::run_statecont_fault_sweep(/*state_bytes=*/16);
    EXPECT_GT(sweep.windows, 0u);
    EXPECT_EQ(sweep.crashes, sweep.windows) << "every enumerated window must land its cut";
    EXPECT_TRUE(sweep.violations.empty())
        << sweep.violations.size() << " violations, first: " << sweep.violations.front();
}

TEST(FaultSweep, BlockedCellsStayBlockedUnderFaults) {
    // A small but real slice of the full sweep (the whole matrix runs in the
    // fault-sweep CLI): two attacks x two defenses x three fault classes.
    core::FaultSweepOptions opts;
    opts.attacks = {core::AttackKind::StackSmashInject, core::AttackKind::Rop};
    opts.defenses = {core::Defense::standard_hardening(),
                     core::Defense::all_exploit_mitigations()};
    opts.classes = {FaultClass::PowerCut, FaultClass::RegBitFlip, FaultClass::SyscallFail};
    opts.windows_per_class = 3;
    opts.include_statecont = false;
    const auto rep = core::run_fault_sweep(opts);
    EXPECT_EQ(rep.cells, 4u);
    EXPECT_GT(rep.baseline_blocked, 0u);
    EXPECT_TRUE(rep.fail_closed());
    for (const auto& v : rep.violations) {
        ADD_FAILURE() << v.to_string();
    }
}

TEST(FaultSweep, GlitchedCompiledChecksAreDocumentedNotFailOpen) {
    // The address sanitizer's enforcement is compiled guest code: a shadow
    // probe before the store.  A register bit flip can jump past it — the
    // paper's fault-attacker result — so a flip on a sanitize-blocked cell
    // must land in the `glitched` residual, never in `violations`.  This
    // sweeps the stack-hop vs sanitize cell with the default seeds, where
    // a reg-bit-flip window is known to skip the check (replayable).
    const auto& attacks = core::all_attacks();
    const auto& defenses = core::standard_defenses();
    std::size_t ai = attacks.size();
    std::size_t di = defenses.size();
    for (std::size_t i = 0; i < attacks.size(); ++i) {
        if (attacks[i] == core::AttackKind::StackIndexHop) {
            ai = i;
        }
    }
    for (std::size_t i = 0; i < defenses.size(); ++i) {
        if (defenses[i].name == "sanitize") {
            di = i;
        }
    }
    ASSERT_LT(ai, attacks.size());
    ASSERT_LT(di, defenses.size());

    core::FaultSweepOptions opts;
    opts.windows_per_class = 6;
    opts.classes = {FaultClass::RegBitFlip};
    // Class index must match the full sweep's schedule (RegBitFlip is
    // class 1 there) so the drawn windows are the ones CI replays.
    opts.classes.insert(opts.classes.begin(), FaultClass::PowerCut);
    const auto cell = core::sweep_fault_cell(opts, ai, di);

    ASSERT_FALSE(cell.baseline_success);
    EXPECT_EQ(cell.record.outcome.trap.origin, trace::CheckOrigin::AddressSanitizer);
    EXPECT_TRUE(cell.violations.empty())
        << "a compiled-check bypass must not count as fail-open: "
        << cell.violations.front().to_string();
    EXPECT_FALSE(cell.glitched.empty())
        << "the known reg-bit-flip bypass of the shadow probe should reproduce";
    for (const auto& g : cell.glitched) {
        EXPECT_EQ(g.defense, "sanitize");
        EXPECT_EQ(g.event.cls, FaultClass::RegBitFlip);
    }
}

TEST(FaultSweep, ReportsAreDeterministic) {
    core::FaultSweepOptions opts;
    opts.attacks = {core::AttackKind::DataOnly};
    opts.defenses = {core::Defense::safe_language()};
    opts.windows_per_class = 2;
    opts.include_statecont = false;
    const auto a = core::run_fault_sweep(opts);
    const auto b = core::run_fault_sweep(opts);
    EXPECT_EQ(a.summary(), b.summary());
}

} // namespace
