// Decode-cache regression tests: the per-page predecode cache is a pure
// performance layer, so everything the attack lab relies on — self-modifying
// code (shellcode injection), DEP/protect transitions, bit-flip faults —
// must behave trap-for-trap identically with the cache on and off, and the
// generation counters must invalidate stale entries precisely.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "cc/compiler.hpp"
#include "core/attack_lab.hpp"
#include "core/defense.hpp"
#include "isa/encoder.hpp"
#include "os/process.hpp"
#include "vm/decode_cache.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"

namespace {

using namespace swsec::vm;
using swsec::isa::Encoder;
using swsec::isa::Op;
using swsec::isa::Reg;

// --- DecodeCache unit tests --------------------------------------------------

TEST(DecodeCache, HitMissAndGenerationInvalidation) {
    Memory mem;
    mem.map(0x1000, 0x1000, Perm::RX);
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 111);
    e.none(Op::Halt);
    mem.protect(0x1000, 0x1000, Perm::RW);
    mem.raw_write(0x1000, e.bytes());
    mem.protect(0x1000, 0x1000, Perm::RX);

    DecodeCache dc;
    const auto* i1 = dc.lookup(mem, 0x1000, Perm::R);
    ASSERT_NE(i1, nullptr);
    EXPECT_EQ(i1->op, Op::MovI);
    EXPECT_EQ(i1->imm, 111);
    EXPECT_EQ(dc.decodes(), 1u);

    // Second lookup at the same address is a pure hit: no new decode.
    const auto* i2 = dc.lookup(mem, 0x1000, Perm::R);
    EXPECT_EQ(i2, i1);
    EXPECT_EQ(dc.decodes(), 1u);
    EXPECT_GE(dc.hits(), 1u);

    // Any write to the page bumps its generation; the next lookup must
    // re-decode the new bytes, and count one invalidation.
    mem.protect(0x1000, 0x1000, Perm::RW);
    mem.raw_write8(0x1002, 222); // low byte of MovI's imm32
    mem.protect(0x1000, 0x1000, Perm::RX);
    const auto* i3 = dc.lookup(mem, 0x1000, Perm::R);
    ASSERT_NE(i3, nullptr);
    EXPECT_EQ(i3->imm, 222);
    EXPECT_EQ(dc.invalidations(), 1u);
    EXPECT_EQ(dc.decodes(), 2u);
}

TEST(DecodeCache, PermissionMismatchFallsToSlowPath) {
    Memory mem;
    mem.map(0x1000, 0x1000, Perm::RW); // no X
    Encoder e;
    e.none(Op::Halt);
    mem.raw_write(0x1000, e.bytes());

    DecodeCache dc;
    // Asking for R|X on an RW page must refuse (the slow path owns the trap).
    EXPECT_EQ(dc.lookup(mem, 0x1000, Perm::R | Perm::X), nullptr);
    // Plain R is satisfied.
    EXPECT_NE(dc.lookup(mem, 0x1000, Perm::R), nullptr);
    // Unmapped address: refuse.
    EXPECT_EQ(dc.lookup(mem, 0x5000, Perm::R), nullptr);
}

TEST(DecodeCache, PageTailAlwaysSlowPath) {
    Memory mem;
    mem.map(0x1000, 0x2000, Perm::RX);
    mem.protect(0x1000, 0x2000, Perm::RW);
    for (std::uint32_t a = 0x1ff0; a < 0x1ff8; ++a) {
        mem.raw_write8(a, 0x90); // NOP
    }
    mem.protect(0x1000, 0x2000, Perm::RX);

    DecodeCache dc;
    // The last kMaxInsnLength-1 bytes of a page may straddle into the next
    // page, so the cache refuses them unconditionally.
    EXPECT_EQ(dc.lookup(mem, 0x1fff, Perm::R), nullptr);
    EXPECT_EQ(dc.lookup(mem, 0x2000 - swsec::isa::kMaxInsnLength + 1, Perm::R), nullptr);
    // One byte earlier is cacheable.
    EXPECT_NE(dc.lookup(mem, 0x2000 - swsec::isa::kMaxInsnLength, Perm::R), nullptr);
}

// --- Machine-level self-modifying code ---------------------------------------

struct Runner {
    Machine m;

    explicit Runner(MachineOptions opts = {}) : m(opts) {
        m.memory().map(0x1000, 0x1000, Perm::RWX); // writable code: SMC tests
        m.memory().map(0xf000, 0x1000, Perm::RW);  // stack
        m.set_ip(0x1000);
        m.set_sp(0xff00);
    }

    RunResult run(const Encoder& e, std::uint64_t max_steps = 10000) {
        m.memory().raw_write(0x1000, e.bytes());
        return m.run(max_steps);
    }
};

/// A program that executes an instruction, patches that same instruction's
/// immediate in place, loops back and re-executes it.  The cache serves the
/// first execution; the patch must invalidate it.
Encoder self_patching_program(std::uint32_t target_addr_slot) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R2, 0); // pass counter
    const auto loop = e.size();
    const auto target = e.size();      // target MovI lives here
    e.reg_imm32(Op::MovI, Reg::R0, 111);
    e.reg_imm32(Op::CmpI, Reg::R2, 0);
    const auto jnz = e.rel32(Op::Jnz, 0);
    // First pass: patch the MovI's low imm byte (offset +2: op, reg, imm32).
    e.reg_imm32(Op::MovI, Reg::R1, static_cast<std::int32_t>(target_addr_slot + target + 2));
    e.reg_imm32(Op::MovI, Reg::R3, 222);
    e.reg_mem(Op::Store8, Reg::R1, Reg::R3, 0); // STORE8 [r1+0], r3
    e.reg_imm32(Op::MovI, Reg::R2, 1);
    const auto back = e.rel32(Op::Jmp, 0);
    e.patch_rel32(back, loop);
    const auto done = e.size();
    e.none(Op::Halt);
    e.patch_rel32(jnz, done);
    return e;
}

TEST(SelfModifyingCode, PatchAheadOfIpTakesEffect) {
    const Encoder e = self_patching_program(0x1000);
    for (const bool cache_on : {true, false}) {
        MachineOptions opts;
        opts.decode_cache = cache_on;
        Runner r(opts);
        const auto res = r.run(e);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted) << "cache=" << cache_on;
        // Second execution of the patched MovI must see the new immediate.
        EXPECT_EQ(r.m.reg(Reg::R0), 222u) << "cache=" << cache_on;
    }
}

TEST(SelfModifyingCode, CacheOnOffStepForStepIdentical) {
    const Encoder e = self_patching_program(0x1000);
    MachineOptions on;
    on.decode_cache = true;
    MachineOptions off;
    off.decode_cache = false;
    Runner a(on);
    Runner b(off);
    const auto ra = a.run(e);
    const auto rb = b.run(e);
    EXPECT_EQ(ra.trap.kind, rb.trap.kind);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(a.m.reg(Reg::R0), b.m.reg(Reg::R0));
    EXPECT_GT(a.m.decode_cache().hits(), 0u);
    EXPECT_GT(a.m.decode_cache().invalidations(), 0u);
    EXPECT_EQ(b.m.decode_cache().hits(), 0u); // cache off: never consulted
}

TEST(SelfModifyingCode, FusedStreamRebuiltAfterPatch) {
    // The self-patching program contains fusible pairs (cmp+jnz).  Under the
    // tier-2 engine the patch must both deoptimize the running engine and
    // rebuild the fused stream, never serving stale superinstructions.
    const Encoder e = self_patching_program(0x1000);
    Runner r;
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 222u);
    EXPECT_GT(r.m.decode_cache().fused_built(), 0u);
    EXPECT_GT(r.m.dispatch_stats().deopt_page_gen, 0u);
    EXPECT_GT(r.m.dispatch_stats().superinsns_retired, 0u);
}

// --- DEP / protect transitions ------------------------------------------------

TEST(DecodeCacheDep, ProtectTransitionIsNotServedFromCache) {
    MachineOptions opts;
    opts.enforce_nx = true;
    opts.decode_cache = true;
    Machine m(opts);
    m.memory().map(0x1000, 0x1000, Perm::RX);
    m.memory().map(0xf000, 0x1000, Perm::RW);

    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 7);
    e.none(Op::Halt);
    m.memory().protect(0x1000, 0x1000, Perm::RW);
    m.memory().raw_write(0x1000, e.bytes());
    m.memory().protect(0x1000, 0x1000, Perm::RX);

    // First run executes (and caches) the page.
    m.set_ip(0x1000);
    m.set_sp(0xff00);
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::Halted);
    EXPECT_EQ(m.reg(Reg::R0), 7u);

    // Revoke X: re-execution must trap even though the decoded insns are
    // still sitting in the cache.
    m.memory().protect(0x1000, 0x1000, Perm::RW);
    m.clear_trap();
    m.set_ip(0x1000);
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::SegvExec);

    // Restore X: executable again, same behaviour as the first run.
    m.memory().protect(0x1000, 0x1000, Perm::RX);
    m.clear_trap();
    m.set_ip(0x1000);
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::Halted);
}

// --- End-to-end: the attack matrix must not notice the cache ------------------

TEST(DecodeCacheEquivalence, FullMatrixTrapForTrapIdentical) {
    using namespace swsec::core;
    for (const AttackKind kind : all_attacks()) {
        for (const Defense& base : standard_defenses()) {
            Defense off = base;
            off.profile.decode_cache = false;
            const AttackOutcome with_cache = run_attack(kind, base, 1001, 2002);
            const AttackOutcome without = run_attack(kind, off, 1001, 2002);
            const std::string where = attack_name(kind) + " vs " + base.name;
            EXPECT_EQ(with_cache.succeeded, without.succeeded) << where;
            EXPECT_EQ(with_cache.trap.kind, without.trap.kind) << where;
            EXPECT_EQ(with_cache.trap.ip, without.trap.ip) << where;
            EXPECT_EQ(with_cache.steps, without.steps) << where;
            EXPECT_EQ(with_cache.note, without.note) << where;
        }
    }
}

// --- Recycled page entries behave like fresh ones -------------------------------

struct ProgramRun {
    Trap trap;
    std::uint64_t steps = 0;
    swsec::os::RunTallies tallies;
    std::string out;
};

ProgramRun run_counting_program() {
    // Loops and calls: tier 2 builds fused entries across the text page.
    swsec::os::Process p(swsec::cc::compile_program({R"(
        int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        int main() {
          int acc = 0;
          for (int i = 0; i < 12; i = i + 1) { acc = acc + fib(i) * (i + 3); }
          write(1, "done\n", 5);
          return acc & 127;
        }
    )"},
                                                     {}),
                         swsec::os::SecurityProfile::none(), 7);
    const RunResult r = p.run();
    return {r.trap, r.steps, p.tallies(), p.output()};
}

TEST(DecodeCacheRecycling, RecycledEntriesBehaveLikeFreshOnes) {
    using namespace swsec::core;
    // Leave this thread's free list holding entries that built fast ops and
    // were invalidated: stack shellcode (stores into its own code page) and
    // code corruption (patches text) both run on tier 2 against the
    // unprotected platform and return their entries when destroyed.
    EXPECT_TRUE(run_attack(AttackKind::StackSmashInject, Defense::none(), 1, 2).succeeded);
    EXPECT_TRUE(run_attack(AttackKind::CodeCorruption, Defense::none(), 1, 2).succeeded);

    const ProgramRun recycled = run_counting_program();
    ProgramRun fresh;
    std::thread([&] { fresh = run_counting_program(); }).join(); // empty free list

    EXPECT_EQ(recycled.trap.kind, fresh.trap.kind);
    EXPECT_EQ(recycled.trap.ip, fresh.trap.ip);
    EXPECT_EQ(recycled.trap.code, fresh.trap.code);
    EXPECT_EQ(recycled.steps, fresh.steps);
    EXPECT_TRUE(recycled.tallies == fresh.tallies);
    EXPECT_EQ(recycled.out, fresh.out);
    EXPECT_EQ(fresh.out, "done\n");
    EXPECT_GT(fresh.tallies.fast_steps, 0u);
}

} // namespace
