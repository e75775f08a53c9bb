// Virtual-machine tests: memory permissions and poison, instruction
// semantics, traps, shadow stack, CFI, PMA rule enforcement at machine
// level, and kernel-privilege access.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "isa/encoder.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"

namespace {

using namespace swsec::vm;
using swsec::isa::Encoder;
using swsec::isa::Op;
using swsec::isa::Reg;

// --- Memory -----------------------------------------------------------------

TEST(Memory, MapAndAccess) {
    Memory m;
    EXPECT_FALSE(m.is_mapped(0x1000));
    m.map(0x1000, 0x2000, Perm::RW);
    EXPECT_TRUE(m.is_mapped(0x1000));
    EXPECT_TRUE(m.is_mapped(0x2fff));
    EXPECT_FALSE(m.is_mapped(0x3000));
    m.raw_write32(0x1234, 0xdeadbeef);
    EXPECT_EQ(m.raw_read32(0x1234), 0xdeadbeefu);
    EXPECT_EQ(m.raw_read8(0x1234), 0xef); // little-endian
    EXPECT_EQ(m.raw_read8(0x1237), 0xde);
}

TEST(Memory, WordsStraddlePages) {
    Memory m;
    m.map(0x1000, 0x2000, Perm::RW);
    m.raw_write32(0x1ffe, 0x11223344); // crosses the 0x2000 page boundary
    EXPECT_EQ(m.raw_read32(0x1ffe), 0x11223344u);
    EXPECT_EQ(m.raw_read8(0x2000), 0x22);
}

TEST(Memory, PermissionChecks) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::R);
    EXPECT_EQ(m.check(0x1000, 4, Perm::R, false), AccessFault::None);
    EXPECT_EQ(m.check(0x1000, 4, Perm::W, false), AccessFault::Permission);
    EXPECT_EQ(m.check(0x1000, 4, Perm::X, false), AccessFault::Permission);
    EXPECT_EQ(m.check(0x5000, 1, Perm::R, false), AccessFault::Unmapped);
    m.protect(0x1000, 0x1000, Perm::RWX);
    EXPECT_EQ(m.check(0x1000, 4, Perm::X, false), AccessFault::None);
}

TEST(Memory, CheckSpansPageBoundaryPermissions) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::RW);
    m.map(0x2000, 0x1000, Perm::R);
    // A 4-byte write at 0x1ffe touches the read-only page.
    EXPECT_EQ(m.check(0x1ffe, 4, Perm::W, false), AccessFault::Permission);
    EXPECT_EQ(m.check(0x1ffe, 4, Perm::R, false), AccessFault::None);
}

TEST(Memory, PoisonBitmap) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::RW);
    m.poison(0x1100, 16);
    EXPECT_TRUE(m.is_poisoned(0x1100));
    EXPECT_TRUE(m.is_poisoned(0x110f));
    EXPECT_FALSE(m.is_poisoned(0x1110));
    EXPECT_EQ(m.check(0x10fe, 4, Perm::R, true), AccessFault::Poisoned);
    EXPECT_EQ(m.check(0x10fe, 4, Perm::R, false), AccessFault::None);
    m.unpoison(0x1100, 16);
    EXPECT_EQ(m.check(0x10fe, 4, Perm::R, true), AccessFault::None);
}

TEST(Memory, UnmapAndRawFault) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::RW);
    m.unmap(0x1000, 0x1000);
    EXPECT_FALSE(m.is_mapped(0x1000));
    EXPECT_THROW((void)m.raw_read8(0x1000), swsec::Error);
}

// --- Reservations: mapped pages materialised on first touch -------------------

TEST(MemoryReservation, UntouchedPagesAreMappedButNotResident) {
    Memory m;
    m.map(0x10000, 4 * kPageSize, Perm::RW);
    EXPECT_EQ(m.resident_pages(), 0u);
    EXPECT_EQ(m.mapped_pages(),
              (std::vector<std::uint32_t>{0x10000, 0x11000, 0x12000, 0x13000}));
    EXPECT_TRUE(m.is_mapped(0x10000));
    EXPECT_TRUE(m.is_mapped(0x13fff));
    EXPECT_FALSE(m.is_mapped(0x14000));
    EXPECT_EQ(m.perms_at(0x12345), Perm::RW);
    EXPECT_EQ(m.perms_at(0x14000), Perm::None);
    EXPECT_EQ(m.resident_pages(), 0u); // queries do not materialise
}

TEST(MemoryReservation, UntouchedPagesReadAsZero) {
    Memory m;
    m.map(0x10000, 4 * kPageSize, Perm::RW);
    // Checked path (machine level).
    EXPECT_EQ(m.check(0x10ffe, 4, Perm::R, false), AccessFault::None); // straddles two pages
    EXPECT_EQ(m.read32(0x10ffe), 0u);
    EXPECT_EQ(m.read8(0x10000), 0u);
    // Raw path (hardware level).
    EXPECT_EQ(m.raw_read32(0x12000), 0u);
    EXPECT_EQ(m.raw_read(0x13000, 16), std::vector<std::uint8_t>(16, 0));
    EXPECT_EQ(m.resident_pages(), 4u);
    EXPECT_EQ(m.mapped_pages().size(), 4u);
}

TEST(MemoryReservation, UntouchedPagesAcceptProtectAndUnmap) {
    Memory m;
    m.map(0x10000, 2 * kPageSize, Perm::RW);
    m.protect(0x10000, 2 * kPageSize, Perm::R);
    EXPECT_EQ(m.perms_at(0x10000), Perm::R);
    EXPECT_EQ(m.check(0x10000, 4, Perm::W, false), AccessFault::Permission);
    EXPECT_EQ(m.check(0x11000, 4, Perm::R, false), AccessFault::None);
    // Remapping a reserved page updates its permissions like a resident one.
    m.map(0x10000, kPageSize, Perm::RWX);
    EXPECT_EQ(m.perms_at(0x10000), Perm::RWX);
    m.unmap(0x10000, 2 * kPageSize);
    EXPECT_FALSE(m.is_mapped(0x10000));
    EXPECT_FALSE(m.is_mapped(0x11000));
    EXPECT_TRUE(m.mapped_pages().empty());
    EXPECT_EQ(m.resident_pages(), 0u);
    EXPECT_EQ(m.check(0x10000, 1, Perm::R, false), AccessFault::Unmapped);
    EXPECT_THROW(m.protect(0x10000, kPageSize, Perm::R), swsec::Error);
    EXPECT_THROW((void)m.raw_read8(0x10000), swsec::Error);
}

TEST(MemoryReservation, FirstTouchAndFirstWriteMoveTheGeneration) {
    Memory m;
    m.map(0x1000, kPageSize, Perm::RW);
    m.map(0x10000, kPageSize, Perm::RW);
    m.raw_write8(0x1000, 1);
    const std::uint64_t other = m.generation_of(0x1000);
    const std::uint64_t fresh = m.generation_of(0x10000); // materialises
    EXPECT_NE(fresh, 0u);
    EXPECT_NE(fresh, other);
    EXPECT_EQ(m.generation_of(0x10000), fresh); // stable until mutated
    m.write8(0x10010, 0x90);
    const std::uint64_t written = m.generation_of(0x10000);
    EXPECT_NE(written, fresh);
    // An unmap/map cycle yields a reservation whose first touch is a fresh
    // zero page at a never-seen generation.
    m.unmap(0x10000, kPageSize);
    m.map(0x10000, kPageSize, Perm::RW);
    EXPECT_EQ(m.raw_read8(0x10010), 0u);
    EXPECT_NE(m.generation_of(0x10000), written);
    EXPECT_NE(m.generation_of(0x10000), fresh);
}

TEST(MemoryReservation, ProtectAndUnmapSplitARange) {
    Memory m;
    m.map(0x10000, 3 * kPageSize, Perm::RW);
    m.protect(0x10000, kPageSize, Perm::RX);
    // protect of the middle page: both neighbours keep their own perms.
    m.protect(0x11000, kPageSize, Perm::R);
    EXPECT_EQ(m.perms_at(0x10000), Perm::RX);
    EXPECT_EQ(m.perms_at(0x11fff), Perm::R);
    EXPECT_EQ(m.perms_at(0x12000), Perm::RW);
    EXPECT_EQ(m.mapped_pages(), (std::vector<std::uint32_t>{0x10000, 0x11000, 0x12000}));
    // unmap of the middle page: both neighbours stay reserved.
    m.unmap(0x11000, kPageSize);
    EXPECT_TRUE(m.is_mapped(0x10fff));
    EXPECT_FALSE(m.is_mapped(0x11000));
    EXPECT_TRUE(m.is_mapped(0x12000));
    EXPECT_EQ(m.perms_at(0x10000), Perm::RX);
    EXPECT_EQ(m.perms_at(0x11000), Perm::None);
    EXPECT_EQ(m.perms_at(0x12000), Perm::RW);
    EXPECT_EQ(m.mapped_pages(), (std::vector<std::uint32_t>{0x10000, 0x12000}));
    EXPECT_EQ(m.resident_pages(), 0u);
    EXPECT_EQ(m.check(0x10000, 4, Perm::W, false), AccessFault::Permission);
    EXPECT_EQ(m.check(0x12000, 4, Perm::W, false), AccessFault::None);
    // A protect across the hole applies up to it, then fails.
    EXPECT_THROW(m.protect(0x10000, 3 * kPageSize, Perm::R), swsec::Error);
    EXPECT_EQ(m.perms_at(0x10000), Perm::R);
    EXPECT_EQ(m.perms_at(0x12000), Perm::RW);
}

TEST(MemoryReservation, MapOverAResidentPageKeepsItsBytes) {
    Memory m;
    m.map(0x10000, 3 * kPageSize, Perm::RW);
    m.raw_write8(0x11010, 0xab);
    EXPECT_EQ(m.resident_pages(), 1u);
    const std::uint64_t before = m.generation_of(0x11000);
    m.map(0x10000, 3 * kPageSize, Perm::R);
    EXPECT_EQ(m.raw_read8(0x11010), 0xab);
    EXPECT_EQ(m.perms_at(0x11000), Perm::R);
    EXPECT_EQ(m.page_view(0x11000).perms, Perm::R);
    EXPECT_NE(m.generation_of(0x11000), before);
    EXPECT_EQ(m.perms_at(0x10000), Perm::R);
    EXPECT_EQ(m.perms_at(0x12000), Perm::R);
    EXPECT_EQ(m.resident_pages(), 1u);
    EXPECT_EQ(m.check(0x11010, 1, Perm::W, false), AccessFault::Permission);
}

TEST(MemoryReservation, MappedPagesStaySortedAndUnique) {
    Memory m;
    // Out of order, overlapping, with resident pages inside reservations.
    m.map(0x30000, 2 * kPageSize, Perm::RW);
    m.map(0x10000, 2 * kPageSize, Perm::RX);
    m.raw_write8(0x31000, 1);
    m.raw_write8(0x10000, 1);
    m.map(0x11000, 3 * kPageSize, Perm::RW); // overlaps a resident-free page
    m.map(0x30000, kPageSize, Perm::R);      // remaps a reserved page
    m.map(0x20000, kPageSize, Perm::RW);
    const std::vector<std::uint32_t> want = {0x10000, 0x11000, 0x12000, 0x13000,
                                             0x20000, 0x30000, 0x31000};
    EXPECT_EQ(m.mapped_pages(), want);
    EXPECT_EQ(m.resident_pages(), 2u);
    for (const std::uint32_t page : want) {
        (void)m.generation_of(page); // materialise everything
    }
    EXPECT_EQ(m.resident_pages(), want.size());
    EXPECT_EQ(m.mapped_pages(), want);
    EXPECT_EQ(m.perms_at(0x10000), Perm::RX);
    EXPECT_EQ(m.perms_at(0x11000), Perm::RW);
    EXPECT_EQ(m.perms_at(0x30000), Perm::R);
    EXPECT_EQ(m.perms_at(0x31000), Perm::RW);
}

TEST(MemoryReservation, HugeHeapRangeMaterialisesOnlyTouchedPages) {
    // What sbrk(96 MiB) maps (os/kernel.cpp): one RW range of 24 576 pages
    // next to text, data and stack.  Touching every 64th page must cost one
    // page each, and the range must still list every page as mapped.
    Memory m;
    m.map(0x08048000, kPageSize, Perm::RX);
    m.map(0x0804a000, kPageSize, Perm::RW);
    m.map(0xbffc0000, 64 * kPageSize, Perm::RW);
    constexpr std::uint32_t kHeap = 0x09000000;
    constexpr std::uint32_t kBytes = 96u * 1024 * 1024;
    constexpr std::uint32_t kPages = kBytes / kPageSize;
    m.map(kHeap, kBytes, Perm::RW);
    std::size_t touched = 0;
    for (std::uint32_t page = 0; page < kPages; page += 64) {
        m.write8(kHeap + page * kPageSize + 7, 0x5a);
        ++touched;
    }
    EXPECT_EQ(m.resident_pages(), touched);
    const auto pages = m.mapped_pages();
    ASSERT_EQ(pages.size(), 2u + 64u + kPages);
    EXPECT_TRUE(std::is_sorted(pages.begin(), pages.end()));
    EXPECT_EQ(std::adjacent_find(pages.begin(), pages.end()), pages.end());
    EXPECT_EQ(pages[2], kHeap);
    EXPECT_EQ(pages[2 + kPages - 1], kHeap + kBytes - kPageSize);
    EXPECT_EQ(m.read8(kHeap + 64 * kPageSize + 7), 0x5a);
    EXPECT_EQ(m.read8(kHeap + 65 * kPageSize + 7), 0u);
    EXPECT_EQ(m.perms_at(kHeap + kBytes - 1), Perm::RW);
    EXPECT_FALSE(m.is_mapped(kHeap + kBytes));
}

// --- Machine semantics ---------------------------------------------------------

struct Runner {
    Machine m;

    explicit Runner(MachineOptions opts = {}) : m(opts) {
        m.memory().map(0x1000, 0x1000, Perm::RX);
        m.memory().map(0x8000, 0x1000, Perm::RW); // data
        m.memory().map(0xf000, 0x1000, Perm::RW); // stack
        m.set_ip(0x1000);
        m.set_sp(0xff00);
    }

    RunResult run(const Encoder& e, std::uint64_t max_steps = 10000) {
        // Re-map code as writable for loading, then as the test's RX.
        m.memory().protect(0x1000, 0x1000, Perm::RW);
        m.memory().raw_write(0x1000, e.bytes());
        m.memory().protect(0x1000, 0x1000, Perm::RX);
        return m.run(max_steps);
    }
};

TEST(Machine, ArithmeticAndFlags) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 10);
    e.reg_imm32(Op::MovI, Reg::R1, 3);
    e.reg_reg(Op::Sub, Reg::R0, Reg::R1); // 7
    e.reg_imm32(Op::MulI, Reg::R0, 6);    // 42
    e.none(Op::Halt);
    Runner r;
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 42u);
}

TEST(Machine, SignedDivisionAndRemainder) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, -17);
    e.reg_imm32(Op::MovI, Reg::R1, 5);
    e.reg_reg(Op::Rems, Reg::R0, Reg::R1); // -17 % 5 = -2
    e.none(Op::Halt);
    Runner r;
    (void)r.run(e);
    EXPECT_EQ(static_cast<std::int32_t>(r.m.reg(Reg::R0)), -2);
}

TEST(Machine, DivideByZeroTraps) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 1);
    e.reg_imm32(Op::MovI, Reg::R1, 0);
    e.reg_reg(Op::Divs, Reg::R0, Reg::R1);
    Runner r;
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::DivByZero);
}

TEST(Machine, ConditionalBranches) {
    // if (5 < 7) r0 = 1 else r0 = 2, signed and unsigned flavours.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 5);
    e.reg_imm32(Op::CmpI, Reg::R1, 7);
    const auto jl = e.rel32(Op::Jl, 0);
    e.reg_imm32(Op::MovI, Reg::R0, 2);
    e.none(Op::Halt);
    const auto target = e.size();
    e.reg_imm32(Op::MovI, Reg::R0, 1);
    e.none(Op::Halt);
    e.patch_rel32(jl, target);
    Runner r;
    (void)r.run(e);
    EXPECT_EQ(r.m.reg(Reg::R0), 1u);
}

TEST(Machine, UnsignedVsSignedComparison) {
    // -1 (0xffffffff) is less than 1 signed, but above 1 unsigned.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, -1);
    e.reg_imm32(Op::CmpI, Reg::R1, 1);
    const auto jb = e.rel32(Op::Jb, 0); // unsigned below: NOT taken
    e.reg_imm32(Op::MovI, Reg::R0, 42);
    e.none(Op::Halt);
    const auto wrong = e.size();
    e.reg_imm32(Op::MovI, Reg::R0, 7);
    e.none(Op::Halt);
    e.patch_rel32(jb, wrong);
    Runner r;
    (void)r.run(e);
    EXPECT_EQ(r.m.reg(Reg::R0), 42u);
}

TEST(Machine, CallRetAndLeave) {
    Encoder e;
    const auto call = e.rel32(Op::Call, 0);
    e.none(Op::Halt);
    const auto fn = e.size();
    e.reg(Op::Push, Reg::Bp);
    e.reg_reg(Op::MovR, Reg::Bp, Reg::Sp);
    e.reg_imm32(Op::MovI, Reg::R0, 99);
    e.none(Op::Leave);
    e.none(Op::Ret);
    e.patch_rel32(call, fn);
    Runner r;
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 99u);
    EXPECT_EQ(r.m.sp(), 0xff00u); // balanced
}

TEST(Machine, LoadStoreByteAndWord) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x8000);
    e.reg_imm32(Op::MovI, Reg::R0, 0x11223344);
    e.reg_mem(Op::Store, Reg::R1, Reg::R0, 0); // [r1+0] = r0
    e.reg_mem(Op::Load8, Reg::R2, Reg::R1, 1); // r2 = byte at 0x8001 = 0x33
    e.none(Op::Halt);
    Runner r;
    (void)r.run(e);
    EXPECT_EQ(r.m.reg(Reg::R2), 0x33u);
    EXPECT_EQ(r.m.memory().raw_read32(0x8000), 0x11223344u);
}

TEST(Machine, DepBlocksFetchFromData) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 0x8000);
    e.reg(Op::JmpR, Reg::R0); // jump into non-executable data
    MachineOptions opts;
    opts.enforce_nx = true;
    Runner r(opts);
    r.m.memory().raw_write8(0x8000, 0x90);
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::SegvExec);
}

TEST(Machine, WithoutDepDataExecutes) {
    Encoder code;
    code.reg_imm32(Op::MovI, Reg::R0, 0x8000);
    code.reg(Op::JmpR, Reg::R0);
    Encoder data;
    data.reg_imm32(Op::MovI, Reg::R0, 7);
    data.none(Op::Halt);
    Runner r;
    r.m.memory().protect(0x8000, 0x1000, Perm::RWX);
    r.m.memory().raw_write(0x8000, data.bytes());
    const auto res = r.run(code);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 7u);
}

/// Stores `bytes` at [base + 0...] one byte at a time (guest-side writes).
void emit_byte_stores(Encoder& e, Reg base, const std::vector<std::uint8_t>& bytes) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        e.reg_imm32(Op::MovI, Reg::R3, bytes[i]);
        e.reg_mem(Op::Store8, base, Reg::R3, static_cast<std::int32_t>(i));
    }
}

TEST(Machine, ShellcodeOnFreshStackPageInvalidatesDecodeCache) {
    // The shellcode page is only reserved when the program starts.  The
    // guest's first store materialises it; it then runs a `ret` from it,
    // overwrites that with `movi r0, 111; ret`, runs it, patches the
    // immediate to 222 and runs it again.  Each rewrite must be seen by
    // every engine: tier 2, tier 1 with the decode cache, and without.
    Encoder ret_only;
    ret_only.none(Op::Ret);
    Encoder shell;
    shell.reg_imm32(Op::MovI, Reg::R0, 111);
    shell.none(Op::Ret);

    Encoder code;
    code.reg_imm32(Op::MovI, Reg::R1, 0xe000);
    emit_byte_stores(code, Reg::R1, ret_only.bytes());
    code.reg(Op::CallR, Reg::R1);
    emit_byte_stores(code, Reg::R1, shell.bytes());
    code.reg(Op::CallR, Reg::R1);
    code.reg_reg(Op::MovR, Reg::R4, Reg::R0);
    code.reg_imm32(Op::MovI, Reg::R3, 222);
    code.reg_mem(Op::Store8, Reg::R1, Reg::R3, 2); // low byte of movi's imm32
    code.reg(Op::CallR, Reg::R1);
    code.none(Op::Halt);

    std::uint64_t steps = 0;
    for (const auto& [fast, cache] : {std::pair{true, true}, {false, true}, {false, false}}) {
        MachineOptions opts;
        opts.fast_engine = fast;
        opts.decode_cache = cache;
        Runner r(opts);
        r.m.memory().map(0xe000, 0x1000, Perm::RWX);
        ASSERT_EQ(r.m.memory().resident_pages(), 0u);
        const auto res = r.run(code);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted) << "fast=" << fast << " cache=" << cache;
        EXPECT_EQ(r.m.reg(Reg::R4), 111u) << "fast=" << fast << " cache=" << cache;
        EXPECT_EQ(r.m.reg(Reg::R0), 222u) << "fast=" << fast << " cache=" << cache;
        if (cache) {
            EXPECT_GE(r.m.decode_cache().invalidations(), 2u);
        }
        if (steps == 0) {
            steps = res.steps;
        }
        EXPECT_EQ(res.steps, steps) << "fast=" << fast << " cache=" << cache;
    }
}

TEST(DecodeCacheReservation, LookupOnFreshPageThenWriteInvalidates) {
    // The decode cache's first look at a reserved page materialises it (all
    // zero bytes decode as halt); the first write must then invalidate.
    Memory mem;
    mem.map(0xe000, 0x1000, Perm::RWX);
    DecodeCache dc;
    const auto* zero = dc.lookup(mem, 0xe000, Perm::R);
    ASSERT_NE(zero, nullptr);
    EXPECT_EQ(zero->op, Op::Halt);
    EXPECT_EQ(mem.resident_pages(), 1u);
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 5);
    mem.write8(0xe000, e.bytes()[0]);
    mem.write8(0xe001, e.bytes()[1]);
    mem.write8(0xe002, e.bytes()[2]);
    const auto* insn = dc.lookup(mem, 0xe000, Perm::R);
    ASSERT_NE(insn, nullptr);
    EXPECT_EQ(insn->op, Op::MovI);
    EXPECT_EQ(insn->imm, 5);
    EXPECT_EQ(dc.invalidations(), 1u);
}

TEST(Machine, ShadowStackCatchesReturnHijack) {
    Encoder e;
    const auto call = e.rel32(Op::Call, 0);
    e.reg_imm32(Op::MovI, Reg::R0, 1); // normal return path
    e.none(Op::Halt);
    const auto hijack_target = e.size();
    e.reg_imm32(Op::MovI, Reg::R0, 2); // where the hijacked ret lands
    e.none(Op::Halt);
    const auto fn = e.size();
    // Overwrite the return address on the stack, then ret.
    e.reg_imm32(Op::MovI, Reg::R1, 0x1000 + hijack_target);
    e.reg_mem(Op::Store, Reg::Sp, Reg::R1, 0);
    e.none(Op::Ret);
    e.patch_rel32(call, fn);
    MachineOptions opts;
    opts.hardware_shadow_stack = true;
    Runner r(opts);
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::ShadowStackViolation);
    // Without the shadow stack the hijack sails through to the target.
    Runner r2;
    EXPECT_EQ(r2.run(e).trap.kind, TrapKind::Halted);
    EXPECT_EQ(r2.m.reg(Reg::R0), 2u);
}

TEST(Machine, CoarseCfiChecksIndirectTargets) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 0x1040);
    e.reg(Op::CallR, Reg::R0);
    e.none(Op::Halt);
    MachineOptions opts;
    opts.coarse_cfi = true;
    Runner r(opts);
    r.m.set_cfi_targets({0x1000}); // 0x1040 not approved
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::CfiViolation);

    Runner r2(opts);
    r2.m.set_cfi_targets({0x1000, 0x1040});
    r2.m.memory().protect(0x1000, 0x1000, Perm::RW);
    r2.m.memory().raw_write8(0x1040, 0x00); // halt at the target
    r2.m.memory().protect(0x1000, 0x1000, Perm::RX);
    EXPECT_EQ(r2.run(e).trap.kind, TrapKind::Halted);

    // The table takes any order and duplicates, and replaces the old set.
    MachineOptions plain;
    Machine t(plain);
    t.set_cfi_targets({0x3000, 0x1040, 0x2000, 0x1040, 0x1000, 0x3000});
    for (const std::uint32_t a : {0x1000u, 0x1040u, 0x2000u, 0x3000u}) {
        EXPECT_TRUE(t.is_cfi_target(a)) << a;
    }
    for (const std::uint32_t a : {0x0u, 0x1004u, 0x1041u, 0x2fffu, 0x3001u}) {
        EXPECT_FALSE(t.is_cfi_target(a)) << a;
    }
    t.add_cfi_target(0x1800); // after set: keeps the old entries
    t.add_cfi_target(0x1800);
    t.add_cfi_target(0x0800);
    EXPECT_TRUE(t.is_cfi_target(0x1800));
    EXPECT_TRUE(t.is_cfi_target(0x0800));
    EXPECT_TRUE(t.is_cfi_target(0x2000));
    t.set_cfi_targets({0x2000});
    EXPECT_FALSE(t.is_cfi_target(0x1800));
    EXPECT_TRUE(t.is_cfi_target(0x2000));

    // Unsorted, duplicated input approves the call target ...
    Runner r3(opts);
    r3.m.set_cfi_targets({0x1040, 0x1000, 0x1040});
    r3.m.memory().protect(0x1000, 0x1000, Perm::RW);
    r3.m.memory().raw_write8(0x1040, 0x00);
    r3.m.memory().protect(0x1000, 0x1000, Perm::RX);
    EXPECT_EQ(r3.run(e).trap.kind, TrapKind::Halted);
    // ... and a target added after the set is approved too.
    Runner r4(opts);
    r4.m.set_cfi_targets({0x1000, 0x1000});
    r4.m.add_cfi_target(0x1040);
    r4.m.memory().protect(0x1000, 0x1000, Perm::RW);
    r4.m.memory().raw_write8(0x1040, 0x00);
    r4.m.memory().protect(0x1000, 0x1000, Perm::RX);
    EXPECT_EQ(r4.run(e).trap.kind, TrapKind::Halted);
}

TEST(Machine, OutOfGas) {
    Encoder e;
    const auto j = e.rel32(Op::Jmp, 0);
    e.patch_rel32(j, 0); // jmp self
    Runner r;
    const auto res = r.run(e, 100);
    EXPECT_EQ(res.trap.kind, TrapKind::OutOfGas);
    EXPECT_EQ(res.steps, 100u);
    // Trap provenance names where the budget died: the watchdog reports the
    // address of the first instruction it refused to run, not addr 0.
    EXPECT_EQ(res.trap.addr, 0x1000u);
    EXPECT_NE(res.trap.detail.find("ip="), std::string::npos)
        << "watchdog message should carry the ip: " << res.trap.detail;
}

TEST(Machine, OutOfGasReportsCurrentIpMidProgram) {
    // The same provenance rule when the budget dies mid-straight-line-code:
    // after two retired NOPs a budget of 2 must point at the third.
    Encoder e;
    e.none(Op::Nop);
    e.none(Op::Nop);
    e.none(Op::Nop);
    Runner r;
    const auto res = r.run(e, 2);
    EXPECT_EQ(res.trap.kind, TrapKind::OutOfGas);
    EXPECT_EQ(res.steps, 2u);
    EXPECT_EQ(res.trap.addr, 0x1002u) << "watchdog should name the next unexecuted instruction";
    EXPECT_EQ(res.trap.ip, 0x1002u);
}

// The budget contract: run(N) retires exactly N instructions for this call —
// the budget is per invocation, not a lifetime watermark against the
// machine's cumulative step counter.
TEST(Machine, RunBudgetIsPerCall) {
    Encoder e;
    const auto j = e.rel32(Op::Jmp, 0);
    e.patch_rel32(j, 0); // jmp self
    Runner r;
    EXPECT_EQ(r.run(e, 5).trap.kind, TrapKind::OutOfGas);
    EXPECT_EQ(r.m.steps_executed(), 5u);

    // A resumed run gets a fresh budget of 5, not "5 minus what's already
    // on the odometer" (which would be zero and trap instantly).
    r.m.clear_trap();
    const auto res = r.m.run(5);
    EXPECT_EQ(res.trap.kind, TrapKind::OutOfGas);
    EXPECT_EQ(r.m.steps_executed(), 10u) << "second call must retire 5 more";
}

TEST(Machine, RunBudgetSaturatesNearUint64Max) {
    // A huge budget on a machine with steps already on the clock must not
    // wrap around to a tiny one.
    Encoder e;
    e.none(Op::Halt);
    Runner r;
    (void)r.run(e, 10); // halts after 1 step; odometer now nonzero
    r.m.clear_trap();
    r.m.set_ip(0x1000);
    const auto res = r.m.run(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(res.trap.kind, TrapKind::Halted) << "saturated budget still runs";
}

TEST(Machine, InvalidOpcodeTraps) {
    Encoder e;
    const std::uint8_t junk[] = {0x04};
    e.raw(junk);
    Runner r;
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::InvalidInstruction);
}

TEST(Machine, UnhandledSyscallTraps) {
    Encoder e;
    e.imm8(Op::Sys, 99);
    Runner r; // no syscall handler attached
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::BadSyscall);
}

// --- PMA rules at machine level ---------------------------------------------

struct PmaRunner : Runner {
    int idx;

    PmaRunner() {
        m.memory().map(0x40000000, 0x1000, Perm::RX); // module code
        m.memory().map(0x48000000, 0x1000, Perm::RW); // module data
        ProtectedModule mod;
        mod.name = "mod";
        mod.code_base = 0x40000000;
        mod.code_size = 0x1000;
        mod.data_base = 0x48000000;
        mod.data_size = 0x1000;
        mod.entry_points = {0x40000000};
        idx = m.add_protected_module(mod);
    }

    void write_module_code(const Encoder& e) {
        m.memory().protect(0x40000000, 0x1000, Perm::RW);
        m.memory().raw_write(0x40000000, e.bytes());
        m.memory().protect(0x40000000, 0x1000, Perm::RX);
    }
};

TEST(PmaMachine, OutsideReadOfModuleDataTraps) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x48000000);
    e.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    PmaRunner r;
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, OutsideWriteOfModuleDataTraps) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x48000000);
    e.reg_imm32(Op::MovI, Reg::R0, 1);
    e.reg_mem(Op::Store, Reg::R1, Reg::R0, 0);
    PmaRunner r;
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, OutsideReadOfModuleCodeTraps) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x40000000);
    e.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    PmaRunner r;
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, EntryPointTransitionWorks) {
    // Jump to the designated entry; module reads/writes its data; leaves.
    Encoder host;
    host.reg_imm32(Op::MovI, Reg::R0, 0x40000000);
    host.reg(Op::JmpR, Reg::R0);

    Encoder module;
    module.reg_imm32(Op::MovI, Reg::R1, 0x48000000);
    module.reg_imm32(Op::MovI, Reg::R0, 123);
    module.reg_mem(Op::Store, Reg::R1, Reg::R0, 0); // own data: allowed
    module.reg_mem(Op::Load, Reg::R2, Reg::R1, 0);
    module.none(Op::Halt);

    PmaRunner r;
    r.write_module_code(module);
    const auto res = r.run(host);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R2), 123u);
    EXPECT_EQ(r.m.current_module(), r.idx);
}

TEST(PmaMachine, NonEntryJumpTraps) {
    Encoder host;
    host.reg_imm32(Op::MovI, Reg::R0, 0x40000004); // past the entry point
    host.reg(Op::JmpR, Reg::R0);
    PmaRunner r;
    Encoder module;
    module.none(Op::Nop);
    module.none(Op::Nop);
    module.none(Op::Nop);
    module.none(Op::Nop);
    module.none(Op::Halt);
    r.write_module_code(module);
    EXPECT_EQ(r.run(host).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, ModuleDataIsNotExecutable) {
    Encoder host;
    host.reg_imm32(Op::MovI, Reg::R0, 0x48000000);
    host.reg(Op::JmpR, Reg::R0);
    PmaRunner r;
    EXPECT_EQ(r.run(host).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, SecondModuleIsMutuallyDistrusted) {
    // Module A (executing) may not touch module B's data: rule 1 applies
    // between modules, not just module-vs-unprotected.
    PmaRunner r;
    r.m.memory().map(0x60000000, 0x1000, Perm::RX);
    r.m.memory().map(0x68000000, 0x1000, Perm::RW);
    ProtectedModule b;
    b.code_base = 0x60000000;
    b.code_size = 0x1000;
    b.data_base = 0x68000000;
    b.data_size = 0x1000;
    b.entry_points = {0x60000000};
    r.m.add_protected_module(b);

    Encoder module_a;
    module_a.reg_imm32(Op::MovI, Reg::R1, 0x68000000); // module B's data
    module_a.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    module_a.none(Op::Halt);
    r.write_module_code(module_a);

    Encoder host;
    host.reg_imm32(Op::MovI, Reg::R0, 0x40000000);
    host.reg(Op::JmpR, Reg::R0);
    EXPECT_EQ(r.run(host).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, KernelAccessRespectsModules) {
    PmaRunner r;
    std::uint32_t v = 0;
    EXPECT_FALSE(r.m.kernel_read32(0x48000000, v));
    EXPECT_FALSE(r.m.kernel_write32(0x48000000, 1));
    EXPECT_FALSE(r.m.kernel_read32(0x40000000, v));
    EXPECT_TRUE(r.m.kernel_read32(0x8000, v)); // unprotected: fine
    EXPECT_TRUE(r.m.kernel_write32(0x8000, 5));
    EXPECT_TRUE(r.m.kernel_read32(0x8000, v));
    EXPECT_EQ(v, 5u);
    EXPECT_FALSE(r.m.kernel_read32(0x7f000000, v)); // unmapped
}

TEST(Machine, KernelWriteIsAllOrNothing) {
    // A word straddling the end of mapped memory must be refused without
    // touching any byte — the old byte-at-a-time path wrote bytes 0-1
    // before discovering byte 2 was unmapped (a torn kernel write).
    Machine m;
    m.memory().map(0x1000, 0x1000, Perm::RW);
    m.memory().raw_write32(0x1ffc, 0xa1b2c3d4);
    EXPECT_FALSE(m.kernel_write32(0x1ffe, 0x11223344)); // crosses into unmapped
    EXPECT_EQ(m.memory().raw_read32(0x1ffc), 0xa1b2c3d4u) << "partial write leaked";
    // A word straddling into a protected module is refused the same way.
    ProtectedModule mod;
    mod.code_base = 0x2000;
    mod.code_size = 0x1000;
    mod.data_base = 0x3000;
    mod.data_size = 0x1000;
    Machine pm;
    pm.memory().map(0x1000, 0x3000, Perm::RW);
    pm.add_protected_module(mod);
    pm.memory().raw_write32(0x1ffc, 0xa1b2c3d4);
    EXPECT_FALSE(pm.kernel_write32(0x1ffe, 0x11223344));
    EXPECT_EQ(pm.memory().raw_read32(0x1ffc), 0xa1b2c3d4u) << "partial write leaked";
}

} // namespace
