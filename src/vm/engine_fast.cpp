// Tier-2 threaded-dispatch interpreter.  See engine_fast.hpp for the
// contract and machine.cpp (step/execute) for the reference semantics this
// file must reproduce bit-for-bit.
//
// Structure: one dispatch loop over the decode cache's per-page FastOp
// stream.  Loop-head invariants, checked before *every* dispatch:
//
//   1. the executing page's live generation still matches the stream's
//      (any write/protect to the page — including by the program itself —
//      deoptimizes before the next, possibly stale, op can dispatch);
//   2. the step budget has room (run() owns the OutOfGas trap);
//   3. the ip points into the fast-decodable region of the current page
//      (page switches re-resolve; page tails defer to the slow fetch).
//
// Fused superinstructions retire two architectural instructions in one
// dispatch.  A fused op is only entered when the remaining budget covers
// both (otherwise tier 1 retires the head instruction alone), and push+call
// re-checks the code page generation after its push so a push that
// overwrites its own call deoptimizes with the ip at the call — exactly
// where tier 1 would be.
#include "vm/engine_fast.hpp"

#include "vm/machine.hpp"

#include <limits>

namespace swsec::vm {

namespace {

bool cond_holds(std::uint8_t c, bool fz, bool flt, bool fb) noexcept {
    switch (static_cast<FastCond>(c)) {
    case FastCond::Z:
        return fz;
    case FastCond::Nz:
        return !fz;
    case FastCond::L:
        return flt;
    case FastCond::Ge:
        return !flt;
    case FastCond::G:
        return !flt && !fz;
    case FastCond::Le:
        return flt || fz;
    case FastCond::B:
        return fb;
    case FastCond::Ae:
        return !fb;
    }
    return false;
}

} // namespace

FastExit FastEngine::run(Machine& m, std::uint64_t end) {
    DispatchStats& stats = m.dispatch_;
    ++stats.tier2_entries;
    Memory& mem = m.mem_;
    DecodeCache& dc = m.dcache_;
    const Perm fetch_need = m.opts_.enforce_nx ? (Perm::R | Perm::X) : Perm::R;
    const bool memcheck = m.opts_.memcheck;
    const bool sstack = m.opts_.hardware_shadow_stack;
    const bool cfi = m.opts_.coarse_cfi;

    // Machine state cached in locals for the hot loop; every exit path
    // flushes through SWSEC_FLUSH exactly once.
    std::uint32_t* const regs = m.regs_.data();
    std::uint32_t ip = m.ip_;
    std::uint64_t steps = m.steps_;
    const std::uint64_t steps0 = steps;
    bool fz = m.flags_.z;
    bool flt = m.flags_.lt;
    bool fb = m.flags_.b;

    DecodeCache::FastPageRef ref = dc.fast_page(mem, ip, fetch_need);
    if (ref.ops == nullptr) {
        // Unmapped / non-executable code page: the slow fetch owns the trap.
        ++stats.deopt_slow_fetch;
        return FastExit::NeedSlowStep;
    }
    const Memory::Page* code_page = mem.page_at(ip);

    // Two-entry direct-mapped micro-TLB for data pages.  Negative entries
    // are safe to cache: nothing maps/unmaps/reprotects pages while the
    // engine runs (only syscalls and the host can, and Sys exits tier 2).
    struct TlbEntry {
        std::uint32_t index = 0xffffffff; // page indices use at most 20 bits
        Memory::Page* page = nullptr;
    };
    TlbEntry tlb[2];
    const auto data_page = [&](std::uint32_t addr) noexcept -> Memory::Page* {
        const std::uint32_t idx = addr >> kPageShift;
        TlbEntry& t = tlb[idx & 1];
        if (t.index != idx) {
            t.index = idx;
            t.page = mem.page_at(addr);
        }
        return t.page;
    };

    // Checked data access, replicating Machine::load32/store32 byte for
    // byte: fault priority unmapped > permission > poison, little-endian
    // words, generation touch on every write.  (PMA checks are vacuous
    // here: fast_eligible() guarantees no protected modules.)  Accesses
    // that straddle a page boundary take Memory's slow path.
    const auto load_word = [&](std::uint32_t addr, std::uint32_t& out) noexcept -> AccessFault {
        const std::uint32_t off = addr & (kPageSize - 1);
        if (off <= kPageSize - 4) [[likely]] {
            Memory::Page* p = data_page(addr);
            if (p == nullptr) {
                return AccessFault::Unmapped;
            }
            if (!has_perm(p->perms, Perm::R)) {
                return AccessFault::Permission;
            }
            if (memcheck && p->poison &&
                (p->poison->test(off) || p->poison->test(off + 1) || p->poison->test(off + 2) ||
                 p->poison->test(off + 3))) {
                return AccessFault::Poisoned;
            }
            const std::uint8_t* d = p->data.data() + off;
            out = static_cast<std::uint32_t>(d[0]) | (static_cast<std::uint32_t>(d[1]) << 8) |
                  (static_cast<std::uint32_t>(d[2]) << 16) |
                  (static_cast<std::uint32_t>(d[3]) << 24);
            return AccessFault::None;
        }
        const AccessFault f = mem.check(addr, 4, Perm::R, memcheck);
        if (f != AccessFault::None) {
            return f;
        }
        out = mem.read32(addr);
        return AccessFault::None;
    };
    const auto store_word = [&](std::uint32_t addr, std::uint32_t v) noexcept -> AccessFault {
        const std::uint32_t off = addr & (kPageSize - 1);
        if (off <= kPageSize - 4) [[likely]] {
            Memory::Page* p = data_page(addr);
            if (p == nullptr) {
                return AccessFault::Unmapped;
            }
            if (!has_perm(p->perms, Perm::W)) {
                return AccessFault::Permission;
            }
            if (memcheck && p->poison &&
                (p->poison->test(off) || p->poison->test(off + 1) || p->poison->test(off + 2) ||
                 p->poison->test(off + 3))) {
                return AccessFault::Poisoned;
            }
            std::uint8_t* d = p->data.data() + off;
            d[0] = static_cast<std::uint8_t>(v & 0xff);
            d[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
            d[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
            d[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
            mem.touch(*p);
            return AccessFault::None;
        }
        const AccessFault f = mem.check(addr, 4, Perm::W, memcheck);
        if (f != AccessFault::None) {
            return f;
        }
        mem.write32(addr, v);
        return AccessFault::None;
    };
    const auto load_byte = [&](std::uint32_t addr, std::uint8_t& out) noexcept -> AccessFault {
        const std::uint32_t off = addr & (kPageSize - 1);
        Memory::Page* p = data_page(addr);
        if (p == nullptr) {
            return AccessFault::Unmapped;
        }
        if (!has_perm(p->perms, Perm::R)) {
            return AccessFault::Permission;
        }
        if (memcheck && p->poison && p->poison->test(off)) {
            return AccessFault::Poisoned;
        }
        out = p->data[off];
        return AccessFault::None;
    };
    const auto store_byte = [&](std::uint32_t addr, std::uint8_t v) noexcept -> AccessFault {
        const std::uint32_t off = addr & (kPageSize - 1);
        Memory::Page* p = data_page(addr);
        if (p == nullptr) {
            return AccessFault::Unmapped;
        }
        if (!has_perm(p->perms, Perm::W)) {
            return AccessFault::Permission;
        }
        if (memcheck && p->poison && p->poison->test(off)) {
            return AccessFault::Poisoned;
        }
        p->data[off] = v;
        mem.touch(*p);
        return AccessFault::None;
    };

// Write locals back to the machine and credit counters.  Used exactly once
// per exit path.
#define SWSEC_FLUSH()                                                                              \
    do {                                                                                           \
        m.ip_ = ip;                                                                                \
        m.steps_ = steps;                                                                          \
        m.flags_.z = fz;                                                                           \
        m.flags_.lt = flt;                                                                         \
        m.flags_.b = fb;                                                                           \
        stats.fast_steps += steps - steps0;                                                        \
        dc.hits_ += steps - steps0;                                                                \
    } while (0)

// Trap with tier-1-identical provenance.  `retire` counts the trapping
// instruction too (step() increments steps_ even when execute() traps);
// `trap_ip` is the address of the faulting instruction (for fused ops: the
// faulting component).
#define SWSEC_TRAP_EXIT(retire, trap_ip, ...)                                                      \
    do {                                                                                           \
        steps += (retire);                                                                         \
        ip = (trap_ip);                                                                            \
        SWSEC_FLUSH();                                                                             \
        m.set_trap(__VA_ARGS__);                                                                   \
        ++stats.deopt_trap;                                                                        \
        return FastExit::Trapped;                                                                  \
    } while (0)

#define SWSEC_LOAD32(addr_expr, out_var, retire, at_ip)                                            \
    do {                                                                                           \
        const std::uint32_t a_ = (addr_expr);                                                      \
        const AccessFault f_ = load_word(a_, out_var);                                             \
        if (f_ != AccessFault::None) [[unlikely]] {                                                \
            if (f_ == AccessFault::Poisoned) {                                                     \
                SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::PoisonedAccess, a_,                       \
                                "read of poisoned memory");                                        \
            }                                                                                      \
            SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::SegvRead, a_);                                \
        }                                                                                          \
    } while (0)

#define SWSEC_STORE32(addr_expr, v_expr, retire, at_ip)                                            \
    do {                                                                                           \
        const std::uint32_t a_ = (addr_expr);                                                      \
        const AccessFault f_ = store_word(a_, (v_expr));                                           \
        if (f_ != AccessFault::None) [[unlikely]] {                                                \
            if (f_ == AccessFault::Poisoned) {                                                     \
                SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::PoisonedAccess, a_,                       \
                                "write of poisoned memory");                                       \
            }                                                                                      \
            SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::SegvWrite, a_);                               \
        }                                                                                          \
    } while (0)

#define SWSEC_LOAD8(addr_expr, out_var, retire, at_ip)                                             \
    do {                                                                                           \
        const std::uint32_t a_ = (addr_expr);                                                      \
        const AccessFault f_ = load_byte(a_, out_var);                                             \
        if (f_ != AccessFault::None) [[unlikely]] {                                                \
            if (f_ == AccessFault::Poisoned) {                                                     \
                SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::PoisonedAccess, a_,                       \
                                "read of poisoned memory");                                        \
            }                                                                                      \
            SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::SegvRead, a_);                                \
        }                                                                                          \
    } while (0)

#define SWSEC_STORE8(addr_expr, v_expr, retire, at_ip)                                             \
    do {                                                                                           \
        const std::uint32_t a_ = (addr_expr);                                                      \
        const AccessFault f_ = store_byte(a_, (v_expr));                                           \
        if (f_ != AccessFault::None) [[unlikely]] {                                                \
            if (f_ == AccessFault::Poisoned) {                                                     \
                SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::PoisonedAccess, a_,                       \
                                "write of poisoned memory");                                       \
            }                                                                                      \
            SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::SegvWrite, a_);                               \
        }                                                                                          \
    } while (0)

#define SWSEC_IMM_U static_cast<std::uint32_t>(op->imm)

// Retire one instruction and fall through to the next op.
#define SWSEC_NEXT()                                                                               \
    do {                                                                                           \
        ip = op->next;                                                                             \
        ++steps;                                                                                   \
        goto loop_head;                                                                            \
    } while (0)

#define SWSEC_BRANCH(target)                                                                       \
    do {                                                                                           \
        ip = (target);                                                                             \
        ++steps;                                                                                   \
        goto loop_head;                                                                            \
    } while (0)

// Variants for handlers that stored to memory: re-validate the executing
// page's generation before the next dispatch (self-modifying code).
#define SWSEC_NEXT_W()                                                                             \
    do {                                                                                           \
        ip = op->next;                                                                             \
        ++steps;                                                                                   \
        goto store_check;                                                                          \
    } while (0)

#define SWSEC_BRANCH_W(target)                                                                     \
    do {                                                                                           \
        ip = (target);                                                                             \
        ++steps;                                                                                   \
        goto store_check;                                                                          \
    } while (0)

// A fused op only dispatches when both its instructions fit the remaining
// budget; otherwise tier 1 retires the head instruction alone, so the
// watchdog fires at exactly the same architectural instruction as under
// tier 1.  (loop_head guarantees steps < end, so `end - steps` is ≥ 1.)
#define SWSEC_FUSED_BUDGET()                                                                       \
    do {                                                                                           \
        if (end - steps < 2) [[unlikely]] {                                                        \
            SWSEC_FLUSH();                                                                         \
            ++stats.deopt_budget;                                                                  \
            return FastExit::NeedSlowStep;                                                         \
        }                                                                                          \
    } while (0)

    constexpr std::uint32_t kFastLimit = kPageSize - isa::kMaxInsnLength;
    const FastOp* op;
    std::uint32_t off;

    static const void* const kLabels[] = {
#define SWSEC_FAST_LABEL(name) &&H_##name,
        SWSEC_FAST_HANDLERS(SWSEC_FAST_LABEL)
#undef SWSEC_FAST_LABEL
    };
#define SWSEC_CASE(name) H_##name:

    // Invariant 1: the fast stream is only valid at its build generation.
    // Only stores can mutate memory while the engine runs (syscalls, hosts
    // and fault injectors are all tier-1-only), so the executing page's
    // generation is re-validated only after store-class handlers land here;
    // all other handlers re-enter at loop_head.  Entry and page switches
    // are safe to fall through: fast_page() just synced the generation.
store_check:
    if (code_page->generation != ref.generation) [[unlikely]] {
        SWSEC_FLUSH();
        ++stats.deopt_page_gen;
        return FastExit::PageChange;
    }
loop_head:
    // Invariant 2: run() owns the watchdog trap.
    if (steps >= end) [[unlikely]] {
        SWSEC_FLUSH();
        ++stats.deopt_budget;
        return FastExit::Budget;
    }
    // Invariant 3: ip inside the current page's fast-decodable region.
    off = ip - ref.base;
    if (off > kFastLimit) [[unlikely]] {
        if ((ip & ~(kPageSize - 1)) == ref.base) {
            // Page tail: the slow fetch owns straddling instructions.
            SWSEC_FLUSH();
            ++stats.deopt_slow_fetch;
            return FastExit::NeedSlowStep;
        }
        ref = dc.fast_page(mem, ip, fetch_need);
        if (ref.ops == nullptr) {
            SWSEC_FLUSH();
            ++stats.deopt_slow_fetch;
            return FastExit::NeedSlowStep;
        }
        code_page = mem.page_at(ip);
        goto loop_head; // generation freshly synced: no spin
    }
    op = &(*ref.ops)[off];
dispatch_op:
    goto* kLabels[static_cast<std::size_t>(op->h)];
    {
        SWSEC_CASE(Unbuilt) {
            dc.build_fast(ref, off); // never leaves Unbuilt (worst case Slow)
            goto dispatch_op;
        }
        SWSEC_CASE(Slow) {
            SWSEC_FLUSH();
            ++stats.deopt_slow_fetch;
            return FastExit::NeedSlowStep;
        }
        SWSEC_CASE(Sys) {
            // The kernel may attach observers, remap pages, or exit: one
            // fully instrumented step, then run() re-evaluates eligibility.
            SWSEC_FLUSH();
            ++stats.deopt_syscall;
            return FastExit::NeedSlowStep;
        }
        SWSEC_CASE(Halt) { SWSEC_TRAP_EXIT(1, ip, TrapKind::Halted); }
        SWSEC_CASE(Nop) { SWSEC_NEXT(); }
        SWSEC_CASE(Push) {
            const std::uint32_t v = regs[op->a];
            const std::uint32_t nsp = regs[8] - 4;
            SWSEC_STORE32(nsp, v, 1, ip);
            regs[8] = nsp;
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(PushI) {
            const std::uint32_t nsp = regs[8] - 4;
            SWSEC_STORE32(nsp, SWSEC_IMM_U, 1, ip);
            regs[8] = nsp;
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(Pop) {
            std::uint32_t v = 0;
            SWSEC_LOAD32(regs[8], v, 1, ip);
            regs[8] += 4; // before the register write: POP sp loads the value
            regs[op->a] = v;
            SWSEC_NEXT();
        }
        SWSEC_CASE(MovI) {
            regs[op->a] = SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(MovR) {
            regs[op->a] = regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(Load) {
            std::uint32_t v = 0;
            SWSEC_LOAD32(regs[op->b] + SWSEC_IMM_U, v, 1, ip);
            regs[op->a] = v;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Load8) {
            std::uint8_t v = 0;
            SWSEC_LOAD8(regs[op->b] + SWSEC_IMM_U, v, 1, ip);
            regs[op->a] = v;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Store) {
            SWSEC_STORE32(regs[op->a] + SWSEC_IMM_U, regs[op->b], 1, ip);
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(Store8) {
            SWSEC_STORE8(regs[op->a] + SWSEC_IMM_U, static_cast<std::uint8_t>(regs[op->b] & 0xff),
                         1, ip);
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(Lea) {
            regs[op->a] = regs[op->b] + SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Add) {
            regs[op->a] += regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(AddI) {
            regs[op->a] += SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Sub) {
            regs[op->a] -= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(SubI) {
            regs[op->a] -= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Mul) {
            regs[op->a] *= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(MulI) {
            regs[op->a] *= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Divs) {
            const auto num = static_cast<std::int32_t>(regs[op->a]);
            const auto den = static_cast<std::int32_t>(regs[op->b]);
            if (den == 0) [[unlikely]] {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::DivByZero);
            }
            regs[op->a] = (num == std::numeric_limits<std::int32_t>::min() && den == -1)
                              ? static_cast<std::uint32_t>(num) // defined to wrap
                              : static_cast<std::uint32_t>(num / den);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Rems) {
            const auto num = static_cast<std::int32_t>(regs[op->a]);
            const auto den = static_cast<std::int32_t>(regs[op->b]);
            if (den == 0) [[unlikely]] {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::DivByZero);
            }
            regs[op->a] = (num == std::numeric_limits<std::int32_t>::min() && den == -1)
                              ? 0
                              : static_cast<std::uint32_t>(num % den);
            SWSEC_NEXT();
        }
        SWSEC_CASE(And) {
            regs[op->a] &= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(AndI) {
            regs[op->a] &= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Or) {
            regs[op->a] |= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(OrI) {
            regs[op->a] |= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Xor) {
            regs[op->a] ^= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(XorI) {
            regs[op->a] ^= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(ShlI) {
            regs[op->a] <<= (SWSEC_IMM_U & 31);
            SWSEC_NEXT();
        }
        SWSEC_CASE(ShrI) {
            regs[op->a] >>= (SWSEC_IMM_U & 31);
            SWSEC_NEXT();
        }
        SWSEC_CASE(SarI) {
            regs[op->a] = static_cast<std::uint32_t>(static_cast<std::int32_t>(regs[op->a]) >>
                                                     (SWSEC_IMM_U & 31));
            SWSEC_NEXT();
        }
        SWSEC_CASE(Shl) {
            regs[op->a] <<= (regs[op->b] & 31);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Shr) {
            regs[op->a] >>= (regs[op->b] & 31);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Sar) {
            regs[op->a] = static_cast<std::uint32_t>(static_cast<std::int32_t>(regs[op->a]) >>
                                                     (regs[op->b] & 31));
            SWSEC_NEXT();
        }
        SWSEC_CASE(Not) {
            regs[op->a] = ~regs[op->a];
            SWSEC_NEXT();
        }
        SWSEC_CASE(Neg) {
            regs[op->a] = 0U - regs[op->a];
            SWSEC_NEXT();
        }
        SWSEC_CASE(Cmp) {
            const std::uint32_t x = regs[op->a];
            const std::uint32_t y = regs[op->b];
            fz = (x == y);
            flt = (static_cast<std::int32_t>(x) < static_cast<std::int32_t>(y));
            fb = (x < y);
            SWSEC_NEXT();
        }
        SWSEC_CASE(CmpI) {
            const std::uint32_t x = regs[op->a];
            fz = (x == SWSEC_IMM_U);
            flt = (static_cast<std::int32_t>(x) < op->imm);
            fb = (x < SWSEC_IMM_U);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Test) {
            fz = ((regs[op->a] & regs[op->b]) == 0);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Jmp) { SWSEC_BRANCH(static_cast<std::uint32_t>(op->imm2)); }
        SWSEC_CASE(Jcc) {
            SWSEC_BRANCH(cond_holds(op->c, fz, flt, fb) ? static_cast<std::uint32_t>(op->imm2)
                                                        : op->next);
        }
        SWSEC_CASE(Call) {
            const std::uint32_t nsp = regs[8] - 4;
            SWSEC_STORE32(nsp, op->next, 1, ip);
            regs[8] = nsp;
            if (sstack) {
                m.shadow_stack_.push_back(op->next);
            }
            SWSEC_BRANCH_W(static_cast<std::uint32_t>(op->imm2));
        }
        SWSEC_CASE(CallR) {
            const std::uint32_t target = regs[op->a];
            if (cfi && !m.is_cfi_target(target)) [[unlikely]] {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::CfiViolation, target,
                                "indirect branch to non-approved target");
            }
            const std::uint32_t nsp = regs[8] - 4;
            SWSEC_STORE32(nsp, op->next, 1, ip);
            regs[8] = nsp;
            if (sstack) {
                m.shadow_stack_.push_back(op->next);
            }
            SWSEC_BRANCH_W(target);
        }
        SWSEC_CASE(JmpR) {
            const std::uint32_t target = regs[op->a];
            if (cfi && !m.is_cfi_target(target)) [[unlikely]] {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::CfiViolation, target,
                                "indirect branch to non-approved target");
            }
            SWSEC_BRANCH(target);
        }
        SWSEC_CASE(Ret) {
            std::uint32_t target = 0;
            SWSEC_LOAD32(regs[8], target, 1, ip);
            regs[8] += 4; // pop completes before the shadow-stack verdict
            if (sstack) {
                if (m.shadow_stack_.empty() || m.shadow_stack_.back() != target) [[unlikely]] {
                    SWSEC_TRAP_EXIT(1, ip, TrapKind::ShadowStackViolation, target,
                                    "return address does not match shadow stack");
                }
                m.shadow_stack_.pop_back();
            }
            SWSEC_BRANCH(target);
        }
        SWSEC_CASE(Leave) {
            regs[8] = regs[9]; // sp = bp happens even if the pop then faults
            std::uint32_t old_bp = 0;
            SWSEC_LOAD32(regs[8], old_bp, 1, ip);
            regs[8] += 4;
            regs[9] = old_bp;
            SWSEC_NEXT();
        }
        SWSEC_CASE(FusedCmpJcc) {
            SWSEC_FUSED_BUDGET();
            const std::uint32_t x = regs[op->a];
            const std::uint32_t y = regs[op->b];
            fz = (x == y);
            flt = (static_cast<std::int32_t>(x) < static_cast<std::int32_t>(y));
            fb = (x < y);
            ip = cond_holds(op->c, fz, flt, fb) ? static_cast<std::uint32_t>(op->imm2) : op->next;
            steps += 2;
            ++stats.superinsns_retired;
            goto loop_head;
        }
        SWSEC_CASE(FusedCmpIJcc) {
            SWSEC_FUSED_BUDGET();
            const std::uint32_t x = regs[op->a];
            fz = (x == SWSEC_IMM_U);
            flt = (static_cast<std::int32_t>(x) < op->imm);
            fb = (x < SWSEC_IMM_U);
            ip = cond_holds(op->c, fz, flt, fb) ? static_cast<std::uint32_t>(op->imm2) : op->next;
            steps += 2;
            ++stats.superinsns_retired;
            goto loop_head;
        }
        SWSEC_CASE(FusedPushCall) {
            SWSEC_FUSED_BUDGET();
            const std::uint32_t call_ip = ref.base + SWSEC_IMM_U;
            std::uint32_t nsp = regs[8] - 4;
            SWSEC_STORE32(nsp, regs[op->a], 1, ip);
            regs[8] = nsp;
            if (code_page->generation != ref.generation) [[unlikely]] {
                // The push overwrote the executing page: the call bytes may
                // be stale, so resume at the call under tier 1.
                ip = call_ip;
                ++steps;
                SWSEC_FLUSH();
                ++stats.deopt_page_gen;
                return FastExit::PageChange;
            }
            nsp = regs[8] - 4;
            SWSEC_STORE32(nsp, op->next, 2, call_ip);
            regs[8] = nsp;
            if (sstack) {
                m.shadow_stack_.push_back(op->next);
            }
            ip = static_cast<std::uint32_t>(op->imm2);
            steps += 2;
            ++stats.superinsns_retired;
            goto store_check;
        }
        SWSEC_CASE(FusedLoadPush) {
            SWSEC_FUSED_BUDGET();
            std::uint32_t v = 0;
            SWSEC_LOAD32(regs[op->b] + SWSEC_IMM_U, v, 1, ip);
            regs[op->a] = v;
            // Push reads its source *after* the load wrote op->a (they are
            // usually the same register) and before the sp update.
            const std::uint32_t pv = regs[op->c];
            const std::uint32_t nsp = regs[8] - 4;
            SWSEC_STORE32(nsp, pv, 2, static_cast<std::uint32_t>(op->imm2));
            regs[8] = nsp;
            ip = op->next;
            steps += 2;
            ++stats.superinsns_retired;
            goto store_check;
        }
        SWSEC_CASE(FusedMovIPop) {
            SWSEC_FUSED_BUDGET();
            regs[op->a] = SWSEC_IMM_U; // before the pop: MovI sp, i; pop r
            std::uint32_t v = 0;
            SWSEC_LOAD32(regs[8], v, 2, static_cast<std::uint32_t>(op->imm2));
            regs[8] += 4;
            regs[op->c] = v; // after the sp bump: pop into sp overwrites
            ip = op->next;
            steps += 2;
            ++stats.superinsns_retired;
            goto loop_head;
        }
        SWSEC_CASE(FusedLeaveRet) {
            SWSEC_FUSED_BUDGET();
            regs[8] = regs[9]; // sp = bp happens even if the pop then faults
            std::uint32_t old_bp = 0;
            SWSEC_LOAD32(regs[8], old_bp, 1, ip);
            regs[8] += 4;
            regs[9] = old_bp;
            const std::uint32_t ret_ip = ref.base + SWSEC_IMM_U;
            std::uint32_t target = 0;
            SWSEC_LOAD32(regs[8], target, 2, ret_ip);
            regs[8] += 4; // pop completes before the shadow-stack verdict
            if (sstack) {
                if (m.shadow_stack_.empty() || m.shadow_stack_.back() != target) [[unlikely]] {
                    SWSEC_TRAP_EXIT(2, ret_ip, TrapKind::ShadowStackViolation, target,
                                    "return address does not match shadow stack");
                }
                m.shadow_stack_.pop_back();
            }
            ip = target;
            steps += 2;
            ++stats.superinsns_retired;
            goto loop_head;
        }
    }

#undef SWSEC_FLUSH
#undef SWSEC_TRAP_EXIT
#undef SWSEC_LOAD32
#undef SWSEC_STORE32
#undef SWSEC_LOAD8
#undef SWSEC_STORE8
#undef SWSEC_IMM_U
#undef SWSEC_NEXT
#undef SWSEC_BRANCH
#undef SWSEC_NEXT_W
#undef SWSEC_BRANCH_W
#undef SWSEC_FUSED_BUDGET
#undef SWSEC_CASE
}

} // namespace swsec::vm
