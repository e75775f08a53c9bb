#include "vm/decode_cache.hpp"

#include <cstddef>
#include <optional>
#include <span>

namespace swsec::vm {

namespace {

using isa::Op;

/// Condition code of a conditional branch opcode; caller guarantees is_jcc.
FastCond cond_of(Op op) noexcept {
    switch (op) {
    case Op::Jz:
        return FastCond::Z;
    case Op::Jnz:
        return FastCond::Nz;
    case Op::Jl:
        return FastCond::L;
    case Op::Jge:
        return FastCond::Ge;
    case Op::Jg:
        return FastCond::G;
    case Op::Jle:
        return FastCond::Le;
    case Op::Jb:
        return FastCond::B;
    default:
        return FastCond::Ae;
    }
}

bool is_jcc(Op op) noexcept {
    switch (op) {
    case Op::Jz:
    case Op::Jnz:
    case Op::Jl:
    case Op::Jge:
    case Op::Jg:
    case Op::Jle:
    case Op::Jb:
    case Op::Jae:
        return true;
    default:
        return false;
    }
}

/// Tier-2 handler for a single (unfused) instruction; Slow for opcodes the
/// engine defers to the instrumented step() (Sys reaches the kernel, which
/// may attach observers or remap pages; capability ops need cap registers
/// and the capability_mode check).
FastHandler single_handler(Op op) noexcept {
    switch (op) {
    case Op::Halt:
        return FastHandler::Halt;
    case Op::Nop:
        return FastHandler::Nop;
    case Op::Push:
        return FastHandler::Push;
    case Op::PushI:
        return FastHandler::PushI;
    case Op::Pop:
        return FastHandler::Pop;
    case Op::MovI:
        return FastHandler::MovI;
    case Op::MovR:
        return FastHandler::MovR;
    case Op::Load:
        return FastHandler::Load;
    case Op::Load8:
        return FastHandler::Load8;
    case Op::Store:
        return FastHandler::Store;
    case Op::Store8:
        return FastHandler::Store8;
    case Op::Lea:
        return FastHandler::Lea;
    case Op::Add:
        return FastHandler::Add;
    case Op::AddI:
        return FastHandler::AddI;
    case Op::Sub:
        return FastHandler::Sub;
    case Op::SubI:
        return FastHandler::SubI;
    case Op::Mul:
        return FastHandler::Mul;
    case Op::MulI:
        return FastHandler::MulI;
    case Op::Divs:
        return FastHandler::Divs;
    case Op::Rems:
        return FastHandler::Rems;
    case Op::And:
        return FastHandler::And;
    case Op::AndI:
        return FastHandler::AndI;
    case Op::Or:
        return FastHandler::Or;
    case Op::OrI:
        return FastHandler::OrI;
    case Op::Xor:
        return FastHandler::Xor;
    case Op::XorI:
        return FastHandler::XorI;
    case Op::ShlI:
        return FastHandler::ShlI;
    case Op::ShrI:
        return FastHandler::ShrI;
    case Op::SarI:
        return FastHandler::SarI;
    case Op::Shl:
        return FastHandler::Shl;
    case Op::Shr:
        return FastHandler::Shr;
    case Op::Sar:
        return FastHandler::Sar;
    case Op::Not:
        return FastHandler::Not;
    case Op::Neg:
        return FastHandler::Neg;
    case Op::Cmp:
        return FastHandler::Cmp;
    case Op::CmpI:
        return FastHandler::CmpI;
    case Op::Test:
        return FastHandler::Test;
    case Op::Jmp:
        return FastHandler::Jmp;
    case Op::Jz:
    case Op::Jnz:
    case Op::Jl:
    case Op::Jge:
    case Op::Jg:
    case Op::Jle:
    case Op::Jb:
    case Op::Jae:
        return FastHandler::Jcc;
    case Op::Call:
        return FastHandler::Call;
    case Op::CallR:
        return FastHandler::CallR;
    case Op::JmpR:
        return FastHandler::JmpR;
    case Op::Ret:
        return FastHandler::Ret;
    case Op::Leave:
        return FastHandler::Leave;
    case Op::Sys:
        return FastHandler::Sys;
    default: // CLoad / CStore / CJmp / CSetB
        return FastHandler::Slow;
    }
}

} // namespace

// Bound on each thread's free list of page entries (~116 KiB each): an idle
// thread keeps at most ~2 MiB.  The list only ever holds entries that were
// live at once, so it never raises a thread's peak memory.
constexpr std::size_t kEntryPoolCap = 16;

struct DecodeCache::EntryPool {
    std::array<PageEntry*, kEntryPoolCap> free{};
    std::size_t size = 0;
    bool closed = false; // thread teardown has run: free directly
};

DecodeCache::EntryPool& DecodeCache::entry_pool() noexcept {
    // The list itself is trivially destructible, so a DecodeCache destroyed
    // after thread-local teardown (one with static storage duration) still
    // finds it and, seeing `closed`, frees directly.
    thread_local EntryPool pool;
    struct Reaper {
        ~Reaper() {
            for (std::size_t i = 0; i < pool.size; ++i) {
                delete pool.free[i];
            }
            pool.size = 0;
            pool.closed = true;
        }
    };
    thread_local Reaper reaper;
    return pool;
}

void DecodeCache::reset(PageEntry& e) noexcept {
    e.slots.fill(Slot::Unknown);
    if (e.fast) {
        // Unbuilt: fused entries die with their bytes.  Reset only the slots
        // actually built — a page whose own stores keep bumping its
        // generation (stack shellcode) invalidates per store, and a full
        // 64 KiB sweep each time would dominate the run.
        for (const std::uint16_t off : e.fast_built) {
            (*e.fast)[off] = FastOp{};
        }
    }
    e.fast_built.clear();
    e.generation = 0;
}

void DecodeCache::EntryRecycler::operator()(PageEntry* e) const noexcept {
    EntryPool& pool = entry_pool();
    if (pool.closed || pool.size == kEntryPoolCap) {
        delete e;
        return;
    }
    reset(*e);
    pool.free[pool.size++] = e;
}

DecodeCache::EntryPtr DecodeCache::new_entry() {
    EntryPool& pool = entry_pool();
    if (pool.size > 0) {
        return EntryPtr(pool.free[--pool.size]);
    }
    return EntryPtr(new PageEntry());
}

DecodeCache::PageEntry* DecodeCache::entry_for(std::uint32_t page_index) {
    auto& slot = pages_[page_index];
    if (!slot) {
        slot = new_entry();
    }
    mru_index_ = page_index;
    mru_ = slot.get();
    return mru_;
}

void DecodeCache::sync_generation(PageEntry& e, std::uint64_t generation) noexcept {
    if (e.generation == generation) {
        return;
    }
    if (e.generation != 0) {
        ++invalidations_;
        reset(e);
    }
    e.generation = generation;
}

const isa::Insn* DecodeCache::lookup(const Memory& mem, std::uint32_t addr,
                                     Perm need) noexcept {
    const std::uint32_t off = addr & (kPageSize - 1);
    if (off > kPageSize - isa::kMaxInsnLength) {
        return nullptr; // may straddle into the next page: slow path
    }
    const PageView view = mem.page_view(addr);
    if (view.data == nullptr ||
        (static_cast<std::uint8_t>(view.perms) & static_cast<std::uint8_t>(need)) !=
            static_cast<std::uint8_t>(need)) {
        return nullptr; // unmapped / permission fault: slow path traps
    }
    const std::uint32_t page_index = addr >> kPageShift;
    PageEntry* e = (page_index == mru_index_) ? mru_ : entry_for(page_index);
    sync_generation(*e, view.generation);
    Slot& s = e->slots[off];
    if (s == Slot::Unknown) {
        ++decodes_;
        // The guard above keeps [off, off + kMaxInsnLength) inside the page,
        // so the decode window never crosses a permission boundary.
        const auto insn =
            isa::decode(std::span<const std::uint8_t>(view.data + off, isa::kMaxInsnLength));
        if (insn) {
            e->insns[off] = *insn;
            s = Slot::Valid;
        } else {
            s = Slot::SlowPath;
        }
    }
    if (s != Slot::Valid) {
        return nullptr;
    }
    ++hits_;
    return &e->insns[off];
}

DecodeCache::FastPageRef DecodeCache::fast_page(const Memory& mem, std::uint32_t addr,
                                                Perm need) noexcept {
    const PageView view = mem.page_view(addr);
    if (view.data == nullptr ||
        (static_cast<std::uint8_t>(view.perms) & static_cast<std::uint8_t>(need)) !=
            static_cast<std::uint8_t>(need)) {
        return {}; // unmapped / permission fault: tier 1 owns the trap
    }
    const std::uint32_t page_index = addr >> kPageShift;
    PageEntry* e = (page_index == mru_index_) ? mru_ : entry_for(page_index);
    sync_generation(*e, view.generation);
    if (!e->fast) {
        e->fast = std::make_unique<std::array<FastOp, kPageSize>>(); // zeroed: all Unbuilt
    }
    return FastPageRef{e->fast.get(), view.data, view.generation, addr & ~(kPageSize - 1),
                       &e->fast_built};
}

void DecodeCache::build_fast(const FastPageRef& ref, std::uint32_t off) noexcept {
    constexpr std::uint32_t kFastLimit = kPageSize - isa::kMaxInsnLength;
    FastOp& fo = (*ref.ops)[off];
    fo = FastOp{};
    fo.h = FastHandler::Slow;
    ref.built->push_back(static_cast<std::uint16_t>(off));
    if (off > kFastLimit) {
        return; // page tail: the instruction may straddle into the next page
    }
    ++decodes_;
    const auto head =
        isa::decode(std::span<const std::uint8_t>(ref.bytes + off, isa::kMaxInsnLength));
    if (!head) {
        return; // does not decode here: tier 1 reports InvalidInstruction
    }
    const isa::Insn& i1 = *head;
    fo.h = single_handler(i1.op);
    fo.a = static_cast<std::uint8_t>(i1.r1);
    fo.b = static_cast<std::uint8_t>(i1.r2);
    fo.imm = i1.imm;
    fo.next = ref.base + off + i1.length;
    if (is_jcc(i1.op) || i1.op == Op::Jmp || i1.op == Op::Call) {
        fo.c = static_cast<std::uint8_t>(cond_of(i1.op));
        fo.imm2 = static_cast<std::int32_t>(fo.next + static_cast<std::uint32_t>(i1.imm));
    }

    // Superinstruction fusion: peek at the following instruction.  Both
    // components must sit in the fast-decodable region of the *same* page;
    // each fused entry lives in the head's slot only, so a branch into the
    // second component's own offset still dispatches it individually.
    const auto decode_at = [&](std::uint32_t o) -> std::optional<isa::Insn> {
        if (o > kFastLimit) {
            return std::nullopt;
        }
        return isa::decode(std::span<const std::uint8_t>(ref.bytes + o, isa::kMaxInsnLength));
    };

    switch (i1.op) {
    case Op::Cmp:
    case Op::CmpI: {
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && is_jcc(d2->op)) {
            fo.h = (i1.op == Op::Cmp) ? FastHandler::FusedCmpJcc : FastHandler::FusedCmpIJcc;
            fo.c = static_cast<std::uint8_t>(cond_of(d2->op));
            const std::uint32_t jnext = ref.base + off2 + d2->length;
            fo.imm2 = static_cast<std::int32_t>(jnext + static_cast<std::uint32_t>(d2->imm));
            fo.next = jnext;
            ++fused_built_;
        }
        break;
    }
    case Op::Push: {
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && d2->op == Op::Call) {
            // Single-argument call: push r; call rel (the dominant call
            // shape in compiled code — one stack argument).
            fo.h = FastHandler::FusedPushCall;
            fo.imm = static_cast<std::int32_t>(off2); // the call's offset
            const std::uint32_t cnext = ref.base + off2 + d2->length;
            fo.imm2 = static_cast<std::int32_t>(cnext + static_cast<std::uint32_t>(d2->imm));
            fo.next = cnext; // the call's return address
            ++fused_built_;
        }
        break;
    }
    case Op::Load: {
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && d2->op == Op::Push) {
            // Load rd, [rb+d]; push rs — argument materialisation.
            fo.h = FastHandler::FusedLoadPush;
            fo.c = static_cast<std::uint8_t>(d2->r1);
            fo.imm2 = static_cast<std::int32_t>(ref.base + off2); // push's ip
            fo.next = ref.base + off2 + d2->length;
            ++fused_built_;
        }
        break;
    }
    case Op::MovI: {
        // MovI rd, imm; pop re — the compiler's binary-operator shape
        // (lhs pushed, rhs immediate materialised, lhs popped back).
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && d2->op == Op::Pop) {
            fo.h = FastHandler::FusedMovIPop;
            fo.c = static_cast<std::uint8_t>(d2->r1);
            fo.imm2 = static_cast<std::int32_t>(ref.base + off2); // pop's ip
            fo.next = ref.base + off2 + d2->length;
            ++fused_built_;
        }
        break;
    }
    case Op::Leave: {
        // Leave; ret — the function epilogue.
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && d2->op == Op::Ret) {
            fo.h = FastHandler::FusedLeaveRet;
            fo.imm = static_cast<std::int32_t>(off2); // the ret's offset
            ++fused_built_;
        }
        break;
    }
    default:
        break;
    }
}

} // namespace swsec::vm
