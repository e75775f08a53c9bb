// Per-page instruction decode cache (QEMU-style predecode, von Neumann safe).
//
// Machine::step() used to re-decode every instruction byte-by-byte through
// per-byte permission checks.  This cache decodes each (page, offset) pair
// at most once per page *generation* and serves subsequent fetches from a
// flat array — while keeping the paper's self-modifying attacks honest:
//
//  * Keyed by generation, not by "code is read-only".  Memory bumps a
//    page's generation on every write (checked, raw or fault-injected),
//    protect and remap, so injected shellcode, DEP flips and MemBitFlip
//    faults invalidate the predecoded stream precisely.  Stale-cache
//    execution would silently falsify the attack matrix.
//  * Every byte offset is cacheable, not just "intended" instruction
//    starts: ROP executes the same bytes at skewed offsets (unintended
//    gadgets), so the cache is a lazily-filled per-offset array.
//  * Anything irregular — offsets within kMaxInsnLength-1 of the page end
//    (the instruction may straddle into a page with different perms or no
//    mapping), bytes that do not decode, unmapped pages, missing R/X
//    permission — falls back to the machine's slow fetch path, which is the
//    single source of truth for trap kinds and details.  The cache only
//    ever serves instructions the slow path would have fetched identically.
//
// On top of the `isa::Insn` stream the cache materializes a second,
// *tier-2* representation per page (DESIGN.md §13): `FastOp` structs with
// register operands resolved to raw indices, immediates widened, the next
// IP pre-added, and hot instruction pairs fused into superinstructions
// (cmp+jcc, push+call, leave+ret, ...).  The fast engine
// (vm/engine_fast.cpp) dispatches straight off this array with computed
// goto; the same generation key guards both representations, so a fused
// entry can never outlive a byte of the code it was fused from.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/isa.hpp"
#include "vm/memory.hpp"

namespace swsec::vm {

class FastEngine;

// The tier-2 handler vocabulary.  The X-macro keeps the enum and the
// computed-goto label table in engine_fast.cpp in the same order by
// construction — a new handler added here fails to compile until
// the engine implements it.  `Unbuilt` must stay first (zero-initialised
// FastOp slots mean "not yet built at this generation") and `Slow` second
// (anything tier 2 must hand to the fully instrumented step()).
#define SWSEC_FAST_HANDLERS(X)                                                                     \
    X(Unbuilt)                                                                                     \
    X(Slow)                                                                                        \
    X(Halt)                                                                                        \
    X(Nop)                                                                                         \
    X(Push)                                                                                        \
    X(PushI)                                                                                       \
    X(Pop)                                                                                         \
    X(MovI)                                                                                        \
    X(MovR)                                                                                        \
    X(Load)                                                                                        \
    X(Load8)                                                                                       \
    X(Store)                                                                                       \
    X(Store8)                                                                                      \
    X(Lea)                                                                                         \
    X(Add)                                                                                         \
    X(AddI)                                                                                        \
    X(Sub)                                                                                         \
    X(SubI)                                                                                        \
    X(Mul)                                                                                         \
    X(MulI)                                                                                        \
    X(Divs)                                                                                        \
    X(Rems)                                                                                        \
    X(And)                                                                                         \
    X(AndI)                                                                                        \
    X(Or)                                                                                          \
    X(OrI)                                                                                         \
    X(Xor)                                                                                         \
    X(XorI)                                                                                        \
    X(ShlI)                                                                                        \
    X(ShrI)                                                                                        \
    X(SarI)                                                                                        \
    X(Shl)                                                                                         \
    X(Shr)                                                                                         \
    X(Sar)                                                                                         \
    X(Not)                                                                                         \
    X(Neg)                                                                                         \
    X(Cmp)                                                                                         \
    X(CmpI)                                                                                        \
    X(Test)                                                                                        \
    X(Jmp)                                                                                         \
    X(Jcc)                                                                                         \
    X(Call)                                                                                        \
    X(CallR)                                                                                       \
    X(JmpR)                                                                                        \
    X(Ret)                                                                                         \
    X(Leave)                                                                                       \
    X(Sys)                                                                                         \
    X(FusedCmpJcc)                                                                                 \
    X(FusedCmpIJcc)                                                                                \
    X(FusedPushCall)                                                                               \
    X(FusedLoadPush)                                                                               \
    X(FusedMovIPop)                                                                                \
    X(FusedLeaveRet)

enum class FastHandler : std::uint8_t {
#define SWSEC_FAST_ENUM(name) name,
    SWSEC_FAST_HANDLERS(SWSEC_FAST_ENUM)
#undef SWSEC_FAST_ENUM
        Count
};

/// Branch condition of a Jcc / fused cmp+jcc entry (FastOp::c).
enum class FastCond : std::uint8_t { Z, Nz, L, Ge, G, Le, B, Ae };

/// One tier-2 dispatch unit: either a single pre-decoded instruction or a
/// fused superinstruction of two.  Operand registers are raw indices (no
/// enum casts on the hot path) and `next` is the absolute IP after the
/// *whole* sequence.
struct FastOp {
    FastHandler h = FastHandler::Unbuilt;
    std::uint8_t a = 0; // first register operand
    std::uint8_t b = 0; // second register operand
    std::uint8_t c = 0; // third register / FastCond
    std::int32_t imm = 0;
    std::int32_t imm2 = 0;  // second component's address / absolute taken-branch target
    std::uint32_t next = 0; // absolute IP after the sequence
};
// A page's stream is kPageSize of these, zeroed on first tier-2 touch.
static_assert(sizeof(FastOp) == 16);

class DecodeCache {
public:
    /// The decoded instruction starting at `addr`, or nullptr when the
    /// fetch must take the slow path (which then reports the precise trap).
    /// `need` is the permission set fetching requires (R, or R|X under DEP).
    [[nodiscard]] const isa::Insn* lookup(const Memory& mem, std::uint32_t addr,
                                          Perm need) noexcept;

    // --- tier-2 fast stream (vm/engine_fast.cpp) ---------------------------
    /// Handle to one page's fast-op array, generation-synced at creation.
    /// `ops`/`bytes` stay valid until the page is unmapped (impossible from
    /// inside the dispatch loop: only syscalls and the host unmap, and both
    /// exit tier 2); a *mutation* of the page is detected by comparing the
    /// live page generation against `generation` before every dispatch.
    struct FastPageRef {
        std::array<FastOp, kPageSize>* ops = nullptr;
        const std::uint8_t* bytes = nullptr;
        std::uint64_t generation = 0;
        std::uint32_t base = 0; // page base address
        // Offsets built at this generation; invalidation resets exactly
        // these slots instead of sweeping the whole 64 KiB array (stack
        // shellcode stores into its own page on nearly every instruction,
        // so invalidation cost must scale with ops built, not page size).
        std::vector<std::uint16_t>* built = nullptr;
    };

    /// Resolve the fast stream for the page containing `addr`.  Returns a
    /// null-ops ref when the page is unmapped or lacks `need` permissions —
    /// the engine then hands control to the slow path for one step.
    [[nodiscard]] FastPageRef fast_page(const Memory& mem, std::uint32_t addr,
                                        Perm need) noexcept;

    /// Build the fast op at `off` (page-relative) in a ref returned by
    /// fast_page, fusing with following instructions when a hot pattern
    /// matches.  Marks the slot FastHandler::Slow when the bytes do not
    /// decode, the offset may straddle the page end, or the opcode has no
    /// tier-2 handler (Sys, capability ops).
    void build_fast(const FastPageRef& ref, std::uint32_t off) noexcept;

    // --- statistics (tests + benches) --------------------------------------
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t decodes() const noexcept { return decodes_; }
    [[nodiscard]] std::uint64_t invalidations() const noexcept { return invalidations_; }
    /// Superinstructions materialized into page entries (not retirements;
    /// the machine's DispatchStats counts those).
    [[nodiscard]] std::uint64_t fused_built() const noexcept { return fused_built_; }

private:
    // The fast engine credits hits_ for tier-2-retired instructions (every
    // dispatch from the fast stream is a cache hit by construction).
    friend class FastEngine;

    enum class Slot : std::uint8_t {
        Unknown = 0, // not decoded at this generation yet
        Valid,       // insns_[off] holds the decoded instruction
        SlowPath,    // byte does not decode here; let the slow fetch trap
    };

    // Invariant: an entry at generation 0 is clean — every slot Unknown,
    // every fast op Unbuilt, fast_built empty — so it can serve any page.
    // Live page generations start at 1.
    struct PageEntry {
        std::uint64_t generation = 0;
        std::array<isa::Insn, kPageSize> insns{};
        std::array<Slot, kPageSize> slots{};
        // Tier-2 stream, lazily allocated on the first fast_page() touch so
        // fully instrumented (tier-1-only) machines never pay for it.
        std::unique_ptr<std::array<FastOp, kPageSize>> fast;
        std::vector<std::uint16_t> fast_built; // slots to reset on invalidation
    };

    // Entries are recycled, not freed: a fresh one costs ~116 KiB of
    // zeroing, and a short-lived process touches only a few code pages.
    // The deleter resets the entry (cost proportional to what it built)
    // and parks it on a small per-thread free list that entry_for draws
    // from; beyond the list's bound it frees.
    struct EntryRecycler {
        void operator()(PageEntry* e) const noexcept;
    };
    using EntryPtr = std::unique_ptr<PageEntry, EntryRecycler>;
    struct EntryPool;
    [[nodiscard]] static EntryPool& entry_pool() noexcept;

    [[nodiscard]] PageEntry* entry_for(std::uint32_t page_index);
    void sync_generation(PageEntry& e, std::uint64_t generation) noexcept;
    /// Return `e` to the clean state (see the invariant above) without
    /// touching slots it never built.
    static void reset(PageEntry& e) noexcept;
    [[nodiscard]] static EntryPtr new_entry();

    std::unordered_map<std::uint32_t, EntryPtr> pages_;
    // One-entry MRU: straight-line execution stays within a page.
    std::uint32_t mru_index_ = 0xffffffff;
    PageEntry* mru_ = nullptr;

    std::uint64_t hits_ = 0;
    std::uint64_t decodes_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t fused_built_ = 0;
};

} // namespace swsec::vm
