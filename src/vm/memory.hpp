// Sparse paged memory with per-page permissions and a per-byte poison map.
//
// This models the 32-bit virtual address space of Fig. 1(c): a flat array of
// 2^32 bytes, realised sparsely as 4 KiB pages.  Mapping a range only
// *reserves* it (one sorted {first, last, perms} page range, no backing
// bytes); a reserved page is materialised as a fresh zero page the first
// time any accessor looks it up, so a process pays for the pages it
// touches, not for the 256 KiB stack or the heap it maps.  A materialised
// page *shadows* its range: the range still covers it, so a first touch
// never splits or shifts the range table.  Every query (is_mapped,
// perms_at, mapped_pages, protect, unmap) treats a reserved page exactly
// like a materialised one: reservation is invisible to the guest.
//
// Page permissions (R/W/X) are the substrate for the DEP / W^X
// countermeasure (Section III-C1); the poison map is the substrate for the
// ASan-style run-time checker of Section III-C2.
//
// Two access levels exist:
//  * checked accessors (used by the Machine) honour permissions and poison
//    and report failures via AccessFault so the machine can trap;
//  * raw accessors model *hardware-level* access (the loader writing the
//    process image, the attestation hardware hashing module code).  They
//    throw swsec::Error only for unmapped addresses.
//
// Every page carries a *generation counter*, bumped (from one machine-wide
// monotonic counter) by every mutation that could change what execution at
// an address means: byte/word writes through any access level, permission
// changes and remapping.  The per-page decode cache (decode_cache.hpp) keys
// its predecoded instruction streams on these counters, so self-modifying
// shellcode, DEP flips and fault-injected bit flips invalidate precisely —
// a von Neumann machine cannot assume code is read-only.
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace swsec::vm {

class FastEngine;

/// Page permission bits (combinable).
enum class Perm : std::uint8_t {
    None = 0,
    R = 1,
    W = 2,
    X = 4,
    RW = R | W,
    RX = R | X,
    RWX = R | W | X,
};

[[nodiscard]] constexpr Perm operator|(Perm a, Perm b) noexcept {
    return static_cast<Perm>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr bool has_perm(Perm set, Perm bit) noexcept {
    return (static_cast<std::uint8_t>(set) & static_cast<std::uint8_t>(bit)) != 0;
}

/// Why a checked access failed.
enum class AccessFault : std::uint8_t {
    None,
    Unmapped,   // no page at this address
    Permission, // page mapped but lacks the needed permission bit
    Poisoned,   // memcheck poison byte touched (red zone / freed memory)
};

inline constexpr std::uint32_t kPageSize = 4096;
inline constexpr std::uint32_t kPageShift = 12;

// --- address-sanitizer shadow region (Section III-C2 deployable variant) ---
//
// Unlike the poison map above (host-side state the Machine consults in
// memcheck mode), the sanitizer's shadow is *ordinary guest RAM*: one shadow
// byte per 4-byte granule, mapped by the loader at kShadowBase and consulted
// only by compiled check sequences and kernel interceptors.  The Machine
// itself never reads it.  With a 4-byte granule every redzone the compiler
// and allocator emit is granule-aligned, so a shadow byte is simply
// 0 = addressable, non-zero = poisoned (no partial-granule encoding).
//
// [kShadowBase, kShadowBase + 2^32/4) shadows the whole address space; the
// loader only materialises the slices that shadow live segments.  The region
// sits far above text/data/heap and far below the stack under every ASLR
// draw (max entropy is 14 bits of 4 KiB pages), so it never collides with a
// segment — asserted at load time.
inline constexpr std::uint32_t kShadowBase = 0x20000000u;
inline constexpr std::uint32_t kShadowShift = 2;
inline constexpr std::uint32_t kShadowGranule = 1u << kShadowShift;

[[nodiscard]] constexpr std::uint32_t shadow_of(std::uint32_t addr) noexcept {
    return kShadowBase + (addr >> kShadowShift);
}

/// Direct, read-only view of one mapped page (fast-path substrate): the
/// backing bytes, the page's permissions and its current generation.  The
/// pointer is invalidated by unmap; the generation changes on any mutation.
struct PageView {
    const std::uint8_t* data = nullptr;
    Perm perms = Perm::None;
    std::uint64_t generation = 0;

    [[nodiscard]] explicit operator bool() const noexcept { return data != nullptr; }
};

/// Sparse paged physical memory.
class Memory {
public:
    /// Map [addr, addr+size) with the given permissions, rounding outward to
    /// page boundaries.  New pages are reserved, not allocated (see above).
    /// Remapping an existing page just updates permissions.
    void map(std::uint32_t addr, std::uint32_t size, Perm perms);

    /// Change permissions of already-mapped pages (mprotect analogue).
    void protect(std::uint32_t addr, std::uint32_t size, Perm perms);

    /// Remove pages overlapping [addr, addr+size).
    void unmap(std::uint32_t addr, std::uint32_t size);

    [[nodiscard]] bool is_mapped(std::uint32_t addr) const noexcept;
    [[nodiscard]] Perm perms_at(std::uint32_t addr) const noexcept;

    /// View of the page containing `addr` (null view when unmapped).
    [[nodiscard]] PageView page_view(std::uint32_t addr) const noexcept;
    /// Generation of the page containing `addr`; 0 when unmapped.  Every
    /// mutation (write, protect, map) moves it to a fresh, never-reused
    /// value, so equality means "unchanged since observed".
    [[nodiscard]] std::uint64_t generation_of(std::uint32_t addr) const noexcept;

    // --- checked access (machine level) -------------------------------
    [[nodiscard]] AccessFault check(std::uint32_t addr, std::uint32_t size, Perm need,
                                    bool honour_poison) const noexcept;
    // The read/write helpers assume check() already passed.
    [[nodiscard]] std::uint8_t read8(std::uint32_t addr) const noexcept;
    [[nodiscard]] std::uint32_t read32(std::uint32_t addr) const noexcept;
    void write8(std::uint32_t addr, std::uint8_t v) noexcept;
    void write32(std::uint32_t addr, std::uint32_t v) noexcept;

    // --- poison map (memcheck substrate) ------------------------------
    void poison(std::uint32_t addr, std::uint32_t size);
    void unpoison(std::uint32_t addr, std::uint32_t size);
    [[nodiscard]] bool is_poisoned(std::uint32_t addr) const noexcept;

    // --- raw hardware-level access -------------------------------------
    /// Throws swsec::Error when the range touches unmapped memory.
    [[nodiscard]] std::uint8_t raw_read8(std::uint32_t addr) const;
    [[nodiscard]] std::uint32_t raw_read32(std::uint32_t addr) const;
    void raw_write8(std::uint32_t addr, std::uint8_t v);
    void raw_write32(std::uint32_t addr, std::uint32_t v);
    void raw_write(std::uint32_t addr, std::span<const std::uint8_t> data);
    [[nodiscard]] std::vector<std::uint8_t> raw_read(std::uint32_t addr, std::uint32_t len) const;

    /// Addresses of all mapped pages, reserved ones included, in increasing
    /// order (used by the memory-scraping attacker, which scans whatever
    /// exists).
    [[nodiscard]] std::vector<std::uint32_t> mapped_pages() const;

    /// Number of mapped pages that have host backing (touched at least once);
    /// the rest of mapped_pages() are reservations.
    [[nodiscard]] std::size_t resident_pages() const noexcept { return pages_.size(); }

private:
    // The tier-2 engine (engine_fast.cpp) walks pages directly — same
    // checks as the public accessors, without the per-call page lookup.
    friend class FastEngine;

    struct Page {
        std::array<std::uint8_t, kPageSize> data{};
        Perm perms = Perm::None;
        std::uint64_t generation = 0;
        std::unique_ptr<std::bitset<kPageSize>> poison; // lazily allocated
    };

    // The only way to reach a page's bytes: materialises a reserved page on
    // its first lookup (noexcept, so a failed allocation terminates).
    [[nodiscard]] Page* page_at(std::uint32_t addr) noexcept;
    [[nodiscard]] const Page* page_at(std::uint32_t addr) const noexcept;
    [[nodiscard]] Page* materialise(std::uint32_t index) noexcept;
    /// Permissions of the page at `index` without materialising it; empty
    /// when the page is neither materialised nor reserved.
    [[nodiscard]] std::optional<Perm> mapped_perms(std::uint32_t index) const noexcept;

    // A maximal run of mapped pages [first, last] (page indices) sharing
    // one set of permissions.
    struct Range {
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        Perm perms = Perm::None;
    };
    [[nodiscard]] const Range* range_of(std::uint32_t index) const noexcept;
    /// Make [first, last] one range with `perms`, or unmapped when empty:
    /// splits the ranges it overlaps and merges equal-perm neighbours.
    void assign(std::uint32_t first, std::uint32_t last, std::optional<Perm> perms);
    /// Give the materialised pages in [first, last] `perms` and a fresh
    /// generation, in increasing page order.
    void restamp_resident(std::uint32_t first, std::uint32_t last, Perm perms);
    Page& page_or_throw(std::uint32_t addr);
    [[nodiscard]] const Page& page_or_throw(std::uint32_t addr) const;
    void touch(Page& p) noexcept { p.generation = ++gen_counter_; }

    // Materialised pages; each lies inside a range of ranges_ and carries
    // the same permissions (map and protect update both).
    std::unordered_map<std::uint32_t, std::unique_ptr<Page>> pages_;
    // Every mapped page, touched or not: sorted, disjoint, and no two
    // adjacent ranges share permissions.
    std::vector<Range> ranges_;
    // Machine-wide monotonic mutation counter: generations are never reused,
    // even across an unmap/map cycle of the same page index.
    std::uint64_t gen_counter_ = 0;
    // One-entry lookup cache: page indices are dense in practice.
    mutable std::uint32_t cached_index_ = 0xffffffff;
    mutable Page* cached_page_ = nullptr;
};

} // namespace swsec::vm
