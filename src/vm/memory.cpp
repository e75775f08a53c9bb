#include "vm/memory.hpp"

#include "common/error.hpp"
#include "common/hexdump.hpp"

#include <algorithm>
#include <cstring>

namespace swsec::vm {

namespace {
constexpr std::uint32_t page_index(std::uint32_t addr) noexcept { return addr >> kPageShift; }
constexpr std::uint32_t page_offset(std::uint32_t addr) noexcept { return addr & (kPageSize - 1); }
// Ordering for lower_bound over the range table: the first range not
// ending before page `i` is the only one that can hold it.
constexpr auto ends_before = [](const auto& range, std::uint32_t i) { return range.last < i; };
} // namespace

Memory::Page* Memory::page_at(std::uint32_t addr) noexcept {
    const std::uint32_t idx = page_index(addr);
    if (idx == cached_index_) {
        return cached_page_;
    }
    const auto it = pages_.find(idx);
    Page* p = (it == pages_.end()) ? materialise(idx) : it->second.get();
    cached_index_ = idx;
    cached_page_ = p;
    return p;
}

Memory::Page* Memory::materialise(std::uint32_t index) noexcept {
    const Range* r = range_of(index);
    if (r == nullptr) {
        return nullptr;
    }
    // The range keeps covering the page: a first touch never edits ranges_.
    auto page = std::make_unique<Page>(); // zero-filled
    page->perms = r->perms;
    touch(*page);
    return pages_.emplace(index, std::move(page)).first->second.get();
}

std::optional<Perm> Memory::mapped_perms(std::uint32_t index) const noexcept {
    if (index == cached_index_) {
        // page_at materialised whatever it cached; null means unmapped.
        return cached_page_ ? std::optional<Perm>(cached_page_->perms) : std::nullopt;
    }
    if (const Range* r = range_of(index)) {
        return r->perms;
    }
    return std::nullopt;
}

const Memory::Range* Memory::range_of(std::uint32_t index) const noexcept {
    const auto it = std::lower_bound(ranges_.begin(), ranges_.end(), index, ends_before);
    return (it != ranges_.end() && it->first <= index) ? &*it : nullptr;
}

void Memory::assign(std::uint32_t first, std::uint32_t last, std::optional<Perm> perms) {
    // [lo, hi) are the ranges overlapping [first, last].
    auto lo = std::lower_bound(ranges_.begin(), ranges_.end(), first, ends_before);
    auto hi = std::upper_bound(lo, ranges_.end(), last,
                               [](std::uint32_t i, const Range& r) { return i < r.first; });
    // Their replacement: the uncovered remnants on either side plus the new
    // range, merged where adjacent pieces share permissions.
    Range repl[3]{};
    std::size_t n = 0;
    const auto push = [&](Range r) {
        if (n > 0 && repl[n - 1].last + 1 == r.first && repl[n - 1].perms == r.perms) {
            repl[n - 1].last = r.last;
        } else {
            repl[n++] = r;
        }
    };
    if (lo != hi && lo->first < first) {
        push({lo->first, first - 1, lo->perms});
    }
    if (perms) {
        push({first, last, *perms});
    }
    if (lo != hi && std::prev(hi)->last > last) {
        push({last + 1, std::prev(hi)->last, std::prev(hi)->perms});
    }
    if (n > 0 && lo != ranges_.begin() && std::prev(lo)->last + 1 == repl[0].first &&
        std::prev(lo)->perms == repl[0].perms) {
        --lo;
        repl[0].first = lo->first;
    }
    if (n > 0 && hi != ranges_.end() && repl[n - 1].last + 1 == hi->first &&
        hi->perms == repl[n - 1].perms) {
        repl[n - 1].last = hi->last;
        ++hi;
    }
    const auto old = static_cast<std::size_t>(hi - lo);
    if (n <= old) {
        std::copy(repl, repl + n, lo);
        ranges_.erase(lo + static_cast<std::ptrdiff_t>(n), hi);
    } else {
        std::copy(repl, repl + old, lo);
        ranges_.insert(hi, repl + old, repl + n);
    }
}

void Memory::restamp_resident(std::uint32_t first, std::uint32_t last, Perm perms) {
    const auto restamp = [&](Page& p) {
        p.perms = perms;
        touch(p);
    };
    if (std::uint64_t{last} - first < pages_.size()) {
        for (std::uint32_t idx = first;; ++idx) {
            if (const auto it = pages_.find(idx); it != pages_.end()) {
                restamp(*it->second);
            }
            if (idx == last) {
                return;
            }
        }
    }
    // Fewer resident pages than the range spans (a fresh stack or heap
    // mapping): scan those instead, keeping increasing page order.
    std::vector<std::pair<std::uint32_t, Page*>> hits;
    for (const auto& [idx, page] : pages_) {
        if (idx >= first && idx <= last) {
            hits.emplace_back(idx, page.get());
        }
    }
    std::sort(hits.begin(), hits.end());
    for (const auto& hit : hits) {
        restamp(*hit.second);
    }
}

const Memory::Page* Memory::page_at(std::uint32_t addr) const noexcept {
    return const_cast<Memory*>(this)->page_at(addr);
}

Memory::Page& Memory::page_or_throw(std::uint32_t addr) {
    Page* p = page_at(addr);
    if (p == nullptr) {
        throw Error("access to unmapped memory at " + hex32(addr));
    }
    return *p;
}

const Memory::Page& Memory::page_or_throw(std::uint32_t addr) const {
    return const_cast<Memory*>(this)->page_or_throw(addr);
}

void Memory::map(std::uint32_t addr, std::uint32_t size, Perm perms) {
    if (size == 0) {
        return;
    }
    const std::uint32_t first = page_index(addr);
    const std::uint32_t last = page_index(addr + size - 1);
    assign(first, last, perms);
    restamp_resident(first, last, perms);
    cached_index_ = 0xffffffff;
    cached_page_ = nullptr;
}

void Memory::protect(std::uint32_t addr, std::uint32_t size, Perm perms) {
    if (size == 0) {
        return;
    }
    const std::uint32_t first = page_index(addr);
    const std::uint32_t last = page_index(addr + size - 1);
    // Pages [first, end) are mapped; `end` is the first hole, if any.  The
    // pages before a hole take the new permissions, as a page-by-page walk
    // would have left them.
    std::uint32_t end = first;
    for (auto it = std::lower_bound(ranges_.begin(), ranges_.end(), first, ends_before);
         it != ranges_.end() && it->first <= end && end <= last; ++it) {
        end = it->last + 1;
    }
    if (end > first) {
        const std::uint32_t stop = std::min(last, end - 1);
        assign(first, stop, perms);
        // Reserved pages need no stamp: materialisation draws a fresh one.
        restamp_resident(first, stop, perms);
    }
    if (end <= last) {
        throw Error("protect of unmapped page at " + hex32(end << kPageShift));
    }
}

void Memory::unmap(std::uint32_t addr, std::uint32_t size) {
    if (size == 0) {
        return;
    }
    const std::uint32_t first = page_index(addr);
    const std::uint32_t last = page_index(addr + size - 1);
    assign(first, last, std::nullopt);
    if (std::uint64_t{last} - first < pages_.size()) {
        for (std::uint32_t idx = first;; ++idx) {
            pages_.erase(idx);
            if (idx == last) {
                break;
            }
        }
    } else {
        std::erase_if(pages_, [&](const auto& kv) { return kv.first >= first && kv.first <= last; });
    }
    cached_index_ = 0xffffffff;
    cached_page_ = nullptr;
}

bool Memory::is_mapped(std::uint32_t addr) const noexcept {
    return mapped_perms(page_index(addr)).has_value();
}

Perm Memory::perms_at(std::uint32_t addr) const noexcept {
    return mapped_perms(page_index(addr)).value_or(Perm::None);
}

PageView Memory::page_view(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    if (p == nullptr) {
        return PageView{};
    }
    return PageView{p->data.data(), p->perms, p->generation};
}

std::uint64_t Memory::generation_of(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    return p ? p->generation : 0;
}

AccessFault Memory::check(std::uint32_t addr, std::uint32_t size, Perm need,
                          bool honour_poison) const noexcept {
    // Page-level walk: one permission test covers every byte the access
    // touches within a page; the per-byte poison scan runs only when the
    // page actually has a poison map.
    std::uint32_t a = addr;
    std::uint32_t remaining = size;
    while (remaining > 0) {
        const Page* p = page_at(a);
        if (p == nullptr) {
            return AccessFault::Unmapped;
        }
        if ((static_cast<std::uint8_t>(p->perms) & static_cast<std::uint8_t>(need)) !=
            static_cast<std::uint8_t>(need)) {
            return AccessFault::Permission;
        }
        const std::uint32_t off = page_offset(a);
        const std::uint32_t chunk = std::min(remaining, kPageSize - off);
        if (honour_poison && p->poison) {
            for (std::uint32_t i = 0; i < chunk; ++i) {
                if (p->poison->test(off + i)) {
                    return AccessFault::Poisoned;
                }
            }
        }
        a += chunk;
        remaining -= chunk;
    }
    return AccessFault::None;
}

std::uint8_t Memory::read8(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    return p->data[page_offset(addr)];
}

std::uint32_t Memory::read32(std::uint32_t addr) const noexcept {
    const std::uint32_t off = page_offset(addr);
    if (off <= kPageSize - 4) {
        // Fast path: the word lives in one page — assemble little-endian
        // from the backing array directly (a single load after optimisation).
        const std::uint8_t* d = page_at(addr)->data.data() + off;
        return static_cast<std::uint32_t>(d[0]) | (static_cast<std::uint32_t>(d[1]) << 8) |
               (static_cast<std::uint32_t>(d[2]) << 16) | (static_cast<std::uint32_t>(d[3]) << 24);
    }
    // Slow path: the word straddles a page boundary.
    return static_cast<std::uint32_t>(read8(addr)) |
           (static_cast<std::uint32_t>(read8(addr + 1)) << 8) |
           (static_cast<std::uint32_t>(read8(addr + 2)) << 16) |
           (static_cast<std::uint32_t>(read8(addr + 3)) << 24);
}

void Memory::write8(std::uint32_t addr, std::uint8_t v) noexcept {
    Page* p = page_at(addr);
    p->data[page_offset(addr)] = v;
    touch(*p);
}

void Memory::write32(std::uint32_t addr, std::uint32_t v) noexcept {
    const std::uint32_t off = page_offset(addr);
    if (off <= kPageSize - 4) {
        Page* p = page_at(addr);
        std::uint8_t* d = p->data.data() + off;
        d[0] = static_cast<std::uint8_t>(v & 0xff);
        d[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
        d[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
        d[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
        touch(*p);
        return;
    }
    write8(addr, static_cast<std::uint8_t>(v & 0xff));
    write8(addr + 1, static_cast<std::uint8_t>((v >> 8) & 0xff));
    write8(addr + 2, static_cast<std::uint8_t>((v >> 16) & 0xff));
    write8(addr + 3, static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void Memory::poison(std::uint32_t addr, std::uint32_t size) {
    for (std::uint32_t i = 0; i < size; ++i) {
        Page& p = page_or_throw(addr + i);
        if (!p.poison) {
            p.poison = std::make_unique<std::bitset<kPageSize>>();
        }
        p.poison->set(page_offset(addr + i));
    }
}

void Memory::unpoison(std::uint32_t addr, std::uint32_t size) {
    for (std::uint32_t i = 0; i < size; ++i) {
        Page& p = page_or_throw(addr + i);
        if (p.poison) {
            p.poison->reset(page_offset(addr + i));
        }
    }
}

bool Memory::is_poisoned(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    return p != nullptr && p->poison && p->poison->test(page_offset(addr));
}

std::uint8_t Memory::raw_read8(std::uint32_t addr) const {
    return page_or_throw(addr).data[page_offset(addr)];
}

std::uint32_t Memory::raw_read32(std::uint32_t addr) const {
    return static_cast<std::uint32_t>(raw_read8(addr)) |
           (static_cast<std::uint32_t>(raw_read8(addr + 1)) << 8) |
           (static_cast<std::uint32_t>(raw_read8(addr + 2)) << 16) |
           (static_cast<std::uint32_t>(raw_read8(addr + 3)) << 24);
}

void Memory::raw_write8(std::uint32_t addr, std::uint8_t v) {
    Page& p = page_or_throw(addr);
    p.data[page_offset(addr)] = v;
    touch(p);
}

void Memory::raw_write32(std::uint32_t addr, std::uint32_t v) {
    if (page_offset(addr) <= kPageSize - 4) {
        // One lookup and one generation bump, as write32 does (relocation
        // patching is almost all single-page words).
        Page& p = page_or_throw(addr);
        std::uint8_t* d = p.data.data() + page_offset(addr);
        d[0] = static_cast<std::uint8_t>(v & 0xff);
        d[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
        d[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
        d[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
        touch(p);
        return;
    }
    raw_write8(addr, static_cast<std::uint8_t>(v & 0xff));
    raw_write8(addr + 1, static_cast<std::uint8_t>((v >> 8) & 0xff));
    raw_write8(addr + 2, static_cast<std::uint8_t>((v >> 16) & 0xff));
    raw_write8(addr + 3, static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void Memory::raw_write(std::uint32_t addr, std::span<const std::uint8_t> data) {
    // Page-sized chunks: one lookup, one memcpy, one generation bump per
    // page instead of per byte (the loader writes whole segments this way).
    std::size_t done = 0;
    while (done < data.size()) {
        const std::uint32_t a = addr + static_cast<std::uint32_t>(done);
        Page& p = page_or_throw(a);
        const std::uint32_t off = page_offset(a);
        const std::size_t chunk =
            std::min<std::size_t>(data.size() - done, kPageSize - off);
        std::memcpy(p.data.data() + off, data.data() + done, chunk);
        touch(p);
        done += chunk;
    }
}

std::vector<std::uint8_t> Memory::raw_read(std::uint32_t addr, std::uint32_t len) const {
    std::vector<std::uint8_t> out(len);
    std::uint32_t done = 0;
    while (done < len) {
        const std::uint32_t a = addr + done;
        const Page& p = page_or_throw(a);
        const std::uint32_t off = page_offset(a);
        const std::uint32_t chunk = std::min(len - done, kPageSize - off);
        std::memcpy(out.data() + done, p.data.data() + off, chunk);
        done += chunk;
    }
    return out;
}

std::vector<std::uint32_t> Memory::mapped_pages() const {
    // Resident pages lie inside ranges, so the ranges alone list each
    // mapped page once, in order.
    std::size_t n = 0;
    for (const Range& r : ranges_) {
        n += r.last - r.first + 1;
    }
    std::vector<std::uint32_t> out;
    out.reserve(n);
    for (const Range& r : ranges_) {
        for (std::uint32_t idx = r.first;; ++idx) {
            out.push_back(idx << kPageShift);
            if (idx == r.last) {
                break;
            }
        }
    }
    return out;
}

} // namespace swsec::vm
