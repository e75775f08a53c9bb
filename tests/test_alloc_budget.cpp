// Heap-allocation budget of one process lifecycle.  A matrix cell loads,
// runs and destroys one or two processes; what those cost on the host is
// mostly bookkeeping that depends on the image or the defense, not on the
// run (DESIGN.md §7, §13).  This binary replaces the global operator new to
// count calls, so a change that brings per-page or per-symbol allocations
// back into the lifecycle fails here instead of showing up as a slower
// benchmark.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>

#include "core/defense.hpp"
#include "core/image_cache.hpp"
#include "core/scenarios.hpp"
#include "os/process.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t a) { return counted_aligned_alloc(size, a); }
void* operator new[](std::size_t size, std::align_val_t a) {
    return counted_aligned_alloc(size, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace swsec;

/// Allocations made by one fig1 victim lifecycle: load, feed, run, destroy.
std::uint64_t lifecycle_allocations(const std::shared_ptr<const objfmt::Image>& image,
                                    const core::Defense& d) {
    const std::uint64_t before = g_allocations.load();
    {
        std::optional<os::Process> p;
        p.emplace(image, d.profile, 1001);
        p->feed_input("x");
        (void)p->run(2'000'000);
    }
    return g_allocations.load() - before;
}

// Before reservations became page ranges this lifecycle made 120-149
// allocations (one hash node per reserved page, a CFI hash set, ...); with
// them it makes 27-37 on a Release build.
constexpr std::uint64_t kLifecycleBudget = 48;

TEST(AllocBudget, Fig1VictimLifecycleUnderEveryStandardDefense) {
    const std::uint64_t probe = g_allocations.load();
    ::operator delete(::operator new(16)); // a direct call cannot be elided
    ASSERT_EQ(g_allocations.load(), probe + 1) << "operator new is not being counted";

    for (const core::Defense& d : core::standard_defenses()) {
        const auto image = core::cached_compile(core::scenarios::fig1_server(32), d.copts);
        // Warm-up: per-thread pools (the decode cache's page free list)
        // fill once per thread, not once per process.
        (void)lifecycle_allocations(image, d);
        const std::uint64_t n = lifecycle_allocations(image, d);
        EXPECT_LE(n, kLifecycleBudget) << d.name;
        std::printf("%-24s %llu allocations\n", d.name.c_str(),
                    static_cast<unsigned long long>(n));
    }
}

} // namespace
