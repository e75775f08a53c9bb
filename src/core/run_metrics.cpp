#include "core/run_metrics.hpp"

#include "core/image_cache.hpp"

namespace swsec::core {

void add_run_tallies(profile::Registry& reg, const profile::Labels& labels,
                     const os::RunTallies& t) {
    reg.counter_add("victim_instructions_total", labels, t.steps);
    reg.counter_add("dcache_hits_total", labels, t.dcache_hits);
    reg.counter_add("dcache_decodes_total", labels, t.dcache_decodes);
    reg.counter_add("syscall_retries_total", labels, t.syscall_retries);
    reg.counter_add("io_faults_injected_total", labels, t.io_faults_injected);
    reg.counter_add("sbrk_calls_total", labels, t.sbrk_calls);
    reg.gauge_max("heap_high_water_bytes", labels, static_cast<double>(t.heap_high_water));
    // vm.dispatch.*: which execution tier did the work (DESIGN.md §13).
    reg.counter_add("vm_dispatch_tier2_entries_total", labels, t.tier2_entries);
    reg.counter_add("vm_dispatch_fast_steps_total", labels, t.fast_steps);
    reg.counter_add("vm_dispatch_superinsns_retired_total", labels, t.superinsns_retired);
    // asan.*: shadow-memory sanitizer activity (DESIGN.md §15).  All zero
    // for runs without sanitize_address, so the totals isolate its work.
    reg.counter_add("asan_shadow_poisons_total", labels, t.asan_shadow_poisons);
    reg.counter_add("asan_shadow_unpoisons_total", labels, t.asan_shadow_unpoisons);
    reg.counter_add("asan_interceptor_checks_total", labels, t.asan_interceptor_checks);
    reg.counter_add("asan_interceptor_traps_total", labels, t.asan_interceptor_traps);
}

void set_image_cache_gauges(profile::Registry& reg, const profile::Labels& labels) {
    reg.gauge_set("image_cache_images", labels, static_cast<double>(image_cache_size()),
                  profile::Volatile::Yes);
    reg.gauge_set("image_cache_hits", labels, static_cast<double>(image_cache_hits()),
                  profile::Volatile::Yes);
    reg.gauge_set("image_cache_evictions", labels,
                  static_cast<double>(image_cache_evictions()), profile::Volatile::Yes);
}

} // namespace swsec::core
