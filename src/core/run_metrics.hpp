// The one exporter from per-run platform tallies to metric families.  The
// matrix, fault-sweep and fuzz registries all call it, so every harness
// exports the same families under the same names; only the labels differ.
#pragma once

#include "os/process.hpp"
#include "profile/metrics.hpp"

namespace swsec::core {

/// Add one run's (or one sum of runs') tallies to `reg` under `labels`:
/// victim instructions, decode-cache hits/decodes, syscall retries, injected
/// I/O faults, sbrk traffic, the heap high-water gauge, the vm_dispatch_*
/// tier-2 tallies and the asan_* sanitizer tallies.
void add_run_tallies(profile::Registry& reg, const profile::Labels& labels,
                     const os::RunTallies& t);

/// The machine-wide image cache's size, hits and evictions as Volatile
/// gauges (schedule-dependent, so excluded from the default exports).
void set_image_cache_gauges(profile::Registry& reg, const profile::Labels& labels);

} // namespace swsec::core
