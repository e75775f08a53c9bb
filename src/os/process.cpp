#include "os/process.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace swsec::os {

Process::Process(std::shared_ptr<const objfmt::Image> image, const SecurityProfile& profile,
                 std::uint64_t seed, const std::string& entry_symbol)
    : image_(std::move(image)), rng_(seed), kernel_(seed ^ 0x6b65726e656cULL) {
    if (image_ == nullptr) {
        throw Error("process: no image to load");
    }
    machine_.options().hardware_shadow_stack = profile.shadow_stack;
    machine_.options().coarse_cfi = profile.coarse_cfi;
    machine_.options().memcheck = profile.memcheck;
    machine_.options().sanitize_address = profile.sanitize_address;
    machine_.options().decode_cache = profile.decode_cache;
    machine_.options().fast_engine = profile.fast_engine;

    if (profile.fault_injector != nullptr) {
        machine_.set_fault_injector(profile.fault_injector);
        kernel_.set_fault_injector(profile.fault_injector);
        kernel_.set_retry_policy(profile.syscall_retry);
    }
    if (profile.tracer != nullptr) {
        machine_.set_tracer(profile.tracer);
    }
    if (profile.profiler != nullptr) {
        machine_.set_profiler(profile.profiler);
    }

    LoadOptions lo;
    lo.dep = profile.dep;
    lo.aslr = profile.aslr;
    lo.aslr_entropy_bits = profile.aslr_entropy_bits;
    lo.sanitize_address = profile.sanitize_address;
    layout_ = load_image(machine_, *image_, lo, rng_, entry_symbol);

    kernel_.attach_layout(&layout_);
    machine_.set_syscall_handler(&kernel_);
}

std::uint32_t Process::addr_of(const std::string& symbol) const {
    return symbol_address(*image_, layout_, symbol);
}

vm::RunResult Process::run(std::uint64_t max_steps) { return machine_.run(max_steps); }

RunTallies& RunTallies::operator+=(const RunTallies& o) noexcept {
    steps += o.steps;
    dcache_hits += o.dcache_hits;
    dcache_decodes += o.dcache_decodes;
    syscall_retries += o.syscall_retries;
    io_faults_injected += o.io_faults_injected;
    sbrk_calls += o.sbrk_calls;
    heap_high_water = std::max(heap_high_water, o.heap_high_water);
    tier2_entries += o.tier2_entries;
    fast_steps += o.fast_steps;
    superinsns_retired += o.superinsns_retired;
    deopts += o.deopts;
    asan_shadow_poisons += o.asan_shadow_poisons;
    asan_shadow_unpoisons += o.asan_shadow_unpoisons;
    asan_interceptor_checks += o.asan_interceptor_checks;
    asan_interceptor_traps += o.asan_interceptor_traps;
    return *this;
}

RunTallies Process::tallies() const {
    RunTallies t;
    t.steps = machine_.steps_executed();
    t.dcache_hits = machine_.decode_cache().hits();
    t.dcache_decodes = machine_.decode_cache().decodes();
    t.syscall_retries = kernel_.fault_stats().retries;
    t.io_faults_injected = kernel_.fault_stats().injected_failures;
    t.sbrk_calls = kernel_.heap_stats().sbrk_calls;
    t.heap_high_water = kernel_.heap_stats().high_water;
    const vm::DispatchStats& d = machine_.dispatch_stats();
    t.tier2_entries = d.tier2_entries;
    t.fast_steps = d.fast_steps;
    t.superinsns_retired = d.superinsns_retired;
    t.deopts = d.deopt_page_gen + d.deopt_slow_fetch + d.deopt_trap + d.deopt_budget +
               d.deopt_syscall + d.deopt_observer;
    const KernelSanitizerStats& sa = kernel_.sanitizer_stats();
    t.asan_shadow_poisons = sa.shadow_poisons;
    t.asan_shadow_unpoisons = sa.shadow_unpoisons;
    t.asan_interceptor_checks = sa.interceptor_checks;
    t.asan_interceptor_traps = sa.interceptor_traps;
    return t;
}

} // namespace swsec::os
