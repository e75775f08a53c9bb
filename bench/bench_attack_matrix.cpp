// Experiment CM-EXPLOIT: the attack/defense matrix (the paper's central
// qualitative "table"), plus the end-to-end cost of mounting each attack,
// the --jobs scaling of the parallel sweep engine, the cost of one process
// lifecycle, and the decode-cache speedup on raw VM execution.
#include <benchmark/benchmark.h>

#include "cc/compiler.hpp"
#include "core/attack_lab.hpp"
#include "core/image_cache.hpp"
#include "core/matrix.hpp"
#include "core/scenarios.hpp"
#include "os/process.hpp"

namespace {

using namespace swsec::core;

void BM_Attack(benchmark::State& state) {
    const AttackKind kind = all_attacks()[static_cast<std::size_t>(state.range(0))];
    const Defense defense = state.range(1) == 0   ? Defense::none()
                            : state.range(1) == 1 ? Defense::standard_hardening()
                                                  : Defense::sanitize_address();
    state.SetLabel(attack_name(kind) + " vs " + defense.name);
    bool succeeded = false;
    for (auto _ : state) {
        const auto out = run_attack(kind, defense);
        succeeded = out.succeeded;
        benchmark::DoNotOptimize(out);
    }
    state.counters["attack_succeeded"] = succeeded ? 1 : 0;
}
BENCHMARK(BM_Attack)->ArgsProduct(
    {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, {0, 1, 2}});

// Arg = --jobs.  The parallel result is cell-for-cell identical to serial,
// so the jobs variants measure pure engine scaling.
void BM_FullMatrix(benchmark::State& state) {
    const int jobs = static_cast<int>(state.range(0));
    std::uint64_t cells = 0;
    for (auto _ : state) {
        const auto m = run_matrix(1001, 2002, jobs);
        cells += m.size();
        benchmark::DoNotOptimize(m);
    }
    state.counters["cells_per_sec"] =
        benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
}
// UseRealTime so the cells_per_sec rate divides by wall clock, not the main
// thread's CPU time (which undercounts once workers carry the load).
BENCHMARK(BM_FullMatrix)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// One process lifecycle: construct (load), run and destroy a fig1 victim on
// benign input, from one shared cached image — the per-process cost every
// matrix cell pays once or twice.  Arg 1 = tier 2 (as deployed), arg 0 =
// tier 1 only.  Milliseconds so tools/check_bench_regression.py can guard it.
void BM_ProcessLifecycle(benchmark::State& state) {
    swsec::os::SecurityProfile profile;
    profile.fast_engine = state.range(0) != 0;
    state.SetLabel(profile.fast_engine ? "tier2" : "tier1");
    const auto img = cached_compile(swsec::core::scenarios::fig1_server(32), {});
    std::uint64_t steps = 0;
    for (auto _ : state) {
        swsec::os::Process p(img, profile, 99);
        p.feed_input("x");
        const auto r = p.run(2'000'000);
        steps += r.steps;
        benchmark::DoNotOptimize(r);
    }
    state.counters["guest_insns"] = benchmark::Counter(
        static_cast<double>(steps), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProcessLifecycle)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Raw VM execution with the per-page decode cache on vs off (arg 1/0):
// one compile, many runs of a compute-bound workload, so the decode loop
// dominates and the cache's effect is isolated from compilation cost.
void BM_VmExecute(benchmark::State& state) {
    static const std::string src = R"(
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int main() { return fib(18); }
    )";
    swsec::os::SecurityProfile profile;
    profile.decode_cache = state.range(0) != 0;
    state.SetLabel(profile.decode_cache ? "decode_cache=on" : "decode_cache=off");
    const auto img = swsec::cc::compile_program({src}, {});
    std::uint64_t steps = 0;
    for (auto _ : state) {
        swsec::os::Process p(img, profile, 99);
        const auto r = p.run(200'000'000);
        steps += r.steps;
        benchmark::DoNotOptimize(r);
    }
    state.counters["insns_per_s"] =
        benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecute)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The shadow-memory sanitizer's instrumentation tax (DESIGN.md §15) on an
// array-walking workload where the per-access shadow checks dominate.
// Arg 0 = uninstrumented baseline, arg 1 = sanitize_address; the pair
// isolates the tax from everything else (same source, same seed, tier 2
// enabled in both, as deployed).
void BM_VmExecuteSanitized(benchmark::State& state) {
    static const std::string src = R"(
        int main() {
          int tab[64];
          int i = 0;
          while (i < 64) { tab[i] = i; i = i + 1; }
          int acc = 0;
          int r = 0;
          while (r < 500) {
            int j = 0;
            while (j < 64) { acc = acc + tab[j]; j = j + 1; }
            r = r + 1;
          }
          return acc & 255;
        }
    )";
    const bool sanitized = state.range(0) != 0;
    state.SetLabel(sanitized ? "sanitize=on" : "sanitize=off");
    swsec::cc::CompilerOptions copts;
    copts.sanitize_address = sanitized;
    swsec::os::SecurityProfile profile;
    profile.sanitize_address = sanitized;
    const auto img = swsec::cc::compile_program({src}, copts);
    std::uint64_t steps = 0;
    for (auto _ : state) {
        swsec::os::Process p(img, profile, 99);
        const auto r = p.run(200'000'000);
        steps += r.steps;
        benchmark::DoNotOptimize(r);
    }
    state.counters["insns_per_s"] =
        benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecuteSanitized)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    std::printf("Attack/defense matrix (YES = attack achieved its goal):\n\n%s\n",
                format_matrix(run_matrix()).c_str());
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
