// Experiment FUZZ: throughput of the differential semantics-preservation
// fuzzer (DESIGN.md §10).
//
// BM_FuzzCampaign prices one end-to-end campaign seed: generate a MiniC
// program, compile it once per distinct CompilerOptions set, and run all
// three oracles (23 process executions per program: one under each of the
// 11 standard defenses, plus a decode-cache pair and a tier pair under three
// of them).  programs_per_s is the budget planner's number: a
// CI smoke gate of 2000 seeds must stay in tens of seconds.  Arg is the
// --jobs value, so the scaling of the share-nothing parallel driver is
// visible in the same report.
//
// BM_FuzzCachedCompileReplay isolates the compile half through the
// machine-wide core/image_cache instead of the fuzzer's per-program memo:
// after the first iteration every (source, options) pair is a cache hit, so
// the steady-state number prices replaying a committed corpus against every
// defense — the hot loop of the ctest corpus gate.
// BM_EvolveMutationThroughput prices the model-level mutation engine alone
// (havoc + splice + render, no execution); BM_EvolveStage prices the whole
// coverage-guided loop per program; BM_CurveTrials prices the Monte-Carlo
// defense-curve runner in trials/s — the number that sizes a 10^6-trial
// sweep.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/curves.hpp"
#include "core/defense.hpp"
#include "core/image_cache.hpp"
#include "fuzz/evolve.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/mutate.hpp"
#include "os/process.hpp"

namespace {

using namespace swsec;

void BM_FuzzCampaign(benchmark::State& state) {
    fuzz::FuzzOptions opts;
    opts.seed_base = 1;
    opts.seeds = 8;
    opts.jobs = static_cast<int>(state.range(0));
    std::uint64_t programs = 0;
    std::uint64_t insns = 0;
    for (auto _ : state) {
        const fuzz::FuzzReport r = fuzz::run_fuzz(opts);
        if (!r.clean()) {
            state.SkipWithError("fuzz campaign diverged");
            return;
        }
        programs += static_cast<std::uint64_t>(r.programs);
        insns += r.counters.instructions;
        benchmark::DoNotOptimize(r);
    }
    state.counters["programs_per_s"] =
        benchmark::Counter(static_cast<double>(programs), benchmark::Counter::kIsRate);
    state.counters["insns_per_s"] =
        benchmark::Counter(static_cast<double>(insns), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FuzzCampaign)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FuzzCachedCompileReplay(benchmark::State& state) {
    const std::string source = fuzz::generate_program(11).render();
    const auto& defenses = core::standard_defenses();
    core::clear_image_cache();
    std::uint64_t runs = 0;
    for (auto _ : state) {
        for (const core::Defense& d : defenses) {
            const auto image = core::cached_compile(source, d.copts);
            os::Process p(image, d.profile, 11);
            const auto r = p.run(20'000'000);
            ++runs;
            benchmark::DoNotOptimize(r);
        }
    }
    state.counters["runs_per_s"] =
        benchmark::Counter(static_cast<double>(runs), benchmark::Counter::kIsRate);
    state.counters["cached_images"] =
        benchmark::Counter(static_cast<double>(core::image_cache_size()));
}
BENCHMARK(BM_FuzzCachedCompileReplay)->Unit(benchmark::kMillisecond);

void BM_EvolveMutationThroughput(benchmark::State& state) {
    const fuzz::ProgramModel a = fuzz::generate_model(1);
    const fuzz::ProgramModel b = fuzz::generate_model(2);
    Rng rng(42);
    std::uint64_t children = 0;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const fuzz::ProgramModel h = fuzz::havoc(a, rng);
        const fuzz::ProgramModel s = fuzz::havoc(fuzz::splice(a, b, rng), rng);
        const std::string sh = h.render().render();
        const std::string ss = s.render().render();
        children += 2;
        bytes += sh.size() + ss.size();
        benchmark::DoNotOptimize(sh);
        benchmark::DoNotOptimize(ss);
    }
    state.counters["children_per_s"] =
        benchmark::Counter(static_cast<double>(children), benchmark::Counter::kIsRate);
    state.counters["rendered_bytes_per_s"] =
        benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvolveMutationThroughput)->Unit(benchmark::kMicrosecond);

void BM_EvolveStage(benchmark::State& state) {
    fuzz::EvolveOptions opts;
    opts.seed = 3;
    opts.init_programs = 8;
    opts.batch = 8;
    opts.execs = 16;
    opts.jobs = static_cast<int>(state.range(0));
    std::uint64_t programs = 0;
    std::uint64_t runs = 0;
    for (auto _ : state) {
        const fuzz::EvolveReport r = fuzz::run_evolve(opts);
        programs += static_cast<std::uint64_t>(r.execs);
        runs += r.runs;
        benchmark::DoNotOptimize(r);
    }
    state.counters["programs_per_s"] =
        benchmark::Counter(static_cast<double>(programs), benchmark::Counter::kIsRate);
    state.counters["runs_per_s"] =
        benchmark::Counter(static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvolveStage)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CurveTrials(benchmark::State& state) {
    core::CurveOptions opts;
    opts.aslr_bits = {0, 4, 8};
    opts.canary_budgets = {1, 4};
    opts.canary_bits = 4;
    opts.trials = 50;
    opts.seed = 7;
    opts.jobs = static_cast<int>(state.range(0));
    std::uint64_t trials = 0;
    std::uint64_t runs = 0;
    for (auto _ : state) {
        const core::CurveReport r = core::run_curves(opts);
        trials += r.total_trials();
        runs += r.total_runs();
        benchmark::DoNotOptimize(r);
    }
    state.counters["trials_per_s"] =
        benchmark::Counter(static_cast<double>(trials), benchmark::Counter::kIsRate);
    state.counters["runs_per_s"] =
        benchmark::Counter(static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CurveTrials)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
