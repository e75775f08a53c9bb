// cellbench: per-cell cost of the swsec harnesses, one workload per process.
//
//   cellbench --workload W --seed N --seconds S --trace 0|1
//             [--source DIGEST] [--spans-out FILE]
//
// --trace 0 runs cells serially for S seconds and reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics of a traced pass (see
// README.md).  The last line of stdout is one JSON object with the keys
// correct/attempted/failed/metrics.  Exit status: 0 when every cell passed
// its oracle, 1 when one failed or raised, 2 on a usage error or an
// unoptimised build (nothing is printed then).
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/escape.hpp"
#include "core/parallel.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using cellbench::CellResult;
using cellbench::SpanLog;
using cellbench::WorkCounters;
using cellbench::Workload;
using Clock = std::chrono::steady_clock;

// The timed phase is cut into blocks of whole rounds, each at least this
// long and with at least this many cells (so its p95 has ten samples
// beyond it).  Each end-to-end timing is the median over blocks: a burst
// of load from outside the process moves a few blocks, not the result.
constexpr double kBlockSeconds = 0.5;
constexpr std::size_t kBlockCells = 200;
// Cells at the start of a run that are run again to prove the work counters
// repeat exactly.
constexpr std::size_t kRecheckCells = 20;
// Whole rounds run, checked and counted before the timed phase starts, so
// that the first block does not pay for cold caches.
constexpr double kWarmupSeconds = 1.0;
// Set-up probes (child processes timed from spawn to ready) per run;
// setup_s is their median.  They are spread evenly over the timed phase,
// with the clock of the timed phase stopped while one runs: on the shared
// host they were tuned on, set-up time switched between ~30 and ~45 ms
// every few seconds, so probes taken back to back all landed in one of the
// two.
constexpr std::size_t kSetupSamples = 9;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string source = "unknown";
    std::string spans_out;
    bool setup_only = false;
};

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) {
            return false;
        }
        const std::string v = argv[++i];
        try {
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                a.trace = std::stoi(v);
            } else if (k == "--source") {
                a.source = v;
            } else if (k == "--spans-out") {
                a.spans_out = v;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    if (a.workload.empty()) {
        return false;
    }
    return a.setup_only || (a.seconds > 0 && (a.trace == 0 || a.trace == 1));
}

std::string json_num(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto value = line.find_first_not_of(" \t", line.find(':') + 1);
            return value == std::string::npos ? "unknown" : line.substr(value);
        }
    }
    return "unknown";
}

int usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

/// Host and build identity; `run.py compare` refuses to compare results
/// whose provenance differs in anything but the source digest.
std::string provenance_json(const Args& a) {
    std::ostringstream os;
    os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"usable_cpus\":" << usable_cpus()
       << ",\"cpu\":\"" << swsec::json_escape(cpu_model()) << "\""
       << ",\"build_type\":\"" << CELLBENCH_BUILD_TYPE << "\""
       << ",\"cxx_flags\":\"" << swsec::json_escape(CELLBENCH_CXX_FLAGS) << "\""
       << ",\"compiler\":\"" << swsec::json_escape(CELLBENCH_COMPILER) << "\""
       << ",\"source\":\"" << swsec::json_escape(a.source) << "\""
       << ",\"workload\":\"" << swsec::json_escape(a.workload) << "\",\"seed\":" << a.seed
       << ",\"seconds\":" << json_num(a.seconds) << ",\"trace\":" << a.trace << "}";
    return os.str();
}

CellResult run_guarded(Workload& wl, std::size_t round, std::size_t cell, SpanLog* log) {
    try {
        return wl.run_cell(round, cell, log);
    } catch (const std::exception& e) {
        CellResult r;
        r.error = std::string("raised: ") + e.what();
        return r;
    }
}

std::string end_round_guarded(Workload& wl, std::size_t round, SpanLog* log) {
    try {
        return wl.end_round(round, log);
    } catch (const std::exception& e) {
        return std::string("raised: ") + e.what();
    }
}

/// Outcome bookkeeping shared by both modes.
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> first_errors;

    void fail(const std::string& error) {
        ++failed;
        if (first_errors.size() < 5) {
            first_errors.push_back(error);
        }
    }
    void cell(const CellResult& r) {
        ++attempted;
        if (!r.error.empty()) {
            fail(r.error);
        }
    }
};

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// One fresh process, timed from spawn until it has finished the
/// workload's cold set-up and exited.
double setup_probe(const Args& a) {
    const std::string seed = std::to_string(a.seed);
    std::vector<std::string> args = {"/proc/self/exe", "--workload", a.workload,
                                     "--seed",         seed,         "--setup-only"};
    std::vector<char*> argv;
    for (std::string& s : args) {
        argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    const Clock::time_point t0 = Clock::now();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
        throw std::runtime_error("cannot spawn the set-up probe");
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            throw std::runtime_error("waitpid failed on the set-up probe");
        }
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("the set-up probe failed");
    }
    return seconds_since(t0);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<float>& v, double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Peak resident set of this process image.  VmHWM, not getrusage: after
/// exec, ru_maxrss still carries the high-water mark of the image that
/// forked us (a Python parent would add its own ~13 MB).
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

int finish(const Tally& t, const std::vector<Metric>& metrics) {
    std::cout << "cellbench: attempted=" << t.attempted << " failed=" << t.failed
              << " fail_ratio="
              << (t.attempted == 0 ? 0.0
                                   : static_cast<double>(t.failed) /
                                         static_cast<double>(t.attempted))
              << "\n";
    for (const std::string& e : t.first_errors) {
        std::cout << "  FAILED: " << e << "\n";
    }
    for (const Metric& m : metrics) {
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    std::ostringstream js;
    js << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::size_t>(t.attempted, 1)
       << ", \"failed\": " << t.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        js << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
           << "\": {\"value\": " << json_num(metrics[i].value) << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return t.failed == 0 ? 0 : 1;
}

// ---- --trace 0: end-to-end metrics ----------------------------------------------

int run_timed(Workload& wl, const Args& a) {
    const std::size_t per = wl.cells_per_round();
    const std::size_t recheck_rounds = (kRecheckCells + per - 1) / per;
    Tally tally;
    std::vector<WorkCounters> first_work;
    WorkCounters work;

    // One buffer reused for every block and reserved up front, so that
    // peak RSS does not grow with the number of cells a run completes.
    std::vector<float> block_us;
    block_us.reserve(std::size_t{1} << 16);
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p95s;
    std::size_t rounds = 0;
    // One round; each cell's latency goes to `times` unless it is null.
    const auto run_round = [&](std::vector<float>* times) {
        for (std::size_t c = 0; c < per; ++c) {
            const Clock::time_point c0 = Clock::now();
            const CellResult r = run_guarded(wl, rounds, c, nullptr);
            if (times != nullptr) {
                times->push_back(
                    std::chrono::duration<float, std::micro>(Clock::now() - c0).count());
            }
            tally.cell(r);
            work += r.work;
            if (rounds < recheck_rounds) {
                first_work.push_back(r.work);
            }
        }
        const std::string err = end_round_guarded(wl, rounds, nullptr);
        if (!err.empty()) {
            tally.fail(err);
        }
        ++rounds;
    };

    const Clock::time_point w0 = Clock::now();
    do {
        run_round(nullptr);
    } while (seconds_since(w0) < kWarmupSeconds);
    const std::size_t warmup_rounds = rounds;

    std::vector<double> setup_samples;
    Clock::time_point t0 = Clock::now();
    Clock::time_point block_start = t0;
    // Probe i is due once i/kSetupSamples of the timed phase has passed;
    // its own time is taken out of the phase and of the current block.
    const auto probe_if_due = [&] {
        if (setup_samples.size() < kSetupSamples &&
            seconds_since(t0) >=
                a.seconds * static_cast<double>(setup_samples.size()) / kSetupSamples) {
            const Clock::time_point p0 = Clock::now();
            setup_samples.push_back(setup_probe(a));
            const Clock::duration paused = Clock::now() - p0;
            t0 += paused;
            block_start += paused;
        }
    };
    do {
        probe_if_due();
        run_round(&block_us);
        const double block_s = seconds_since(block_start);
        if (block_s >= kBlockSeconds && block_us.size() >= kBlockCells) {
            std::sort(block_us.begin(), block_us.end());
            rates.push_back(static_cast<double>(block_us.size()) / block_s);
            p50s.push_back(percentile(block_us, 0.50));
            p95s.push_back(percentile(block_us, 0.95));
            block_us.clear();
            block_start = Clock::now();
        }
    } while (seconds_since(t0) < a.seconds || rates.empty());
    const double wall = seconds_since(t0);
    while (setup_samples.size() < kSetupSamples) {
        setup_samples.push_back(setup_probe(a));
    }
    const double rss_mb = peak_rss_mb();

    // Same seed, same cells: the work counters must repeat exactly.
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < first_work.size(); ++i) {
        const WorkCounters again = run_guarded(wl, i / per, i % per, nullptr).work;
        if (!(again == first_work[i])) {
            tally.fail("work counters of cell " + std::to_string(i) + " differ on a re-run");
        }
        for (const std::uint64_t v : {again.guest_insns, again.processes, again.compiles,
                                      again.fault_windows}) {
            digest = fnv1a(digest, v);
        }
    }

    const auto n = static_cast<double>(tally.attempted);
    std::cout << "cellbench: " << warmup_rounds << " warm-up rounds, then " << rounds - warmup_rounds
              << " timed rounds in " << wall << " s ("
              << static_cast<double>((rounds - warmup_rounds) * per) / wall
              << " cells/s overall); " << tally.attempted << " cells in all; " << rates.size()
              << " blocks of >= " << kBlockCells << " cells and >= " << kBlockSeconds
              << " s, the last " << block_us.size() << " cells in no block\n";
    std::cout << "cellbench: work per cell: guest_insns="
              << static_cast<double>(work.guest_insns) / n
              << " processes=" << static_cast<double>(work.processes) / n
              << " compiles=" << static_cast<double>(work.compiles) / n
              << " fault_windows=" << static_cast<double>(work.fault_windows) / n << "\n";
    std::cout << "cellbench: work digest of the first " << first_work.size()
              << " cells (run twice): " << std::hex << digest << std::dec << "\n";

    return finish(tally, {
                             {"cells_per_s", median(rates), "1/s"},
                             {"cell_us_p50", median(p50s), "us"},
                             {"cell_us_p95", median(p95s), "us"},
                             {"setup_s", median(setup_samples), "s"},
                             {"peak_rss_mb", rss_mb, "MB"},
                         });
}

// ---- --trace 1: per-layer metrics ------------------------------------------------

/// Wall time of one batch of cells through core/parallel at `jobs`.  A
/// batch is one round, or enough fuzz rounds for 16 cells, so no two cells
/// of a batch share a slot.
double parallel_wall(Workload& wl, int jobs, std::size_t first_round, Tally& tally) {
    const std::size_t per = wl.cells_per_round();
    const std::size_t n = per >= 16 ? per : (16 + per - 1) / per * per;
    std::vector<CellResult> results(n);
    swsec::core::ParallelOptions opts;
    opts.jobs = jobs;
    const Clock::time_point t0 = Clock::now();
    swsec::core::parallel_for_ws(n, opts, [&](std::size_t i) {
        results[i] = run_guarded(wl, first_round + i / per, i % per, nullptr);
    });
    const double wall = seconds_since(t0);
    for (const CellResult& r : results) {
        tally.cell(r);
    }
    return wall;
}

int run_traced(Workload& wl, const Args& a) {
    const std::size_t per = wl.cells_per_round();
    Tally tally;

    // Warm-up on round 0's cells, then an untraced pass over a third of
    // the run, then the same rounds traced.
    const Clock::time_point w0 = Clock::now();
    do {
        for (std::size_t c = 0; c < per; ++c) {
            tally.cell(run_guarded(wl, 0, c, nullptr));
        }
    } while (seconds_since(w0) < kWarmupSeconds);
    std::size_t rounds = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        for (std::size_t c = 0; c < per; ++c) {
            tally.cell(run_guarded(wl, rounds, c, nullptr));
        }
        const std::string err = end_round_guarded(wl, rounds, nullptr);
        if (!err.empty()) {
            tally.fail(err);
        }
        ++rounds;
    } while (seconds_since(t0) < a.seconds / 3);
    const double untraced_s = seconds_since(t0);

    SpanLog log;
    const Clock::time_point t1 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t c = 0; c < per; ++c) {
            const SpanLog::Scope s(log, "cell", r * per + c);
            tally.cell(run_guarded(wl, r, c, &log));
        }
        const std::string err = end_round_guarded(wl, r, &log);
        if (!err.empty()) {
            tally.fail(err);
        }
    }
    const double traced_s = seconds_since(t1);

    // Parallel scaling on fresh rounds: size the batch count on jobs=1.
    std::size_t batches = 0;
    double serial_s = 0;
    const Clock::time_point t2 = Clock::now();
    while (seconds_since(t2) < 0.5) {
        serial_s += parallel_wall(wl, 1, rounds + batches * 16, tally);
        ++batches;
    }
    double parallel_s = 0;
    for (std::size_t b = 0; b < batches; ++b) {
        parallel_s += parallel_wall(wl, 2, rounds + b * 16, tally);
    }

    if (!a.spans_out.empty()) {
        std::ofstream out(a.spans_out);
        log.write_jsonl(out);
        if (!out) {
            tally.fail("cannot write spans to " + a.spans_out);
        }
    }

    const double cells = static_cast<double>(rounds * per);
    const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
    const double lookups = log.counted("cache.lookups");
    const double fault_cells = log.counted("fault.cells");
    std::cout << "cellbench: traced " << rounds << " rounds (" << cells << " cells); untraced "
              << untraced_s << " s, traced " << traced_s << " s; parallel probe " << batches
              << " batches\n";
    return finish(
        tally,
        {
            {"os.load_us", log.mean_us("os.load"), "us"},
            {"os.teardown_us", log.mean_us("os.teardown"), "us"},
            {"os.processes_per_cell", ratio(static_cast<double>(log.calls("os.load")), cells),
             "count"},
            {"vm.run_us", log.mean_us("vm.run"), "us"},
            {"vm.guest_insns_per_cell", ratio(log.counted("vm.steps"), cells), "count"},
            {"vm.tier2_share", ratio(log.counted("vm.fast_steps"), log.counted("vm.steps")),
             "ratio"},
            {"vm.deopts_per_run", ratio(log.counted("vm.deopts"), log.counted("vm.runs")),
             "count"},
            {"vm.dcache_hit_ratio",
             ratio(log.counted("vm.dcache_hits"),
                   log.counted("vm.dcache_hits") + log.counted("vm.dcache_decodes")),
             "ratio"},
            {"cc.compile_us", log.mean_us("cc.compile"), "us"},
            {"cc.compiles_per_cell", ratio(lookups - log.counted("cache.hits"), cells), "count"},
            {"core.image_cache.hit_ratio", ratio(log.counted("cache.hits"), lookups), "ratio"},
            {"core.image_cache.lookups", lookups, "count"},
            {"core.run_attack_us", log.mean_us("core.run_attack"), "us"},
            {"fault.cell_us", log.mean_us("fault.cell"), "us"},
            {"fault.windows_per_cell", ratio(log.counted("fault.windows"), fault_cells), "count"},
            {"fault.glitched", log.counted("fault.glitched"), "count"},
            {"statecont.sweep_ms", log.mean_us("statecont.sweep") / 1000.0, "ms"},
            {"statecont.windows",
             ratio(log.counted("statecont.windows"),
                   static_cast<double>(log.calls("statecont.sweep"))),
             "count"},
            {"fuzz.generate_us", log.mean_us("fuzz.generate"), "us"},
            {"fuzz.check_us", log.mean_us("fuzz.check"), "us"},
            {"fuzz.runs_per_program",
             ratio(log.counted("fuzz.runs"), static_cast<double>(log.calls("fuzz.check"))),
             "count"},
            {"profile.export_us", log.mean_us("profile.export"), "us"},
            {"parallel.speedup_j2", ratio(serial_s, parallel_s), "ratio"},
            {"trace.overhead_ratio", ratio(traced_s, untraced_s), "ratio"},
        });
}

} // namespace

int main(int argc, char** argv) {
    Args a;
    if (!parse_args(argc, argv, a)) {
        std::cerr << "usage: cellbench --workload {matrix|fuzz|fault-sweep|overhead} --seed N "
                     "--seconds S --trace 0|1 [--source DIGEST] [--spans-out FILE]\n";
        return 2;
    }
#ifndef __OPTIMIZE__
    std::cerr << "cellbench: refusing to measure a build without optimisation ("
              << CELLBENCH_BUILD_TYPE << ")\n";
    return 2;
#endif
    // By default glibc returns free memory at the top of its heap to the
    // kernel once it exceeds a threshold, and the next cell faults it back
    // in.  Whether the heap top is free after a cell depends on where
    // earlier long-lived blocks landed, so whole runs flipped between two
    // latency tails (matrix p95 ~210 vs ~390 us, same code and seed).
    // A fixed, high trim threshold takes that history out of the timings.
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    std::unique_ptr<Workload> wl = cellbench::make_workload(a.workload, a.seed);
    if (wl == nullptr) {
        std::cerr << "cellbench: unknown workload " << a.workload << "\n";
        return 2;
    }
    try {
        if (a.setup_only) {
            wl->setup();
            return 0;
        }
        std::cout << "provenance " << provenance_json(a) << std::endl;
        wl->setup();
        return a.trace == 0 ? run_timed(*wl, a) : run_traced(*wl, a);
    } catch (const std::exception& e) {
        std::cerr << "cellbench: " << e.what() << "\n";
        return 1;
    }
}
