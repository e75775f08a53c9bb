#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <set>

#include "common/rng.hpp"
#include "core/attack_lab.hpp"
#include "core/defense.hpp"
#include "core/fault_sweep.hpp"
#include "core/image_cache.hpp"
#include "core/matrix.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/generator.hpp"
#include "matrix_expect.hpp"
#include "os/process.hpp"

namespace cellbench {

// ---- SpanLog ----------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t cell)
    : log_(log), index_(log.spans_.size()) {
    const std::int64_t parent =
        log.open_.empty() ? -1 : static_cast<std::int64_t>(log.open_.back());
    log.spans_.push_back(Span{name, cell, parent, Clock::now(), {}});
    log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
    log_.spans_[index_].end = Clock::now();
    log_.open_.pop_back();
}

std::size_t SpanLog::calls(const std::string& name) const {
    std::size_t n = 0;
    for (const Span& s : spans_) {
        n += name == s.name ? 1 : 0;
    }
    return n;
}

double SpanLog::mean_us(const std::string& name) const {
    double us = 0;
    std::size_t n = 0;
    for (const Span& s : spans_) {
        if (name == s.name) {
            us += std::chrono::duration<double, std::micro>(s.end - s.start).count();
            ++n;
        }
    }
    return n == 0 ? 0.0 : us / static_cast<double>(n);
}

double SpanLog::counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
}

void SpanLog::write_jsonl(std::ostream& out) const {
    if (spans_.empty()) {
        return;
    }
    const Clock::time_point t0 = spans_.front().start;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"cell\":";
        if (s.cell == kNoCell) {
            out << "null";
        } else {
            out << s.cell;
        }
        out << ",\"parent\":" << s.parent << ",\"start_us\":" << us(s.start)
            << ",\"end_us\":" << us(s.end) << "}\n";
    }
}

namespace {

using swsec::core::AttackKind;
using swsec::core::Defense;
constexpr std::uint64_t kNoCell = SpanLog::kNoCell;

constexpr std::uint64_t kFuzzMaxSteps = 20'000'000; // FuzzOptions' default watchdog
constexpr std::uint64_t kRunMaxSteps = 200'000'000;

/// A per-(round, salt) seed; victims see only values derived from this.
std::uint64_t derive(std::uint64_t seed, std::uint64_t round, std::uint64_t salt) {
    swsec::Rng rng(seed * 0x9E3779B97F4A7C15ULL + round * 0xBF58476D1CE4E5B9ULL + salt);
    return rng.next_u64();
}

/// A span that exists only in a traced run.
class MaybeSpan {
public:
    MaybeSpan(SpanLog* log, const char* name, std::uint64_t cell) {
        if (log != nullptr) {
            scope_.emplace(*log, name, cell);
        }
    }

private:
    std::optional<SpanLog::Scope> scope_;
};

void count_vm(SpanLog& log, std::uint64_t runs, std::uint64_t steps, std::uint64_t fast_steps,
              std::uint64_t deopts, std::uint64_t dcache_hits, std::uint64_t dcache_decodes) {
    log.count("vm.runs", static_cast<double>(runs));
    log.count("vm.steps", static_cast<double>(steps));
    log.count("vm.fast_steps", static_cast<double>(fast_steps));
    log.count("vm.deopts", static_cast<double>(deopts));
    log.count("vm.dcache_hits", static_cast<double>(dcache_hits));
    log.count("vm.dcache_decodes", static_cast<double>(dcache_decodes));
}

void count_vm(SpanLog& log, const swsec::core::AttackOutcome& o) {
    count_vm(log, 1, o.steps, o.fast_steps, o.deopts, o.dcache_hits, o.dcache_decodes);
}

std::uint64_t deopts_of(const swsec::vm::DispatchStats& d) {
    return d.deopt_page_gen + d.deopt_slow_fetch + d.deopt_trap + d.deopt_budget +
           d.deopt_syscall + d.deopt_observer;
}

/// cached_compile, timed as cc.compile when traced, with the lookup and
/// whether it hit counted for core.image_cache.*.
std::shared_ptr<const swsec::objfmt::Image> compile(SpanLog* log, std::uint64_t cell,
                                                    const std::string& source,
                                                    const swsec::cc::CompilerOptions& copts) {
    const std::uint64_t hits = swsec::core::image_cache_hits();
    std::shared_ptr<const swsec::objfmt::Image> image;
    {
        const MaybeSpan s(log, "cc.compile", cell);
        image = swsec::core::cached_compile(source, copts);
    }
    if (log != nullptr) {
        log->count("cache.lookups", 1);
        log->count("cache.hits", static_cast<double>(swsec::core::image_cache_hits() - hits));
    }
    return image;
}

struct Ran {
    swsec::vm::RunResult result;
    std::string output;
    swsec::vm::DispatchStats dispatch;
    std::uint64_t dcache_hits = 0;
    std::uint64_t dcache_decodes = 0;
};

/// One process lifecycle: load (os.load), run (vm.run), teardown
/// (os.teardown), each a span when traced.
Ran run_process(SpanLog* log, std::uint64_t cell, const swsec::objfmt::Image& image,
                const swsec::os::SecurityProfile& profile, std::uint64_t seed,
                const std::string& input) {
    std::optional<swsec::os::Process> proc;
    {
        const MaybeSpan s(log, "os.load", cell);
        proc.emplace(image, profile, seed);
    }
    if (!input.empty()) {
        proc->feed_input(input);
    }
    Ran ran;
    {
        const MaybeSpan s(log, "vm.run", cell);
        ran.result = proc->run(kRunMaxSteps);
    }
    ran.output = proc->output();
    ran.dispatch = proc->machine().dispatch_stats();
    ran.dcache_hits = proc->machine().decode_cache().hits();
    ran.dcache_decodes = proc->machine().decode_cache().decodes();
    {
        const MaybeSpan s(log, "os.teardown", cell);
        proc.reset();
    }
    return ran;
}

/// The traced replay of an opaque cell: its own image through
/// cached_compile, then one process per seed.
void replay(SpanLog& log, std::uint64_t cell, const std::string& source, const Defense& d,
            std::initializer_list<std::uint64_t> seeds, const std::string& input) {
    const SpanLog::Scope s(log, "replay", cell);
    const auto image = compile(&log, cell, source, d.copts);
    for (const std::uint64_t seed : seeds) {
        (void)run_process(&log, cell, *image, d.profile, seed, input);
    }
}

void replay_attack(SpanLog& log, std::uint64_t cell, AttackKind kind, const Defense& d,
                   std::uint64_t victim_seed, std::uint64_t attacker_seed) {
    const AttackInfo& info = attack_info(kind);
    // The probe rehearses on benign input; the attacker's payload is built
    // inside the lab and is not visible from here.
    if (info.probes) {
        replay(log, cell, info.source(), d, {attacker_seed, victim_seed}, "x");
    } else {
        replay(log, cell, info.source(), d, {victim_seed}, "x");
    }
}

/// Warm the image cache with every matrix cell's image (cold first).
void fill_matrix_images() {
    check_expected_table_shape();
    swsec::core::clear_image_cache();
    for (const AttackKind a : swsec::core::all_attacks()) {
        for (const Defense& d : swsec::core::standard_defenses()) {
            (void)swsec::core::cached_compile(attack_info(a).source(), d.copts);
        }
    }
}

// ---- matrix -------------------------------------------------------------------

class MatrixWorkload final : public Workload {
public:
    explicit MatrixWorkload(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        fill_matrix_images();
        round_cells_.assign(cells_per_round(), {});
    }

    [[nodiscard]] std::size_t cells_per_round() const override {
        return swsec::core::all_attacks().size() * swsec::core::standard_defenses().size();
    }

    CellResult run_cell(std::size_t round, std::size_t cell, SpanLog* log) override {
        const auto& defenses = swsec::core::standard_defenses();
        const AttackKind kind = swsec::core::all_attacks()[cell / defenses.size()];
        const std::size_t di = cell % defenses.size();
        const std::uint64_t vs = derive(seed_, round, 1);
        const std::uint64_t as = derive(seed_, round, 2);
        const std::uint64_t id = round * cells_per_round() + cell;

        const std::uint64_t hits = swsec::core::image_cache_hits();
        swsec::core::AttackOutcome out;
        {
            const MaybeSpan s(log, "core.run_attack", id);
            out = swsec::core::run_attack(kind, defenses[di], vs, as);
        }
        CellResult r;
        r.work.guest_insns = out.steps;
        r.work.processes = attack_info(kind).probes ? 2 : 1;
        r.work.compiles = swsec::core::image_cache_hits() == hits ? 1 : 0;
        r.error = check_verdict(kind, di, out, vs, as);
        if (log != nullptr) {
            count_vm(*log, out);
            replay_attack(*log, id, kind, defenses[di], vs, as);
        }
        round_cells_[cell] = swsec::core::MatrixCell{kind, defenses[di].name, std::move(out)};
        return r;
    }

    /// Export the finished sweep the way `swsec matrix` does: metrics JSON,
    /// Prometheus exposition and the per-cell JSONL.
    std::string end_round(std::size_t /*round*/, SpanLog* log) override {
        std::size_t bytes = 0;
        {
            const MaybeSpan s(log, "profile.export", kNoCell);
            const swsec::profile::Registry reg = swsec::core::matrix_metrics(round_cells_);
            bytes = reg.to_json().size() + reg.to_prometheus().size() +
                    swsec::core::matrix_cells_jsonl(round_cells_).size();
        }
        return bytes == 0 ? "matrix export is empty" : "";
    }

private:
    std::uint64_t seed_;
    std::vector<swsec::core::MatrixCell> round_cells_;
};

// ---- fault-sweep --------------------------------------------------------------

class FaultSweepWorkload final : public Workload {
public:
    explicit FaultSweepWorkload(std::uint64_t seed) : seed_(seed) {}

    void setup() override { fill_matrix_images(); }

    [[nodiscard]] std::size_t cells_per_round() const override {
        return swsec::core::all_attacks().size() * swsec::core::standard_defenses().size();
    }

    CellResult run_cell(std::size_t round, std::size_t cell, SpanLog* log) override {
        const auto& defenses = swsec::core::standard_defenses();
        swsec::core::FaultSweepOptions opts;
        opts.victim_seed = derive(seed_, round, 1);
        opts.attacker_seed = derive(seed_, round, 2);
        opts.fault_seed = derive(seed_, round, 3);
        opts.include_statecont = false;
        const std::size_t ai = cell / defenses.size();
        const std::size_t di = cell % defenses.size();
        const AttackKind kind = swsec::core::all_attacks()[ai];
        const std::uint64_t id = round * cells_per_round() + cell;

        const std::uint64_t hits = swsec::core::image_cache_hits();
        swsec::core::FaultCellSweep c;
        {
            const MaybeSpan s(log, "fault.cell", id);
            c = swsec::core::sweep_fault_cell(opts, ai, di);
        }
        const std::uint64_t lookups_hit = swsec::core::image_cache_hits() - hits;
        std::uint64_t windows = 0;
        for (const auto& t : c.tallies) {
            windows += t.windows;
        }
        // One run_attack for the baseline and one per window.
        const std::uint64_t attacks_run = 1 + windows;
        CellResult r;
        r.work.guest_insns = c.record.outcome.steps;
        r.work.processes = attacks_run * (attack_info(kind).probes ? 2 : 1);
        r.work.compiles = attacks_run - std::min(lookups_hit, attacks_run);
        r.work.fault_windows = windows;
        r.error = check(c, kind, di, opts, windows);

        if (log != nullptr) {
            log->count("fault.cells", 1);
            log->count("fault.windows", static_cast<double>(windows));
            log->count("fault.glitched", static_cast<double>(c.glitched.size()));
            count_vm(*log, c.record.outcome);
            {
                const SpanLog::Scope s(*log, "core.run_attack", id);
                (void)swsec::core::run_attack(kind, defenses[di], opts.victim_seed,
                                              opts.attacker_seed);
            }
            replay_attack(*log, id, kind, defenses[di], opts.victim_seed, opts.attacker_seed);
        }
        return r;
    }

    /// The state-continuity half of the sweep, once per round.
    std::string end_round(std::size_t /*round*/, SpanLog* log) override {
        swsec::core::StatecontSweep sc;
        {
            const MaybeSpan s(log, "statecont.sweep", kNoCell);
            sc = swsec::core::run_statecont_fault_sweep(9, 1);
        }
        if (log != nullptr) {
            log->count("statecont.windows", static_cast<double>(sc.windows));
        }
        if (!sc.violations.empty()) {
            return "statecont: " + sc.violations.front();
        }
        if (sc.windows == 0 || (statecont_windows_ != 0 && sc.windows != statecont_windows_)) {
            return "statecont: " + std::to_string(sc.windows) + " windows, first round had " +
                   std::to_string(statecont_windows_);
        }
        statecont_windows_ = sc.windows;
        return "";
    }

private:
    static bool compiled_check(swsec::trace::CheckOrigin o) {
        using swsec::trace::CheckOrigin;
        return o == CheckOrigin::Canary || o == CheckOrigin::Bounds ||
               o == CheckOrigin::Fortify || o == CheckOrigin::AddressSanitizer;
    }

    /// Fail-closed, the baseline verdict, the window schedule, and the
    /// glitched-check residual limited to the documented compiled checks.
    static std::string check(const swsec::core::FaultCellSweep& c, AttackKind kind,
                             std::size_t di, const swsec::core::FaultSweepOptions& opts,
                             std::uint64_t windows) {
        if (!c.violations.empty()) {
            return "fail-open: " + c.violations.front().to_string();
        }
        std::string err = check_verdict(kind, di, c.record.outcome, opts.victim_seed,
                                        opts.attacker_seed);
        if (!err.empty()) {
            return "baseline " + err;
        }
        const std::uint64_t planned =
            c.baseline_success ? 0 : opts.classes.size() * static_cast<std::uint64_t>(
                                                               opts.windows_per_class);
        if (windows != planned) {
            return swsec::core::attack_name(kind) + ": " + std::to_string(windows) +
                   " fault windows, planned " + std::to_string(planned);
        }
        if (!c.glitched.empty() && !compiled_check(c.record.outcome.trap.origin)) {
            return "glitched check outside the documented set: " + c.glitched.front().to_string();
        }
        return "";
    }

    std::uint64_t seed_;
    std::uint64_t statecont_windows_ = 0;
};

// ---- fuzz ----------------------------------------------------------------------

class FuzzWorkload final : public Workload {
public:
    explicit FuzzWorkload(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        swsec::core::clear_image_cache();
        std::set<std::string> keys;
        for (const Defense& d : swsec::core::standard_defenses()) {
            keys.insert(swsec::core::compiler_options_key(d.copts));
        }
        compiles_per_program_ = keys.size();
    }

    [[nodiscard]] std::size_t cells_per_round() const override { return 1; }

    CellResult run_cell(std::size_t round, std::size_t /*cell*/, SpanLog* log) override {
        const std::uint64_t seed = derive(seed_, round, 4);
        std::string source;
        {
            const MaybeSpan s(log, "fuzz.generate", round);
            source = swsec::fuzz::generate_program(seed).render();
        }
        swsec::fuzz::FuzzReport stats;
        std::vector<swsec::fuzz::Divergence> divs;
        {
            const MaybeSpan s(log, "fuzz.check", round);
            divs = swsec::fuzz::check_program(source, seed, kFuzzMaxSteps, &stats);
        }
        CellResult r;
        r.work.guest_insns = stats.counters.instructions;
        r.work.processes = stats.runs;
        r.work.compiles = compiles_per_program_; // check_program compiles once per options key
        if (!divs.empty()) {
            const auto& d = divs.front();
            r.error = std::string("divergence (") + swsec::fuzz::oracle_name(d.oracle) + ") " +
                      d.config_a + " vs " + d.config_b + " at program seed " +
                      std::to_string(seed);
        }
        if (log != nullptr) {
            log->count("fuzz.runs", static_cast<double>(stats.runs));
            count_vm(*log, stats.runs, stats.counters.instructions, stats.fast_steps,
                     stats.deopts, stats.counters.dcache_hits, stats.counters.dcache_misses);
            for (const Defense& d : swsec::core::standard_defenses()) {
                replay(*log, round, source, d, {seed}, "");
            }
        }
        return r;
    }

    std::string end_round(std::size_t /*round*/, SpanLog* /*log*/) override { return ""; }

private:
    std::uint64_t seed_;
    std::uint64_t compiles_per_program_ = 0;
};

// ---- overhead ------------------------------------------------------------------

// The CM-INTRO programs (bench/bench_countermeasure_overhead.cpp).
struct Program {
    const char* name;
    const char* source;
    bool reads_input; // fed a seeded string on fd 0
};

const std::array<Program, 4> kPrograms = {{
    {"fib", R"(
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int main() { return fib(16); }
    )",
     false},
    {"sort", R"(
        int data[128];
        int main() {
          int i;
          for (i = 0; i < 128; i = i + 1) { data[i] = (i * 2654435761) % 1000; }
          for (i = 1; i < 128; i = i + 1) {
            int key = data[i];
            int j = i - 1;
            while (j >= 0 && data[j] > key) { data[j + 1] = data[j]; j = j - 1; }
            data[j + 1] = key;
          }
          for (i = 1; i < 128; i = i + 1) { if (data[i-1] > data[i]) { return 1; } }
          return 0;
        }
    )",
     false},
    {"strings", R"(
        int main() {
          char buf[64];
          char copy[64];
          int n = read(0, buf, 63);
          buf[n] = 0;
          int total = 0;
          for (int round = 0; round < 64; round = round + 1) {
            strcpy(copy, buf);
            total = total + strlen(copy);
            if (strcmp(copy, buf) != 0) { return 1; }
          }
          print_int(total);
          return 0;
        }
    )",
     true},
    {"heap", R"(
        int main() {
          int round;
          int acc = 0;
          for (round = 0; round < 32; round = round + 1) {
            char* a = malloc(32);
            char* b = malloc(64);
            memset(a, round, 32);
            memset(b, round + 1, 64);
            acc = acc + a[0] + b[0];
            free(a);
            free(b);
          }
          print_int(acc);
          return 0;
        }
    )",
     false},
}};

class OverheadWorkload final : public Workload {
public:
    explicit OverheadWorkload(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        swsec::core::clear_image_cache();
        defenses_ = {
            Defense::none(),         Defense::canary(),           Defense::dep(),
            Defense::aslr(),         Defense::standard_hardening(), Defense::shadow_stack(),
            Defense::coarse_cfi(),   Defense::safe_language(),    Defense::memcheck(),
            Defense::sanitize_address(),
        };
        images_.clear();
        for (const Program& p : kPrograms) {
            for (const Defense& d : defenses_) {
                images_.push_back(swsec::core::cached_compile(p.source, d.copts));
            }
        }
    }

    [[nodiscard]] std::size_t cells_per_round() const override {
        return kPrograms.size() * defenses_.size();
    }

    CellResult run_cell(std::size_t round, std::size_t cell, SpanLog* log) override {
        const Program& p = kPrograms[cell / defenses_.size()];
        const Defense& d = defenses_[cell % defenses_.size()];
        const std::uint64_t id = round * cells_per_round() + cell;
        const std::string input = p.reads_input ? input_for(round) : "";

        // Traced, the cell is its own lifecycle: the image lookup (a hit on
        // the set-up compile) and the process phases become spans.
        const std::shared_ptr<const swsec::objfmt::Image> image =
            log != nullptr ? compile(log, id, p.source, d.copts) : images_[cell];
        const Ran ran = run_process(log, id, *image, d.profile, derive(seed_, id, 5), input);

        CellResult r;
        r.work.guest_insns = ran.result.steps;
        r.work.processes = 1;
        std::int32_t code = 0;
        std::string expected_out;
        expected(p, input, code, expected_out);
        if (!ran.result.exited(code) || ran.output != expected_out) {
            r.error = std::string(p.name) + " under " + d.name + ": " +
                      ran.result.trap.to_string() + ", output \"" + ran.output +
                      "\", expected exit " + std::to_string(code) + " and \"" + expected_out +
                      "\"";
        }
        if (log != nullptr) {
            count_vm(*log, 1, ran.result.steps, ran.dispatch.fast_steps, deopts_of(ran.dispatch),
                     ran.dcache_hits, ran.dcache_decodes);
        }
        return r;
    }

    std::string end_round(std::size_t /*round*/, SpanLog* /*log*/) override { return ""; }

private:
    /// 16..63 printable bytes for the strings program, fresh per round.
    [[nodiscard]] std::string input_for(std::size_t round) const {
        swsec::Rng rng(derive(seed_, round, 6));
        static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz ";
        std::string s(16 + rng.below(48), ' ');
        for (char& c : s) {
            c = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        }
        return s;
    }

    static void expected(const Program& p, const std::string& input, std::int32_t& code,
                         std::string& out) {
        const std::string name = p.name;
        code = name == "fib" ? 987 : 0; // fib(16)
        if (name == "strings") {
            out = std::to_string(64 * input.size());
        } else if (name == "heap") {
            out = "1024"; // sum over rounds r < 32 of r + (r + 1)
        }
    }

    std::uint64_t seed_;
    std::vector<Defense> defenses_;
    std::vector<std::shared_ptr<const swsec::objfmt::Image>> images_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "matrix") {
        return std::make_unique<MatrixWorkload>(seed);
    }
    if (name == "fuzz") {
        return std::make_unique<FuzzWorkload>(seed);
    }
    if (name == "fault-sweep") {
        return std::make_unique<FaultSweepWorkload>(seed);
    }
    if (name == "overhead") {
        return std::make_unique<OverheadWorkload>(seed);
    }
    return nullptr;
}

} // namespace cellbench
