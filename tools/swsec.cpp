// swsec — command-line driver for the toolchain and the experiment suite.
//
//   swsec run <file.mc>               compile and run a MiniC program
//   swsec asm|disasm <file.mc>        the generated assembly / linked code
//   swsec lint <file.mc>              static memory-safety analysis
//   swsec gadgets <file.mc>           ROP-gadget census of the binary
//   swsec fig1                        regenerate the paper's Fig. 1
//   swsec matrix                      the attack/defense matrix
//   swsec fault-sweep                 fail-closed fault-injection sweep
//                                     (exit 0 iff the invariant holds)
//   swsec trace <scenario>            one observability scenario's event
//                                     trace as JSONL (counters on stderr)
//   swsec profile <scenario|file.mc>  source-level profile of a victim run:
//                                     hot blocks, line heat, folded stacks
//   swsec fuzz                        differential semantics-preservation
//                                     fuzzing (exit 0 iff zero divergences)
//   swsec evolve                      coverage-guided evolutionary fuzzing
//                                     (exit 0 iff zero unique crashes)
//   swsec curves                      Monte-Carlo defense curves (Wilson CIs
//                                     across ASLR entropy and guess budgets)
//   swsec campaign run|resume|status  the matrix, fault sweep or fuzzer as a
//                                     checkpointed cell lattice in --dir:
//                                     kill -9 and resume re-runs only the
//                                     missing cells, byte-identically; cells
//                                     that hang or crash twice are
//                                     quarantined with repro coordinates.
//
// Each command declares its flags as rows of a table (`Flag`); one loop
// (`Cli::parse`) reads argv against the rows, and usage is printed from the
// same rows.  One reader takes every number: the whole argument must be one
// unsigned integer in C notation (0x.. works) within the row's bounds and
// the field's range.  Anything else exits 2 naming the flag, before any
// harness work starts.
//
// --metrics-out FILE writes a harness's metrics registry as deterministic
// JSON, --prom-out FILE the same registry in Prometheus text format.  The
// sweeps are byte-identical for any --jobs value (0 = one worker per
// hardware thread), and traces are byte-identical with the decode cache on
// or off.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "attacks/gadgets.hpp"
#include "cc/analyzer.hpp"
#include "cc/compiler.hpp"
#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/hexdump.hpp"
#include "core/campaign/campaign.hpp"
#include "core/fault_sweep.hpp"
#include "core/fig1.hpp"
#include "core/matrix.hpp"
#include "core/curves.hpp"
#include "core/scenario_table.hpp"
#include "fuzz/evolve.hpp"
#include "fuzz/fuzz.hpp"
#include "isa/disasm.hpp"
#include "os/process.hpp"
#include "profile/metrics.hpp"
#include "profile/report.hpp"

namespace {

using namespace swsec;

// ---- the flag table ---------------------------------------------------------

/// A switch that turns on two fields: a compiler pass and its platform half.
struct SwitchPair {
    bool* first;
    bool* second;
};

using Target = std::variant<bool*, SwitchPair, std::string*, int*, unsigned*, std::uint64_t*,
                            std::int64_t*, std::optional<std::uint64_t>*,
                            std::vector<std::uint32_t>*>;

template <class T> constexpr std::uint64_t field_max() {
    if constexpr (std::is_arithmetic_v<T>) {
        return std::numeric_limits<T>::max();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
        return std::numeric_limits<std::uint32_t>::max();
    } else {
        return std::numeric_limits<std::uint64_t>::max();
    }
}

/// One row of a command's flag table.  Switches (bool targets) take no
/// argument; every other flag takes the next one.  A number, and each
/// element of a comma-separated list, must lie in [min, max], which the
/// constructor narrows to what the field can hold.
struct Flag {
    Flag(std::string_view n, bool* t) : name(n), target(t) {}
    Flag(std::string_view n, SwitchPair t) : name(n), target(t) {}
    template <class T>
    Flag(std::string_view n, T* t, std::string_view mv, std::uint64_t lo = 0,
         std::uint64_t hi = field_max<T>())
        : name(n), target(t), metavar(mv), min(lo), max(std::min(hi, field_max<T>())) {}

    std::string_view name;
    Target target;
    std::string_view metavar;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
};

/// Workers are OS threads: no host this runs on has use for more, and the
/// cap keeps a typo from starting thousands of them.
constexpr std::uint64_t kMaxJobs = 256;

Flag jobs_flag(int& jobs) { return {"--jobs", &jobs, "N", 0, kMaxJobs}; }

/// Sweep sizes that size a per-item buffer before any work starts (per-seed
/// results, per-trial tallies, a campaign's cell list) are capped so a typo
/// is refused instead of aborting in the allocator.  A million items is
/// hours of work; what is sized up front for it stays under half a GB.
constexpr std::uint64_t kMaxSweep = 1'000'000;

/// An evolve population (round 0 or one bred batch) holds whole program
/// models and their coverage bitmaps in memory at once: kilobytes each.
constexpr std::uint64_t kMaxPopulation = 10'000;

/// The one numeric reader: all of `text` is one unsigned integer in C
/// notation (decimal, 0x hex, 0 octal) within [min, max].
std::optional<std::uint64_t> read_number(const std::string& text, std::uint64_t min,
                                         std::uint64_t max) {
    // strtoull would skip leading blanks and accept (and negate) a sign.
    if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
        return std::nullopt;
    }
    errno = 0;
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
    if (errno != 0 || *end != '\0' || v < min || v > max) {
        return std::nullopt;
    }
    return v;
}

/// Store `text` into a value flag's target; false if it is not a valid value.
bool store(const Flag& f, const std::string& text) {
    return std::visit(
        [&](auto target) -> bool {
            using Field = std::remove_pointer_t<decltype(target)>;
            if constexpr (std::is_same_v<Field, std::string>) {
                *target = text;
                return true;
            } else if constexpr (std::is_same_v<Field, std::vector<std::uint32_t>>) {
                std::vector<std::uint32_t> list;
                for (std::size_t pos = 0;;) {
                    const std::size_t comma = text.find(',', pos);
                    const auto v = read_number(text.substr(pos, comma - pos), f.min, f.max);
                    if (!v) {
                        return false;
                    }
                    list.push_back(static_cast<std::uint32_t>(*v));
                    if (comma == std::string::npos) {
                        break;
                    }
                    pos = comma + 1;
                }
                *target = std::move(list);
                return true;
            } else if constexpr (std::is_same_v<Field, SwitchPair>) {
                return false; // switches take no value
            } else {
                const auto v = read_number(text, f.min, f.max);
                if (v) {
                    *target = static_cast<Field>(*v);
                }
                return v.has_value();
            }
        },
        f.target);
}

std::string describe_value(const Flag& f) {
    const std::string range = "[" + std::to_string(f.min) + ", " + std::to_string(f.max) + "]";
    if (std::holds_alternative<std::vector<std::uint32_t>*>(f.target)) {
        return "comma-separated integers in " + range;
    }
    return "an integer in " + range;
}

struct Command;

/// One command's arguments, read against the command's flag table.
///
/// Usage mode: `parse` appends the command's synopsis to the usage text and
/// returns false without reading anything, so a command prints its usage by
/// running up to its table and stopping there.
class Cli {
public:
    Cli(const Command& cmd, std::string name, std::vector<std::string> args,
        std::string* usage = nullptr)
        : cmd_(&cmd), name_(std::move(name)), args_(std::move(args)), usage_(usage) {}

    /// The one argv loop.  The first bare word fills `operand` (when the
    /// command takes one).  False, after printing why and the command's
    /// usage, on any unknown flag, missing value or bad value.
    bool parse(const std::vector<Flag>& flags, std::string* operand = nullptr);

    /// Print "swsec <command>: <message>" and the command's usage; exit code 2.
    int error(const std::string& message) const;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    [[nodiscard]] std::string synopsis() const;
    bool reject(const std::string& message) const {
        (void)error(message);
        return false;
    }

    const Command* cmd_;
    std::string name_;
    std::vector<std::string> args_;
    std::string* usage_;
    std::vector<Flag> flags_;
};

struct Command {
    std::string_view names;   // "run|asm|...": alternatives sharing one handler
    std::string_view operand; // the bare word it takes ("" = none)
    int (*run)(Cli&);
};

std::string Cli::synopsis() const {
    std::string out = "  swsec " + std::string(cmd_->names);
    if (!cmd_->operand.empty()) {
        out += " " + std::string(cmd_->operand);
    }
    out += "\n";
    std::string line = "     ";
    for (const Flag& f : flags_) {
        std::string item = " " + std::string(f.name);
        if (!f.metavar.empty()) {
            item += " " + std::string(f.metavar);
        }
        if (line.size() + item.size() > 79) {
            out += line + "\n";
            line = "     ";
        }
        line += item;
    }
    if (!flags_.empty()) {
        out += line + "\n";
    }
    return out;
}

bool Cli::parse(const std::vector<Flag>& flags, std::string* operand) {
    flags_ = flags;
    if (usage_ != nullptr) {
        *usage_ += synopsis();
        return false;
    }
    for (std::size_t i = 0; i < args_.size(); ++i) {
        const std::string& arg = args_[i];
        const auto row = std::find_if(flags.begin(), flags.end(),
                                      [&](const Flag& f) { return f.name == arg; });
        if (row == flags.end()) {
            const bool bare = !arg.empty() && arg[0] != '-';
            if (bare && operand != nullptr && operand->empty()) {
                *operand = arg;
                continue;
            }
            return reject((bare ? "unexpected argument '" : "unknown option '") + arg + "'");
        }
        if (const auto* b = std::get_if<bool*>(&row->target)) {
            **b = true;
        } else if (const auto* pair = std::get_if<SwitchPair>(&row->target)) {
            *pair->first = true;
            *pair->second = true;
        } else if (i + 1 == args_.size()) {
            return reject(arg + " needs a value (" + std::string(row->metavar) + ")");
        } else if (!store(*row, args_[++i])) {
            return reject(arg + " takes " + describe_value(*row) + ", not '" + args_[i] + "'");
        }
    }
    return true;
}

int Cli::error(const std::string& message) const {
    std::fprintf(stderr, "swsec %s: %s\nusage:\n%s", name_.c_str(), message.c_str(),
                 synopsis().c_str());
    return 2;
}

// ---- shared rows and outputs --------------------------------------------------

/// Options of the commands that compile a program file.
struct Options {
    cc::CompilerOptions copts;
    os::SecurityProfile profile;
    std::optional<std::uint64_t> seed; // unset: each command's default
    std::string input;
    std::string file;

    /// The hardening rows, plus the seed and fd-0 input of the run.
    std::vector<Flag> flags() {
        return {
            {"--canary", &copts.stack_canaries},
            {"--bounds", &copts.bounds_checks},
            {"--fortify", &copts.fortify_reads},
            {"--memcheck", SwitchPair{&copts.memcheck, &profile.memcheck}},
            {"--sanitize", SwitchPair{&copts.sanitize_address, &profile.sanitize_address}},
            {"--dep", &profile.dep},
            {"--aslr", &profile.aslr},
            {"--shadow-stack", &profile.shadow_stack},
            {"--cfi", &profile.coarse_cfi},
            {"--seed", &seed, "N"},
            {"--input", &input, "STR"},
        };
    }
};

/// --metrics-out and --prom-out, for every harness that exports a registry.
struct Exports {
    std::string json;
    std::string prom;

    Flag json_flag() { return {"--metrics-out", &json, "FILE"}; }
    Flag prom_flag() { return {"--prom-out", &prom, "FILE"}; }
};

/// Write `text` to `path`, or to stdout when path is "-" / empty.  File
/// writes are atomic (temp + fsync + rename): a killed run leaves either
/// the old artifact or the complete new one, never a torn prefix.
void write_out(const std::string& path, const std::string& text) {
    if (path.empty() || path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    write_file_atomic(path, text);
}

/// Build the registry only when an export asked for it, then write each
/// requested form.
void write_registry(const Exports& out, const std::function<profile::Registry()>& build,
                    bool include_volatile = false) {
    if (out.json.empty() && out.prom.empty()) {
        return;
    }
    const profile::Registry reg = build();
    if (!out.json.empty()) {
        write_out(out.json, reg.to_json(include_volatile));
    }
    if (!out.prom.empty()) {
        write_out(out.prom, reg.to_prometheus(include_volatile));
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Error("cannot open '" + path + "'");
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---- commands ---------------------------------------------------------------

int cmd_run(const Options& opt) {
    const auto img = cc::compile_program({read_file(opt.file)}, opt.copts);
    os::Process p(img, opt.profile, opt.seed.value_or(1));
    if (!opt.input.empty()) {
        p.feed_input(opt.input);
    }
    const auto r = p.run(100'000'000);
    std::fputs(p.output().c_str(), stdout);
    std::fprintf(stderr, "[%s after %llu instructions]\n", r.trap.to_string().c_str(),
                 static_cast<unsigned long long>(r.steps));
    return r.trap.kind == vm::TrapKind::Exit ? (r.trap.code & 0xff) : 100;
}

int cmd_asm(const Options& opt) {
    std::fputs(cc::compile_to_asm(read_file(opt.file), opt.copts, "cli").c_str(), stdout);
    return 0;
}

int cmd_disasm(const Options& opt) {
    const auto img = cc::compile_program({read_file(opt.file)}, opt.copts);
    std::printf("; text: %zu bytes, data: %u bytes\n", img.text.size(), img.data_total_size());
    // Annotate function starts with their symbol names.
    std::vector<std::pair<std::uint32_t, std::string>> funcs;
    for (const auto& [name, sym] : img.symbols) {
        if (sym.is_func && sym.section == objfmt::SectionKind::Text) {
            funcs.emplace_back(sym.offset, name);
        }
    }
    const auto lines = isa::disassemble(img.text, os::kDefaultTextBase);
    for (const auto& line : lines) {
        for (const auto& [off, name] : funcs) {
            if (os::kDefaultTextBase + off == line.addr) {
                std::printf("\n%s:\n", name.c_str());
            }
        }
        std::string bytes = line.bytes_hex;
        bytes.resize(20, ' ');
        std::printf("%s:  %s %s\n", hex32(line.addr).c_str(), bytes.c_str(), line.text.c_str());
    }
    return 0;
}

int cmd_lint(const Options& opt) {
    const auto findings = cc::analyze_source(read_file(opt.file));
    std::fputs(cc::format_findings(findings).c_str(), stdout);
    return findings.empty() ? 0 : 1;
}

int cmd_gadgets(const Options& opt) {
    const auto img = cc::compile_program({read_file(opt.file)}, opt.copts);
    attacks::GadgetScanner scanner(img.text, os::kDefaultTextBase);
    std::printf("%zu gadgets (%zu unintended) in %zu bytes of text\n", scanner.gadgets().size(),
                scanner.unintended_count(), img.text.size());
    for (const auto& g : scanner.gadgets()) {
        std::printf("  %s\n", g.to_string().c_str());
    }
    return 0;
}

int cmd_file(Cli& cli) {
    Options opt;
    if (!cli.parse(opt.flags(), &opt.file)) {
        return 2;
    }
    if (opt.file.empty()) {
        return cli.error("missing <file.mc>");
    }
    const std::string& cmd = cli.name();
    if (cmd == "run") {
        return cmd_run(opt);
    }
    if (cmd == "asm") {
        return cmd_asm(opt);
    }
    if (cmd == "disasm") {
        return cmd_disasm(opt);
    }
    if (cmd == "lint") {
        return cmd_lint(opt);
    }
    return cmd_gadgets(opt);
}

int cmd_fig1(Cli& cli) {
    if (!cli.parse({})) {
        return 2;
    }
    std::fputs(core::make_fig1_snapshot().full_report.c_str(), stdout);
    return 0;
}

int cmd_matrix(Cli& cli) {
    int jobs = 1;
    std::string trace_out;
    Exports exports;
    if (!cli.parse({jobs_flag(jobs), {"--trace-out", &trace_out, "FILE"}, exports.json_flag(),
                    exports.prom_flag()})) {
        return 2;
    }
    const auto cells = core::run_matrix(1001, 2002, jobs);
    std::fputs(core::format_matrix(cells).c_str(), stdout);
    if (!trace_out.empty()) {
        write_out(trace_out, core::matrix_cells_jsonl(cells));
    }
    write_registry(exports, [&] { return core::matrix_metrics(cells); });
    return 0;
}

int cmd_profile(Cli& cli) {
    std::string target;
    std::string out_path;
    std::string folded_path;
    bool annotate = false;
    std::uint64_t sample_interval = 97;
    Options opt; // hardening options apply in file mode only
    core::ScenarioOptions sopts;
    std::vector<Flag> flags = opt.flags();
    flags.insert(flags.begin(), {
                                    {"--out", &out_path, "FILE"},
                                    {"--folded", &folded_path, "FILE"},
                                    {"--annotate", &annotate},
                                    {"--sample-interval", &sample_interval, "N"},
                                    {"--attacker-seed", &sopts.attacker_seed, "N"},
                                });
    if (!cli.parse(flags, &target)) {
        return 2;
    }
    if (target.empty()) {
        return cli.error("missing <scenario|file.mc>; scenarios: " + core::scenario_list(true));
    }

    profile::Profiler prof;
    prof.set_sample_interval(sample_interval);
    profile::ProfileReport report;
    const auto names = core::scenario_names();
    if (std::find(names.begin(), names.end(), target) != names.end()) {
        sopts.victim_seed = opt.seed.value_or(sopts.victim_seed);
        sopts.profiler = &prof;
        const core::AttackOutcome out = core::run_scenario(target, sopts);
        report = profile::build_report(prof, *out.image, out.text_base);
        std::fprintf(stderr, "[%s] %s\n", target.c_str(), out.verdict().c_str());
        if (!out.trap_sym.empty()) {
            std::fprintf(stderr, "[%s] trap at %s\n", target.c_str(), out.trap_sym.c_str());
        }
    } else {
        // File mode: compile and run the program under the requested
        // hardening profile with the profiler attached.
        const auto img = cc::compile_program({read_file(target)}, opt.copts);
        os::SecurityProfile p = opt.profile;
        p.profiler = &prof;
        os::Process proc(img, p, opt.seed.value_or(1));
        if (!opt.input.empty()) {
            proc.feed_input(opt.input);
        }
        const auto r = proc.run(100'000'000);
        std::fprintf(stderr, "[%s after %llu instructions]\n", r.trap.to_string().c_str(),
                     static_cast<unsigned long long>(r.steps));
        report = profile::build_report(prof, img, proc.layout().text_base);
    }

    std::fputs(report.summary().c_str(), stdout);
    if (annotate) {
        std::fputs(report.annotated_disasm.c_str(), stdout);
    }
    if (!out_path.empty()) {
        write_out(out_path, report.to_json());
    }
    if (!folded_path.empty()) {
        write_out(folded_path, report.folded_text());
    }
    return 0;
}

int cmd_trace(Cli& cli) {
    std::string scenario;
    std::string trace_out;
    bool no_decode_cache = false;
    core::ScenarioOptions opts;
    if (!cli.parse({{"--trace-out", &trace_out, "FILE"},
                    {"--no-decode-cache", &no_decode_cache},
                    {"--seed", &opts.victim_seed, "N"},
                    {"--attacker-seed", &opts.attacker_seed, "N"}},
                   &scenario)) {
        return 2;
    }
    if (scenario.empty()) {
        return cli.error("missing <scenario>; scenarios: " + core::scenario_list());
    }
    opts.decode_cache = !no_decode_cache;
    trace::Tracer tracer;
    opts.tracer = &tracer;
    const core::AttackOutcome out = core::run_scenario(scenario, opts);
    write_out(trace_out, tracer.to_jsonl());
    std::fprintf(stderr, "[%s] %s\n", scenario.c_str(), out.verdict().c_str());
    std::fprintf(stderr, "[%s] %s\n", scenario.c_str(), out.trap.provenance().c_str());
    std::fprintf(stderr, "[%s] %s\n", scenario.c_str(), tracer.counters().summary().c_str());
    return 0;
}

int cmd_fuzz(Cli& cli) {
    fuzz::FuzzOptions opts;
    std::string replay_path;
    std::string out_path;
    std::string coverage_out;
    Exports exports;
    if (!cli.parse({{"--seeds", &opts.seeds, "N", 1, kMaxSweep},
                    {"--seed-base", &opts.seed_base, "B"},
                    jobs_flag(opts.jobs),
                    {"--minimize", &opts.minimize},
                    {"--replay", &replay_path, "FILE"},
                    {"--out", &out_path, "FILE"},
                    {"--coverage", &opts.coverage},
                    {"--coverage-out", &coverage_out, "FILE"},
                    exports.json_flag(),
                    exports.prom_flag()})) {
        return 2;
    }

    fuzz::FuzzReport report;
    if (!replay_path.empty()) {
        const auto records = fuzz::parse_repro_file(read_file(replay_path));
        report.divergences = fuzz::replay_repros(records, opts.max_steps, &report);
    } else {
        report = fuzz::run_fuzz(opts);
    }
    std::fputs(report.summary().c_str(), stdout);
    if (!out_path.empty()) {
        write_out(out_path, fuzz::to_repro_file(report.divergences));
    }
    if (!coverage_out.empty()) {
        write_out(coverage_out, report.coverage.curve_csv(opts.seed_base));
    }
    write_registry(exports, [&] { return fuzz::fuzz_metrics(report); });
    if (!report.clean()) {
        std::fputs(fuzz::to_repro_file(report.divergences).c_str(), stderr);
    }
    return report.clean() ? 0 : 1;
}

int cmd_evolve(Cli& cli) {
    fuzz::EvolveOptions opts;
    std::string out_path;
    std::string json_out;
    std::string curve_out;
    Exports exports;
    if (!cli.parse({{"--seed", &opts.seed, "N"},
                    {"--execs", &opts.execs, "N", 1},
                    {"--init", &opts.init_programs, "N", 1, kMaxPopulation},
                    {"--batch", &opts.batch, "N", 1, kMaxPopulation},
                    jobs_flag(opts.jobs),
                    {"--max-corpus", &opts.max_corpus, "N"},
                    {"--out", &out_path, "FILE"},
                    {"--json-out", &json_out, "FILE"},
                    {"--curve-out", &curve_out, "FILE"},
                    exports.json_flag()})) {
        return 2;
    }
    const fuzz::EvolveReport report = fuzz::run_evolve(opts);
    std::fputs(report.summary().c_str(), stdout);
    if (!out_path.empty()) {
        // Unique crashes as repro-v1 records; the triage key rides along as
        // a comment line (the parser skips '#' lines).
        std::string repros;
        for (const fuzz::CrashRecord& c : report.crashes) {
            repros += "# triage hits=" + std::to_string(c.hits) + " key=" + c.key + "\n";
            repros += fuzz::to_repro(c.div);
        }
        write_out(out_path, repros);
    }
    if (!json_out.empty()) {
        write_out(json_out, report.to_json() + "\n");
    }
    if (!curve_out.empty()) {
        std::string csv = "exec,cumulative\n";
        for (std::size_t i = 0; i < report.curve.size(); ++i) {
            csv += std::to_string(i) + "," + std::to_string(report.curve[i]) + "\n";
        }
        write_out(curve_out, csv);
    }
    write_registry(exports, [&] { return fuzz::evolve_metrics(report); });
    if (!report.crashes.empty()) {
        for (const fuzz::CrashRecord& c : report.crashes) {
            std::fputs(fuzz::to_repro(c.div).c_str(), stderr);
        }
    }
    return report.crashes.empty() ? 0 : 1;
}

int cmd_curves(Cli& cli) {
    core::CurveOptions opts;
    std::string out_path;
    Exports exports;
    if (!cli.parse({{"--trials", &opts.trials, "N", 1, kMaxSweep},
                    jobs_flag(opts.jobs),
                    {"--seed", &opts.seed, "N"},
                    {"--aslr-bits", &opts.aslr_bits, "LIST"},
                    {"--budgets", &opts.canary_budgets, "LIST"},
                    {"--canary-bits", &opts.canary_bits, "N"},
                    {"--out", &out_path, "FILE"},
                    exports.json_flag()})) {
        return 2;
    }
    const core::CurveReport report = core::run_curves(opts);
    std::fputs(report.summary().c_str(), stdout);
    if (!out_path.empty()) {
        write_out(out_path, report.to_jsonl());
    }
    write_registry(exports, [&] { return core::curve_metrics(report); });
    return 0;
}

int cmd_fault_sweep(Cli& cli) {
    core::FaultSweepOptions opts;
    std::string trace_out;
    Exports exports;
    if (!cli.parse({{"--fault-seed", &opts.fault_seed, "N"},
                    {"--windows", &opts.windows_per_class, "N", 1},
                    jobs_flag(opts.jobs),
                    {"--trace-out", &trace_out, "FILE"},
                    exports.json_flag(),
                    exports.prom_flag()})) {
        return 2;
    }
    const auto report = core::run_fault_sweep(opts);
    std::fputs(report.summary().c_str(), stdout);
    if (!trace_out.empty()) {
        write_out(trace_out, core::matrix_cells_jsonl(report.baseline_cells));
    }
    write_registry(exports, [&] { return core::fault_sweep_metrics(report); });
    return report.fail_closed() ? 0 : 1;
}

int cmd_campaign(Cli& cli) {
    std::string verb;
    campaign::Spec spec;
    campaign::Options opts;
    std::string dir;
    std::string kind_arg;
    bool follow = false;
    Exports exports;
    // A matrix draw is one cell per attack x defense pair.
    const std::uint64_t lattice_cells =
        core::all_attacks().size() * core::standard_defenses().size();
    if (!cli.parse({{"--kind", &kind_arg, "matrix|fault-sweep|fuzz|fuzz-evolve"},
                    {"--dir", &dir, "DIR"},
                    // The spec: which lattice, and its seeds.
                    {"--draws", &spec.draws, "N", 1, kMaxSweep / lattice_cells},
                    {"--seeds", &spec.seeds, "N", 1, kMaxSweep},
                    {"--seed-base", &spec.seed_base, "B"},
                    {"--windows", &spec.windows_per_class, "N", 1},
                    {"--evolve-execs", &spec.evolve_execs, "N", 1},
                    {"--evolve-init", &spec.evolve_init, "N", 1, kMaxPopulation},
                    {"--victim-seed", &spec.victim_seed, "N"},
                    {"--attacker-seed", &spec.attacker_seed, "N"},
                    {"--fault-seed", &spec.fault_seed, "N"},
                    // Sabotage, for the quarantine tests.
                    {"--hang-cell", &spec.sabotage.hang_cell, "N"},
                    {"--crash-cell", &spec.sabotage.crash_cell, "N"},
                    {"--crash-times", &spec.sabotage.crash_times, "N"},
                    // Execution.
                    jobs_flag(opts.jobs),
                    {"--cell-timeout-ms", &opts.cell_timeout_ms, "N"},
                    {"--retries", &opts.max_attempts, "N", 1},
                    {"--backoff-ms", &opts.retry_backoff_ms, "N"},
                    {"--fsync-every", &opts.fsync_every, "N"},
                    {"--max-cells", &opts.max_cells, "N"},
                    {"--heartbeat-ms", &opts.heartbeat_ms, "N"},
                    exports.json_flag(),
                    exports.prom_flag(),
                    {"--follow", &follow}},
                   &verb)) {
        return 2;
    }
    if (verb != "run" && verb != "resume" && verb != "status") {
        return cli.error(verb.empty() ? "missing run|resume|status" : "unknown verb '" + verb + "'");
    }
    if (dir.empty()) {
        return cli.error("--dir is required");
    }
    if (verb == "status") {
        campaign::Status st = campaign::campaign_status(dir);
        std::fputs(st.to_string().c_str(), stdout);
        if (follow) {
            // Tail the heartbeat: re-probe until the campaign accounts for
            // every cell, reprinting whenever a new heartbeat (or more
            // finished cells) shows up.  The probe is read-only, so polling
            // never disturbs the running campaign.
            std::uint64_t last_seq = st.hb_seq;
            std::uint64_t last_accounted = st.cells_completed + st.cells_quarantined;
            while (st.exists && !st.complete()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(200));
                st = campaign::campaign_status(dir);
                const std::uint64_t accounted = st.cells_completed + st.cells_quarantined;
                if (st.hb_seq != last_seq || accounted != last_accounted) {
                    last_seq = st.hb_seq;
                    last_accounted = accounted;
                    std::fputs(st.to_string().c_str(), stdout);
                    std::fflush(stdout);
                }
            }
        }
        if (!st.exists) {
            return 2;
        }
        return st.complete() ? 0 : 3;
    }
    // The heartbeat refreshes the Prometheus file while the campaign runs.
    opts.prom_out = exports.prom;
    campaign::Report report;
    if (verb == "run") {
        if (!campaign::kind_from_name(kind_arg, spec.kind)) {
            return cli.error("--kind must be matrix, fault-sweep, fuzz or fuzz-evolve");
        }
        report = campaign::run_campaign(spec, dir, opts);
    } else {
        report = campaign::resume_campaign(dir, opts);
    }
    // stdout stays deterministic (diffable across serial/parallel/resumed
    // runs); throughput and scheduler stats go to stderr for humans.
    std::fputs(report.summary().c_str(), stdout);
    std::fprintf(stderr,
                 "campaign: ran %llu cells in %.2fs (%.1f cells/s), %llu retries, "
                 "%llu timeouts, %llu chunks, %llu steals, %llu resumed, "
                 "%llu damaged wal lines dropped\n",
                 static_cast<unsigned long long>(report.cells_run), report.elapsed_sec,
                 report.elapsed_sec > 0.0
                     ? static_cast<double>(report.cells_run) / report.elapsed_sec
                     : 0.0,
                 static_cast<unsigned long long>(report.retries),
                 static_cast<unsigned long long>(report.timeouts),
                 static_cast<unsigned long long>(report.sched.chunks),
                 static_cast<unsigned long long>(report.sched.steals),
                 static_cast<unsigned long long>(report.cells_resumed),
                 static_cast<unsigned long long>(report.wal_lines_dropped));
    // include_volatile: the campaign export is for post-mortems, and
    // cells/sec + steal counts are the point; CI byte-diffs report.jsonl and
    // summary.txt, never this file.  The final Prometheus snapshot
    // supersedes the heartbeat-time ones.
    write_registry(exports, [&] { return campaign::campaign_metrics(report); }, true);
    // Quarantines degrade the campaign but do not fail it; only an
    // incomplete lattice (e.g. a --max-cells test interruption) is nonzero.
    return report.complete() ? 0 : 3;
}

constexpr Command kCommands[] = {
    {"run|asm|disasm|lint|gadgets", "<file.mc>", cmd_file},
    {"fig1", "", cmd_fig1},
    {"matrix", "", cmd_matrix},
    {"fault-sweep", "", cmd_fault_sweep},
    {"trace", "<scenario>", cmd_trace},
    {"profile", "<scenario|file.mc>", cmd_profile},
    {"fuzz", "", cmd_fuzz},
    {"evolve", "", cmd_evolve},
    {"curves", "", cmd_curves},
    {"campaign", "run|resume|status", cmd_campaign},
};

const Command* find_command(std::string_view name) {
    for (const Command& c : kCommands) {
        for (std::string_view rest = c.names;;) {
            const std::size_t bar = rest.find('|');
            if (rest.substr(0, bar) == name) {
                return &c;
            }
            if (bar == std::string_view::npos) {
                break;
            }
            rest.remove_prefix(bar + 1);
        }
    }
    return nullptr;
}

/// Every command's synopsis, printed from its flag table.
int usage() {
    std::string text = "usage: swsec <command> [operand] [options]\n";
    for (const Command& c : kCommands) {
        Cli cli(c, std::string(c.names), {}, &text);
        (void)c.run(cli);
    }
    text += "trace scenarios: " + core::scenario_list() + "\n";
    text += "profile scenarios: " + core::scenario_list(true) + "\n";
    std::fputs(text.c_str(), stderr);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    const Command* cmd = argc < 2 ? nullptr : find_command(argv[1]);
    if (cmd == nullptr) {
        return usage();
    }
    try {
        Cli cli(*cmd, argv[1], std::vector<std::string>(argv + 2, argv + argc));
        return cmd->run(cli);
    } catch (const Error& e) {
        std::fprintf(stderr, "swsec: %s\n", e.what());
        return 1;
    }
}
