// swsec — command-line driver for the toolchain and the experiment suite.
//
//   swsec run <file.mc> [options]      compile and run a MiniC program
//   swsec asm <file.mc> [options]      show the generated assembly
//   swsec disasm <file.mc> [options]   show the linked machine code
//   swsec lint <file.mc>               static memory-safety analysis
//   swsec gadgets <file.mc>            ROP-gadget census of the binary
//   swsec fig1                         regenerate the paper's Fig. 1
//   swsec matrix [--jobs N]            the attack/defense matrix
//                                      (--trace-out FILE: per-cell trap
//                                       provenance as JSONL)
//   swsec fault-sweep [options]        fail-closed fault-injection sweep
//                                      (--fault-seed N, --windows N, --jobs N,
//                                       --trace-out FILE for the baseline
//                                       cells' provenance;
//                                       exit 0 iff the invariant holds)
//   swsec trace <scenario>             run one observability scenario and
//                                      emit its event trace as JSONL on
//                                      stdout (counters go to stderr);
//                                      --trace-out FILE, --no-decode-cache
//   swsec fuzz [options]               differential semantics-preservation
//                                      fuzzing: seeded benign MiniC programs
//                                      checked under every defense config,
//                                      decode-cache on/off, and compile-vs-
//                                      run constant folding (--seeds N,
//                                      --seed-base B, --jobs N, --minimize,
//                                      --replay FILE, --out FILE,
//                                      --coverage [--coverage-out FILE];
//                                      exit 0 iff zero divergences)
//   swsec evolve [options]             coverage-guided evolutionary fuzzing:
//                                      corpus seeds bred by model-level havoc
//                                      and splice, scheduled by new-coverage
//                                      yield, divergences auto-triaged and
//                                      deduped by symbolized trap stack
//                                      (--seed N, --execs N, --init N,
//                                      --batch N, --jobs N, --out FILE,
//                                      --json-out FILE, --curve-out FILE;
//                                      exit 0 iff zero unique crashes)
//   swsec curves [options]             Monte-Carlo probabilistic defense
//                                      curves: attack-success probability
//                                      with Wilson CIs across ASLR entropy
//                                      levels and canary-guess budgets
//                                      (--trials N, --jobs N, --out FILE)
//   swsec campaign run|resume|status   crash-safe campaign engine: the
//                                      matrix, the fault sweep or the fuzzer
//                                      run as a checkpointed cell lattice in
//                                      --dir.  Every finished cell lands in a
//                                      CRC-framed write-ahead log; kill -9 the
//                                      process and `campaign resume --dir D`
//                                      re-runs only the missing cells, ending
//                                      with a byte-identical report.jsonl.
//                                      Cells that time out or crash twice are
//                                      quarantined with repro coordinates
//                                      (quarantine.jsonl) instead of failing
//                                      the campaign.
//   swsec profile <scenario|file.mc>   source-level profile of a victim run:
//                                      hot blocks, per-line heat, annotated
//                                      disassembly, flamegraph-folded stacks
//                                      (--out report.json, --folded out.txt,
//                                       --annotate, --sample-interval N)
//
// matrix, fault-sweep and fuzz also accept --metrics-out FILE: the unified
// metrics registry (decode-cache hit rates, heap high-water, fault/retry
// tallies, verdict counts) as deterministic JSON — byte-identical for any
// --jobs value.  --prom-out FILE writes the same registry in Prometheus
// text exposition format, equally deterministic; the campaign variant also
// refreshes it at every heartbeat (see --heartbeat-ms).
//
// Both sweeps are deterministic for any --jobs value: cells are handed out
// by index and merged by index, so parallel output — including --trace-out
// provenance JSONL — is byte-identical to serial.  --jobs 0 means one
// worker per hardware thread.  Traces are likewise byte-identical with the
// decode cache on or off.
//
// Hardening options (run/asm/disasm):
//   --canary --bounds --fortify --memcheck     compiler passes
//   --sanitize                                 shadow-memory red zones (compiler+kernel)
//   --dep --aslr --shadow-stack --cfi          platform configuration
//   --seed N                                   deterministic randomness
//   --input STR                                bytes fed to fd 0
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
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

struct Options {
    cc::CompilerOptions copts;
    os::SecurityProfile profile;
    std::uint64_t seed = 1;
    std::string input;
    std::string file;
};

int usage() {
    const std::string text =
        "usage: swsec "
        "<run|asm|disasm|lint|gadgets|fig1|matrix|fault-sweep|trace|fuzz|evolve|curves|"
        "profile|campaign> [file.mc|scenario] [options]\n"
        "options: --canary --bounds --fortify --memcheck --sanitize --dep --aslr\n"
        "         --shadow-stack --cfi --seed N --input STR\n"
        "matrix options: --jobs N --trace-out FILE --metrics-out FILE --prom-out FILE\n"
        "fault-sweep options: --fault-seed N --windows N --jobs N --trace-out FILE\n"
        "                     --metrics-out FILE --prom-out FILE\n"
        "trace scenarios: " + core::scenario_list() + "\n"
        "trace options: --trace-out FILE --no-decode-cache --seed N --attacker-seed N\n"
        "fuzz options: --seeds N --seed-base B --jobs N --minimize --replay FILE --out FILE\n"
        "              --coverage --coverage-out FILE --metrics-out FILE --prom-out FILE\n"
        "evolve options: --seed N --execs N --init N --batch N --jobs N --max-corpus N\n"
        "                --out FILE --json-out FILE --curve-out FILE --metrics-out FILE\n"
        "curves options: --trials N --jobs N --aslr-bits LIST --budgets LIST\n"
        "                --canary-bits N --seed N --out FILE --metrics-out FILE\n"
        "profile scenarios: " + core::scenario_list(true) + "\n"
        "profile options: --out FILE --folded FILE --annotate --sample-interval N\n"
        "                 --seed N --attacker-seed N (+ hardening options for file.mc)\n"
        "campaign: swsec campaign run --kind matrix|fault-sweep|fuzz|fuzz-evolve --dir DIR\n"
        "          (--fuzz-evolve = --kind fuzz-evolve)\n"
        "          swsec campaign resume --dir DIR\n"
        "          swsec campaign status --dir DIR [--follow]\n"
        "campaign spec options: --draws N --seeds N --seed-base B --windows N\n"
        "          --victim-seed N --attacker-seed N --fault-seed N\n"
        "          --evolve-execs N --evolve-init N (fuzz-evolve island budget)\n"
        "          --hang-cell N --crash-cell N --crash-times N (sabotage, for tests)\n"
        "campaign exec options: --jobs N --cell-timeout-ms N --retries N --backoff-ms N\n"
        "          --fsync-every N --max-cells N --metrics-out FILE --prom-out FILE\n"
        "          --heartbeat-ms N (progress.jsonl heartbeat cadence; 0 = off)\n";
    std::fputs(text.c_str(), stderr);
    return 2;
}

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

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Error("cannot open '" + path + "'");
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool parse_options(int argc, char** argv, int start, Options& out) {
    for (int i = start; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--canary") {
            out.copts.stack_canaries = true;
        } else if (arg == "--bounds") {
            out.copts.bounds_checks = true;
        } else if (arg == "--fortify") {
            out.copts.fortify_reads = true;
        } else if (arg == "--memcheck") {
            out.copts.memcheck = true;
            out.profile.memcheck = true;
        } else if (arg == "--sanitize") {
            out.copts.sanitize_address = true;
            out.profile.sanitize_address = true;
        } else if (arg == "--dep") {
            out.profile.dep = true;
        } else if (arg == "--aslr") {
            out.profile.aslr = true;
        } else if (arg == "--shadow-stack") {
            out.profile.shadow_stack = true;
        } else if (arg == "--cfi") {
            out.profile.coarse_cfi = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            out.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--input" && i + 1 < argc) {
            out.input = argv[++i];
        } else if (!arg.empty() && arg[0] != '-' && out.file.empty()) {
            out.file = arg;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        }
    }
    return true;
}

int cmd_run(const Options& opt) {
    const auto img = cc::compile_program({read_file(opt.file)}, opt.copts);
    os::Process p(img, opt.profile, opt.seed);
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

int cmd_matrix(int argc, char** argv) {
    int jobs = 1;
    std::string trace_out;
    std::string metrics_out;
    std::string prom_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--prom-out" && i + 1 < argc) {
            prom_out = argv[++i];
        } else {
            std::fprintf(stderr, "unknown matrix option '%s'\n", arg.c_str());
            return 2;
        }
    }
    const auto cells = core::run_matrix(1001, 2002, jobs);
    std::fputs(core::format_matrix(cells).c_str(), stdout);
    if (!trace_out.empty()) {
        write_out(trace_out, core::matrix_cells_jsonl(cells));
    }
    if (!metrics_out.empty() || !prom_out.empty()) {
        const profile::Registry reg = core::matrix_metrics(cells);
        if (!metrics_out.empty()) {
            write_out(metrics_out, reg.to_json());
        }
        if (!prom_out.empty()) {
            write_out(prom_out, reg.to_prometheus());
        }
    }
    return 0;
}

int cmd_profile(int argc, char** argv) {
    std::string target;
    std::string out_path;
    std::string folded_path;
    bool annotate = false;
    std::uint64_t sample_interval = 97;
    Options opt; // hardening options apply in file mode only
    core::ScenarioOptions sopts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--folded" && i + 1 < argc) {
            folded_path = argv[++i];
        } else if (arg == "--annotate") {
            annotate = true;
        } else if (arg == "--sample-interval" && i + 1 < argc) {
            sample_interval = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--attacker-seed" && i + 1 < argc) {
            sopts.attacker_seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--canary") {
            opt.copts.stack_canaries = true;
        } else if (arg == "--bounds") {
            opt.copts.bounds_checks = true;
        } else if (arg == "--fortify") {
            opt.copts.fortify_reads = true;
        } else if (arg == "--memcheck") {
            opt.copts.memcheck = true;
            opt.profile.memcheck = true;
        } else if (arg == "--sanitize") {
            opt.copts.sanitize_address = true;
            opt.profile.sanitize_address = true;
        } else if (arg == "--dep") {
            opt.profile.dep = true;
        } else if (arg == "--aslr") {
            opt.profile.aslr = true;
        } else if (arg == "--shadow-stack") {
            opt.profile.shadow_stack = true;
        } else if (arg == "--cfi") {
            opt.profile.coarse_cfi = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            opt.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--input" && i + 1 < argc) {
            opt.input = argv[++i];
        } else if (!arg.empty() && arg[0] != '-' && target.empty()) {
            target = arg;
        } else {
            std::fprintf(stderr, "unknown profile option '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (target.empty()) {
        std::fprintf(stderr, "profile scenarios: %s  (or a file.mc)\n",
                     core::scenario_list(true).c_str());
        return 2;
    }

    profile::Profiler prof;
    prof.set_sample_interval(sample_interval);
    profile::ProfileReport report;
    const auto names = core::scenario_names();
    if (std::find(names.begin(), names.end(), target) != names.end()) {
        sopts.victim_seed = opt.seed != 1 ? opt.seed : sopts.victim_seed;
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
        os::Process proc(img, p, opt.seed);
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

int cmd_trace(int argc, char** argv) {
    std::string scenario;
    std::string trace_out;
    core::ScenarioOptions opts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--no-decode-cache") {
            opts.decode_cache = false;
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            opts.victim_seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--attacker-seed" && i + 1 < argc) {
            opts.attacker_seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (!arg.empty() && arg[0] != '-' && scenario.empty()) {
            scenario = arg;
        } else {
            std::fprintf(stderr, "unknown trace option '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (scenario.empty()) {
        std::fprintf(stderr, "trace scenarios: %s\n", core::scenario_list().c_str());
        return 2;
    }
    trace::Tracer tracer;
    opts.tracer = &tracer;
    const core::AttackOutcome out = core::run_scenario(scenario, opts);
    write_out(trace_out, tracer.to_jsonl());
    std::fprintf(stderr, "[%s] %s\n", scenario.c_str(), out.verdict().c_str());
    std::fprintf(stderr, "[%s] %s\n", scenario.c_str(), out.trap.provenance().c_str());
    std::fprintf(stderr, "[%s] %s\n", scenario.c_str(), tracer.counters().summary().c_str());
    return 0;
}

int cmd_fuzz(int argc, char** argv) {
    fuzz::FuzzOptions opts;
    std::string replay_path;
    std::string out_path;
    std::string coverage_out;
    std::string metrics_out;
    std::string prom_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seeds" && i + 1 < argc) {
            opts.seeds = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--seed-base" && i + 1 < argc) {
            opts.seed_base = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--minimize") {
            opts.minimize = true;
        } else if (arg == "--coverage") {
            opts.coverage = true;
        } else if (arg == "--coverage-out" && i + 1 < argc) {
            coverage_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--prom-out" && i + 1 < argc) {
            prom_out = argv[++i];
        } else if (arg == "--replay" && i + 1 < argc) {
            replay_path = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "unknown fuzz option '%s'\n", arg.c_str());
            return 2;
        }
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
    if (!metrics_out.empty() || !prom_out.empty()) {
        const profile::Registry reg = fuzz::fuzz_metrics(report);
        if (!metrics_out.empty()) {
            write_out(metrics_out, reg.to_json());
        }
        if (!prom_out.empty()) {
            write_out(prom_out, reg.to_prometheus());
        }
    }
    if (!report.clean()) {
        std::fputs(fuzz::to_repro_file(report.divergences).c_str(), stderr);
    }
    return report.clean() ? 0 : 1;
}

int cmd_evolve(int argc, char** argv) {
    fuzz::EvolveOptions opts;
    std::string out_path;
    std::string json_out;
    std::string curve_out;
    std::string metrics_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed" && i + 1 < argc) {
            opts.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--execs" && i + 1 < argc) {
            opts.execs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--init" && i + 1 < argc) {
            opts.init_programs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--batch" && i + 1 < argc) {
            opts.batch = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--max-corpus" && i + 1 < argc) {
            opts.max_corpus = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--json-out" && i + 1 < argc) {
            json_out = argv[++i];
        } else if (arg == "--curve-out" && i + 1 < argc) {
            curve_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else {
            std::fprintf(stderr, "unknown evolve option '%s'\n", arg.c_str());
            return 2;
        }
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
    if (!metrics_out.empty()) {
        profile::Registry reg;
        const profile::Labels base = {{"harness", "evolve"}};
        reg.counter_add("evolve_execs_total", base, static_cast<std::uint64_t>(report.execs));
        reg.counter_add("evolve_rounds_total", base, static_cast<std::uint64_t>(report.rounds));
        reg.counter_add("evolve_runs_total", base, report.runs);
        reg.counter_add("evolve_divergences_total", base, report.divergences_total);
        reg.counter_add("evolve_unique_crashes_total", base, report.crashes.size());
        reg.gauge_set("evolve_corpus_size", base, static_cast<double>(report.corpus_size));
        reg.gauge_set("coverage_edges", base, static_cast<double>(report.total_buckets));
        write_out(metrics_out, reg.to_json());
    }
    if (!report.crashes.empty()) {
        for (const fuzz::CrashRecord& c : report.crashes) {
            std::fputs(fuzz::to_repro(c.div).c_str(), stderr);
        }
    }
    return report.crashes.empty() ? 0 : 1;
}

/// "a,b,c" -> {a,b,c}; accepts any strtoul-parsable element.
std::vector<std::uint32_t> parse_u32_list(const std::string& s) {
    std::vector<std::uint32_t> out;
    std::string cur;
    for (const char c : s + ",") {
        if (c == ',') {
            if (!cur.empty()) {
                out.push_back(static_cast<std::uint32_t>(std::strtoul(cur.c_str(), nullptr, 0)));
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    return out;
}

int cmd_curves(int argc, char** argv) {
    core::CurveOptions opts;
    std::string out_path;
    std::string metrics_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trials" && i + 1 < argc) {
            opts.trials = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--seed" && i + 1 < argc) {
            opts.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--aslr-bits" && i + 1 < argc) {
            opts.aslr_bits = parse_u32_list(argv[++i]);
        } else if (arg == "--budgets" && i + 1 < argc) {
            opts.canary_budgets = parse_u32_list(argv[++i]);
        } else if (arg == "--canary-bits" && i + 1 < argc) {
            opts.canary_bits = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else {
            std::fprintf(stderr, "unknown curves option '%s'\n", arg.c_str());
            return 2;
        }
    }
    const core::CurveReport report = core::run_curves(opts);
    std::fputs(report.summary().c_str(), stdout);
    if (!out_path.empty()) {
        write_out(out_path, report.to_jsonl());
    }
    if (!metrics_out.empty()) {
        write_out(metrics_out, core::curve_metrics(report).to_json());
    }
    return 0;
}

int cmd_fault_sweep(int argc, char** argv) {
    core::FaultSweepOptions opts;
    std::string trace_out;
    std::string metrics_out;
    std::string prom_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fault-seed" && i + 1 < argc) {
            opts.fault_seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--windows" && i + 1 < argc) {
            opts.windows_per_class = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--prom-out" && i + 1 < argc) {
            prom_out = argv[++i];
        } else {
            std::fprintf(stderr, "unknown fault-sweep option '%s'\n", arg.c_str());
            return 2;
        }
    }
    const auto report = core::run_fault_sweep(opts);
    std::fputs(report.summary().c_str(), stdout);
    if (!trace_out.empty()) {
        write_out(trace_out, core::matrix_cells_jsonl(report.baseline_cells));
    }
    if (!metrics_out.empty() || !prom_out.empty()) {
        const profile::Registry reg = core::fault_sweep_metrics(report);
        if (!metrics_out.empty()) {
            write_out(metrics_out, reg.to_json());
        }
        if (!prom_out.empty()) {
            write_out(prom_out, reg.to_prometheus());
        }
    }
    return report.fail_closed() ? 0 : 1;
}

int cmd_campaign(int argc, char** argv) {
    if (argc < 3) {
        return usage();
    }
    const std::string verb = argv[2];
    campaign::Spec spec;
    campaign::Options opts;
    std::string dir;
    std::string metrics_out;
    std::string kind_arg;
    bool follow = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--kind" && i + 1 < argc) {
            kind_arg = argv[++i];
        } else if (arg == "--fuzz-evolve") {
            kind_arg = "fuzz-evolve"; // shorthand for --kind fuzz-evolve
        } else if (arg == "--dir" && i + 1 < argc) {
            dir = argv[++i];
        } else if (arg == "--draws" && i + 1 < argc) {
            spec.draws = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--seeds" && i + 1 < argc) {
            spec.seeds = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--seed-base" && i + 1 < argc) {
            spec.seed_base = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--windows" && i + 1 < argc) {
            spec.windows_per_class = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--evolve-execs" && i + 1 < argc) {
            spec.evolve_execs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--evolve-init" && i + 1 < argc) {
            spec.evolve_init = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--victim-seed" && i + 1 < argc) {
            spec.victim_seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--attacker-seed" && i + 1 < argc) {
            spec.attacker_seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--fault-seed" && i + 1 < argc) {
            spec.fault_seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--hang-cell" && i + 1 < argc) {
            spec.sabotage.hang_cell = std::strtoll(argv[++i], nullptr, 0);
        } else if (arg == "--crash-cell" && i + 1 < argc) {
            spec.sabotage.crash_cell = std::strtoll(argv[++i], nullptr, 0);
        } else if (arg == "--crash-times" && i + 1 < argc) {
            spec.sabotage.crash_times = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--cell-timeout-ms" && i + 1 < argc) {
            opts.cell_timeout_ms = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--retries" && i + 1 < argc) {
            opts.max_attempts = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
        } else if (arg == "--backoff-ms" && i + 1 < argc) {
            opts.retry_backoff_ms = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--fsync-every" && i + 1 < argc) {
            opts.fsync_every = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        } else if (arg == "--max-cells" && i + 1 < argc) {
            opts.max_cells = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--heartbeat-ms" && i + 1 < argc) {
            opts.heartbeat_ms = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--prom-out" && i + 1 < argc) {
            opts.prom_out = argv[++i];
        } else if (arg == "--follow") {
            follow = true;
        } else {
            std::fprintf(stderr, "unknown campaign option '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (dir.empty()) {
        std::fputs("campaign: --dir is required\n", stderr);
        return 2;
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
    campaign::Report report;
    if (verb == "run") {
        if (!campaign::kind_from_name(kind_arg, spec.kind)) {
            std::fputs("campaign run: --kind must be matrix, fault-sweep, fuzz or fuzz-evolve\n",
                       stderr);
            return 2;
        }
        report = campaign::run_campaign(spec, dir, opts);
    } else if (verb == "resume") {
        report = campaign::resume_campaign(dir, opts);
    } else {
        return usage();
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
    if (!metrics_out.empty() || !opts.prom_out.empty()) {
        // include_volatile: the campaign export is for post-mortems, and
        // cells/sec + steal counts are the point; CI byte-diffs report.jsonl
        // and summary.txt, never this file.
        const profile::Registry reg = campaign::campaign_metrics(report);
        if (!metrics_out.empty()) {
            write_out(metrics_out, reg.to_json(true));
        }
        if (!opts.prom_out.empty()) {
            // Final snapshot supersedes the heartbeat-time ones: same path,
            // now with the merged post-run registry.
            write_out(opts.prom_out, reg.to_prometheus(true));
        }
    }
    // Quarantines degrade the campaign but do not fail it; only an
    // incomplete lattice (e.g. a --max-cells test interruption) is nonzero.
    return report.complete() ? 0 : 3;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "fig1") {
            std::fputs(core::make_fig1_snapshot().full_report.c_str(), stdout);
            return 0;
        }
        if (cmd == "matrix") {
            return cmd_matrix(argc, argv);
        }
        if (cmd == "fault-sweep") {
            return cmd_fault_sweep(argc, argv);
        }
        if (cmd == "trace") {
            return cmd_trace(argc, argv);
        }
        if (cmd == "fuzz") {
            return cmd_fuzz(argc, argv);
        }
        if (cmd == "evolve") {
            return cmd_evolve(argc, argv);
        }
        if (cmd == "curves") {
            return cmd_curves(argc, argv);
        }
        if (cmd == "profile") {
            return cmd_profile(argc, argv);
        }
        if (cmd == "campaign") {
            return cmd_campaign(argc, argv);
        }
        Options opt;
        if (!parse_options(argc, argv, 2, opt)) {
            return usage();
        }
        if (opt.file.empty()) {
            return usage();
        }
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
        if (cmd == "gadgets") {
            return cmd_gadgets(opt);
        }
        return usage();
    } catch (const Error& e) {
        std::fprintf(stderr, "swsec: %s\n", e.what());
        return 1;
    }
}
