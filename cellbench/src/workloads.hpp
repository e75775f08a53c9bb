// The four cellbench workloads and the span log of the traced run.
//
// A *cell* is the harness's unit of work: one run_attack (matrix), one
// generated program through check_program (fuzz), one sweep_fault_cell
// (fault-sweep) or one program x defense run (overhead).  Cells come in
// rounds: a matrix or fault-sweep round is one full attack x defense
// sweep, an overhead round is every program under every defense, a fuzz
// round is one program.  Per-round work outside the cells (the matrix
// export, the state-continuity sweep) runs in end_round().  Every input is
// derived from the workload seed and the round/cell index.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace cellbench {

/// Deterministic work a cell did, read from the harnesses' public results.
/// Two runs with the same seed reproduce these exactly, so a slower cell
/// that did the same work is told apart from a cell that did more work.
struct WorkCounters {
    std::uint64_t guest_insns = 0;
    std::uint64_t processes = 0;
    std::uint64_t compiles = 0;
    std::uint64_t fault_windows = 0;

    bool operator==(const WorkCounters&) const = default;
    WorkCounters& operator+=(const WorkCounters& o) {
        guest_insns += o.guest_insns;
        processes += o.processes;
        compiles += o.compiles;
        fault_windows += o.fault_windows;
        return *this;
    }
};

struct CellResult {
    std::string error; // empty: the output passed the workload's oracle
    WorkCounters work;
};

/// Spans and layer tallies of a traced run, kept in memory and written out
/// once at the end.  A span's parent is the innermost span open when it
/// started; every span of one cell carries that cell's id.
class SpanLog {
public:
    using Clock = std::chrono::steady_clock;
    /// Cell id of a span that belongs to a round, not a cell.
    static constexpr std::uint64_t kNoCell = ~std::uint64_t{0};

    struct Span {
        const char* name; // string literal
        std::uint64_t cell;
        std::int64_t parent; // index into spans(), -1 for a root
        Clock::time_point start;
        Clock::time_point end;
    };

    class Scope {
    public:
        Scope(SpanLog& log, const char* name, std::uint64_t cell);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog& log_;
        std::size_t index_;
    };

    void count(const std::string& name, double delta) { counts_[name] += delta; }

    /// Number of spans with this name.
    [[nodiscard]] std::size_t calls(const std::string& name) const;
    /// Mean duration per span in µs (0 when the layer was never called).
    [[nodiscard]] double mean_us(const std::string& name) const;
    [[nodiscard]] double counted(const std::string& name) const;

    /// One JSON object per span, times in µs from the first span.
    void write_jsonl(std::ostream& out) const;

private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::map<std::string, double> counts_;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Cold set-up: empty image cache, scenario tables, the images the
    /// cells read.  Everything a cell needs before the first timed cell.
    virtual void setup() = 0;

    [[nodiscard]] virtual std::size_t cells_per_round() const = 0;

    /// Run one cell and check its output.  With a span log the cell is
    /// traced: the cell call is one span, followed by a replay of its
    /// lifecycle (cached_compile -> Process -> run -> teardown) through
    /// public calls.  Without one, cells of one round may run on several
    /// threads at once; cells that share a slot (same cell index) may not.
    virtual CellResult run_cell(std::size_t round, std::size_t cell, SpanLog* log) = 0;

    /// Per-round work outside the cells.  Returns an error, or "" when ok.
    virtual std::string end_round(std::size_t round, SpanLog* log) = 0;
};

/// matrix, fuzz, fault-sweep or overhead; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

} // namespace cellbench
