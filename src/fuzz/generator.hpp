// Seeded MiniC program generator for the differential fuzzer.
//
// Every program is valid by construction and *benign*: loops are bounded,
// array indices stay in range, denominators are forced odd (never zero),
// reads never touch uninitialised or freed memory, and no pointer value
// ever reaches the output.  A benign program must behave identically under
// every deployed countermeasure — that is the semantics-preservation
// property the paper's countermeasures promise and the fuzzer checks.
//
// Observable behaviour is the byte stream on fd 1 (print_int/puts, one
// value per line) plus the final trap.  Fold-probe chunks embed
// compile-time-vs-run-time self checks: a global initialiser (folded by the
// compiler's fold_constant_expr) is compared against the identical
// expression recomputed at run time through the VM's ALU; on disagreement
// the program prints a FOLD-MISMATCH marker plus both values.
//
// The program is kept as a list of self-contained statement chunks so the
// minimizer can drop any subset and the rest still compiles: every chunk
// declares its own locals (names suffixed by chunk index) and only reads
// the always-present globals/helpers.
//
// There is one generator: generate_program(seed) renders the structured
// model that generate_model(seed) draws (fuzz/mutate.hpp), so the
// one-shot sweep, the campaign lattice and the evolutionary stage's round 0
// all sample the same distribution, and every benignity invariant lives in
// one renderer.  GenProgram is the rendered form — the currency of the
// minimizer, the repro records and the coverage probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swsec::fuzz {

struct GenProgram {
    std::uint64_t seed = 0;
    std::vector<std::string> globals;  // global declarations (always kept)
    std::vector<std::string> helpers;  // helper function definitions (always kept)
    std::vector<std::string> chunks;   // removable, self-contained main statements

    /// The full program.
    [[nodiscard]] std::string render() const;
    /// The program with only chunks whose keep[i] is true (minimizer).
    [[nodiscard]] std::string render_subset(const std::vector<bool>& keep) const;
};

/// Deterministic: the same seed always yields the identical program.
[[nodiscard]] GenProgram generate_program(std::uint64_t seed);

/// Marker printed by a program's embedded fold-vs-runtime self check on
/// disagreement; the ConstFold oracle scans run output for it.
inline constexpr const char* kFoldMismatchMarker = "FOLD-MISMATCH";

} // namespace swsec::fuzz
