// The named observability scenarios behind `swsec trace` and `swsec
// profile`: one per countermeasure, each running an attack against exactly
// the defense built to stop it.  The caller attaches its own observers to
// the victim — a trace::Tracer for the event stream with trap provenance
// (DESIGN.md §8), a profile::Profiler for hot blocks, line heat and folded
// stacks (DESIGN.md §11), or both.
//
// The scenarios double as equivalence oracles (tests/test_trace.cpp): every
// one must emit byte-identical JSONL with the decode cache on or off, and
// re-running with the same seeds must reproduce the trace and the profile
// bit for bit (including under injected faults).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/attack_lab.hpp"
#include "profile/profiler.hpp"
#include "trace/trace.hpp"

namespace swsec::core {

struct ScenarioOptions {
    std::uint64_t victim_seed = 1001;
    std::uint64_t attacker_seed = 2002;
    bool decode_cache = true; // off must not change the event stream
    /// Caller-owned observers attached to the victim only (may be null).
    trace::Tracer* tracer = nullptr;
    profile::Profiler* profiler = nullptr;
};

/// Scenario names in display order: baseline, canary, dep, shadow-stack,
/// cfi, memcheck, pma, sfi, fault.  `process_backed_only` drops pma and
/// sfi, which build no attack-lab process a profiler could attach to.
[[nodiscard]] std::vector<std::string> scenario_names(bool process_backed_only = false);

/// The same names space-separated, for usage and error text.
[[nodiscard]] std::string scenario_list(bool process_backed_only = false);

/// Run one named scenario and return the victim's outcome with full trap
/// provenance; the events and profile land in the caller's observers.  For
/// process-backed scenarios `outcome.image` is set.  pma runs a bare
/// machine and sfi runs nothing: the static verifier's verdict becomes
/// synthetic TrapRaised events (trap.kind stays None, origin carries the
/// attribution).  Throws Error for unknown names, and for pma/sfi when a
/// profiler is attached.
[[nodiscard]] AttackOutcome run_scenario(const std::string& name,
                                         const ScenarioOptions& opts = {});

} // namespace swsec::core
