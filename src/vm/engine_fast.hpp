// Tier-2 execution engine (DESIGN.md §13).
//
// Machine::run() dispatches here when nothing observable distinguishes the
// fast engine from the fully instrumented step() loop: no tracer, profiler
// or fault plan attached, no protected modules installed, decode cache on,
// not pure-capability.  The engine executes straight from the decode
// cache's pre-decoded FastOp stream with computed-goto threaded dispatch
// and retires the two-instruction superinstructions (cmp+jcc, cmpi+jcc,
// push+call, load+push, movi+pop, leave+ret) built by
// DecodeCache::build_fast.
//
// Contract: byte-identical architectural effects to running the same
// instructions through Machine::step() — same registers, flags, step
// counts, traps (kind/ip/addr/detail/origin) and memory mutations,
// including generation bumps.  The engine-A/engine-B fuzz oracle and the
// tier-equivalence tests (tests/test_engine.cpp) hold it to that.
#pragma once

#include <cstdint>

namespace swsec::vm {

class Machine;

/// Why the fast engine handed control back to Machine::run().
enum class FastExit : std::uint8_t {
    Trapped,      // a trap fired (set on the machine; state fully flushed)
    Budget,       // step budget `end` reached: run() raises OutOfGas
    NeedSlowStep, // one instrumented step() must execute the next insn
                  // (slow-path fetch, syscall, capability op, or a fused op
                  // that no longer fits the remaining budget)
    PageChange,   // the executing page's generation bumped (self-modifying
                  // code / mid-fusion write): re-resolve and resume
};

class FastEngine {
public:
    /// Execute from the machine's current state until `end` total retired
    /// steps or a deopt point.  Pre-condition: Machine::fast_eligible() and
    /// no trap set.  On return the machine's ip/flags/steps are flushed.
    static FastExit run(Machine& m, std::uint64_t end);
};

} // namespace swsec::vm
