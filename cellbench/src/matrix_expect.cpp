#include "matrix_expect.hpp"

#include <array>
#include <vector>

#include "common/error.hpp"
#include "core/image_cache.hpp"
#include "core/scenarios.hpp"
#include "os/process.hpp"

namespace cellbench {

namespace {

using swsec::core::AttackKind;
namespace scenarios = swsec::core::scenarios;

// Columns, in standard_defenses() order.
constexpr std::array<const char*, 11> kDefenses = {
    "none",         "canary",     "dep",             "aslr",          "canary+dep+aslr",
    "shadow-stack", "coarse-cfi", "all-mitigations", "safe-language", "memcheck",
    "sanitize",
};

struct Row {
    AttackInfo info;
    // One character per column: 'Y' = the attack succeeds, '.' = blocked.
    const char* expect;
};

// Sections III-B/III-C of the paper, one row per attack technique.
const std::vector<Row>& rows() {
    static const std::vector<Row> r = {
        // Code injection: canary, DEP, ASLR, shadow stack and the checkers
        // stop it; coarse CFI ignores returns.  The safe-language column is
        // the verdict the lab gives today; tests/test_matrix.cpp does not
        // pin that cell.
        {{AttackKind::StackSmashInject, [] { return scenarios::fig1_server(32); }, true},
         "Y.....Y.Y.."},
        // Function-pointer overwrite between locals: no canary is crossed,
        // DEP is irrelevant, grant_shell is a legal CFI target.
        {{AttackKind::CodePtrHijack, &scenarios::fnptr_server, true}, "YYY..YY...."},
        // ... to a mid-function address: coarse CFI catches it.
        {{AttackKind::CodePtrHijackMidFn, &scenarios::fnptr_server, true}, "YYY..Y....."},
        // Patching text needs writable text: DEP (W^X) and ASLR stop it.
        {{AttackKind::CodeCorruption, &scenarios::arbwrite_server, true}, "YY...YY.YYY"},
        // Code reuse defeats DEP, not canaries, ASLR or the shadow stack.
        {{AttackKind::Ret2Libc, &scenarios::rop_server, true}, "Y.Y...Y...."},
        {{AttackKind::Rop, &scenarios::rop_server, true}, "Y.Y...Y...."},
        // Data-only: every exploit mitigation is blind; only bounds and
        // memory-safety checking stop it.
        {{AttackKind::DataOnly, &scenarios::dataonly_server, false}, "YYYYYYYY..."},
        // Leaking canary and addresses defeats canary+DEP+ASLR [5]; the
        // shadow stack still catches the return.
        {{AttackKind::InfoLeakBypass, &scenarios::leak_server, true}, "YYYYY.Y...."},
        // Temporal errors: only the quarantining checkers trap.
        {{AttackKind::UseAfterFree, &scenarios::uaf_server, false}, "YYYYYYYYY.."},
        // Heap metadata write-what-where: ASLR hides the target.
        {{AttackKind::HeapMetadata, &scenarios::heap_server, true}, "YYY..YY.Y.."},
        {{AttackKind::HeapUnderflow, &scenarios::heap_index_server, true}, "YYY..YY.Y.."},
        // Offset write hopping the canary: memcheck misses the ret slot,
        // the sanitizer's ret-addr zone does not.
        {{AttackKind::StackIndexHop, &scenarios::stack_index_server, true}, "YYY...Y.YY."},
        // Pure heap reads: only the checkers see them.
        {{AttackKind::HeapOverRead, &scenarios::heap_leak_server, false}, "YYYYYYYYY.."},
        {{AttackKind::HeapUafRead, &scenarios::uaf_read_server, false}, "YYYYYYYYY.."},
    };
    return r;
}

const Row& row(AttackKind kind) {
    for (const Row& r : rows()) {
        if (r.info.kind == kind) {
            return r;
        }
    }
    throw swsec::Error("cellbench: no expected row for attack " + swsec::core::attack_name(kind));
}

bool same_base(const swsec::os::ProcessLayout& a, const swsec::os::ProcessLayout& b) {
    return a.text_base == b.text_base || a.data_base == b.data_base ||
           a.heap_base == b.heap_base || a.stack_high == b.stack_high;
}

} // namespace

const AttackInfo& attack_info(AttackKind kind) { return row(kind).info; }

void check_expected_table_shape() {
    const auto& attacks = swsec::core::all_attacks();
    const auto& defenses = swsec::core::standard_defenses();
    if (attacks.size() != rows().size() || defenses.size() != kDefenses.size()) {
        throw swsec::Error("cellbench: the expected matrix is not " +
                           std::to_string(attacks.size()) + "x" + std::to_string(defenses.size()));
    }
    for (std::size_t i = 0; i < attacks.size(); ++i) {
        if (rows()[i].info.kind != attacks[i]) {
            throw swsec::Error("cellbench: expected-matrix row order differs from all_attacks()");
        }
    }
    for (std::size_t i = 0; i < defenses.size(); ++i) {
        if (defenses[i].name != kDefenses[i]) {
            throw swsec::Error("cellbench: expected-matrix column " + std::to_string(i) + " is " +
                               kDefenses[i] + ", standard_defenses() has " + defenses[i].name);
        }
    }
}

std::string check_verdict(AttackKind kind, std::size_t defense_index,
                          const swsec::core::AttackOutcome& outcome, std::uint64_t victim_seed,
                          std::uint64_t attacker_seed) {
    const Row& r = row(kind);
    const bool expected = r.expect[defense_index] == 'Y';
    if (outcome.succeeded == expected) {
        return "";
    }
    const swsec::core::Defense& d = swsec::core::standard_defenses().at(defense_index);
    if (outcome.succeeded && d.profile.aslr) {
        const auto image = swsec::core::cached_compile(r.info.source(), d.copts);
        const swsec::os::Process victim(*image, d.profile, victim_seed);
        const swsec::os::Process probe(*image, d.profile, attacker_seed);
        if (same_base(victim.layout(), probe.layout())) {
            return "";
        }
    }
    return swsec::core::attack_name(kind) + " vs " + d.name + ": expected " +
           (expected ? "success" : "blocked") + ", got " + outcome.verdict();
}

} // namespace cellbench
