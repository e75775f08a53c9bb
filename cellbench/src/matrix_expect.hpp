// The attack x defense matrix as the paper claims it, plus what the
// benchmark needs to replay a matrix cell from outside: the scenario each
// attack exploits and whether it rehearses on a probe process first.
#pragma once

#include <cstdint>
#include <string>

#include "core/attack_lab.hpp"
#include "core/defense.hpp"

namespace cellbench {

struct AttackInfo {
    swsec::core::AttackKind kind;
    std::string (*source)(); // the victim scenario's MiniC source
    bool probes;             // builds an attacker probe process before the victim
};

/// Throws swsec::Error for an attack the table does not know.
[[nodiscard]] const AttackInfo& attack_info(swsec::core::AttackKind kind);

/// Throws swsec::Error unless all_attacks() and standard_defenses() are the
/// rows and columns the expected table was written for.
void check_expected_table_shape();

/// Check a matrix cell's verdict against the expected table.  A success
/// the table does not expect is accepted only under ASLR when the
/// attacker's probe and the victim drew the same base for some segment
/// (probability about 2^-12 per segment and cell).  Returns an error, or ""
/// when the verdict is as expected.
[[nodiscard]] std::string check_verdict(swsec::core::AttackKind kind, std::size_t defense_index,
                                        const swsec::core::AttackOutcome& outcome,
                                        std::uint64_t victim_seed, std::uint64_t attacker_seed);

} // namespace cellbench
