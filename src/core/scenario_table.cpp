#include "core/scenario_table.hpp"

#include "assembler/assembler.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"
#include "isa/encoder.hpp"
#include "isa/isa.hpp"
#include "sfi/sfi.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"
#include "vm/pma_model.hpp"

namespace swsec::core {
namespace {

using isa::Op;
using isa::Reg;

/// PMA scenario: untrusted code outside any module tries to read a protected
/// module's data page.  Built by hand because the PMA is a platform feature,
/// not a compiler one — no attack-lab process involved.
AttackOutcome run_pma(const ScenarioOptions& opts) {
    vm::MachineOptions mopts;
    mopts.decode_cache = opts.decode_cache;
    vm::Machine m{mopts};
    m.set_tracer(opts.tracer);

    // Untrusted code at 0x1000: load the module's secret, then halt.
    isa::Encoder code;
    code.reg_imm32(Op::MovI, Reg::R1, 0x3000);
    code.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    code.none(Op::Halt);
    m.memory().map(0x1000, 0x1000, vm::Perm::RX);
    m.memory().raw_write(0x1000, code.bytes());

    // The protected module: one page of code (a bare Ret entry point) and
    // one page of data holding the secret the PMA must keep private.
    isa::Encoder modcode;
    modcode.none(Op::Ret);
    m.memory().map(0x2000, 0x1000, vm::Perm::RX);
    m.memory().raw_write(0x2000, modcode.bytes());
    m.memory().map(0x3000, 0x1000, vm::Perm::RW);
    m.memory().raw_write32(0x3000, 0xdeadbeefu);
    m.add_protected_module(vm::ProtectedModule{
        "vault", 0x2000, 0x1000, 0x3000, 0x1000, {0x2000}});

    m.set_ip(0x1000);
    m.run(1000);

    // A privileged-software probe of the same page: denied too, recorded as
    // a kernel-mode MemFault (the PMA protects even against the kernel).
    std::uint32_t v = 0;
    (void)m.kernel_read32(0x3000, v);

    AttackOutcome out;
    out.trap = m.trap();
    out.steps = m.steps_executed();
    out.note = "module data read from outside the module denied by the PMA";
    return out;
}

/// SFI scenario: the verifier statically rejects a module that syscalls and
/// stores without masking.  Nothing executes — the "trace" is the verifier's
/// verdict rendered as synthetic TrapRaised events (origin sfi, one per
/// violation), which is exactly the observable a load-time checker produces.
AttackOutcome run_sfi(const ScenarioOptions& opts) {
    const auto obj = assembler::assemble(R"(
        .text
        .global f
        f:
            mov r1, 305419896
            store [r1+0], r0
            sys 0
            ret
    )");
    const auto verdict = sfi::verify_object(obj, sfi::SandboxPolicy{});
    if (opts.tracer != nullptr) {
        std::uint64_t step = 0;
        for (const auto& violation : verdict.violations) {
            opts.tracer->record({trace::EventKind::TrapRaised, step++, 0, -1, false,
                                 trace::CheckOrigin::Sfi, 0, 0, 0, violation});
        }
    }

    AttackOutcome out;
    out.succeeded = verdict.ok;
    out.trap.origin = trace::CheckOrigin::Sfi;
    out.note = "sfi verifier rejected module (" + std::to_string(verdict.violations.size()) +
               " violations)";
    return out;
}

/// One row per scenario.  Attack-vs-defense rows pair an attack with the
/// one countermeasure the paper introduces to stop it, so the trace ends in
/// a TrapRaised event whose origin names that countermeasure (baseline:
/// nothing stops it).  Rows with `run` set build no attack-lab process.
struct Scenario {
    const char* name;
    AttackKind attack;
    Defense (*defense)();
    /// An undefended victim on glitching hardware: the power cut lands
    /// mid-attack (the whole undefended run is ~40 steps, so step 20 is
    /// inside the smash) and the final trap carries a fault-injector origin.
    bool power_cut_at_20;
    AttackOutcome (*run)(const ScenarioOptions&);
};

constexpr Scenario kScenarios[] = {
    {"baseline", AttackKind::StackSmashInject, &Defense::none, false, nullptr},
    {"canary", AttackKind::StackSmashInject, &Defense::canary, false, nullptr},
    {"dep", AttackKind::StackSmashInject, &Defense::dep, false, nullptr},
    {"shadow-stack", AttackKind::Ret2Libc, &Defense::shadow_stack, false, nullptr},
    {"cfi", AttackKind::CodePtrHijackMidFn, &Defense::coarse_cfi, false, nullptr},
    {"memcheck", AttackKind::UseAfterFree, &Defense::memcheck, false, nullptr},
    {"pma", {}, nullptr, false, &run_pma},
    {"sfi", {}, nullptr, false, &run_sfi},
    {"fault", AttackKind::StackSmashInject, &Defense::none, true, nullptr},
};

} // namespace

std::vector<std::string> scenario_names(bool process_backed_only) {
    std::vector<std::string> names;
    for (const Scenario& s : kScenarios) {
        if (!process_backed_only || s.run == nullptr) {
            names.emplace_back(s.name);
        }
    }
    return names;
}

std::string scenario_list(bool process_backed_only) {
    std::string out;
    for (const auto& n : scenario_names(process_backed_only)) {
        out += (out.empty() ? "" : " ") + n;
    }
    return out;
}

AttackOutcome run_scenario(const std::string& name, const ScenarioOptions& opts) {
    for (const Scenario& s : kScenarios) {
        if (name != s.name) {
            continue;
        }
        if (s.run != nullptr) {
            if (opts.profiler != nullptr) {
                throw Error("scenario '" + name + "' runs no process to profile (profileable: " +
                            scenario_list(true) + ")");
            }
            return s.run(opts);
        }
        Defense defense = s.defense();
        defense.profile.decode_cache = opts.decode_cache;
        fault::FaultInjector injector{fault::FaultPlan{}.add(fault::FaultEvent::power_cut(20))};
        return run_attack(s.attack, defense, opts.victim_seed, opts.attacker_seed,
                          s.power_cut_at_20 ? &injector : nullptr, opts.tracer, opts.profiler);
    }
    throw Error("unknown scenario: " + name + " (scenarios: " + scenario_list() + ")");
}

} // namespace swsec::core
