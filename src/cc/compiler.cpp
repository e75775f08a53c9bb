#include "cc/compiler.hpp"

#include <map>
#include <mutex>

#include "assembler/assembler.hpp"
#include "assembler/linker.hpp"
#include "cc/codegen.hpp"
#include "cc/parser.hpp"
#include "cc/runtime.hpp"

namespace swsec::cc {

// Drift guard: compiler_options_key() enumerates CompilerOptions by hand, so
// a field added to the struct without a matching key component would
// silently alias cached images and runtime objects across defense
// configurations — a wrong-code-reuse bug a differential fuzzer would
// misattribute to the compiler.  Fail the build instead: adding a field
// changes the size, and whoever does it must extend compiler_options_key()
// (and this constant) in the same change.
static_assert(sizeof(CompilerOptions) == 7,
              "cc::CompilerOptions changed: update compiler_options_key() in "
              "cc/compiler.cpp to include the new field, then bump this guard");

std::string compiler_options_key(const CompilerOptions& o) {
    std::string k;
    k += o.stack_canaries ? 'c' : '-';
    k += o.bounds_checks ? 'b' : '-';
    k += o.fortify_reads ? 'f' : '-';
    k += o.memcheck ? 'm' : '-';
    k += o.sanitize_address ? 'a' : '-';
    k += o.emit_comments ? 'e' : '-';
    k += static_cast<char>('0' + static_cast<int>(o.pma_mode));
    return k;
}

namespace {

/// crt0 depends on nothing: assembled on first use, once per process.  A
/// throwing first use leaves it unbuilt, so the next call retries.
const objfmt::ObjectFile& runtime_crt0() {
    static const objfmt::ObjectFile crt0 = assembler::assemble(runtime_crt0_asm(), "crt0");
    return crt0;
}

/// The libc depends only on the options: compiled once per options key (at
/// most 2^6 x 3 = 192 keys).  Compilation runs outside the lock; racing
/// first fills are deterministic and equal, and the incumbent wins.  A
/// compile that throws stores nothing.  Entries are never erased, so the
/// returned reference stays valid.
const objfmt::ObjectFile& runtime_libc(const CompilerOptions& opts) {
    static std::mutex mutex;
    static std::map<std::string, const objfmt::ObjectFile> objects;
    const std::string key = compiler_options_key(opts);
    {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = objects.find(key);
        if (it != objects.end()) {
            return it->second;
        }
    }
    objfmt::ObjectFile libc = compile(runtime_libc_minic(), opts, "libc");
    const std::lock_guard<std::mutex> lock(mutex);
    return objects.try_emplace(key, std::move(libc)).first->second;
}

} // namespace

std::string compile_to_asm(const std::string& source, const CompilerOptions& opts,
                           const std::string& unit_name, const ExternEnv& externs) {
    Program prog = parse(source);
    analyze(prog, externs, unit_name);
    return generate(prog, opts, unit_name);
}

objfmt::ObjectFile compile(const std::string& source, const CompilerOptions& opts,
                           const std::string& unit_name, const ExternEnv& externs) {
    return assembler::assemble(compile_to_asm(source, opts, unit_name, externs), unit_name);
}

objfmt::Image compile_program(const std::vector<std::string>& minic_units,
                              const CompilerOptions& opts) {
    return compile_program_with_objects(minic_units, opts, {});
}

objfmt::Image compile_program_with_objects(const std::vector<std::string>& minic_units,
                                           const CompilerOptions& opts,
                                           const std::vector<objfmt::ObjectFile>& extra_objects,
                                           const ExternEnv& extra_externs) {
    ExternEnv env = runtime_externs();
    for (const auto& [name, type] : extra_externs) {
        env[name] = type;
    }
    std::vector<objfmt::ObjectFile> objects;
    objects.reserve(2 + minic_units.size() + extra_objects.size());
    objects.push_back(runtime_crt0());
    // The runtime library is compiled with the same hardening profile as the
    // program (a real distro ships a canary-protected libc alongside
    // canary-protected applications).
    objects.push_back(runtime_libc(opts));
    for (std::size_t i = 0; i < minic_units.size(); ++i) {
        objects.push_back(compile(minic_units[i], opts, "u" + std::to_string(i), env));
    }
    for (const auto& obj : extra_objects) {
        objects.push_back(obj);
    }
    return assembler::link(objects);
}

} // namespace swsec::cc
