// MiniC compiler tests: language semantics end-to-end (compile + execute),
// semantic error reporting, and the hardening transformations.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "assembler/assembler.hpp"
#include "assembler/linker.hpp"
#include "cc/compiler.hpp"
#include "cc/runtime.hpp"
#include "common/error.hpp"
#include "os/process.hpp"

namespace {

using namespace swsec;
using cc::CompilerOptions;
using os::Process;
using os::SecurityProfile;

/// Compile+run `body` inside main() and return the exit code.
std::int32_t run_main(const std::string& src, const std::string& input = {},
                      const CompilerOptions& opts = CompilerOptions::none()) {
    Process p(cc::compile_program({src}, opts), SecurityProfile::none(), 7);
    if (!input.empty()) {
        p.feed_input(input);
    }
    const auto r = p.run();
    EXPECT_EQ(r.trap.kind, vm::TrapKind::Exit) << r.trap.to_string();
    return r.trap.code;
}

// --- expressions -----------------------------------------------------------

TEST(MiniC, ArithmeticPrecedence) {
    EXPECT_EQ(run_main("int main() { return 2 + 3 * 4; }"), 14);
    EXPECT_EQ(run_main("int main() { return (2 + 3) * 4; }"), 20);
    EXPECT_EQ(run_main("int main() { return 17 / 5; }"), 3);
    EXPECT_EQ(run_main("int main() { return 17 % 5; }"), 2);
    EXPECT_EQ(run_main("int main() { return -17 / 5; }"), -3);
    EXPECT_EQ(run_main("int main() { return 1 << 10; }"), 1024);
    EXPECT_EQ(run_main("int main() { return -16 >> 2; }"), -4); // arithmetic shift
    EXPECT_EQ(run_main("int main() { return (0xff & 0x0f) | 0x30; }"), 0x3f);
    EXPECT_EQ(run_main("int main() { return 5 ^ 3; }"), 6);
    EXPECT_EQ(run_main("int main() { return ~0; }"), -1);
    EXPECT_EQ(run_main("int main() { return !0 + !7; }"), 1);
}

TEST(MiniC, ComparisonOperators) {
    EXPECT_EQ(run_main("int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3); }"), 3);
    EXPECT_EQ(run_main("int main() { return (1 == 1) + (1 != 1); }"), 1);
    EXPECT_EQ(run_main("int main() { return -1 < 1; }"), 1); // signed compare
}

TEST(MiniC, ShortCircuitEvaluation) {
    // The right operand must not run when the left decides.
    EXPECT_EQ(run_main(R"(
        int calls = 0;
        int bump() { calls = calls + 1; return 1; }
        int main() {
          int a = 0 && bump();
          int b = 1 || bump();
          return calls * 10 + a + b;
        }
    )"),
              1);
    EXPECT_EQ(run_main(R"(
        int main() { return (1 && 2) + (0 || 0); }
    )"),
              1);
}

TEST(MiniC, IncrementDecrement) {
    EXPECT_EQ(run_main("int main() { int x = 5; return x++ * 10 + x; }"), 56);
    EXPECT_EQ(run_main("int main() { int x = 5; return ++x * 10 + x; }"), 66);
    EXPECT_EQ(run_main("int main() { int x = 5; return x-- * 10 + x; }"), 54);
    EXPECT_EQ(run_main(R"(
        int main() {
          int a[3];
          a[0] = 1; a[1] = 2; a[2] = 3;
          int* p = a;
          int first = *p++;
          return first * 10 + *p;   /* pointer ++ steps by 4 */
        }
    )"),
              12);
}

TEST(MiniC, CompoundAssignment) {
    EXPECT_EQ(run_main("int main() { int x = 10; x += 5; x -= 3; return x; }"), 12);
}

TEST(MiniC, SizeofIsFolded) {
    EXPECT_EQ(run_main("int main() { return sizeof(int) + sizeof(char) + sizeof(int*); }"), 9);
    EXPECT_EQ(run_main("int main() { char buf[40]; return sizeof(buf); }"), 40);
    EXPECT_EQ(run_main("int main() { int x = 3; return sizeof(x); }"), 4);
}

TEST(MiniC, CharSemantics) {
    EXPECT_EQ(run_main("int main() { return 'A'; }"), 65);
    EXPECT_EQ(run_main("int main() { char c = 300; return c; }"), 44); // truncated to byte
    EXPECT_EQ(run_main("int main() { return (char)(65 + 256); }"), 65);
    EXPECT_EQ(run_main(R"(
        int main() { char s[4]; s[0] = 'o'; s[1] = 'k'; s[2] = 0; return strlen(s); }
    )"),
              2);
}

// --- control flow ------------------------------------------------------------

TEST(MiniC, Loops) {
    EXPECT_EQ(run_main(R"(
        int main() {
          int sum = 0;
          for (int i = 1; i <= 10; i = i + 1) { sum = sum + i; }
          return sum;
        }
    )"),
              55);
    EXPECT_EQ(run_main(R"(
        int main() {
          int n = 0;
          while (n < 100) { n = n + 7; }
          return n;
        }
    )"),
              105);
    EXPECT_EQ(run_main(R"(
        int main() {
          int found = 0;
          for (int i = 0; i < 100; i = i + 1) {
            if (i == 13) { found = i; break; }
          }
          return found;
        }
    )"),
              13);
    EXPECT_EQ(run_main(R"(
        int main() {
          int evens = 0;
          for (int i = 0; i < 10; i = i + 1) {
            if (i % 2) { continue; }
            evens = evens + 1;
          }
          return evens;
        }
    )"),
              5);
}

TEST(MiniC, NestedScopesShadow) {
    EXPECT_EQ(run_main(R"(
        int main() {
          int x = 1;
          { int x = 2; { int x = 3; } x = x + 10; }
          return x;
        }
    )"),
              1);
}

// --- functions & pointers -------------------------------------------------------

TEST(MiniC, RecursionAndMutualRecursion) {
    EXPECT_EQ(run_main(R"(
        int is_odd(int n);
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        int main() { return is_even(10) * 10 + is_odd(7); }
    )"),
              11);
}

TEST(MiniC, PointerArithmeticScaling) {
    EXPECT_EQ(run_main(R"(
        int main() {
          int a[4];
          a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
          int* p = a + 1;
          int* q = &a[3];
          return *p + (int)(q - p);   /* 20 + 2 elements apart */
        }
    )"),
              22);
    EXPECT_EQ(run_main(R"(
        int main() {
          char s[8];
          strcpy(s, "abc");
          char* p = s;
          p = p + 2;
          return *p;
        }
    )"),
              'c');
}

TEST(MiniC, AddressOfAndDeref) {
    EXPECT_EQ(run_main(R"(
        void set(int* p, int v) { *p = v; }
        int main() { int x = 0; set(&x, 31); return x + 11; }
    )"),
              42);
}

TEST(MiniC, FunctionPointerDeclaratorForms) {
    EXPECT_EQ(run_main(R"(
        int twice(int x) { return 2 * x; }
        int call1(int (*f)(int), int v) { return f(v); }
        int call2(int f(int), int v) { return f(v); }   /* Fig. 4 style */
        int main() { return call1(twice, 10) + call2(twice, 1); }
    )"),
              22);
}

TEST(MiniC, GlobalInitialisersAndStatics) {
    EXPECT_EQ(run_main(R"(
        int a = 40;
        static int b = 2;
        char c = 'x';
        char msg[8] = "hey";
        int main() { return a + b + (msg[0] == 'h') + (c == 'x') - 2; }
    )"),
              42);
}

TEST(MiniC, StringInitialiserOnLocal) {
    EXPECT_EQ(run_main(R"(
        int main() {
          char buf[16] = "swsec";
          return strlen(buf) + buf[4];
        }
    )"),
              5 + 'c');
}

TEST(MiniC, IntPointerCastsAreUnsafeByDesign) {
    EXPECT_EQ(run_main(R"(
        int target = 7;
        int main() {
          int addr = (int)&target;
          int* p = (int*)addr;
          *p = 42;
          return target;
        }
    )"),
              42);
}

// --- semantic errors --------------------------------------------------------------

TEST(MiniCErrors, UndeclaredIdentifier) {
    EXPECT_THROW((void)cc::compile("int main() { return nope; }", {}), ParseError);
}

TEST(MiniCErrors, ArityMismatch) {
    EXPECT_THROW((void)cc::compile("int f(int a) { return a; } int main() { return f(); }", {}),
                 ParseError);
    EXPECT_THROW((void)cc::compile("int f(int a) { return a; } int main() { return f(1, 2); }", {}),
                 ParseError);
}

TEST(MiniCErrors, CallingNonFunction) {
    EXPECT_THROW((void)cc::compile("int main() { int x = 1; return x(); }", {}), ParseError);
}

TEST(MiniCErrors, AssignToArray) {
    EXPECT_THROW((void)cc::compile("int main() { int a[4]; int b[4]; a = b; return 0; }", {}),
                 ParseError);
}

TEST(MiniCErrors, BreakOutsideLoop) {
    EXPECT_THROW((void)cc::compile("int main() { break; }", {}), ParseError);
}

TEST(MiniCErrors, VoidValueUse) {
    EXPECT_THROW((void)cc::compile("void f() {} int main() { return 1 + f(); }", {}), ParseError);
}

TEST(MiniCErrors, RedefinitionInSameScope) {
    EXPECT_THROW((void)cc::compile("int main() { int x = 1; int x = 2; return x; }", {}),
                 ParseError);
}

TEST(MiniCErrors, DerefNonPointer) {
    EXPECT_THROW((void)cc::compile("int main() { int x = 1; return *x; }", {}), ParseError);
}

TEST(MiniCErrors, ReturnValueFromVoid) {
    EXPECT_THROW((void)cc::compile("void f() { return 1; } int main() { return 0; }", {}),
                 ParseError);
}

TEST(MiniCErrors, ErrorsCarryLineNumbers) {
    try {
        (void)cc::compile("int main() {\n  return nope;\n}", {});
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
    }
}

// --- hardening transformations --------------------------------------------------

TEST(MiniCHardening, BoundsChecksCatchBadIndex) {
    CompilerOptions opts;
    opts.bounds_checks = true;
    Process p(cc::compile_program({R"(
        int main() {
          int a[4];
          int i = 7;           /* would silently corrupt without checks */
          a[i] = 1;
          return 0;
        }
    )"},
                                  opts),
              SecurityProfile::none(), 7);
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::Abort);
}

TEST(MiniCHardening, BoundsChecksRejectNegativeIndex) {
    CompilerOptions opts;
    opts.bounds_checks = true;
    Process p(cc::compile_program({R"(
        int main() { int a[4]; int i = -1; a[i] = 1; return 0; }
    )"},
                                  opts),
              SecurityProfile::none(), 7);
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::Abort);
}

TEST(MiniCHardening, BoundsChecksAllowValidIndices) {
    CompilerOptions opts;
    opts.bounds_checks = true;
    EXPECT_EQ(run_main(R"(
        int main() {
          int a[4];
          int sum = 0;
          for (int i = 0; i < 4; i = i + 1) { a[i] = i; }
          for (int i = 0; i < 4; i = i + 1) { sum = sum + a[i]; }
          return sum;
        }
    )",
                       "", opts),
              6);
}

TEST(MiniCHardening, FortifyCatchesOversizedRead) {
    CompilerOptions opts;
    opts.fortify_reads = true;
    Process p(cc::compile_program({R"(
        int main() { char buf[8]; read(0, buf, 32); return 0; }
    )"},
                                  opts),
              SecurityProfile::none(), 7);
    p.feed_input("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::Abort);
}

TEST(MiniCHardening, FortifyAllowsExactFit) {
    CompilerOptions opts;
    opts.fortify_reads = true;
    EXPECT_EQ(run_main("int main() { char buf[8]; return read(0, buf, 8); }", "abcd", opts), 4);
}

TEST(MiniCHardening, CanaryChangesFrameButNotSemantics) {
    CompilerOptions opts;
    opts.stack_canaries = true;
    EXPECT_EQ(run_main(R"(
        int sum3(int a, int b, int c) { int t = a + b; return t + c; }
        int main() { return sum3(10, 14, 18); }
    )",
                       "", opts),
              42);
}

TEST(MiniCHardening, SafeProfileRunsCleanCode) {
    EXPECT_EQ(run_main(R"(
        int main() {
          char buf[32];
          int n = read(0, buf, 31);
          buf[n] = 0;
          return strlen(buf);
        }
    )",
                       "hello", CompilerOptions::safe()),
              5);
}

// --- deterministic output ---------------------------------------------------------

TEST(MiniC, CompilationIsDeterministic) {
    const char* src = "int main() { return 1; }";
    const auto a = cc::compile_program({src}, CompilerOptions::none());
    const auto b = cc::compile_program({src}, CompilerOptions::none());
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.data, b.data);
}

// --- runtime-object cache ----------------------------------------------------

/// A unit with globals, arrays, a string and a libc call, so every hardening
/// option changes its code or data layout.
const char* const kCacheProbeSrc = R"(
    int table[4];
    char name[12];
    int sum(int* a, int n) { int s = 0; int i = 0; while (i < n) { s = s + a[i]; i = i + 1; } return s; }
    int main() {
        char buf[8];
        table[2] = 3;
        strcpy(name, "probe");
        buf[0] = name[0];
        return sum(table, 4) + buf[0];
    }
)";

/// Every CompilerOptions value: 6 bools x 3 PMA modes = 192.
std::vector<CompilerOptions> all_compiler_options() {
    std::vector<CompilerOptions> all;
    for (unsigned bits = 0; bits < 64; ++bits) {
        for (const cc::PmaMode pma :
             {cc::PmaMode::Off, cc::PmaMode::InsecureModule, cc::PmaMode::SecureModule}) {
            CompilerOptions o;
            o.stack_canaries = (bits & 1u) != 0;
            o.bounds_checks = (bits & 2u) != 0;
            o.fortify_reads = (bits & 4u) != 0;
            o.memcheck = (bits & 8u) != 0;
            o.sanitize_address = (bits & 16u) != 0;
            o.emit_comments = (bits & 32u) != 0;
            o.pma_mode = pma;
            all.push_back(o);
        }
    }
    return all;
}

/// The image compile_program must produce, built from the public steps with
/// nothing cached: crt0, the libc under `o`, the unit under `o`, linked.
objfmt::Image hand_linked(const std::string& src, const CompilerOptions& o) {
    std::vector<objfmt::ObjectFile> objs;
    objs.push_back(assembler::assemble(cc::runtime_crt0_asm(), "crt0"));
    objs.push_back(cc::compile(cc::runtime_libc_minic(), o, "libc"));
    objs.push_back(cc::compile(src, o, "u0"));
    return assembler::link(objs);
}

void expect_same_image(const objfmt::Image& got, const objfmt::Image& want,
                       const CompilerOptions& o) {
    const std::string key = cc::compiler_options_key(o);
    EXPECT_TRUE(got.text == want.text) << key;
    EXPECT_TRUE(got.data == want.data) << key;
    EXPECT_EQ(got.bss_size, want.bss_size) << key;
    EXPECT_TRUE(got.symbols == want.symbols) << key;
    EXPECT_TRUE(got.relocs == want.relocs) << key;
    EXPECT_TRUE(got.funcs == want.funcs) << key;
    EXPECT_TRUE(got.entry_offsets == want.entry_offsets) << key;
    EXPECT_TRUE(got.line_table == want.line_table) << key;
    EXPECT_TRUE(got.line_files == want.line_files) << key;
    EXPECT_TRUE(got.redzones == want.redzones) << key;
}

TEST(MiniC, CachedRuntimeObjectsChangeNoImage) {
    std::set<std::string> keys;
    std::size_t linked = 0;
    for (const CompilerOptions& o : all_compiler_options()) {
        const std::string key = cc::compiler_options_key(o);
        keys.insert(key);
        // A whole program does not link under SecureModule (its entry stubs
        // need the module runtime's symbols); there the cached path must
        // fail with the same error.
        std::optional<objfmt::Image> want;
        std::string want_error;
        try {
            want = hand_linked(kCacheProbeSrc, o);
            ++linked;
        } catch (const Error& e) {
            want_error = e.what();
        }
        // Twice: the first call may fill the cache, the second must hit it.
        for (int pass = 0; pass < 2; ++pass) {
            if (want) {
                expect_same_image(cc::compile_program({kCacheProbeSrc}, o), *want, o);
                continue;
            }
            try {
                (void)cc::compile_program({kCacheProbeSrc}, o);
                ADD_FAILURE() << key << ": linked, but the uncached build throws " << want_error;
            } catch (const Error& e) {
                EXPECT_EQ(std::string(e.what()), want_error) << key;
            }
        }
    }
    EXPECT_EQ(keys.size(), 192u); // no two option sets share a cache entry
    EXPECT_EQ(linked, 128u);      // every option set but the 64 SecureModule ones
}

TEST(MiniC, ConcurrentRuntimeCacheFillsAgree) {
    // Run under ctest each test is its own process, so this starts from a
    // cold runtime-object cache: the four threads race on every first fill.
    const std::vector<CompilerOptions> all = all_compiler_options();
    std::vector<CompilerOptions> mixed;
    for (std::size_t i = 0; i < all.size(); i += 7) {
        if (all[i].pma_mode != cc::PmaMode::SecureModule) {
            mixed.push_back(all[i]);
        }
    }
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<objfmt::Image>> got(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (const CompilerOptions& o : mixed) {
                got[t].push_back(cc::compile_program({kCacheProbeSrc}, o));
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        const objfmt::Image serial = hand_linked(kCacheProbeSrc, mixed[i]);
        for (std::size_t t = 0; t < kThreads; ++t) {
            expect_same_image(got[t][i], serial, mixed[i]);
        }
    }
}

TEST(MiniC, AsmOutputIsInspectable) {
    const std::string s = cc::compile_to_asm("int main() { return 0; }",
                                             CompilerOptions::none(), "demo");
    EXPECT_NE(s.find(".global main"), std::string::npos);
    EXPECT_NE(s.find("push bp"), std::string::npos);
    EXPECT_NE(s.find("ret"), std::string::npos);
}

} // namespace

// Appended: ternary operator tests (language extension).
namespace {
TEST(MiniC, TernaryOperator) {
    EXPECT_EQ(run_main("int main() { return 1 ? 10 : 20; }"), 10);
    EXPECT_EQ(run_main("int main() { return 0 ? 10 : 20; }"), 20);
    EXPECT_EQ(run_main("int main() { int x = 5; return x > 3 ? x * 2 : x; }"), 10);
    // Right associativity and nesting.
    EXPECT_EQ(run_main("int main() { return 0 ? 1 : 0 ? 2 : 3; }"), 3);
    // Only the selected branch is evaluated.
    EXPECT_EQ(run_main(R"(
        int calls = 0;
        int bump() { calls = calls + 1; return 99; }
        int main() { int v = 1 ? 7 : bump(); return v * 10 + calls; }
    )"),
              70);
    // Works inside function bodies that the paper-style code uses.
    EXPECT_EQ(run_main(R"(
        int abs(int x) { return x < 0 ? -x : x; }
        int main() { return abs(-17) + abs(25); }
    )"),
              42);
}
} // namespace
