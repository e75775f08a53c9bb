// The `swsec` command line: inputs that would make a gate check nothing
// are refused with exit 2 and a message naming the flag, before any harness
// work starts (nothing on stdout); the accepted edge forms keep working.
// Every case runs the built binary as a child process.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Outcome {
    int rc = -1;
    std::string out;
    std::string err;
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Run `swsec args...` with stdout and stderr captured to files.
Outcome swsec(const std::vector<std::string>& args) {
    // Per-process names: ctest may run the cases in parallel.
    const std::string stem = ::testing::TempDir() + "swsec_cli_" + std::to_string(::getpid());
    const std::string out_path = stem + ".out";
    const std::string err_path = stem + ".err";
    const pid_t pid = ::fork();
    if (pid == 0) {
        static const std::string tool = SWSEC_TOOL;
        std::vector<char*> argv;
        argv.push_back(const_cast<char*>(tool.c_str()));
        for (const auto& a : args) {
            argv.push_back(const_cast<char*>(a.c_str()));
        }
        argv.push_back(nullptr);
        const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0 || ::dup2(out, 1) < 0 || ::dup2(err, 2) < 0) {
            ::_exit(126);
        }
        ::execv(tool.c_str(), argv.data());
        ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    Outcome r;
    r.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.out = slurp(out_path);
    r.err = slurp(err_path);
    std::filesystem::remove(out_path);
    std::filesystem::remove(err_path);
    return r;
}

/// Exit 2, the flag named on stderr, and no harness output.
void expect_refused(const std::vector<std::string>& args, const std::string& flag) {
    std::string line = "swsec";
    for (const auto& a : args) {
        line += " " + a;
    }
    const Outcome r = swsec(args);
    EXPECT_EQ(r.rc, 2) << line;
    EXPECT_NE(r.err.find(flag), std::string::npos) << line << "\n" << r.err;
    EXPECT_EQ(r.out, "") << line;
}

TEST(Cli, NonNumericSeedsAreRefused) {
    expect_refused({"fuzz", "--seeds", "abc"}, "--seeds");
}

TEST(Cli, TrailingGarbageIsRefused) {
    expect_refused({"fuzz", "--seeds", "2x"}, "--seeds");
}

TEST(Cli, NegativeWindowsAreRefused) {
    expect_refused({"fault-sweep", "--windows", "-1"}, "--windows");
}

TEST(Cli, ZeroTrialsAreRefused) {
    expect_refused({"curves", "--trials", "0"}, "--trials");
}

TEST(Cli, NonNumericBudgetIsRefused) {
    expect_refused({"curves", "--budgets", "x"}, "--budgets");
    expect_refused({"curves", "--budgets", "1,,4"}, "--budgets");
    expect_refused({"curves", "--aslr-bits", "0,2,"}, "--aslr-bits");
}

TEST(Cli, NegativeSeedIsRefused) {
    expect_refused({"trace", "canary", "--seed", "-1"}, "--seed");
    expect_refused({"curves", "--seed", "-5"}, "--seed");
}

TEST(Cli, ValueOutsideItsFieldIsRefused) {
    // --seeds is an int: 2^32 would wrap to 0 programs.
    expect_refused({"fuzz", "--seeds", "4294967296"}, "--seeds");
    expect_refused({"curves", "--seed", "18446744073709551616"}, "--seed");
}

TEST(Cli, HugeJobsIsRefusedBeforeAnyThreadStarts) {
    expect_refused({"matrix", "--jobs", "100000"}, "--jobs");
    expect_refused({"fuzz", "--jobs", "257"}, "--jobs");
}

TEST(Cli, EverySweepSizeFlagRefusesZero) {
    const std::string dir = ::testing::TempDir() + "swsec_cli_sweep_size";
    std::filesystem::remove_all(dir);
    const std::vector<std::vector<std::string>> cases = {
        {"fuzz", "--seeds"},
        {"fault-sweep", "--windows"},
        {"curves", "--trials"},
        {"evolve", "--execs"},
        {"evolve", "--init"},
        {"evolve", "--batch"},
        {"campaign", "run", "--kind", "matrix", "--dir", dir, "--draws"},
        {"campaign", "run", "--kind", "fuzz", "--dir", dir, "--seeds"},
        {"campaign", "run", "--kind", "fault-sweep", "--dir", dir, "--windows"},
        {"campaign", "run", "--kind", "fuzz", "--dir", dir, "--retries"},
        {"campaign", "run", "--kind", "fuzz-evolve", "--dir", dir, "--evolve-execs"},
        {"campaign", "run", "--kind", "fuzz-evolve", "--dir", dir, "--evolve-init"},
    };
    for (auto args : cases) {
        const std::string flag = args.back();
        args.push_back("0");
        expect_refused(args, flag);
    }
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Cli, HugeSweepSizesAreRefusedBeforeAnyAllocation) {
    // Each of these sizes a per-item buffer from its value before any work
    // starts; past its cap it would abort in the allocator, not exit 2.
    const std::string dir = ::testing::TempDir() + "swsec_cli_huge_sweep";
    std::filesystem::remove_all(dir);
    expect_refused({"curves", "--trials", "1000000000000", "--aslr-bits", "0", "--budgets", "1"},
                   "--trials");
    expect_refused({"curves", "--trials", "1000001"}, "--trials");
    expect_refused({"fuzz", "--seeds", "2000000000"}, "--seeds");
    expect_refused({"fuzz", "--seeds", "1000001"}, "--seeds");
    expect_refused({"evolve", "--init", "10001"}, "--init");
    expect_refused({"evolve", "--batch", "2000000000"}, "--batch");
    expect_refused({"campaign", "run", "--kind", "fuzz", "--dir", dir, "--seeds", "2000000000"},
                   "--seeds");
    expect_refused({"campaign", "run", "--kind", "matrix", "--dir", dir, "--draws", "2000000000"},
                   "--draws");
    expect_refused(
        {"campaign", "run", "--kind", "fuzz-evolve", "--dir", dir, "--evolve-init", "2000000000"},
        "--evolve-init");
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Cli, MissingValueAndUnknownFlagAreRefused) {
    expect_refused({"fuzz", "--seeds"}, "--seeds");
    expect_refused({"matrix", "--frobnicate"}, "--frobnicate");
}

TEST(Cli, FuzzEvolveAliasIsGone) {
    const std::string dir = ::testing::TempDir() + "swsec_cli_alias";
    expect_refused({"campaign", "run", "--fuzz-evolve", "--dir", dir}, "--fuzz-evolve");
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Cli, HexSeedIsAccepted) {
    // Base stays automatic: 0x3e9 is 1001, the trace scenarios' default seed.
    const Outcome hex = swsec({"trace", "canary", "--seed", "0x3e9"});
    const Outcome dec = swsec({"trace", "canary", "--seed", "1001"});
    const Outcome dflt = swsec({"trace", "canary"});
    EXPECT_EQ(hex.rc, 0) << hex.err;
    EXPECT_FALSE(hex.out.empty());
    EXPECT_EQ(hex.out, dec.out);
    EXPECT_EQ(hex.out, dflt.out);
}

TEST(Cli, JobsZeroMeansOneWorkerPerHardwareThread) {
    const Outcome zero = swsec(
        {"curves", "--trials", "4", "--aslr-bits", "0", "--budgets", "1", "--jobs", "0"});
    const Outcome one = swsec(
        {"curves", "--trials", "4", "--aslr-bits", "0", "--budgets", "1", "--jobs", "1"});
    EXPECT_EQ(zero.rc, 0) << zero.err;
    EXPECT_FALSE(zero.out.empty());
    EXPECT_EQ(zero.out, one.out);
}

TEST(Cli, HeartbeatZeroTurnsTheHeartbeatOff) {
    const std::string dir = ::testing::TempDir() + "swsec_cli_heartbeat";
    std::filesystem::remove_all(dir);
    const Outcome r = swsec(
        {"campaign", "run", "--kind", "fuzz", "--seeds", "2", "--dir", dir, "--heartbeat-ms", "0"});
    EXPECT_EQ(r.rc, 0) << r.err;
    EXPECT_TRUE(std::filesystem::exists(dir + "/report.jsonl"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/progress.jsonl"));
    std::filesystem::remove_all(dir);
}

} // namespace
