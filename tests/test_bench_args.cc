/**
 * @file
 * Tests for the bench harness's shared option parser (bench_common.hh):
 * out-of-range counts must be rejected with a fatal error rather than
 * silently truncated to `unsigned`.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hh"

namespace prefsim
{
namespace
{

/** parseBenchArgs over @p args (argv[0] is supplied). */
BenchOptions
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, ProcsWithinWordMaskLimitIsAccepted)
{
    EXPECT_EQ(parse({"--procs", "1"}).params.numProcs, 1u);
    EXPECT_EQ(parse({"--procs", "32"}).params.numProcs, 32u);
}

TEST(BenchArgsDeathTest, ProcsOutOfRangeIsFatal)
{
    // 2^32 + 2 would wrap to a 2-processor sweep if narrowed unchecked.
    EXPECT_EXIT(parse({"--procs", "4294967298"}),
                ::testing::ExitedWithCode(1), "--procs expects 1\\.\\.32");
    EXPECT_EXIT(parse({"--procs", "33"}), ::testing::ExitedWithCode(1),
                "--procs expects 1\\.\\.32");
    EXPECT_EXIT(parse({"--procs", "0"}), ::testing::ExitedWithCode(1),
                "--procs expects 1\\.\\.32");
}

TEST(BenchArgs, JobsUpToUintMaxIsAccepted)
{
    EXPECT_EQ(parse({"--jobs", "0"}).sweep.jobs, 0u);
    EXPECT_EQ(parse({"--jobs", "4294967295"}).sweep.jobs, 4294967295u);
}

TEST(BenchArgsDeathTest, JobsAboveUintMaxIsFatal)
{
    // 2^32 would wrap to 0 (= all cores) if narrowed unchecked.
    EXPECT_EXIT(parse({"--jobs", "4294967296"}),
                ::testing::ExitedWithCode(1), "--jobs expects 0\\.\\.");
}

TEST(BenchArgsDeathTest, RetiredEngineNamesAreFatal)
{
    EXPECT_EXIT(parse({"--engine", "event"}), ::testing::ExitedWithCode(1),
                "--engine expects local or cycle");
}

} // namespace
} // namespace prefsim
