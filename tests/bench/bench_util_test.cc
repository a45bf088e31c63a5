/** @file Unit tests for the bench harness helpers. */

#include <gtest/gtest.h>

#include "bench_util.hh"

namespace uvmsim::bench
{

TEST(BenchUtil, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(BenchUtilDeathTest, GeomeanRejectsNonPositiveValues)
{
    EXPECT_EXIT(geomean({1.0, 0.0}), testing::ExitedWithCode(1),
                "geomean requires positive");
    EXPECT_EXIT(geomean({-2.0}), testing::ExitedWithCode(1),
                "geomean requires positive");
}

TEST(BenchUtil, JobCountDefaultsToHardwareConcurrency)
{
    Options empty;
    EXPECT_EQ(jobCount(empty), 0u); // 0 = let RunExecutor decide

    const char *argv[] = {"prog", "--jobs=3"};
    Options opts(2, argv);
    EXPECT_EQ(jobCount(opts), 3u);
}

TEST(BenchUtil, RunAllKeepsSubmissionOrderAndSharesDuplicates)
{
    const char *argv[] = {"prog", "--jobs=2"};
    Options opts(2, argv);

    WorkloadParams p;
    p.size_scale = 0.1;
    SimConfig cfg;
    cfg.gpu.num_sms = 4;

    std::vector<RunJob> jobs = {{"backprop", cfg, p},
                                {"pathfinder", cfg, p},
                                {"backprop", cfg, p}};
    std::vector<RunResult> results = runAll(jobs, opts);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].workload, "backprop");
    EXPECT_EQ(results[1].workload, "pathfinder");
    EXPECT_GT(results[1].kernelTimeUs(), 0.0);
    EXPECT_EQ(results[2].kernel_time, results[0].kernel_time);
}

TEST(BenchUtil, RunAllProgressCountsStartedSimulations)
{
    const char *argv[] = {"prog", "--jobs=1"};
    Options opts(2, argv);

    WorkloadParams p;
    p.size_scale = 0.1;
    SimConfig cfg;
    cfg.gpu.num_sms = 4;

    // Five cells, two distinct: the counter divides by the two
    // simulations that start, not by the five queued cells.
    std::vector<RunJob> jobs = {{"backprop", cfg, p},
                                {"pathfinder", cfg, p},
                                {"backprop", cfg, p},
                                {"pathfinder", cfg, p},
                                {"backprop", cfg, p}};
    testing::internal::CaptureStderr();
    runAll(jobs, opts);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("[bench 1/2] backprop"), std::string::npos) << err;
    EXPECT_NE(err.find("[bench 2/2] pathfinder"), std::string::npos)
        << err;
    EXPECT_EQ(err.find("/5]"), std::string::npos) << err;
    EXPECT_EQ(err.find("[bench 3/"), std::string::npos) << err;
}

TEST(BenchUtil, FormatHelpers)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(1.23456, 4), "1.2346");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmt(41.0, 0), "41");
    EXPECT_EQ(fmt(0.0, 0), "0");
}

TEST(BenchUtil, SelectedBenchmarksDefaultsToPaperSuite)
{
    Options empty;
    auto names = selectedBenchmarks(empty);
    EXPECT_EQ(names, allWorkloadNames());
}

TEST(BenchUtil, SelectedBenchmarksHonorsOverride)
{
    const char *argv[] = {"prog", "--benchmarks=nw,srad"};
    Options opts(2, argv);
    auto names = selectedBenchmarks(opts);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "nw");
    EXPECT_EQ(names[1], "srad");
}

TEST(BenchUtil, SelectedBenchmarksTakesAnEntryDefault)
{
    const std::vector<std::string> subset = {"hotspot", "nw"};
    Options empty;
    EXPECT_EQ(selectedBenchmarks(empty, subset), subset);

    const char *argv[] = {"prog", "--benchmarks=srad"};
    Options opts(2, argv);
    EXPECT_EQ(selectedBenchmarks(opts, subset),
              std::vector<std::string>{"srad"});
}

TEST(BenchUtil, WorkloadParamsHonorScaleAndSeed)
{
    const char *argv[] = {"prog", "--scale=0.5", "--seed=7"};
    Options opts(3, argv);
    WorkloadParams p = workloadParams(opts);
    EXPECT_DOUBLE_EQ(p.size_scale, 0.5);
    EXPECT_EQ(p.seed, 7u);
}

} // namespace uvmsim::bench
