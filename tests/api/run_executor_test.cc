/**
 * @file
 * Unit tests for the RunExecutor thread pool: batch/task plumbing,
 * ordering, the result cache, and failure isolation.  Determinism of
 * full parallel simulations against serial execution is covered by
 * tests/integration/parallel_determinism_test.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "api/result_store.hh"
#include "api/run_executor.hh"

namespace uvmsim
{

namespace
{

/** A distinguishable RunResult without running a simulation. */
RunResult
marked(double mark)
{
    RunResult r;
    r.workload = "task";
    r.stats["mark"] = mark;
    return r;
}

RunJob
tinyJob(const std::string &workload, EvictionKind eviction,
        std::uint64_t seed = 1)
{
    RunJob job;
    job.workload = workload;
    job.config.gpu.num_sms = 4;
    job.config.oversubscription_percent = 110.0;
    job.config.eviction = eviction;
    job.config.seed = seed;
    job.params.size_scale = 0.1;
    return job;
}

} // namespace

TEST(RunExecutor, EmptyBatchAndEmptyTaskList)
{
    RunExecutor exec(2);
    EXPECT_TRUE(exec.runBatch({}).empty());
    EXPECT_TRUE(exec.runTasks({}).empty());
    EXPECT_EQ(exec.cacheSize(), 0u);
}

TEST(RunExecutor, ZeroThreadsSelectsHardwareConcurrency)
{
    RunExecutor exec(0);
    EXPECT_GE(exec.threads(), 1u);
}

TEST(RunExecutor, BatchSmallerThanPoolCompletes)
{
    RunExecutor exec(8);
    std::vector<RunExecutor::Task> tasks = {
        [] { return marked(1.0); },
        [] { return marked(2.0); },
        [] { return marked(3.0); },
    };
    auto outcomes = exec.runTasks(tasks);
    ASSERT_EQ(outcomes.size(), 3u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok());
        EXPECT_DOUBLE_EQ(outcomes[i].result.stats.at("mark"),
                         static_cast<double>(i + 1));
    }
}

TEST(RunExecutor, TasksReturnInSubmissionOrder)
{
    RunExecutor exec(4);
    std::vector<RunExecutor::Task> tasks;
    for (int i = 0; i < 32; ++i) {
        tasks.push_back([i] {
            // Stagger completion so submission order != finish order.
            std::this_thread::sleep_for(
                std::chrono::milliseconds((32 - i) % 5));
            return marked(static_cast<double>(i));
        });
    }
    auto outcomes = exec.runTasks(tasks);
    ASSERT_EQ(outcomes.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(outcomes[i].result.stats.at("mark"),
                         static_cast<double>(i));
}

TEST(RunExecutor, ExceptionInOneTaskDoesNotLoseTheOthers)
{
    RunExecutor exec(3);
    std::atomic<int> completed{0};
    std::vector<RunExecutor::Task> tasks = {
        [&] { ++completed; return marked(1.0); },
        [] () -> RunResult {
            throw std::runtime_error("job two exploded");
        },
        [&] { ++completed; return marked(3.0); },
        [&] { ++completed; return marked(4.0); },
    };
    // Must not deadlock and must return every outcome.
    auto outcomes = exec.runTasks(tasks);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_EQ(completed.load(), 3);
    EXPECT_TRUE(outcomes[0].ok());
    ASSERT_FALSE(outcomes[1].ok());
    EXPECT_THROW(std::rethrow_exception(outcomes[1].error),
                 std::runtime_error);
    EXPECT_TRUE(outcomes[2].ok());
    EXPECT_TRUE(outcomes[3].ok());
    EXPECT_DOUBLE_EQ(outcomes[3].result.stats.at("mark"), 4.0);
}

TEST(RunExecutor, CacheCollapsesDuplicateJobs)
{
    RunExecutor exec(2);
    RunJob job = tinyJob("backprop", EvictionKind::lru4k);
    std::vector<RunJob> batch = {job, job, job};
    auto results = exec.runBatch(batch);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(exec.cacheSize(), 1u);
    EXPECT_EQ(results[0].stats, results[1].stats);
    EXPECT_EQ(results[0].stats, results[2].stats);

    // A second batch with the same job is a pure cache hit.
    auto again = exec.runBatch({job});
    EXPECT_EQ(exec.cacheHits(), 1u);
    EXPECT_EQ(again[0].stats, results[0].stats);

    exec.clearCache();
    EXPECT_EQ(exec.cacheSize(), 0u);
}

TEST(RunExecutor, KeyDistinguishesEveryJobComponent)
{
    RunJob base = tinyJob("backprop", EvictionKind::lru4k);

    RunJob other_workload = base;
    other_workload.workload = "hotspot";
    RunJob other_eviction = tinyJob("backprop", EvictionKind::random4k);
    RunJob other_seed = tinyJob("backprop", EvictionKind::lru4k, 7);
    RunJob other_scale = base;
    other_scale.params.size_scale = 0.2;
    RunJob other_gpu = base;
    other_gpu.config.gpu.num_sms = 2;

    const std::string key = runJobKey(base);
    EXPECT_EQ(key, runJobKey(base));
    EXPECT_NE(key, runJobKey(other_workload));
    EXPECT_NE(key, runJobKey(other_eviction));
    EXPECT_NE(key, runJobKey(other_seed));
    EXPECT_NE(key, runJobKey(other_scale));
    EXPECT_NE(key, runJobKey(other_gpu));
}

TEST(RunExecutor, CacheStaysUnderByteBound)
{
    RunExecutor exec(4);
    EXPECT_EQ(exec.cacheCapacity(), RunExecutor::default_cache_bytes);
    EXPECT_EQ(exec.cacheBytes(), 0u);

    // Tight bound: roughly two entries' worth of footprint, so a
    // six-job batch must evict in LRU order rather than grow.
    std::vector<RunJob> batch;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        batch.push_back(tinyJob("backprop", EvictionKind::lru4k, seed));
    auto probe = exec.runBatch({batch[0]});
    ASSERT_EQ(probe.size(), 1u);
    const std::uint64_t one_entry = exec.cacheBytes();
    ASSERT_GT(one_entry, 0u);

    exec.clearCache();
    exec.setCacheCapacity(2 * one_entry);
    auto results = exec.runBatch(batch);
    ASSERT_EQ(results.size(), 6u);
    EXPECT_LE(exec.cacheBytes(), exec.cacheCapacity());
    EXPECT_LE(exec.cacheSize(), 2u);
    EXPECT_GE(exec.cacheSize(), 1u);

    // Every result is still correct and complete despite eviction.
    for (const auto &r : results)
        EXPECT_FALSE(r.stats.empty());

    // An entry larger than the whole bound is simply not cached.
    exec.setCacheCapacity(1);
    EXPECT_EQ(exec.cacheBytes(), 0u);
    EXPECT_EQ(exec.cacheSize(), 0u);
    exec.runBatch({batch[0]});
    EXPECT_EQ(exec.cacheSize(), 0u);

    // 0 = unbounded.
    exec.setCacheCapacity(0);
    exec.clearCache();
    exec.runBatch(batch);
    EXPECT_EQ(exec.cacheSize(), 6u);
}

TEST(RunExecutor, StoreReadThroughAndWriteBack)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "uvmsim_exec_store";
    fs::remove_all(dir);

    RunJob job = tinyJob("backprop", EvictionKind::lru4k);
    RunResult computed;
    {
        ResultStore store(dir.string());
        RunExecutor exec(2);
        exec.attachStore(&store);
        EXPECT_EQ(exec.store(), &store);
        computed = exec.runBatch({job})[0];
        EXPECT_EQ(store.counters().misses, 1u);
        EXPECT_EQ(store.counters().stores, 1u);
    }
    {
        // A fresh process (modelled by a fresh executor) completes the
        // same job on store hits alone, bit-identically, without
        // simulating: a progress callback would fire on a real run.
        ResultStore store(dir.string());
        RunExecutor exec(2);
        exec.attachStore(&store);
        std::atomic<int> progress_calls{0};
        auto replayed = exec.runBatch(
            {job}, [&](const RunJob &, std::size_t, std::size_t) {
                ++progress_calls;
            });
        EXPECT_EQ(store.counters().hits, 1u);
        EXPECT_EQ(store.counters().misses, 0u);
        EXPECT_EQ(progress_calls.load(), 0);
        EXPECT_EQ(replayed[0].workload, computed.workload);
        EXPECT_EQ(replayed[0].kernel_time, computed.kernel_time);
        EXPECT_EQ(replayed[0].final_time, computed.final_time);
        EXPECT_EQ(replayed[0].stats, computed.stats);

        // A store hit also warms the in-process cache.
        exec.runBatch({job});
        EXPECT_EQ(exec.cacheHits(), 1u);
        EXPECT_EQ(store.counters().hits, 1u);

        exec.attachStore(nullptr);
        EXPECT_EQ(exec.store(), nullptr);
    }
}

} // namespace uvmsim
