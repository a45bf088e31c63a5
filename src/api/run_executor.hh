/**
 * @file
 * Parallel run executor: thread-pooled batch simulation.
 *
 * Every experiment in this repo -- the paper_figures runner,
 * uvmsim_sweep, runBenchmarkSeeds() -- is a batch of fully independent
 * Simulator::run() calls: each run builds a fresh system and is
 * deterministic for its (workload, config, params) triple.  The
 * RunExecutor exploits that: it owns a fixed-size pool of worker
 * threads, accepts a batch of RunJobs, runs each job on a worker with
 * its own freshly built system, and hands the RunResults back in
 * submission order.  Results are bit-identical to serial execution by
 * construction; only wall-clock time changes.
 *
 * Repeated sweep points are computed once, through two cache tiers:
 *
 *   1. An in-process cache keyed by a canonical serialization of the
 *      job (runJobKey), byte-accounted and LRU-bounded (default 256
 *      MiB, setCacheCapacity to change, 0 = unbounded) so a 10k-cell
 *      sweep cannot hold every RunResult forever.
 *   2. Optionally, a persistent on-disk ResultStore attached with
 *      attachStore(): in-process misses read through to it, computed
 *      results are written back, and a repeated sweep in a fresh
 *      process completes on store hits alone.
 *
 * Typical use:
 *
 *   RunExecutor exec(jobs);              // 0 = hardware concurrency
 *   std::vector<RunJob> batch;
 *   batch.push_back({"hotspot", cfg, params});
 *   batch.push_back({"nw", cfg, params});
 *   std::vector<RunResult> results = exec.runBatch(batch);
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/simulator.hh"

namespace uvmsim
{

class ResultStore;

/** One unit of work: run this workload under this configuration. */
struct RunJob
{
    std::string workload;
    SimConfig config;
    WorkloadParams params;
};

/**
 * Canonical cache key covering every field that can change a run's
 * outcome: the workload name, every SimConfig field (including the
 * embedded GpuConfig) and every WorkloadParams field.  Two jobs with
 * equal keys produce bit-identical RunResults.
 *
 * NOTE: when adding a field to SimConfig, GpuConfig or WorkloadParams,
 * extend this serialization or the cache will alias distinct configs.
 * The `jobkey` uvmsim_lint check enforces this: every field declared
 * in those structs must be referenced in run_executor.cc.
 */
std::string runJobKey(const RunJob &job);

/** A fixed-size thread pool running simulation batches. */
class RunExecutor
{
  public:
    /** In-process result cache bound when none is configured. */
    static constexpr std::uint64_t default_cache_bytes = 256ull << 20;

    /** A task the pool can run directly (used by runBatch and tests). */
    using Task = std::function<RunResult()>;

    /** What one task produced: a result, or the exception it threw. */
    struct Outcome
    {
        RunResult result;
        std::exception_ptr error;

        bool ok() const { return error == nullptr; }
    };

    /**
     * Called on a worker thread just before a job starts executing
     * (cache and store hits never invoke it).  `index` is the job's
     * position in the submitted batch; `starting` is how many
     * simulations the batch starts in all, after duplicates and cache
     * and store hits are removed.  Must be thread-safe; serialize any
     * output through outputMutex().
     */
    using Progress = std::function<void(
        const RunJob &job, std::size_t index, std::size_t starting)>;

    /**
     * Create the pool.  `num_threads` == 0 selects the hardware
     * concurrency; 1 reproduces serial execution order exactly.
     */
    explicit RunExecutor(std::size_t num_threads = 0);

    /** Joins all workers; outstanding batches must have completed. */
    ~RunExecutor();

    RunExecutor(const RunExecutor &) = delete;
    RunExecutor &operator=(const RunExecutor &) = delete;

    /** Number of worker threads in the pool. */
    std::size_t threads() const { return workers_.size(); }

    /**
     * Run a batch of jobs and return their results in submission
     * order.  Jobs whose key is already cached (or duplicated inside
     * the batch) are simulated only once.  If a job throws, the
     * remaining jobs still complete and their results are cached;
     * the first exception is then rethrown.  (Configuration errors
     * inside the simulator call fatal()/panic() and terminate the
     * process, exactly as under serial execution.)
     */
    std::vector<RunResult> runBatch(const std::vector<RunJob> &jobs,
                                    const Progress &progress = nullptr);

    /**
     * Run arbitrary tasks on the pool and wait for all of them.
     * A task that throws yields an Outcome holding the exception; the
     * other tasks are unaffected and nothing deadlocks.  Outcomes are
     * in submission order.  Bypasses the result cache.
     */
    std::vector<Outcome> runTasks(const std::vector<Task> &tasks);

    /**
     * Attach (or detach, with nullptr) a persistent result store as a
     * read-through/write-back tier under the in-process cache.  Not
     * owned; must outlive the executor or be detached first.  Hits
     * and misses are accounted on the store's own counters.
     */
    void attachStore(ResultStore *store);

    /** The attached persistent store, or nullptr. */
    ResultStore *store() const { return store_; }

    /**
     * Bound the in-process cache to `bytes` of accounted result
     * footprint (0 = unbounded), evicting least-recently-used entries
     * immediately if already over.  A single result larger than the
     * bound is simply not cached.
     */
    void setCacheCapacity(std::uint64_t bytes);

    /** Configured in-process cache bound in bytes (0 = unbounded). */
    std::uint64_t cacheCapacity() const;

    /** Accounted bytes currently held by the in-process cache. */
    std::uint64_t cacheBytes() const;

    /** Batch results served from the in-process cache so far. */
    std::size_t cacheHits() const;

    /** Distinct results currently cached in-process. */
    std::size_t cacheSize() const;

    /** Drop every in-process cached result. */
    void clearCache();

  private:
    /** Intrusive LRU node: index-linked, lives in nodes_. */
    struct CacheNode
    {
        std::string key;
        RunResult result;
        std::uint64_t bytes = 0;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
    };

    static constexpr std::uint32_t npos = 0xffffffffu;

    void workerLoop();
    void enqueue(std::function<void()> work);

    // LRU internals; all require cache_mutex_ to be held.
    bool cacheLookupLocked(const std::string &key, RunResult &out);
    void cacheInsertLocked(const std::string &key, RunResult result);
    void cacheDetachLocked(std::uint32_t idx);
    void cachePushFrontLocked(std::uint32_t idx);
    void cacheEvictToCapacityLocked();

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;

    mutable std::mutex cache_mutex_;
    std::unordered_map<std::string, std::uint32_t> cache_index_;
    std::vector<CacheNode> nodes_;
    std::vector<std::uint32_t> free_nodes_;
    std::uint32_t lru_head_ = npos; ///< most recently used
    std::uint32_t lru_tail_ = npos; ///< least recently used
    std::uint64_t cache_bytes_ = 0;
    std::uint64_t cache_capacity_ = default_cache_bytes;
    std::size_t cache_hits_ = 0;
    ResultStore *store_ = nullptr;
};

} // namespace uvmsim
