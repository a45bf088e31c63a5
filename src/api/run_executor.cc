#include "run_executor.hh"

#include <cstdio>
#include <utility>

#include "api/result_store.hh"
#include "sim/logging.hh"

namespace uvmsim
{

namespace
{

/** Exact round-trip formatting for double-typed config fields. */
void
appendDouble(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a,", v);
    out += buf;
}

void
appendUint(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
    out += ',';
}

/** Length-prefixed so embedded separators cannot alias keys. */
void
appendString(std::string &out, const std::string &v)
{
    out += std::to_string(v.size());
    out += ':';
    out += v;
    out += ',';
}

} // namespace

std::string
runJobKey(const RunJob &job)
{
    std::string key = job.workload;
    key += '|';

    const GpuConfig &g = job.config.gpu;
    appendUint(key, g.num_sms);
    appendDouble(key, g.core_mhz);
    appendUint(key, g.max_warps_per_sm);
    appendUint(key, g.max_tbs_per_sm);
    appendUint(key, g.tlb_entries);
    appendUint(key, g.l1_bytes);
    appendUint(key, g.l1_assoc);
    appendUint(key, g.l1_hit_cycles);
    appendUint(key, g.l2_bytes);
    appendUint(key, g.l2_assoc);
    appendUint(key, g.l2_line_bytes);
    appendUint(key, g.l2_hit_cycles);
    appendUint(key, g.dram_latency_ns);
    appendDouble(key, g.dram_bandwidth_gbps);
    appendUint(key, g.kernel_launch_overhead);
    appendUint(key, g.max_concurrent_kernels);
    appendUint(key, g.issue_ports_per_sm);
    key += '|';

    const SimConfig &c = job.config;
    appendUint(key, static_cast<std::uint64_t>(c.prefetcher_before));
    appendUint(key, static_cast<std::uint64_t>(c.prefetcher_after));
    appendUint(key, static_cast<std::uint64_t>(c.eviction));
    appendDouble(key, c.oversubscription_percent);
    appendDouble(key, c.free_buffer_percent);
    appendDouble(key, c.lru_reserve_percent);
    appendUint(key, c.device_memory_bytes);
    appendUint(key, static_cast<std::uint64_t>(c.pcie_model));
    appendUint(key, c.fault_latency);
    appendUint(key, c.fault_batch_size);
    appendDouble(key, c.fault_latency_jitter);
    appendUint(key, c.whole_unit_writeback ? 1 : 0);
    appendUint(key, c.user_prefetch_footprint ? 1 : 0);
    appendUint(key, c.page_walk_cycles);
    appendUint(key, c.page_walkers);
    appendUint(key, c.mshr_entries);
    appendUint(key, c.tenants);
    appendUint(key, static_cast<std::uint64_t>(c.tenant_eviction));
    appendUint(key, c.serialize_kernel_streams ? 1 : 0);
    appendUint(key, c.seed);
    appendUint(key, c.audit ? 1 : 0);
    // Tracing never changes simulation results, but jobs with
    // different artifact paths must not dedup onto one run or only
    // one output file would be written.
    appendString(key, c.trace_spec);
    appendString(key, c.trace_out);
    appendUint(key, c.epoch_ticks);
    key += '|';

    const WorkloadParams &p = job.params;
    appendDouble(key, p.size_scale);
    appendUint(key, p.iterations);
    appendUint(key, p.seed);
    appendUint(key, p.warps_per_tb);
    appendString(key, p.trace_path);
    return key;
}

RunExecutor::RunExecutor(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

RunExecutor::~RunExecutor()
{
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
RunExecutor::workerLoop()
{
    for (;;) {
        std::function<void()> work;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            work = std::move(queue_.front());
            queue_.pop_front();
        }
        work();
    }
}

void
RunExecutor::enqueue(std::function<void()> work)
{
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_.push_back(std::move(work));
    }
    queue_cv_.notify_one();
}

std::vector<RunExecutor::Outcome>
RunExecutor::runTasks(const std::vector<Task> &tasks)
{
    std::vector<Outcome> outcomes(tasks.size());
    if (tasks.empty())
        return outcomes;

    // Completion latch shared with the workers.
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t remaining = tasks.size();

    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const Task &task = tasks[i];
        Outcome &slot = outcomes[i];
        enqueue([&task, &slot, &done_mutex, &done_cv, &remaining] {
            try {
                slot.result = task();
            } catch (...) {
                slot.error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(done_mutex);
            if (--remaining == 0)
                done_cv.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
    return outcomes;
}

std::vector<RunResult>
RunExecutor::runBatch(const std::vector<RunJob> &jobs,
                      const Progress &progress)
{
    const std::size_t n = jobs.size();
    std::vector<RunResult> results(n);
    if (n == 0)
        return results;

    // Resolve in-process cache hits and collapse duplicate keys: one
    // pending group per distinct uncached key, in first-appearance
    // (= submission) order.  Hit results are copied out immediately so
    // the final answer never depends on an entry surviving eviction.
    std::vector<std::string> keys(n);
    std::unordered_map<std::string, std::vector<std::size_t>> pending;
    std::vector<std::size_t> task_jobs;
    {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = runJobKey(jobs[i]);
            if (cacheLookupLocked(keys[i], results[i])) {
                ++cache_hits_;
                continue;
            }
            auto [it, fresh] = pending.try_emplace(keys[i]);
            it->second.push_back(i);
            if (fresh)
                task_jobs.push_back(i);
        }
    }

    // Read through to the persistent store (process-safe; no executor
    // lock held across the file I/O).  A store hit fills every pending
    // job with that key and warms the in-process cache.
    if (store_ != nullptr && !task_jobs.empty()) {
        std::vector<std::size_t> uncached;
        uncached.reserve(task_jobs.size());
        for (std::size_t job_index : task_jobs) {
            const std::string &key = keys[job_index];
            std::optional<std::string> payload = store_->load(key);
            RunResult from_store;
            if (payload && decodeRunResult(*payload, from_store)) {
                for (std::size_t i : pending[key])
                    results[i] = from_store;
                std::lock_guard<std::mutex> lock(cache_mutex_);
                cacheInsertLocked(key, std::move(from_store));
                continue;
            }
            // Undecodable payloads (encoder drift without a version
            // bump) fall through to recompute; the publish below then
            // replaces the entry.
            uncached.push_back(job_index);
        }
        task_jobs = std::move(uncached);
    }

    std::vector<Task> tasks;
    tasks.reserve(task_jobs.size());
    const std::size_t starting = task_jobs.size();
    for (std::size_t job_index : task_jobs) {
        const RunJob &job = jobs[job_index];
        tasks.push_back([&job, job_index, starting, &progress] {
            if (progress)
                progress(job, job_index, starting);
            return runBenchmark(job.workload, job.config, job.params);
        });
    }

    std::vector<Outcome> outcomes = runTasks(tasks);

    // Fill results from the outcomes directly (never back through the
    // cache: a bounded cache may already have evicted them), write
    // back to the store, cache in-process, then surface the first
    // failure.
    std::exception_ptr first_error;
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
        if (!outcomes[t].ok()) {
            if (!first_error)
                first_error = outcomes[t].error;
            continue;
        }
        const std::string &key = keys[task_jobs[t]];
        for (std::size_t i : pending[key])
            results[i] = outcomes[t].result;
        if (store_ != nullptr)
            store_->publish(key, encodeRunResult(outcomes[t].result));
        std::lock_guard<std::mutex> lock(cache_mutex_);
        cacheInsertLocked(key, std::move(outcomes[t].result));
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

bool
RunExecutor::cacheLookupLocked(const std::string &key, RunResult &out)
{
    auto it = cache_index_.find(key);
    if (it == cache_index_.end())
        return false;
    std::uint32_t idx = it->second;
    out = nodes_[idx].result;
    cacheDetachLocked(idx);
    cachePushFrontLocked(idx);
    return true;
}

namespace
{

/**
 * Accounted heap footprint of one cached entry: node record, key and
 * workload strings, and the stats map (per-element tree node overhead
 * plus the name string).  An estimate -- the bound is about keeping a
 * 10k-cell sweep from holding gigabytes, not exact malloc accounting.
 */
std::uint64_t
entryFootprint(const std::string &key, const RunResult &result)
{
    std::uint64_t bytes = 96 + key.size() + result.workload.size();
    for (const auto &[name, value] : result.stats) {
        (void)value;
        bytes += 64 + name.size();
    }
    return bytes;
}

} // namespace

void
RunExecutor::cacheInsertLocked(const std::string &key, RunResult result)
{
    std::uint64_t bytes = entryFootprint(key, result);
    if (cache_capacity_ != 0 && bytes > cache_capacity_)
        return; // larger than the whole cache: not worth keeping

    auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
        std::uint32_t idx = it->second;
        cache_bytes_ -= nodes_[idx].bytes;
        nodes_[idx].result = std::move(result);
        nodes_[idx].bytes = bytes;
        cache_bytes_ += bytes;
        cacheDetachLocked(idx);
        cachePushFrontLocked(idx);
        cacheEvictToCapacityLocked();
        return;
    }

    std::uint32_t idx;
    if (!free_nodes_.empty()) {
        idx = free_nodes_.back();
        free_nodes_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[idx].key = key;
    nodes_[idx].result = std::move(result);
    nodes_[idx].bytes = bytes;
    cache_bytes_ += bytes;
    cache_index_.emplace(key, idx);
    cachePushFrontLocked(idx);
    cacheEvictToCapacityLocked();
}

void
RunExecutor::cacheDetachLocked(std::uint32_t idx)
{
    CacheNode &node = nodes_[idx];
    if (node.prev != npos)
        nodes_[node.prev].next = node.next;
    else
        lru_head_ = node.next;
    if (node.next != npos)
        nodes_[node.next].prev = node.prev;
    else
        lru_tail_ = node.prev;
    node.prev = npos;
    node.next = npos;
}

void
RunExecutor::cachePushFrontLocked(std::uint32_t idx)
{
    CacheNode &node = nodes_[idx];
    node.prev = npos;
    node.next = lru_head_;
    if (lru_head_ != npos)
        nodes_[lru_head_].prev = idx;
    lru_head_ = idx;
    if (lru_tail_ == npos)
        lru_tail_ = idx;
}

void
RunExecutor::cacheEvictToCapacityLocked()
{
    if (cache_capacity_ == 0)
        return;
    while (cache_bytes_ > cache_capacity_ && lru_tail_ != npos) {
        std::uint32_t idx = lru_tail_;
        CacheNode &node = nodes_[idx];
        cache_bytes_ -= node.bytes;
        cache_index_.erase(node.key);
        cacheDetachLocked(idx);
        node.key.clear();
        node.result = RunResult();
        node.bytes = 0;
        free_nodes_.push_back(idx);
    }
}

void
RunExecutor::attachStore(ResultStore *store)
{
    store_ = store;
}

void
RunExecutor::setCacheCapacity(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_capacity_ = bytes;
    cacheEvictToCapacityLocked();
}

std::uint64_t
RunExecutor::cacheCapacity() const
{
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return cache_capacity_;
}

std::uint64_t
RunExecutor::cacheBytes() const
{
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return cache_bytes_;
}

std::size_t
RunExecutor::cacheHits() const
{
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return cache_hits_;
}

std::size_t
RunExecutor::cacheSize() const
{
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return cache_index_.size();
}

void
RunExecutor::clearCache()
{
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_index_.clear();
    nodes_.clear();
    free_nodes_.clear();
    lru_head_ = npos;
    lru_tail_ = npos;
    cache_bytes_ = 0;
}

} // namespace uvmsim
