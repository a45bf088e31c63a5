#include "bench_util.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <sstream>

#include "api/result_store.hh"
#include "sim/logging.hh"

namespace uvmsim::bench
{

std::vector<std::string>
selectedBenchmarks(const Options &opts,
                   const std::vector<std::string> &defaults)
{
    return opts.getList("benchmarks", defaults);
}

WorkloadParams
workloadParams(const Options &opts)
{
    WorkloadParams params;
    params.size_scale = opts.getDouble("scale", 1.0);
    params.seed = opts.getUint("seed", 42);
    return params;
}

std::size_t
jobCount(const Options &opts)
{
    return static_cast<std::size_t>(opts.getUint("jobs", 0));
}

void
applyTraceOptions(SimConfig &config, const Options &opts,
                  const std::string &label)
{
    config.trace_spec = opts.get("trace", "");
    if (config.trace_spec.empty())
        return;
    config.trace_out = opts.get("trace-out", "uvmsim_bench");
    if (!label.empty())
        config.trace_out += "-" + label;
    config.epoch_ticks = opts.getUint("epoch-ticks", config.epoch_ticks);
}

void
printHeader(const std::string &figure, const std::string &what)
{
    std::printf("# %s\n", figure.c_str());
    std::printf("# %s\n", what.c_str());
    std::printf("# uvmsim -- reproduction of Ganguly et al., ISCA'19\n");
}

void
printRow(const std::string &label, const std::vector<std::string> &cells)
{
    std::printf("%-12s", label.c_str());
    for (const auto &cell : cells)
        std::printf(" %14s", cell.c_str());
    std::printf("\n");
    std::fflush(stdout);
}

std::string
fmt(double v, int precision)
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(precision);
    oss << v;
    return oss.str();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            fatal("geomean requires positive values, got %g", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<RunResult>
runAll(const std::vector<RunJob> &jobs, const Options &opts)
{
    // --store: share cells with other runs through the persistent
    // store (declared before the executor so it outlives the pool
    // that reads through it).
    std::optional<ResultStore> store;
    if (opts.has("store"))
        store.emplace(opts.get("store"));
    RunExecutor executor(jobCount(opts));
    if (store)
        executor.attachStore(&*store);
    if (opts.has("cache-bytes"))
        executor.setCacheCapacity(opts.getUint(
            "cache-bytes", RunExecutor::default_cache_bytes));
    std::atomic<std::size_t> started{0};
    auto progress = [&started](const RunJob &job, std::size_t,
                               std::size_t total) {
        const SimConfig &c = job.config;
        std::lock_guard<std::mutex> lock(outputMutex());
        std::fprintf(stderr, "[bench %zu/%zu] %-10s prefetch=%s/%s "
                     "evict=%s oversub=%.0f%% buffer=%.0f%% "
                     "reserve=%.0f%%...\n",
                     started.fetch_add(1) + 1, total, job.workload.c_str(),
                     toString(c.prefetcher_before).c_str(),
                     toString(c.prefetcher_after).c_str(),
                     toString(c.eviction).c_str(),
                     c.oversubscription_percent, c.free_buffer_percent,
                     c.lru_reserve_percent);
    };
    return executor.runBatch(jobs, progress);
}

} // namespace uvmsim::bench
