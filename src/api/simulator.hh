/**
 * @file
 * The public entry point of uvmsim.
 *
 * A Simulator assembles the full system -- event queue, managed
 * address space, PCI-e link, device frames, page table, GMMU, GPU --
 * from one SimConfig, runs a Workload's kernel sequence to completion,
 * and returns every statistic the run produced.  Each run() call
 * builds a fresh system, so results are independent and deterministic
 * for a given (config, workload) pair.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   SimConfig cfg;
 *   cfg.prefetcher_before = PrefetcherKind::treeBasedNeighborhood;
 *   cfg.eviction = EvictionKind::treeBasedNeighborhood;
 *   cfg.oversubscription_percent = 110.0;
 *   Simulator sim(cfg);
 *   auto workload = makeWorkload("hotspot", {});
 *   RunResult r = sim.run(*workload);
 *   std::cout << r.kernelTimeUs() << "\n";
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/access_pattern.hh"
#include "core/gmmu.hh"
#include "core/policies.hh"
#include "gpu/gpu_config.hh"
#include "interconnect/bandwidth_model.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

namespace uvmsim
{

/** Complete configuration of one simulation. */
struct SimConfig
{
    /** GPU execution-model parameters. */
    GpuConfig gpu;

    /** Prefetcher while the working set fits (paper default: TBNp). */
    PrefetcherKind prefetcher_before =
        PrefetcherKind::treeBasedNeighborhood;

    /** Prefetcher once over-subscribed (paper Secs. 4.2/7.1: none). */
    PrefetcherKind prefetcher_after = PrefetcherKind::none;

    /** Eviction policy under over-subscription. */
    EvictionKind eviction = EvictionKind::lru4k;

    /**
     * Working set as a percentage of device memory.  0 or <=100 means
     * the workload fits (device memory = footprint plus slack);
     * 110 reproduces the paper's "110% of device memory" setup.
     */
    double oversubscription_percent = 0.0;

    /** Free-page buffer as a percentage of device frames (Fig. 6/7). */
    double free_buffer_percent = 0.0;

    /** LRU cold-end reservation as a percentage of pages (Fig. 14). */
    double lru_reserve_percent = 0.0;

    /** Device memory override in bytes; 0 derives it from the rules
     *  above. */
    std::uint64_t device_memory_bytes = 0;

    /** PCI-e timing model flavour. */
    PcieModelKind pcie_model = PcieModelKind::interpolated;

    /** Far-fault service latency (measured: 45us on a GTX 1080ti). */
    Tick fault_latency = microseconds(45);

    /** Faulting pages serviced per latency window (1 = strict serial). */
    std::uint32_t fault_batch_size = 1;

    /** Relative jitter on the fault latency (0 = deterministic 45us). */
    double fault_latency_jitter = 0.0;

    /** Block policies write whole units back (paper Sec. 5.1); false
     *  ablates to dirty-page-only write-back. */
    bool whole_unit_writeback = true;

    /**
     * Issue a cudaMemPrefetchAsync-style user-directed prefetch of the
     * entire managed footprint before the first kernel launch (paper
     * Sec. 3's programmer-driven alternative to hardware prefetch).
     */
    bool user_prefetch_footprint = false;

    /** Page-walk latency in core cycles (Table 2: 100). */
    std::uint32_t page_walk_cycles = 100;

    /** Concurrent page-table walkers (0 = unlimited). */
    std::uint32_t page_walkers = 8;

    /** Far-fault MSHR capacity in distinct pages (0 = unlimited). */
    std::uint32_t mshr_entries = 0;

    /**
     * Number of tenants sharing the device.  Each tenant gets its own
     * ManagedSpace (VA-partitioned at a 32GB stride, see
     * core/tenant.hh) and an independent kernel stream; 1 reproduces
     * the single-tenant model exactly, bit for bit.
     */
    std::uint32_t tenants = 1;

    /** Cross-tenant victim arbitration (see core/tenant.hh). */
    TenantEvictionKind tenant_eviction = TenantEvictionKind::globalLru;

    /**
     * Launch tenant kernel streams one kernel at a time, round-robin
     * across tenants, instead of concurrently (MPS-style).  Serialized
     * streams keep the functional oracle exact; concurrent launches
     * are the realistic sharing model.  Ignored with one tenant.
     */
    bool serialize_kernel_streams = false;

    /** Seed for all policy randomness. */
    std::uint64_t seed = 1;

    /**
     * Enable the SimAuditor: cross-subsystem residency invariants are
     * re-verified after every fault service, migration arrival and
     * eviction drain, and the run dies with a structured state diff on
     * the first violation (see core/auditor.hh).  Costs O(resident
     * pages) per check; intended for debugging and CI, not timing
     * runs.  Builds configured with -DUVMSIM_AUDIT=ON force this on.
     */
    bool audit = false;

    /**
     * Event-tracing specification: "all" or a comma-separated subset
     * of fault,prefetch,migration,eviction,pcie,kernel (see
     * sim/trace.hh).  Empty (the default) disables tracing entirely;
     * every emission site then reduces to one branch on a null
     * pointer.
     */
    std::string trace_spec;

    /**
     * Base path for trace artifacts: the run writes
     * <trace_out>.trace.json (Chrome trace_event JSON for
     * chrome://tracing / Perfetto) and <trace_out>.epochs.csv (the
     * epoch time-series).  Empty with a non-empty trace_spec keeps
     * tracing in memory only (custom sinks attached via
     * Simulator::addTraceSink still see every event).
     */
    std::string trace_out;

    /**
     * Epoch length of the time-series aggregation, in ticks
     * (1 tick = 1 ps; default 100us).  See analysis/timeline.hh.
     */
    Tick epoch_ticks = microseconds(100);
};

/** Everything a run produced. */
struct RunResult
{
    /** Workload name. */
    std::string workload;

    /** Accumulated kernel execution time (the paper's metric). */
    Tick kernel_time = 0;

    /** End-of-simulation time. */
    Tick final_time = 0;

    /** Device memory the run used, in bytes. */
    std::uint64_t device_memory_bytes = 0;

    /** Managed footprint (padded), in bytes. */
    std::uint64_t footprint_bytes = 0;

    /** Every registered statistic by name. */
    std::map<std::string, double> stats;

    /** Kernel time in microseconds. */
    double kernelTimeUs() const { return ticksToMicroseconds(kernel_time); }

    /** Kernel time in milliseconds. */
    double kernelTimeMs() const { return ticksToMilliseconds(kernel_time); }

    /** Look up a stat; fatal() when the name is unknown. */
    double stat(const std::string &name) const;

    /** Convenience: far-faults serviced (Fig. 5). */
    double farFaults() const { return stat("gmmu.far_faults"); }

    /** Convenience: 4KB pages migrated host-to-device (Fig. 7). */
    double pagesMigrated() const { return stat("gmmu.pages_migrated"); }

    /** Convenience: 4KB pages evicted (Fig. 10). */
    double pagesEvicted() const { return stat("gmmu.pages_evicted"); }

    /** Convenience: thrashed pages (Fig. 16). */
    double pagesThrashed() const { return stat("gmmu.pages_thrashed"); }

    /** Convenience: average PCI-e read bandwidth in GB/s (Fig. 4). */
    double
    avgReadBandwidthGBps() const
    {
        return stat("pcie.h2d.avg_bandwidth_gbps");
    }
};

/**
 * End-of-run system state, captured after the event queue drains and
 * before the system is torn down.  This is the surface the
 * differential fuzz harness (src/testing/) diffs against its
 * FunctionalOracle: the exact resident set in LRU order, every tree's
 * to-be-valid size, and the memory-pressure flags.
 */
struct SystemSnapshot
{
    /** Resident pages, coldest (next victim candidate) first. */
    std::vector<PageNum> resident_cold_to_hot;

    /** Every allocation's trees in address order. */
    std::vector<TreeValidSize> trees;

    /** Whether the run ever hit the oversubscription latch. */
    bool oversubscribed = false;

    std::uint64_t total_frames = 0;
    std::uint64_t free_frames = 0;
};

/** Builds and runs complete simulations. */
class Simulator
{
  public:
    /** Per-kernel boundary observer: (index, name, start, end). */
    using KernelObserver = std::function<void(
        std::uint64_t, const std::string &, Tick, Tick)>;

    /** End-of-run state observer (see SystemSnapshot). */
    using SnapshotObserver = std::function<void(const SystemSnapshot &)>;

    explicit Simulator(SimConfig config = SimConfig{});

    /** The configuration this simulator applies to each run. */
    const SimConfig &config() const { return config_; }

    /** Observe every completed page access (Fig. 12 traces). */
    void setAccessObserver(Gmmu::AccessObserver observer);

    /** Observe kernel launch boundaries. */
    void setKernelObserver(KernelObserver observer);

    /** Observe the end-of-run state of every subsequent run(). */
    void setSnapshotObserver(SnapshotObserver observer);

    /**
     * Attach an extra trace sink (e.g. a test capture or an in-memory
     * EpochTimeline).  Only consulted when config().trace_spec selects
     * at least one category; the sink must outlive every run().
     */
    void addTraceSink(trace::TraceSink *sink);

    /**
     * Run a workload to completion on a freshly built system.
     * The workload must be freshly constructed (kernel streams are
     * consumed).  Requires config().tenants == 1.
     */
    RunResult run(Workload &workload);

    /**
     * Run one workload per tenant to completion on a freshly built
     * system.  `workloads` must hold exactly config().tenants entries,
     * each freshly constructed; tenant t's allocations land in its own
     * VA-partitioned ManagedSpace and its kernels launch concurrently
     * with the other tenants' (or round-robin serialized when
     * config().serialize_kernel_streams is set).
     */
    RunResult run(const std::vector<Workload *> &workloads);

  private:
    SimConfig config_;
    Gmmu::AccessObserver access_observer_;
    KernelObserver kernel_observer_;
    SnapshotObserver snapshot_observer_;
    std::vector<trace::TraceSink *> extra_sinks_;
};

/**
 * One-call convenience used by the bench and test code: build the
 * named workload and run it under the given config.
 */
RunResult runBenchmark(const std::string &workload_name,
                       const SimConfig &config,
                       const WorkloadParams &params = WorkloadParams{});

/**
 * Wire an AccessPatternAnalyzer into a simulator: every completed
 * page access feeds recordAccess() and every kernel completion feeds
 * kernelBoundary().  Replaces any previously set observers.
 */
void attachAnalyzer(Simulator &sim, AccessPatternAnalyzer &analyzer);

/** Mean/min/max of a metric across seed-varied runs. */
struct SeedSweepResult
{
    std::size_t runs = 0;
    double mean_kernel_time_us = 0.0;
    double min_kernel_time_us = 0.0;
    double max_kernel_time_us = 0.0;
    /** Per-stat means across the runs. */
    std::map<std::string, double> mean_stats;
};

/**
 * Run a benchmark under `num_seeds` different policy seeds (base
 * seed, base+1, ...) and aggregate.  Deterministic policies produce
 * identical runs; the stochastic ones (Rp, Re, latency jitter) get a
 * fair average -- use this when comparing against them.
 *
 * `jobs` sets how many seeds run concurrently on a RunExecutor pool
 * (see api/run_executor.hh): 1 keeps everything on the calling
 * thread, 0 uses the hardware concurrency.  The aggregate is
 * bit-identical for every `jobs` value -- each seed builds its own
 * system and the sums are accumulated in seed order.
 */
SeedSweepResult runBenchmarkSeeds(const std::string &workload_name,
                                  const SimConfig &config,
                                  const WorkloadParams &params,
                                  std::size_t num_seeds,
                                  std::size_t jobs = 1);

} // namespace uvmsim
