/**
 * @file
 * The whole GPU: SMs, L2, DRAM, the thread-block dispatcher, and the
 * kernel-launch interface.
 *
 * Up to `max_concurrent_kernels` launches may be resident at once
 * (MPS-style sharing for multi-tenant runs).  The dispatcher
 * round-robins across the live launches, pulling thread blocks from
 * each stream into any SM with room and re-filling as blocks drain.
 * With the default limit of 1 this degenerates to the paper's
 * one-kernel-at-a-time model (the benchmarks synchronize between
 * launches, as the paper's iterative workloads do).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/gmmu.hh"
#include "gpu/dram.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel.hh"
#include "gpu/l2_cache.hh"
#include "gpu/sm.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace uvmsim
{

/** The device: execution resources plus their shared memory side. */
class Gpu
{
  public:
    Gpu(EventQueue &eq, const GpuConfig &config, Gmmu &gmmu);

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /**
     * Launch a kernel.  At most `max_concurrent_kernels` may be in
     * flight; `on_done` fires when every thread block of this launch
     * has completed.
     */
    void launch(Kernel &kernel, std::function<void()> on_done);

    /** Whether any kernel is currently executing. */
    bool busy() const { return !launches_.empty(); }

    /** Number of launches currently in flight. */
    std::size_t launchesInFlight() const { return launches_.size(); }

    /**
     * Page shootdown hook for the GMMU: drops the page's translations
     * from every SM TLB and its lines from the L2.
     */
    void invalidatePage(PageNum page);

    /**
     * Accumulated kernel execution time (the paper's main metric).
     * Each launch contributes its own launch-to-completion interval,
     * so concurrent launches overlap and the sum can exceed wall
     * clock.
     */
    Tick totalKernelTime() const { return total_kernel_ticks_; }

    /** Number of kernels completed. */
    std::uint64_t kernelsCompleted() const { return kernels_.count(); }

    /** The shared L2 (exposed for tests). */
    L2Cache &l2() { return l2_; }

    /** The DRAM channel (exposed for tests). */
    DramModel &dram() { return dram_; }

    /** The configuration in use. */
    const GpuConfig &config() const { return config_; }

    /** Register this component's (and its children's) statistics. */
    void registerStats(stats::StatRegistry &registry);

  private:
    /** One in-flight kernel launch. */
    struct Launch
    {
        Kernel *kernel = nullptr;
        /** Dispatch tag; ties retired blocks back to their launch. */
        std::uint64_t seq = 0;
        /** Block parked when no SM had room on the previous round. */
        std::unique_ptr<ThreadBlock> pending;
        bool exhausted = false;
        /** Whether the launch overhead has elapsed. */
        bool started = false;
        /** Blocks dispatched to SMs and not yet retired. */
        std::uint64_t live_blocks = 0;
        std::function<void()> on_done;
        Tick start = 0;
    };

    /** POD event thunk: the launch overhead of launch `seq` elapsed. */
    static void launchStartThunk(void *gpu, std::uint64_t seq);

    /** Fill SMs from the live launches' block streams. */
    void dispatch();

    /** A block finished somewhere; refill and check for completion. */
    void onBlockDone(std::uint64_t launch_seq);

    /** Finish a launch when its stream drained and blocks retired. */
    void checkLaunchDone(std::uint64_t launch_seq);

    /** The in-flight launch with the given tag, or nullptr. */
    Launch *findLaunch(std::uint64_t launch_seq);

    EventQueue &eq_;
    GpuConfig config_;
    Gmmu &gmmu_;

    L2Cache l2_;
    DramModel dram_;
    std::vector<std::unique_ptr<Sm>> sms_;

    std::vector<std::unique_ptr<Launch>> launches_;
    std::uint64_t next_launch_seq_ = 0;
    /** Round-robin cursor over launches_ (clamped after erases). */
    std::size_t launch_rr_ = 0;
    Tick total_kernel_ticks_ = 0;
    std::uint64_t next_warp_id_ = 0;
    std::uint32_t rr_cursor_ = 0;

    stats::Counter kernels_;
    stats::Counter blocks_dispatched_;
    stats::Formula kernel_time_us_;
};

} // namespace uvmsim
