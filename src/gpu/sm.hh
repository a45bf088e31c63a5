/**
 * @file
 * Streaming multiprocessor model.
 *
 * Each SM hosts a bounded set of thread blocks and their warps.  A
 * warp is an event-driven state machine over its WarpTrace: it
 * computes for the op's cycle count, then issues the op's coalesced
 * accesses through its SM's TLB into the GMMU/L2/DRAM path, and
 * proceeds to the next op when all accesses complete.  Warps that
 * far-fault simply see their access complete much later -- the rest of
 * the SM's warps keep running, which is exactly the TLP-hides-latency
 * behaviour the paper leans on.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <vector>

#include "core/gmmu.hh"
#include "gpu/dram.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel.hh"
#include "gpu/l2_cache.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"

namespace uvmsim
{

/** One streaming multiprocessor. */
class Sm
{
  public:
    /** Invoked whenever a resident thread block completes, with the
     *  launch_seq of the launch the block belonged to. */
    using BlockDoneFn = std::function<void(std::uint64_t)>;

    Sm(std::uint32_t id, const GpuConfig &config, EventQueue &eq,
       Gmmu &gmmu, L2Cache &l2, DramModel &dram, BlockDoneFn block_done);

    Sm(const Sm &) = delete;
    Sm &operator=(const Sm &) = delete;

    /** SM index. */
    std::uint32_t id() const { return id_; }

    /** Whether a block with `warps` warps fits right now. */
    bool canAccept(std::uint32_t warps) const;

    /** Take ownership of a thread block and start its warps. */
    void acceptBlock(std::unique_ptr<ThreadBlock> block,
                     std::uint64_t first_warp_id);

    /** True when no warps are resident. */
    bool idle() const { return live_warps_ == 0; }

    /** Resident warp count. */
    std::uint32_t residentWarps() const { return live_warps_; }

    /** Resident block count. */
    std::uint32_t residentBlocks() const
    {
        return static_cast<std::uint32_t>(blocks_.size());
    }

    /** This SM's TLB (the GPU uses it for shootdowns). */
    Tlb &tlb() { return tlb_; }

    /** This SM's private L1 data cache (nullptr when disabled). */
    L2Cache *l1() { return l1_ ? l1_.get() : nullptr; }

    /** Register this component's statistics. */
    void registerStats(stats::StatRegistry &registry);

  private:
    struct BlockCtx
    {
        std::uint64_t id;
        std::uint64_t launch_seq;
        std::uint32_t live_warps;
    };

    struct WarpCtx
    {
        std::uint64_t id;
        std::unique_ptr<WarpTrace> trace;
        BlockCtx *block;
        WarpOp op;
        /** Accesses of the op that have not passed memoryStage yet. */
        std::uint32_t outstanding = 0;
        bool retired = false;
        /** The op's latest completion key so far: (tick, reserved seq). */
        Tick done_when = 0;
        std::uint64_t done_seq = 0;
    };

    /** Pull and schedule the warp's next op. */
    void stepWarp(WarpCtx *warp);

    /** Issue the current op's accesses after its compute burst. */
    void issueOp(WarpCtx *warp);

    /** Route one coalesced access through TLB / GMMU / memory. */
    void performAccess(WarpCtx *warp, const TraceAccess &access);

    /**
     * Charge L1/L2/DRAM time for a translated access.  Each access
     * reserves the event seq its own completion would have taken; when
     * the op's last access passes, one event at the latest (tick, seq)
     * wakes the warp -- the place where the op's last per-access
     * completion would have fired.
     */
    void memoryStage(const MemAccess &access, WarpCtx *warp);

    /** POD event thunks (EventQueue fast path; arg = WarpCtx*). */
    static void issueOpThunk(void *sm, std::uint64_t warp);
    static void opDoneThunk(void *sm, std::uint64_t warp);

    /** Translation continuation (arg = pending_ slot). */
    static void walkedThunk(void *sm, std::uint64_t slot);

    /**
     * One TLB-missing access parked in the GMMU, kept in a free-list
     * pool so the translate continuation is the POD (this, slot).
     */
    struct PendingAccess
    {
        MemAccess access;
        WarpCtx *warp = nullptr;
        std::uint32_t next = 0; //!< Free-list link.
    };

    std::uint32_t allocPending(const MemAccess &access, WarpCtx *warp);

    /** The warp's trace is exhausted. */
    void retireWarp(WarpCtx *warp);

    std::uint32_t id_;
    const GpuConfig &config_;
    EventQueue &eq_;
    Gmmu &gmmu_;
    L2Cache &l2_;
    DramModel &dram_;
    BlockDoneFn block_done_;

    Tlb tlb_;
    std::unique_ptr<L2Cache> l1_;
    Tick core_period_;
    Tick l1_hit_latency_;
    Tick l2_hit_latency_;
    std::uint32_t line_shift_; //!< log2(l2_line_bytes), for div-free math.
    /** Next tick with a free issue port (0-width = unthrottled). */
    Tick next_issue_free_ = 0;

    std::list<BlockCtx> blocks_;
    std::list<WarpCtx> warps_;
    std::uint32_t live_warps_ = 0;

    std::vector<PendingAccess> pending_;
    std::uint32_t pending_free_ = ~std::uint32_t{0};

    stats::Counter warps_retired_;
    stats::Counter ops_executed_;
    stats::Counter accesses_issued_;
};

} // namespace uvmsim
