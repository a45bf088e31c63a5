#include "sm.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace uvmsim
{

Sm::Sm(std::uint32_t id, const GpuConfig &config, EventQueue &eq,
       Gmmu &gmmu, L2Cache &l2, DramModel &dram, BlockDoneFn block_done)
    : id_(id),
      config_(config),
      eq_(eq),
      gmmu_(gmmu),
      l2_(l2),
      dram_(dram),
      block_done_(std::move(block_done)),
      tlb_("sm" + std::to_string(id) + ".tlb", config.tlb_entries),
      core_period_(config.corePeriod()),
      l1_hit_latency_(config.l1_hit_cycles * config.corePeriod()),
      l2_hit_latency_(config.l2_hit_cycles * config.corePeriod()),
      line_shift_(static_cast<std::uint32_t>(
          std::bit_width(config.l2_line_bytes) - 1)),
      warps_retired_("sm" + std::to_string(id) + ".warps_retired",
                     "warps that completed their trace"),
      ops_executed_("sm" + std::to_string(id) + ".ops_executed",
                    "warp ops executed"),
      accesses_issued_("sm" + std::to_string(id) + ".accesses_issued",
                       "coalesced memory accesses issued")
{
    if (config.l1_bytes > 0) {
        l1_ = std::make_unique<L2Cache>(
            config.l1_bytes, config.l1_assoc, config.l2_line_bytes,
            "sm" + std::to_string(id) + ".l1");
    }
}

bool
Sm::canAccept(std::uint32_t warps) const
{
    return blocks_.size() < config_.max_tbs_per_sm &&
           live_warps_ + warps <= config_.max_warps_per_sm;
}

void
Sm::acceptBlock(std::unique_ptr<ThreadBlock> block,
                std::uint64_t first_warp_id)
{
    if (!canAccept(static_cast<std::uint32_t>(block->warps.size())))
        panic("SM %u accepted a block it cannot host", id_);
    if (block->warps.empty())
        panic("thread block %llu has no warps",
              static_cast<unsigned long long>(block->id));

    blocks_.push_back(BlockCtx{
        block->id, block->launch_seq,
        static_cast<std::uint32_t>(block->warps.size())});
    BlockCtx *ctx = &blocks_.back();

    std::uint64_t warp_id = first_warp_id;
    for (auto &trace : block->warps) {
        warps_.push_back(WarpCtx{warp_id++, std::move(trace), ctx,
                                 WarpOp{}, 0, false});
        ++live_warps_;
        stepWarp(&warps_.back());
    }
}

void
Sm::stepWarp(WarpCtx *warp)
{
    if (!warp->trace->next(warp->op)) {
        retireWarp(warp);
        return;
    }
    ++ops_executed_;

    Cycles cycles = warp->op.compute_cycles;
    if (cycles == 0 && warp->op.accesses.empty())
        cycles = 1; // guarantee forward progress through empty ops

    Tick ready = eq_.curTick() + cycles * core_period_;

    // Memory ops contend for the SM's issue ports: at most
    // issue_ports_per_sm warp ops begin per core cycle.
    if (!warp->op.accesses.empty() && config_.issue_ports_per_sm > 0) {
        Tick slot_interval =
            core_period_ / config_.issue_ports_per_sm;
        if (slot_interval == 0)
            slot_interval = 1;
        Tick slot = std::max(ready, next_issue_free_);
        next_issue_free_ = slot + slot_interval;
        ready = slot;
    }

    if (ready == eq_.curTick()) {
        issueOp(warp);
    } else {
        eq_.scheduleCall(ready, &Sm::issueOpThunk, this,
                         reinterpret_cast<std::uint64_t>(warp));
    }
}

void
Sm::issueOpThunk(void *sm, std::uint64_t warp)
{
    static_cast<Sm *>(sm)->issueOp(reinterpret_cast<WarpCtx *>(warp));
}

void
Sm::accessDoneThunk(void *sm, std::uint64_t warp)
{
    static_cast<Sm *>(sm)->accessDone(
        reinterpret_cast<WarpCtx *>(warp));
}

std::uint32_t
Sm::allocPending(const MemAccess &access, WarpCtx *warp)
{
    std::uint32_t slot;
    if (pending_free_ != ~std::uint32_t{0}) {
        slot = pending_free_;
        pending_free_ = pending_[slot].next;
    } else {
        pending_.emplace_back();
        slot = static_cast<std::uint32_t>(pending_.size() - 1);
    }
    pending_[slot].access = access;
    pending_[slot].warp = warp;
    return slot;
}

void
Sm::issueOp(WarpCtx *warp)
{
    if (warp->op.accesses.empty()) {
        stepWarp(warp);
        return;
    }
    warp->outstanding =
        static_cast<std::uint32_t>(warp->op.accesses.size());
    // Issue in place: every completion arrives through an event
    // (memoryStage and Gmmu::translate always schedule), so warp->op
    // cannot advance during this loop.
    for (const TraceAccess &access : warp->op.accesses)
        performAccess(warp, access);
}

void
Sm::performAccess(WarpCtx *warp, const TraceAccess &access)
{
    ++accesses_issued_;
    if (pageOf(access.addr) != pageOf(access.addr + access.size - 1))
        panic("coalesced access spans pages (addr %llx size %u)",
              static_cast<unsigned long long>(access.addr), access.size);

    MemAccess m;
    m.addr = access.addr;
    m.size = access.size;
    m.is_write = access.is_write;
    m.sm_id = id_;
    m.warp_id = warp->id;

    PageNum page = pageOf(m.addr);
    if (tlb_.lookup(page)) {
        gmmu_.recordAccess(m);
        memoryStage(m, warp);
    } else {
        std::uint32_t slot = allocPending(m, warp);
        gmmu_.translate(m, [this, slot]() {
            // Copy out before freeing: memoryStage may grow pending_.
            MemAccess done = pending_[slot].access;
            WarpCtx *w = pending_[slot].warp;
            pending_[slot].next = pending_free_;
            pending_free_ = slot;
            tlb_.insert(pageOf(done.addr));
            memoryStage(done, w);
        });
    }
}

void
Sm::memoryStage(const MemAccess &access, WarpCtx *warp)
{
    // Touch every line the access covers; the completion time is the
    // slowest line's.  Reads probe the write-through L1 first; writes
    // go straight to the L2 (no-write-allocate L1, GPU style).  Each
    // cache takes the run in one pass (up to 64 lines at a time): the
    // L1 and the L2 are separate structures that still see their
    // lines in order, the L1-miss mask carries "L2 only on an L1
    // miss", and the L2 misses go to DRAM as one back-to-back charge
    // whose last fill is the latest, since fills are monotone.
    const Tick now = eq_.curTick();
    const Addr last_line = (access.addr + access.size - 1) >> line_shift_;
    Tick completion = now + l1_hit_latency_;
    for (Addr line = access.addr >> line_shift_; line <= last_line;
         line += 64) {
        auto n = static_cast<std::uint32_t>(
            std::min<Addr>(64, last_line - line + 1));
        std::uint64_t to_l2 =
            n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        if (l1_ && !access.is_write)
            to_l2 &= ~l1_->accessLines(line, n, to_l2, false);
        if (to_l2 == 0)
            continue; // all L1 hits: the base latency covers them
        std::uint64_t hit = l2_.accessLines(line, n, to_l2, access.is_write);
        if (hit != 0)
            completion = std::max(completion, now + l2_hit_latency_);
        if (std::uint64_t miss = to_l2 & ~hit; miss != 0) {
            Tick fill = dram_.access(
                config_.l2_line_bytes,
                static_cast<std::uint32_t>(std::popcount(miss)));
            completion = std::max(completion, fill + l2_hit_latency_);
        }
    }
    eq_.scheduleCall(completion, &Sm::accessDoneThunk, this,
                     reinterpret_cast<std::uint64_t>(warp));
}

void
Sm::accessDone(WarpCtx *warp)
{
    if (warp->outstanding == 0)
        panic("access completion with none outstanding (warp %llu)",
              static_cast<unsigned long long>(warp->id));
    if (--warp->outstanding == 0)
        stepWarp(warp);
}

void
Sm::retireWarp(WarpCtx *warp)
{
    if (warp->retired)
        panic("double retire of warp %llu",
              static_cast<unsigned long long>(warp->id));
    warp->retired = true;
    ++warps_retired_;
    --live_warps_;

    BlockCtx *block = warp->block;
    if (--block->live_warps == 0) {
        // Reap the block and its warp contexts.  Reap by identity:
        // block ids are only unique within one kernel, and concurrent
        // launches can have same-id blocks resident on one SM.
        std::uint64_t launch_seq = block->launch_seq;
        warps_.remove_if([block](const WarpCtx &w) {
            return w.block == block && w.retired;
        });
        blocks_.remove_if(
            [block](const BlockCtx &b) { return &b == block; });
        block_done_(launch_seq);
    }
}

void
Sm::registerStats(stats::StatRegistry &registry)
{
    registry.add(&warps_retired_);
    registry.add(&ops_executed_);
    registry.add(&accesses_issued_);
    tlb_.registerStats(registry);
    if (l1_)
        l1_->registerStats(registry);
}

} // namespace uvmsim
