#include "gpu.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace uvmsim
{

Gpu::Gpu(EventQueue &eq, const GpuConfig &config, Gmmu &gmmu)
    : eq_(eq),
      config_(config),
      gmmu_(gmmu),
      l2_(config.l2_bytes, config.l2_assoc, config.l2_line_bytes),
      dram_(eq, nanoseconds(config.dram_latency_ns),
            config.dram_bandwidth_gbps),
      kernels_("gpu.kernels", "kernels completed"),
      blocks_dispatched_("gpu.blocks_dispatched",
                         "thread blocks dispatched to SMs"),
      kernel_time_us_("gpu.kernel_time_us",
                      "accumulated kernel execution time (us)",
                      [this] {
                          return ticksToMicroseconds(total_kernel_ticks_);
                      })
{
    if (config_.num_sms == 0)
        fatal("GPU needs at least one SM");
    if (config_.max_concurrent_kernels == 0)
        fatal("GPU needs max_concurrent_kernels >= 1");
    sms_.reserve(config_.num_sms);
    for (std::uint32_t i = 0; i < config_.num_sms; ++i) {
        sms_.push_back(std::make_unique<Sm>(
            i, config_, eq_, gmmu_, l2_, dram_,
            [this](std::uint64_t seq) { onBlockDone(seq); }));
    }
    gmmu_.setTlbShootdown([this](PageNum page) { invalidatePage(page); });
}

Gpu::Launch *
Gpu::findLaunch(std::uint64_t launch_seq)
{
    for (auto &launch : launches_) {
        if (launch->seq == launch_seq)
            return launch.get();
    }
    return nullptr;
}

void
Gpu::launch(Kernel &kernel, std::function<void()> on_done)
{
    if (launches_.size() >= config_.max_concurrent_kernels)
        panic("kernel '%s' launched while %zu of %u launch slots are "
              "busy", kernel.name().c_str(), launches_.size(),
              config_.max_concurrent_kernels);

    DTRACE("GPU", "launching kernel '%s'", kernel.name().c_str());
    auto launch = std::make_unique<Launch>();
    launch->kernel = &kernel;
    launch->seq = next_launch_seq_++;
    launch->on_done = std::move(on_done);
    launch->start = eq_.curTick();
    std::uint64_t seq = launch->seq;
    launches_.push_back(std::move(launch));

    eq_.scheduleCallAfter(config_.kernel_launch_overhead,
                          &Gpu::launchStartThunk, this, seq);
}

void
Gpu::launchStartThunk(void *gpu, std::uint64_t seq)
{
    auto *self = static_cast<Gpu *>(gpu);
    if (Launch *ln = self->findLaunch(seq))
        ln->started = true;
    self->dispatch();
    self->checkLaunchDone(seq);
}

void
Gpu::dispatch()
{
    if (launches_.empty())
        return;

    // Round-robin over the live launches so concurrent tenants share
    // SM capacity fairly.  Stop once a full pass over the launches
    // placed nothing (`stalled` counts consecutive launches with no
    // dispatchable block) or the SMs fill up.
    std::size_t stalled = 0;
    while (stalled < launches_.size()) {
        if (launch_rr_ >= launches_.size())
            launch_rr_ = 0;
        Launch &ln = *launches_[launch_rr_];

        if (!ln.started) {
            ++launch_rr_;
            ++stalled;
            continue;
        }

        // Pull the next block (or use the one parked when no SM had
        // room on the previous round).
        if (!ln.pending && !ln.exhausted) {
            ln.pending = ln.kernel->nextThreadBlock();
            if (!ln.pending)
                ln.exhausted = true;
        }
        if (!ln.pending) {
            ++launch_rr_;
            ++stalled;
            continue;
        }

        auto warps = static_cast<std::uint32_t>(ln.pending->warps.size());
        if (warps > config_.max_warps_per_sm)
            fatal("thread block with %u warps exceeds the %u-warp SM "
                  "limit", warps, config_.max_warps_per_sm);

        // Round-robin placement so blocks spread across SMs.
        Sm *target = nullptr;
        for (std::uint32_t i = 0; i < config_.num_sms; ++i) {
            Sm &sm = *sms_[(rr_cursor_ + i) % config_.num_sms];
            if (sm.canAccept(warps)) {
                target = &sm;
                rr_cursor_ = (sm.id() + 1) % config_.num_sms;
                break;
            }
        }
        if (!target)
            return; // everything full; a draining block re-dispatches

        ln.pending->launch_seq = ln.seq;
        std::uint64_t first_id = next_warp_id_;
        next_warp_id_ += warps;
        ++blocks_dispatched_;
        ++ln.live_blocks;
        target->acceptBlock(std::move(ln.pending), first_id);
        ++launch_rr_;
        stalled = 0;
    }
}

void
Gpu::checkLaunchDone(std::uint64_t launch_seq)
{
    auto it = std::find_if(launches_.begin(), launches_.end(),
                           [launch_seq](const auto &launch) {
                               return launch->seq == launch_seq;
                           });
    if (it == launches_.end())
        return;
    Launch &ln = **it;
    if (!ln.started || !ln.exhausted || ln.pending || ln.live_blocks > 0)
        return;

    DTRACE("GPU", "kernel complete after %.1f us",
           ticksToMicroseconds(eq_.curTick() - ln.start));
    total_kernel_ticks_ += eq_.curTick() - ln.start;
    ++kernels_;
    auto done = std::move(ln.on_done);
    launches_.erase(it);
    if (launch_rr_ >= launches_.size())
        launch_rr_ = 0;
    if (done)
        done();
}

void
Gpu::onBlockDone(std::uint64_t launch_seq)
{
    if (Launch *ln = findLaunch(launch_seq)) {
        if (ln->live_blocks == 0)
            panic("block retired for launch %llu with none in flight",
                  static_cast<unsigned long long>(launch_seq));
        --ln->live_blocks;
    }
    dispatch();
    checkLaunchDone(launch_seq);
}

void
Gpu::invalidatePage(PageNum page)
{
    for (auto &sm : sms_) {
        sm->tlb().invalidate(page);
        if (L2Cache *l1 = sm->l1())
            l1->invalidatePage(page);
    }
    l2_.invalidatePage(page);
}

void
Gpu::registerStats(stats::StatRegistry &registry)
{
    registry.add(&kernels_);
    registry.add(&blocks_dispatched_);
    registry.add(&kernel_time_us_);
    l2_.registerStats(registry);
    dram_.registerStats(registry);
    for (auto &sm : sms_)
        sm->registerStats(registry);
}

} // namespace uvmsim
