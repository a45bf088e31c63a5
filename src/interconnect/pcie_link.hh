/**
 * @file
 * The CPU-GPU PCI-e interconnect.
 *
 * PCI-e is full duplex: the host-to-device (read/migration) channel and
 * the device-to-host (write-back) channel operate independently, but
 * transfers within one channel serialize.  Transfer timing comes from
 * the size-dependent PcieBandwidthModel, so larger grouped transfers
 * amortize activation overhead exactly as the paper's Table 1 shows.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "interconnect/bandwidth_model.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace uvmsim
{

/** Transfer direction over the link. */
enum class PcieDir
{
    hostToDevice, //!< Page migration into device memory ("read").
    deviceToHost, //!< Eviction write-back to host memory ("write").
};

/** Full-duplex, per-channel-serializing PCI-e link model. */
class PcieLink
{
  public:
    /** Invoked when a transfer's last byte has arrived. */
    using Callback = std::function<void()>;

    /**
     * @param eq    The simulation event queue.
     * @param model Transfer timing model (copied).
     */
    PcieLink(EventQueue &eq, PcieBandwidthModel model);

    /**
     * Enqueue one transfer.
     *
     * The transfer starts when the channel frees up and occupies it for
     * the model latency of its size.  The callback fires at completion.
     *
     * @return The absolute completion tick.
     */
    Tick transfer(PcieDir dir, std::uint64_t bytes, Callback cb);

    /** Tick at which the given channel becomes idle. */
    Tick channelFreeAt(PcieDir dir) const;

    /** Bytes moved so far in a direction. */
    std::uint64_t bytesTransferred(PcieDir dir) const;

    /** Transfers completed-or-scheduled so far in a direction. */
    std::uint64_t transferCount(PcieDir dir) const;

    /** Ticks the channel has been (or is committed to be) busy. */
    Tick busyTicks(PcieDir dir) const;

    /**
     * Average achieved bandwidth while the channel was busy, in GB/s.
     * This is the quantity plotted in the paper's Figure 4.
     */
    double averageBandwidthGBps(PcieDir dir) const;

    /** The timing model in use. */
    const PcieBandwidthModel &model() const { return model_; }

    /** Transfers scheduled on a channel but not yet completed. */
    std::uint64_t outstandingTransfers(PcieDir dir) const;

    /** Register this component's statistics. */
    void registerStats(stats::StatRegistry &registry);

    /** Attach an event tracer (nullptr = tracing off, the default). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

  private:
    struct Channel
    {
        Tick free_at = 0;
        std::uint64_t bytes = 0;
        std::uint64_t transfers = 0;
        Tick busy = 0;
        /**
         * Completion callbacks of transfers scheduled but not yet
         * landed, oldest first; the channel serializes its transfers,
         * so they land in this order.
         */
        std::deque<Callback> in_flight;
    };

    Channel &channel(PcieDir dir);
    const Channel &channel(PcieDir dir) const;

    /** POD event thunk: the oldest transfer on channel `dir` landed. */
    static void arriveThunk(void *link, std::uint64_t dir);

    EventQueue &eq_;
    PcieBandwidthModel model_;
    Channel h2d_;
    Channel d2h_;

    trace::Tracer *tracer_ = nullptr;

    stats::Counter h2d_transfers_;
    stats::Counter h2d_bytes_;
    stats::Counter d2h_transfers_;
    stats::Counter d2h_bytes_;
    stats::Histogram h2d_size_hist_;
    stats::Histogram d2h_size_hist_;
    stats::Formula h2d_avg_bw_;
    stats::Formula d2h_avg_bw_;
};

} // namespace uvmsim
