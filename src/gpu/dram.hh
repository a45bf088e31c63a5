/**
 * @file
 * Device DRAM (GDDR5-class) channel model.
 *
 * A single logical channel with fixed access latency plus a bandwidth
 * constraint: each line fill occupies the channel for
 * line_bytes / bandwidth, so sustained miss streams see queueing
 * exactly like a real memory controller's bank/bus serialization --
 * without modeling banks individually (UVM behaviour is insensitive to
 * that level of detail).
 */

#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace uvmsim
{

/** Fixed-latency, bandwidth-limited device memory channel. */
class DramModel
{
  public:
    /**
     * @param eq             Event queue.
     * @param latency        Access latency in ticks.
     * @param bandwidth_gbps Sustained bandwidth (1e9 B/s).
     */
    DramModel(EventQueue &eq, Tick latency, double bandwidth_gbps)
        : eq_(eq),
          latency_(latency),
          accesses_("dram.accesses", "DRAM line transfers"),
          bytes_("dram.bytes", "bytes moved through DRAM")
    {
        if (bandwidth_gbps <= 0.0)
            fatal("DRAM bandwidth must be positive");
        ticks_per_byte_ =
            static_cast<double>(oneSecond) / (bandwidth_gbps * 1e9);
    }

    /**
     * Complete `count` back-to-back line transfers of `bytes` each and
     * report the last one's completion tick: the channel serializes
     * occupancy, then the fixed latency applies.  Equal to `count`
     * single calls, since every transfer after the first starts at
     * busy_until_.
     */
    Tick
    access(std::uint32_t bytes, std::uint32_t count = 1)
    {
        Tick now = eq_.curTick();
        Tick start = std::max(now, busy_until_);
        // Line size is constant in practice; memoize the float math.
        if (bytes != memo_bytes_) {
            memo_bytes_ = bytes;
            memo_occupy_ = static_cast<Tick>(
                ticks_per_byte_ * static_cast<double>(bytes) + 0.5);
        }
        busy_until_ = start + memo_occupy_ * count;
        accesses_ += count;
        bytes_ += static_cast<std::uint64_t>(bytes) * count;
        return busy_until_ + latency_;
    }

    /** Register this component's statistics. */
    void
    registerStats(stats::StatRegistry &registry)
    {
        registry.add(&accesses_);
        registry.add(&bytes_);
    }

  private:
    EventQueue &eq_;
    Tick latency_;
    double ticks_per_byte_;
    Tick busy_until_ = 0;
    std::uint32_t memo_bytes_ = 0;
    Tick memo_occupy_ = 0;

    stats::Counter accesses_;
    stats::Counter bytes_;
};

} // namespace uvmsim
