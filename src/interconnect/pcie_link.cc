#include "pcie_link.hh"

#include <algorithm>

#include "mem/types.hh"
#include "sim/logging.hh"

namespace uvmsim
{

PcieLink::PcieLink(EventQueue &eq, PcieBandwidthModel model)
    : eq_(eq),
      model_(std::move(model)),
      h2d_transfers_("pcie.h2d.transfers",
                     "host-to-device transfers scheduled"),
      h2d_bytes_("pcie.h2d.bytes", "bytes migrated host-to-device"),
      d2h_transfers_("pcie.d2h.transfers",
                     "device-to-host write-back transfers scheduled"),
      d2h_bytes_("pcie.d2h.bytes", "bytes written back device-to-host"),
      // Buckets of 64KB from 0..2MB cover every legal transfer size
      // (the 2MB top edge inclusively, see Histogram::sample).
      h2d_size_hist_("pcie.h2d.transfer_size", "h2d transfer sizes (bytes)",
                     0.0, static_cast<double>(basicBlockSize), 32),
      d2h_size_hist_("pcie.d2h.transfer_size",
                     "d2h write-back transfer sizes (bytes)", 0.0,
                     static_cast<double>(basicBlockSize), 32),
      h2d_avg_bw_("pcie.h2d.avg_bandwidth_gbps",
                  "average achieved read bandwidth while busy (GB/s)",
                  [this] { return averageBandwidthGBps(PcieDir::hostToDevice); }),
      d2h_avg_bw_("pcie.d2h.avg_bandwidth_gbps",
                  "average achieved write bandwidth while busy (GB/s)",
                  [this] { return averageBandwidthGBps(PcieDir::deviceToHost); })
{
}

PcieLink::Channel &
PcieLink::channel(PcieDir dir)
{
    return dir == PcieDir::hostToDevice ? h2d_ : d2h_;
}

const PcieLink::Channel &
PcieLink::channel(PcieDir dir) const
{
    return dir == PcieDir::hostToDevice ? h2d_ : d2h_;
}

Tick
PcieLink::transfer(PcieDir dir, std::uint64_t bytes, Callback cb)
{
    if (bytes == 0)
        panic("zero-byte PCI-e transfer requested");

    Channel &ch = channel(dir);
    const Tick now = eq_.curTick();
    const Tick start = std::max(now, ch.free_at);
    const Tick latency = model_.transferLatency(bytes);
    const Tick done = start + latency;

    if (tracer_) {
        // The full occupancy is known up front; one complete event
        // carries it, with the queue depth this transfer found.
        const bool h2d = dir == PcieDir::hostToDevice;
        tracer_->record(trace::Event{
            trace::Kind::pcieTransfer, trace::Category::pcie,
            h2d ? "pcie.h2d" : "pcie.d2h", start, latency,
            bytes / pageSize, bytes, ch.in_flight.size(), h2d ? 0u : 1u});
    }

    ch.free_at = done;
    ch.bytes += bytes;
    ch.transfers += 1;
    ch.busy += latency;
    ch.in_flight.push_back(std::move(cb));

    if (dir == PcieDir::hostToDevice) {
        ++h2d_transfers_;
        h2d_bytes_ += bytes;
        h2d_size_hist_.sample(static_cast<double>(bytes));
    } else {
        ++d2h_transfers_;
        d2h_bytes_ += bytes;
        d2h_size_hist_.sample(static_cast<double>(bytes));
    }

    eq_.scheduleCall(done, &PcieLink::arriveThunk, this,
                     static_cast<std::uint64_t>(dir));
    return done;
}

void
PcieLink::arriveThunk(void *link, std::uint64_t dir)
{
    // Pop before running: the callback may start a transfer on this
    // channel.
    Channel &ch = static_cast<PcieLink *>(link)->channel(
        static_cast<PcieDir>(dir));
    Callback cb = std::move(ch.in_flight.front());
    ch.in_flight.pop_front();
    if (cb)
        cb();
}

Tick
PcieLink::channelFreeAt(PcieDir dir) const
{
    return channel(dir).free_at;
}

std::uint64_t
PcieLink::bytesTransferred(PcieDir dir) const
{
    return channel(dir).bytes;
}

std::uint64_t
PcieLink::transferCount(PcieDir dir) const
{
    return channel(dir).transfers;
}

std::uint64_t
PcieLink::outstandingTransfers(PcieDir dir) const
{
    return channel(dir).in_flight.size();
}

Tick
PcieLink::busyTicks(PcieDir dir) const
{
    return channel(dir).busy;
}

double
PcieLink::averageBandwidthGBps(PcieDir dir) const
{
    const Channel &ch = channel(dir);
    if (ch.busy == 0)
        return 0.0;
    double seconds = ticksToSeconds(ch.busy);
    return static_cast<double>(ch.bytes) / seconds / 1e9;
}

void
PcieLink::registerStats(stats::StatRegistry &registry)
{
    registry.add(&h2d_transfers_);
    registry.add(&h2d_bytes_);
    registry.add(&d2h_transfers_);
    registry.add(&d2h_bytes_);
    registry.add(&h2d_size_hist_);
    registry.add(&d2h_size_hist_);
    registry.add(&h2d_avg_bw_);
    registry.add(&d2h_avg_bw_);
}

} // namespace uvmsim
