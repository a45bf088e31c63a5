/**
 * @file
 * Stress tests for the substrate hot paths: heavy event cancellation,
 * analyzer pressure, and PCI-e transfer-size histogram accounting.
 */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "analysis/access_pattern.hh"
#include "closure_events.hh"
#include "interconnect/pcie_link.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace uvmsim
{

TEST(Stress, EventQueueHeavyCancellation)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    Rng rng(3);
    std::vector<EventQueue::EventId> ids;
    int fired = 0;

    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 200; ++i) {
            ids.push_back(
                ev.after(1 + rng.below(10000), [&] { ++fired; }));
        }
        // Cancel a random half.
        int cancelled = 0;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (rng.chance(0.5) && eq.deschedule(ids[i]))
                ++cancelled;
        }
        ids.clear();
        eq.run(eq.curTick() + 5000); // partial drain
    }
    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_GT(fired, 1000);
}

TEST(Stress, EventQueueInterleavedReschedule)
{
    // Events that schedule more events at their own tick, repeatedly.
    EventQueue eq;
    ClosureEvents ev(eq);
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 2000)
            ev.at(eq.curTick(), chain);
    };
    ev.at(1, chain);
    eq.run();
    EXPECT_EQ(depth, 2000);
    EXPECT_EQ(eq.curTick(), 1u);
}

TEST(Stress, AnalyzerHandlesLargeStreams)
{
    AccessPatternAnalyzer a;
    Rng rng(5);
    const std::uint64_t pages = 4096;
    for (int k = 0; k < 4; ++k) {
        for (int i = 0; i < 50000; ++i)
            a.recordAccess(static_cast<Tick>(i), rng.below(pages),
                           rng.chance(0.3));
        a.kernelBoundary(static_cast<std::uint64_t>(k));
    }
    EXPECT_EQ(a.totalAccesses(), 200000u);
    EXPECT_LE(a.uniquePages(), pages);
    EXPECT_GT(a.reuseSamples(), 100000u);
    // Random uniform access: median reuse distance is on the order of
    // the working set (log2 bucket around pages/2..pages).
    EXPECT_GE(a.medianReuseDistance(), pages / 8);
    EXPECT_LE(a.medianReuseDistance(), pages * 2);
    // Random access across kernels overlaps almost fully.
    EXPECT_GT(a.meanInterKernelOverlap(), 0.9);
}

TEST(Stress, PcieHistogramTracksTransferSizes)
{
    EventQueue eq;
    PcieLink link(eq, PcieBandwidthModel{});
    stats::StatRegistry reg;
    link.registerStats(reg);

    link.transfer(PcieDir::hostToDevice, kib(4), nullptr);   // bucket 0
    link.transfer(PcieDir::hostToDevice, kib(64), nullptr);  // bucket 1
    link.transfer(PcieDir::hostToDevice, kib(65), nullptr);  // bucket 1
    link.transfer(PcieDir::hostToDevice, mib(1), nullptr);   // bucket 16

    auto *hist = dynamic_cast<stats::Histogram *>(
        reg.find("pcie.h2d.transfer_size"));
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->samples(), 4u);
    EXPECT_EQ(hist->bucketCount(0), 1u);
    EXPECT_EQ(hist->bucketCount(1), 2u);
    EXPECT_EQ(hist->bucketCount(16), 1u);
    EXPECT_DOUBLE_EQ(hist->maxSample(), static_cast<double>(mib(1)));
}

TEST(Stress, ThousandsOfSmallTransfersStayConsistent)
{
    EventQueue eq;
    PcieLink link(eq, PcieBandwidthModel{});
    int completions = 0;
    for (int i = 0; i < 5000; ++i)
        link.transfer(i % 2 ? PcieDir::hostToDevice
                            : PcieDir::deviceToHost,
                      kib(4), [&] { ++completions; });
    eq.run();
    EXPECT_EQ(completions, 5000);
    EXPECT_EQ(link.bytesTransferred(PcieDir::hostToDevice),
              2500u * kib(4));
    EXPECT_EQ(link.bytesTransferred(PcieDir::deviceToHost),
              2500u * kib(4));
    // Both channels were busy exactly as long as their serial sum.
    EXPECT_EQ(link.busyTicks(PcieDir::hostToDevice),
              2500 * link.model().transferLatency(kib(4)));
}

} // namespace uvmsim
