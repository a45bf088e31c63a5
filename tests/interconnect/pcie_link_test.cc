/** @file Unit tests for the full-duplex PCI-e link. */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "closure_events.hh"
#include "interconnect/pcie_link.hh"
#include "mem/types.hh"

namespace uvmsim
{

namespace
{

struct LinkFixture : public ::testing::Test
{
    EventQueue eq;
    ClosureEvents ev{eq};
    PcieLink link{eq, PcieBandwidthModel{}};
};

} // namespace

TEST_F(LinkFixture, SingleTransferCompletesAtModelLatency)
{
    Tick expect = link.model().transferLatency(kib(64));
    bool done = false;
    Tick completion =
        link.transfer(PcieDir::hostToDevice, kib(64), [&] { done = true; });
    EXPECT_EQ(completion, expect);
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eq.curTick(), expect);
}

TEST_F(LinkFixture, SameChannelSerializes)
{
    Tick lat = link.model().transferLatency(kib(4));
    Tick c1 = link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
    Tick c2 = link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
    EXPECT_EQ(c1, lat);
    EXPECT_EQ(c2, 2 * lat);
}

TEST_F(LinkFixture, OppositeChannelsOverlap)
{
    Tick c1 = link.transfer(PcieDir::hostToDevice, kib(64), nullptr);
    Tick c2 = link.transfer(PcieDir::deviceToHost, kib(64), nullptr);
    EXPECT_EQ(c1, c2); // full duplex: identical start and latency
}

TEST_F(LinkFixture, QueuedTransferStartsWhenChannelFrees)
{
    // Request the second transfer later but while busy.
    link.transfer(PcieDir::hostToDevice, kib(256), nullptr);
    Tick first_done = link.channelFreeAt(PcieDir::hostToDevice);
    ev.at(first_done / 2, [&] {
        Tick c = link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
        EXPECT_EQ(c, first_done + link.model().transferLatency(kib(4)));
    });
    eq.run();
}

TEST_F(LinkFixture, IdleChannelStartsImmediately)
{
    link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
    eq.run();
    Tick now = eq.curTick();
    // Much later request: starts at request time, not at free_at.
    ev.at(now + oneMillisecond, [&] {
        Tick c = link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
        EXPECT_EQ(c, eq.curTick() + link.model().transferLatency(kib(4)));
    });
    eq.run();
}

TEST_F(LinkFixture, AccountingPerDirection)
{
    link.transfer(PcieDir::hostToDevice, kib(64), nullptr);
    link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
    link.transfer(PcieDir::deviceToHost, kib(16), nullptr);
    eq.run();
    EXPECT_EQ(link.bytesTransferred(PcieDir::hostToDevice), kib(68));
    EXPECT_EQ(link.transferCount(PcieDir::hostToDevice), 2u);
    EXPECT_EQ(link.bytesTransferred(PcieDir::deviceToHost), kib(16));
    EXPECT_EQ(link.transferCount(PcieDir::deviceToHost), 1u);
}

TEST_F(LinkFixture, AverageBandwidthMatchesSingleTransferSize)
{
    link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
    eq.run();
    EXPECT_NEAR(link.averageBandwidthGBps(PcieDir::hostToDevice), 3.2219,
                0.01);
}

TEST_F(LinkFixture, AverageBandwidthRisesWithLargerTransfers)
{
    link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
    double small_bw = link.averageBandwidthGBps(PcieDir::hostToDevice);
    link.transfer(PcieDir::hostToDevice, mib(1), nullptr);
    double mixed_bw = link.averageBandwidthGBps(PcieDir::hostToDevice);
    EXPECT_GT(mixed_bw, small_bw);
}

TEST_F(LinkFixture, ZeroByteTransferDies)
{
    EXPECT_DEATH(link.transfer(PcieDir::hostToDevice, 0, nullptr),
                 "zero-byte");
}

TEST_F(LinkFixture, CallbackOrderFollowsCompletionOrder)
{
    std::vector<int> order;
    link.transfer(PcieDir::hostToDevice, kib(64), [&] { order.push_back(1); });
    link.transfer(PcieDir::hostToDevice, kib(4), [&] { order.push_back(2); });
    link.transfer(PcieDir::deviceToHost, kib(4), [&] { order.push_back(3); });
    eq.run();
    // d2h 4KB finishes before the h2d 64KB+4KB chain completes.
    EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST_F(LinkFixture, StatsRegistered)
{
    stats::StatRegistry reg;
    link.registerStats(reg);
    link.transfer(PcieDir::hostToDevice, kib(64), nullptr);
    eq.run();
    EXPECT_DOUBLE_EQ(reg.at("pcie.h2d.transfers").value(), 1.0);
    EXPECT_DOUBLE_EQ(reg.at("pcie.h2d.bytes").value(),
                     static_cast<double>(kib(64)));
    EXPECT_GT(reg.at("pcie.h2d.avg_bandwidth_gbps").value(), 0.0);
}

TEST_F(LinkFixture, WritebackSizesGetTheirOwnHistogram)
{
    // Regression: d2h write-backs used to go unhistogrammed, hiding
    // the eviction-granularity distribution (paper Fig. 10 analysis).
    stats::StatRegistry reg;
    link.registerStats(reg);
    link.transfer(PcieDir::deviceToHost, kib(64), nullptr);
    link.transfer(PcieDir::deviceToHost, kib(4), nullptr);
    link.transfer(PcieDir::hostToDevice, kib(64), nullptr);
    eq.run();

    auto *d2h = dynamic_cast<stats::Histogram *>(
        reg.find("pcie.d2h.transfer_size"));
    ASSERT_NE(d2h, nullptr);
    EXPECT_EQ(d2h->samples(), 2u);
    EXPECT_EQ(d2h->bucketCount(0), 1u); // 4KB
    EXPECT_EQ(d2h->bucketCount(1), 1u); // 64KB at the first seam
    EXPECT_EQ(d2h->overflows(), 0u);

    auto *h2d = dynamic_cast<stats::Histogram *>(
        reg.find("pcie.h2d.transfer_size"));
    ASSERT_NE(h2d, nullptr);
    EXPECT_EQ(h2d->samples(), 1u);
}

TEST_F(LinkFixture, MaxSizeTransferIsNotOverflow)
{
    // A whole 2MB large page is a legal transfer; the histogram's
    // inclusive top edge must count it in the last bucket.
    stats::StatRegistry reg;
    link.registerStats(reg);
    link.transfer(PcieDir::hostToDevice, mib(2), nullptr);
    link.transfer(PcieDir::deviceToHost, mib(2), nullptr);
    eq.run();
    for (const char *name :
         {"pcie.h2d.transfer_size", "pcie.d2h.transfer_size"}) {
        auto *hist = dynamic_cast<stats::Histogram *>(reg.find(name));
        ASSERT_NE(hist, nullptr) << name;
        EXPECT_EQ(hist->overflows(), 0u) << name;
        EXPECT_EQ(hist->bucketCount(hist->numBuckets() - 1), 1u) << name;
    }
}

TEST_F(LinkFixture, OutstandingTransfersTrackQueueDepth)
{
    EXPECT_EQ(link.outstandingTransfers(PcieDir::hostToDevice), 0u);
    link.transfer(PcieDir::hostToDevice, kib(64), nullptr);
    link.transfer(PcieDir::hostToDevice, kib(64), nullptr);
    link.transfer(PcieDir::deviceToHost, kib(4), nullptr);
    EXPECT_EQ(link.outstandingTransfers(PcieDir::hostToDevice), 2u);
    EXPECT_EQ(link.outstandingTransfers(PcieDir::deviceToHost), 1u);
    eq.run();
    EXPECT_EQ(link.outstandingTransfers(PcieDir::hostToDevice), 0u);
    EXPECT_EQ(link.outstandingTransfers(PcieDir::deviceToHost), 0u);
}

TEST_F(LinkFixture, CompletionMayStartTransferOnSameChannel)
{
    // The Gmmu starts new migrations from inside a landed migration's
    // callback (arrival -> pumpFrameQueue -> transfer); the new
    // transfer queues behind the ones already in flight.
    const PcieDir h2d = PcieDir::hostToDevice;
    const Tick lat = link.model().transferLatency(kib(4));
    std::vector<int> order;
    std::vector<Tick> landed_at;
    std::vector<std::uint64_t> depth;
    auto landed = [&](int tag) {
        order.push_back(tag);
        landed_at.push_back(eq.curTick());
        depth.push_back(link.outstandingTransfers(h2d));
    };
    link.transfer(h2d, kib(4), [&] {
        landed(1);
        Tick c = link.transfer(h2d, kib(4), [&] { landed(4); });
        EXPECT_EQ(c, 4 * lat);
        EXPECT_EQ(link.outstandingTransfers(h2d), 3u);
    });
    link.transfer(h2d, kib(4), [&] {
        landed(2);
        link.transfer(h2d, kib(4), [&] { landed(5); });
    });
    link.transfer(h2d, kib(4), [&] { landed(3); });
    EXPECT_EQ(link.outstandingTransfers(h2d), 3u);
    eq.run();

    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(landed_at,
              (std::vector<Tick>{lat, 2 * lat, 3 * lat, 4 * lat, 5 * lat}));
    EXPECT_EQ(depth, (std::vector<std::uint64_t>{2, 2, 2, 1, 0}));
    EXPECT_EQ(link.transferCount(h2d), 5u);
    EXPECT_EQ(link.outstandingTransfers(PcieDir::deviceToHost), 0u);
}

TEST_F(LinkFixture, TransfersEmitTraceEventsWithQueueDepth)
{
    struct Capture : trace::TraceSink
    {
        std::vector<trace::Event> events;
        void record(const trace::Event &ev) override
        {
            events.push_back(ev);
        }
    } capture;

    trace::Tracer tracer(trace::allCategories);
    tracer.addSink(&capture);
    link.setTracer(&tracer);

    link.transfer(PcieDir::hostToDevice, kib(64), nullptr);
    link.transfer(PcieDir::hostToDevice, kib(4), nullptr);
    link.transfer(PcieDir::deviceToHost, kib(16), nullptr);
    eq.run();

    ASSERT_EQ(capture.events.size(), 3u);
    const trace::Event &first = capture.events[0];
    EXPECT_EQ(first.kind, trace::Kind::pcieTransfer);
    EXPECT_EQ(first.bytes, kib(64));
    EXPECT_EQ(first.value, 0u); // empty channel when scheduled
    EXPECT_EQ(first.aux, 0u);   // h2d
    EXPECT_GT(first.duration, 0u);

    const trace::Event &second = capture.events[1];
    EXPECT_EQ(second.value, 1u); // queued behind the first
    EXPECT_EQ(second.start, first.start + first.duration);

    const trace::Event &third = capture.events[2];
    EXPECT_EQ(third.aux, 1u);  // d2h
    EXPECT_EQ(third.value, 0u); // own channel was idle
}

} // namespace uvmsim
