/**
 * @file
 * Tests of the fault engine's batching and latency-jitter knobs.
 */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include <vector>

#include "core/gmmu.hh"
#include "interconnect/pcie_link.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

struct EngineHarness
{
    EventQueue eq;
    Closures closures;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;

    explicit EngineHarness(GmmuConfig cfg)
        : pcie(eq, PcieBandwidthModel{}),
          frames(4096),
          gmmu(eq, pcie, frames, pt, space, cfg)
    {
    }
};

} // namespace

TEST(FaultEngine, BatchingResolvesSeveralFaultsPerWindow)
{
    GmmuConfig serial;
    serial.prefetcher_before = PrefetcherKind::none;
    serial.fault_batch_size = 1;
    GmmuConfig batched = serial;
    batched.fault_batch_size = 8;

    auto timeEightFaults = [](GmmuConfig cfg) {
        EngineHarness h(cfg);
        auto &alloc = h.space.allocate(mib(2), "a");
        int done = 0;
        for (int i = 0; i < 8; ++i) {
            MemAccess m;
            m.addr = alloc.base() + i * basicBlockSize;
            m.size = 128;
            h.gmmu.translate(m, h.closures.thunk([&done] { ++done; }));
        }
        h.eq.run();
        EXPECT_EQ(done, 8);
        return std::make_pair(h.eq.curTick(), h.gmmu.faultServices());
    };

    auto [serial_end, serial_services] = timeEightFaults(serial);
    auto [batched_end, batched_services] = timeEightFaults(batched);

    EXPECT_EQ(serial_services, 8u);
    // The engine starts eagerly on the first fault, so the remaining
    // seven batch into the second window: two services total.
    EXPECT_EQ(batched_services, 2u);
    // Eight serial 45us windows vs two: at least 3x faster wall time.
    EXPECT_LT(batched_end * 3, serial_end);
}

TEST(FaultEngine, BatchMembersCoveredByEarlierPrefetchAreSkipped)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::sequentialLocal;
    cfg.fault_batch_size = 4;
    EngineHarness h(cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    stats::StatRegistry reg;
    h.gmmu.registerStats(reg);

    // Four faults inside one 64KB block: the first fault's SLp fill
    // covers the rest of the batch.
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        MemAccess m;
        m.addr = alloc.base() + i * pageSize;
        m.size = 128;
        h.gmmu.translate(m, h.closures.thunk([&done] { ++done; }));
    }
    h.eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_DOUBLE_EQ(reg.at("gmmu.far_faults").value(), 1.0);
    EXPECT_DOUBLE_EQ(reg.at("gmmu.pages_migrated").value(),
                     static_cast<double>(pagesPerBasicBlock));
}

TEST(FaultEngine, JitterZeroMatchesFixedLatency)
{
    GmmuConfig fixed;
    fixed.prefetcher_before = PrefetcherKind::none;
    GmmuConfig jitter0 = fixed;
    jitter0.fault_latency_jitter = 0.0;

    auto endTime = [](GmmuConfig cfg) {
        EngineHarness h(cfg);
        auto &alloc = h.space.allocate(mib(2), "a");
        MemAccess m;
        m.addr = alloc.base();
        m.size = 128;
        h.gmmu.translate(m, h.closures.thunk([] {}));
        h.eq.run();
        return h.eq.curTick();
    };
    EXPECT_EQ(endTime(fixed), endTime(jitter0));
}

TEST(FaultEngine, JitterIsSeedDeterministicAndBounded)
{
    auto endTime = [](std::uint64_t seed) {
        GmmuConfig cfg;
        cfg.prefetcher_before = PrefetcherKind::none;
        cfg.fault_latency_jitter = 0.3;
        cfg.seed = seed;
        EngineHarness h(cfg);
        auto &alloc = h.space.allocate(mib(2), "a");
        for (int i = 0; i < 4; ++i) {
            MemAccess m;
            m.addr = alloc.base() + i * basicBlockSize;
            m.size = 128;
            h.gmmu.translate(m, h.closures.thunk([] {}));
            h.eq.run();
        }
        return h.eq.curTick();
    };

    EXPECT_EQ(endTime(5), endTime(5));
    // Jittered latencies stay within the +/-30% envelope: four
    // services cost between 0.7*4*45us and 1.3*4*45us (plus transfer
    // and walk time, which only add).
    Tick t = endTime(5);
    EXPECT_GT(t, static_cast<Tick>(0.7 * 4 * microseconds(45)));
    EXPECT_LT(t, static_cast<Tick>(1.5 * 4 * microseconds(45)));
}

TEST(FaultEngine, TrimmedPrefetchKeepsFaultNeighborhood)
{
    // A 2MB tree fault on a tiny device: TBNp's selection is trimmed
    // to half the device memory, centred on the fault.
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::zhengLocality; // 128 pages
    EngineHarness h2(cfg);
    (void)h2; // silence unused in case of refactors
    EventQueue eq;
    Closures closures;
    PcieLink pcie(eq, PcieBandwidthModel{});
    FrameAllocator frames(64); // trim limit = 32 pages
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu(eq, pcie, frames, pt, space, cfg);
    auto &alloc = space.allocate(mib(2), "a");

    stats::StatRegistry reg;
    gmmu.registerStats(reg);

    MemAccess m;
    m.addr = alloc.base() + kib(512);
    m.size = 128;
    bool done = false;
    gmmu.translate(m, closures.thunk([&done] { done = true; }));
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(reg.at("gmmu.prefetches_trimmed").value(), 1.0);
    EXPECT_EQ(pt.validPages(), 32u);
    // The faulting page itself is always resident.
    EXPECT_TRUE(pt.isValid(pageOf(m.addr)));
}

} // namespace uvmsim
