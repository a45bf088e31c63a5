/** @file Tests for the walker pool and finite-MSHR models. */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "core/gmmu.hh"
#include "interconnect/pcie_link.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

struct LimitHarness
{
    EventQueue eq;
    Closures closures;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;

    explicit LimitHarness(GmmuConfig cfg, std::uint64_t num_frames = 4096)
        : pcie(eq, PcieBandwidthModel{}),
          frames(num_frames),
          gmmu(eq, pcie, frames, pt, space, cfg)
    {
    }

    /** Make page `base + i*4KB` resident without going through a
     *  fault (so translates complete walk-only). */
    void
    touchPrevalidated(Addr base, int i)
    {
        PageNum page = pageOf(base) + static_cast<PageNum>(i);
        pt.mapPage(page, *frames.allocate());
        space.treeFor(page)->markPage(page);
        gmmu.residency().onResident(page);
    }
};

} // namespace

TEST(WalkerPool, SingleWalkerSerializesWalks)
{
    GmmuConfig one_walker;
    one_walker.prefetcher_before = PrefetcherKind::none;
    one_walker.page_walkers = 1;

    LimitHarness h(one_walker);
    auto &alloc = h.space.allocate(mib(2), "a");
    // Pre-validate 8 pages so the translates complete walk-only.
    for (int i = 0; i < 8; ++i)
        h.touchPrevalidated(alloc.base(), i);

    std::vector<Tick> done;
    for (int i = 0; i < 8; ++i) {
        MemAccess m;
        m.addr = alloc.base() + i * pageSize;
        m.size = 128;
        h.gmmu.translate(m, h.closures.thunk([&] {
            done.push_back(h.eq.curTick());
        }));
    }
    h.eq.run();
    ASSERT_EQ(done.size(), 8u);
    // With one walker, walk k completes at (k+1) * walk_latency.
    for (std::size_t k = 0; k < done.size(); ++k) {
        EXPECT_EQ(done[k],
                  (k + 1) * one_walker.page_walk_latency);
    }
}

TEST(WalkerPool, ManyWalkersOverlapWalks)
{
    GmmuConfig wide;
    wide.prefetcher_before = PrefetcherKind::none;
    wide.page_walkers = 8;

    LimitHarness h(wide);
    auto &alloc = h.space.allocate(mib(2), "a");
    for (int i = 0; i < 8; ++i)
        h.touchPrevalidated(alloc.base(), i);

    std::vector<Tick> done;
    for (int i = 0; i < 8; ++i) {
        MemAccess m;
        m.addr = alloc.base() + i * pageSize;
        m.size = 128;
        h.gmmu.translate(m, h.closures.thunk([&] {
            done.push_back(h.eq.curTick());
        }));
    }
    h.eq.run();
    ASSERT_EQ(done.size(), 8u);
    // All eight walks run in parallel: identical completion times.
    for (Tick t : done)
        EXPECT_EQ(t, wide.page_walk_latency);
}

TEST(WalkerPool, ZeroMeansUnlimited)
{
    GmmuConfig unlimited;
    unlimited.prefetcher_before = PrefetcherKind::none;
    unlimited.page_walkers = 0;

    LimitHarness h(unlimited);
    auto &alloc = h.space.allocate(mib(2), "a");
    for (int i = 0; i < 32; ++i)
        h.touchPrevalidated(alloc.base(), i);

    std::vector<Tick> done;
    for (int i = 0; i < 32; ++i) {
        MemAccess m;
        m.addr = alloc.base() + i * pageSize;
        m.size = 128;
        h.gmmu.translate(m, h.closures.thunk([&] {
            done.push_back(h.eq.curTick());
        }));
    }
    h.eq.run();
    for (Tick t : done)
        EXPECT_EQ(t, unlimited.page_walk_latency);
}

TEST(MshrLimit, FaultsBeyondCapacityRetryAndComplete)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    cfg.mshr_entries = 2;

    LimitHarness h(cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    stats::StatRegistry reg;
    h.gmmu.registerStats(reg);

    int done = 0;
    for (int i = 0; i < 8; ++i) {
        MemAccess m;
        m.addr = alloc.base() + i * basicBlockSize;
        m.size = 128;
        h.gmmu.translate(m, h.closures.thunk([&done] { ++done; }));
    }
    h.eq.run();
    EXPECT_EQ(done, 8);
    EXPECT_GT(reg.at("gmmu.mshr_stalls").value(), 0.0);
    EXPECT_EQ(h.gmmu.mshr().pendingPages(), 0u);
}

TEST(MshrLimit, MergesDoNotCountAgainstCapacity)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    cfg.mshr_entries = 1;

    LimitHarness h(cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    stats::StatRegistry reg;
    h.gmmu.registerStats(reg);

    // Three faults on the SAME page: entry exists, so no stalls.
    int done = 0;
    for (int i = 0; i < 3; ++i) {
        MemAccess m;
        m.addr = alloc.base() + i * 128;
        m.size = 128;
        h.gmmu.translate(m, h.closures.thunk([&done] { ++done; }));
    }
    h.eq.run();
    EXPECT_EQ(done, 3);
    EXPECT_DOUBLE_EQ(reg.at("gmmu.mshr_stalls").value(), 0.0);
}

} // namespace uvmsim
