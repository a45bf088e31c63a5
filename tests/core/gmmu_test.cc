/** @file Unit/behavioural tests for the GMMU fault and eviction paths. */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include <optional>

#include "core/gmmu.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

/** A self-contained GMMU test system with a configurable memory. */
struct Harness
{
    EventQueue eq;
    Closures closures;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;
    std::vector<PageNum> shootdowns;

    Harness(std::uint64_t num_frames, GmmuConfig cfg = GmmuConfig{})
        : pcie(eq, PcieBandwidthModel{}),
          frames(num_frames),
          gmmu(eq, pcie, frames, pt, space, cfg)
    {
        gmmu.setTlbShootdown(
            [this](PageNum p) { shootdowns.push_back(p); });
    }

    MemAccess
    accessTo(Addr addr, bool write = false)
    {
        MemAccess m;
        m.addr = addr;
        m.size = 128;
        m.is_write = write;
        return m;
    }

    /** Translate and run to completion; returns completion tick. */
    Tick
    touch(Addr addr, bool write = false)
    {
        std::optional<Tick> done_at;
        gmmu.translate(accessTo(addr, write),
                       closures.thunk([&] { done_at = eq.curTick(); }));
        eq.run();
        EXPECT_TRUE(done_at.has_value());
        return *done_at;
    }
};

} // namespace

TEST(Gmmu, FirstTouchFaultsAndMigrates)
{
    Harness h(1024);
    auto &alloc = h.space.allocate(mib(2), "a");
    GmmuConfig cfg; // defaults: TBNp before, 45us, 100-cycle walk

    Tick done = h.touch(alloc.base());
    // At minimum: walk + fault latency + one 4KB transfer.
    Tick floor = cfg.page_walk_latency + cfg.fault_handling_latency;
    EXPECT_GT(done, floor);
    EXPECT_TRUE(h.pt.isValid(pageOf(alloc.base())));
    EXPECT_TRUE(h.gmmu.residency().isTracked(pageOf(alloc.base())));
    EXPECT_EQ(h.gmmu.faultServices(), 1u);
}

TEST(Gmmu, ValidPageCompletesAfterWalkOnly)
{
    Harness h(1024);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.touch(alloc.base());
    Tick start = h.eq.curTick();
    Tick done = h.touch(alloc.base() + 128);
    GmmuConfig cfg;
    EXPECT_EQ(done - start, cfg.page_walk_latency);
}

TEST(Gmmu, TbnpDefaultMigratesWholeBasicBlock)
{
    Harness h(1024);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.touch(alloc.base());
    // All 16 pages of the first 64KB block became valid.
    for (PageNum p = pageOf(alloc.base());
         p < pageOf(alloc.base()) + pagesPerBasicBlock; ++p)
        EXPECT_TRUE(h.pt.isValid(p));
}

TEST(Gmmu, NonePrefetcherMigratesSinglePage)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    Harness h(1024, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.touch(alloc.base());
    EXPECT_TRUE(h.pt.isValid(pageOf(alloc.base())));
    EXPECT_FALSE(h.pt.isValid(pageOf(alloc.base()) + 1));
    EXPECT_EQ(h.pt.validPages(), 1u);
}

TEST(Gmmu, ConcurrentFaultsToSamePageMerge)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    Harness h(1024, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    int completions = 0;
    h.gmmu.translate(h.accessTo(alloc.base()),
                     h.closures.thunk([&] { ++completions; }));
    h.gmmu.translate(h.accessTo(alloc.base() + 4),
                     h.closures.thunk([&] { ++completions; }));
    h.gmmu.translate(h.accessTo(alloc.base() + 8),
                     h.closures.thunk([&] { ++completions; }));
    h.eq.run();
    EXPECT_EQ(completions, 3);
    EXPECT_EQ(h.gmmu.faultServices(), 1u); // one migration, two merges
}

TEST(Gmmu, FaultServicesSerializeAtFaultLatency)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    Harness h(1024, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i) {
        h.gmmu.translate(
            h.accessTo(alloc.base() + i * basicBlockSize),
            h.closures.thunk([&] { done.push_back(h.eq.curTick()); }));
    }
    h.eq.run();
    ASSERT_EQ(done.size(), 3u);
    // Services are 45us apart; completions at least that far apart.
    EXPECT_GE(done[1] - done[0],
              static_cast<Tick>(0.9 * cfg.fault_handling_latency));
    EXPECT_GE(done[2] - done[1],
              static_cast<Tick>(0.9 * cfg.fault_handling_latency));
}

TEST(Gmmu, PrefetchedPageFaultSkipsService)
{
    // With SLp, touching page 0 migrates the whole block; a fault on
    // page 1 raised while that migration is queued must not trigger a
    // second migration.
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::sequentialLocal;
    Harness h(1024, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    int completions = 0;
    h.gmmu.translate(h.accessTo(alloc.base()),
                     h.closures.thunk([&] { ++completions; }));
    h.gmmu.translate(h.accessTo(alloc.base() + pageSize),
                     h.closures.thunk([&] { ++completions; }));
    h.eq.run();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(h.pt.validPages(), pagesPerBasicBlock);
}

TEST(Gmmu, WriteSetsDirtyReadSetsAccessed)
{
    Harness h(1024);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.touch(alloc.base(), false);
    EXPECT_TRUE(h.pt.wasAccessed(pageOf(alloc.base())));
    EXPECT_FALSE(h.pt.isDirty(pageOf(alloc.base())));
    h.touch(alloc.base() + pageSize, true);
    EXPECT_TRUE(h.pt.isDirty(pageOf(alloc.base()) + 1));
}

TEST(Gmmu, OversubscriptionEvictsAndLatches)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    cfg.eviction = EvictionKind::lru4k;
    Harness h(8, cfg); // tiny device: 8 frames
    auto &alloc = h.space.allocate(mib(2), "a");

    EXPECT_FALSE(h.gmmu.oversubscribed());
    for (int i = 0; i < 12; ++i)
        h.touch(alloc.base() + i * pageSize);
    EXPECT_TRUE(h.gmmu.oversubscribed());
    EXPECT_EQ(h.pt.validPages(), 8u);
    EXPECT_FALSE(h.shootdowns.empty());
    // The four oldest pages were evicted.
    EXPECT_FALSE(h.pt.isValid(pageOf(alloc.base())));
    EXPECT_TRUE(h.pt.isValid(pageOf(alloc.base()) + 11));
}

TEST(Gmmu, ThrashingIsCounted)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    Harness h(4, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    stats::StatRegistry reg;
    h.gmmu.registerStats(reg);

    for (int i = 0; i < 6; ++i)
        h.touch(alloc.base() + i * pageSize);
    // Pages 0 and 1 were evicted; touch page 0 again -> thrash.
    h.touch(alloc.base());
    EXPECT_DOUBLE_EQ(reg.at("gmmu.pages_thrashed").value(), 1.0);
}

TEST(Gmmu, CleanPagesEvictWithoutWriteback4K)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    cfg.eviction = EvictionKind::lru4k;
    Harness h(4, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    for (int i = 0; i < 8; ++i)
        h.touch(alloc.base() + i * pageSize, false); // reads only
    EXPECT_EQ(h.pcie.transferCount(PcieDir::deviceToHost), 0u);
}

TEST(Gmmu, DirtyPagesWriteBack4K)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    cfg.eviction = EvictionKind::lru4k;
    Harness h(4, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    for (int i = 0; i < 8; ++i)
        h.touch(alloc.base() + i * pageSize, true); // writes
    EXPECT_GE(h.pcie.transferCount(PcieDir::deviceToHost), 4u);
}

TEST(Gmmu, BlockPoliciesWriteBackWholeUnitsEvenClean)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::sequentialLocal;
    cfg.prefetcher_after = PrefetcherKind::sequentialLocal;
    cfg.eviction = EvictionKind::sequentialLocal;
    Harness h(2 * pagesPerBasicBlock, cfg); // two blocks of frames
    auto &alloc = h.space.allocate(mib(2), "a");

    // Fill both blocks, then touch a third: SLe evicts a whole block
    // and writes back all 64KB despite every page being clean.
    h.touch(alloc.base());
    h.touch(alloc.base() + basicBlockSize);
    h.touch(alloc.base() + 2 * basicBlockSize);
    EXPECT_EQ(h.pcie.transferCount(PcieDir::deviceToHost), 1u);
    EXPECT_EQ(h.pcie.bytesTransferred(PcieDir::deviceToHost),
              basicBlockSize);
}

TEST(Gmmu, PrefetcherSwitchesAfterOversubscription)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::sequentialLocal;
    cfg.prefetcher_after = PrefetcherKind::none;
    cfg.eviction = EvictionKind::lru4k;
    Harness h(2 * pagesPerBasicBlock, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    stats::StatRegistry reg;
    h.gmmu.registerStats(reg);

    h.touch(alloc.base());
    h.touch(alloc.base() + basicBlockSize);
    double migrated_before = reg.at("gmmu.pages_migrated").value();
    EXPECT_DOUBLE_EQ(migrated_before, 2.0 * pagesPerBasicBlock);

    // Next fault exceeds capacity: latch trips, after-prefetcher
    // (none) migrates exactly one page.
    h.touch(alloc.base() + 2 * basicBlockSize);
    EXPECT_TRUE(h.gmmu.oversubscribed());
    EXPECT_DOUBLE_EQ(reg.at("gmmu.pages_migrated").value(),
                     migrated_before + 1.0);
}

TEST(Gmmu, FreeBufferTriggersEarlyPreEviction)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::none;
    cfg.eviction = EvictionKind::lru4k;
    cfg.free_buffer_pages = 4;
    Harness h(16, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    // Touch 13 pages: occupancy 13 > 16-4, so the buffer kicks in and
    // the latch trips before the allocator is actually exhausted.
    for (int i = 0; i < 13; ++i)
        h.touch(alloc.base() + i * pageSize);
    EXPECT_TRUE(h.gmmu.oversubscribed());
    EXPECT_GE(h.frames.freeFrames(), 4u);
}

TEST(Gmmu, AccessObserverSeesCompletedAccesses)
{
    Harness h(1024);
    auto &alloc = h.space.allocate(mib(2), "a");
    std::vector<PageNum> seen;
    h.gmmu.setAccessObserver(
        [&](Tick, PageNum p, bool) { seen.push_back(p); });
    h.touch(alloc.base());
    h.touch(alloc.base() + pageSize);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], pageOf(alloc.base()));
    EXPECT_EQ(seen[1], pageOf(alloc.base()) + 1);
}

TEST(Gmmu, RecordAccessUpdatesRecencyAndFlags)
{
    Harness h(1024);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.touch(alloc.base());
    h.touch(alloc.base() + pageSize);
    // Page 0 is colder; a TLB-hit style recordAccess refreshes it.
    h.gmmu.recordAccess(h.accessTo(alloc.base(), true));
    EXPECT_TRUE(h.pt.isDirty(pageOf(alloc.base())));
    auto victim = h.gmmu.residency().lruPageVictim(0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_NE(*victim, pageOf(alloc.base()));
}

TEST(Gmmu, UnmanagedFaultDies)
{
    Harness h(64);
    ASSERT_EXIT(
        {
            h.gmmu.translate(h.accessTo(0xdead000), h.closures.thunk([] {}));
            h.eq.run();
        },
        ::testing::KilledBySignal(SIGABRT), "unmanaged");
}

} // namespace uvmsim
