/**
 * @file
 * Edge-case hardening tests across modules: boundary geometries,
 * multi-allocation interactions, observer behaviour, and defensive
 * death checks not covered by the per-module suites.
 */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "core/gmmu.hh"
#include "gpu/gpu.hh"
#include "interconnect/pcie_link.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

struct MiniSystem
{
    EventQueue eq;
    Closures closures;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;

    explicit MiniSystem(GmmuConfig cfg = GmmuConfig{},
                        std::uint64_t num_frames = 4096)
        : pcie(eq, PcieBandwidthModel{}),
          frames(num_frames),
          gmmu(eq, pcie, frames, pt, space, cfg)
    {
    }

    bool
    touch(Addr addr, bool write = false)
    {
        MemAccess m;
        m.addr = addr;
        m.size = 128;
        m.is_write = write;
        bool done = false;
        gmmu.translate(m, closures.thunk([&done] { done = true; }));
        eq.run();
        return done;
    }
};

} // namespace

TEST(Hardening, FaultsAcrossManyAllocationsInterleave)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::treeBasedNeighborhood;
    MiniSystem sys(cfg);
    std::vector<Addr> bases;
    for (int i = 0; i < 6; ++i) {
        bases.push_back(
            sys.space.allocate(kib(256) + i * kib(64),
                               "alloc" + std::to_string(i)).base());
    }
    for (Addr base : bases) {
        EXPECT_TRUE(sys.touch(base + kib(100) % kib(256)));
        EXPECT_TRUE(sys.pt.isValid(pageOf(base + kib(100) % kib(256))));
    }
    // Trees never leak marks across allocations.
    for (const auto &alloc : sys.space.allocations()) {
        for (const auto &tree : alloc->trees())
            EXPECT_TRUE(tree->checkConsistent());
    }
}

TEST(Hardening, LastPageOfRemainderTreeIsMigratable)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::treeBasedNeighborhood;
    MiniSystem sys(cfg);
    // 192KB rounds to a 256KB tree; the last *padded* page is beyond
    // the user size but still migratable (driver granularity).
    auto &alloc = sys.space.allocate(kib(192), "rem");
    Addr last_user = alloc.base() + kib(192) - pageSize;
    EXPECT_TRUE(sys.touch(last_user));
    Addr last_padded = alloc.endAddr() - pageSize;
    EXPECT_TRUE(sys.touch(last_padded));
}

TEST(Hardening, EvictionAtAllocationBoundaryStaysInside)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::sequentialLocal;
    cfg.prefetcher_after = PrefetcherKind::sequentialLocal;
    cfg.eviction = EvictionKind::treeBasedNeighborhood;
    MiniSystem sys(cfg, 48); // 3 blocks of frames
    auto &a = sys.space.allocate(kib(128), "a");
    auto &b = sys.space.allocate(kib(128), "b");

    // Fill a's two blocks, then b's first: a must lose pages, b's
    // pages must be untouched by the drain of a's trees.
    sys.touch(a.base());
    sys.touch(a.base() + basicBlockSize);
    sys.touch(b.base());
    sys.touch(b.base() + basicBlockSize);

    for (const auto &alloc : sys.space.allocations())
        for (const auto &tree : alloc->trees())
            EXPECT_TRUE(tree->checkConsistent());
    EXPECT_EQ(sys.pt.validPages(), sys.frames.usedFrames());
}

TEST(Hardening, ObserverSeesWritesFlagged)
{
    MiniSystem sys;
    auto &alloc = sys.space.allocate(mib(2), "a");
    std::vector<bool> writes;
    sys.gmmu.setAccessObserver(
        [&](Tick, PageNum, bool w) { writes.push_back(w); });
    sys.touch(alloc.base(), false);
    sys.touch(alloc.base() + pageSize, true);
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_FALSE(writes[0]);
    EXPECT_TRUE(writes[1]);
}

TEST(Hardening, ClearingObserverStopsCallbacks)
{
    MiniSystem sys;
    auto &alloc = sys.space.allocate(mib(2), "a");
    int count = 0;
    sys.gmmu.setAccessObserver([&](Tick, PageNum, bool) { ++count; });
    sys.touch(alloc.base());
    sys.gmmu.setAccessObserver(nullptr);
    sys.touch(alloc.base() + pageSize);
    EXPECT_EQ(count, 1);
}

TEST(Hardening, BackToBackRunsOnSeparateSystemsAreIndependent)
{
    auto run = [](std::uint64_t seed) {
        GmmuConfig cfg;
        cfg.prefetcher_before = PrefetcherKind::random;
        cfg.seed = seed;
        MiniSystem sys(cfg);
        auto &alloc = sys.space.allocate(mib(2), "a");
        sys.touch(alloc.base() + kib(512));
        return sys.pt.validPages();
    };
    // Different seeds can pick different random prefetch candidates,
    // but the page count is always fault + 1 prefetch.
    EXPECT_EQ(run(1), 2u);
    EXPECT_EQ(run(2), 2u);
}

TEST(Hardening, TreeNodeQueriesRejectBadCoordinates)
{
    LargePageTree tree(0x100000000ull, 8);
    EXPECT_DEATH(tree.nodeMarkedBytes(4, 0), "out of range");
    EXPECT_DEATH(tree.nodeMarkedBytes(0, 8), "out of range");
    EXPECT_DEATH(tree.leafMarkedPages(8), "out of range");
    EXPECT_DEATH(tree.evictDrain(9), "out of range");
}

TEST(Hardening, WritesToPrefetchedPagesDirtyOnlyThosePages)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::sequentialLocal;
    MiniSystem sys(cfg);
    auto &alloc = sys.space.allocate(mib(2), "a");
    sys.touch(alloc.base(), true); // block migrates; page 0 written
    EXPECT_TRUE(sys.pt.isDirty(pageOf(alloc.base())));
    for (PageNum p = pageOf(alloc.base()) + 1;
         p < pageOf(alloc.base()) + pagesPerBasicBlock; ++p) {
        EXPECT_TRUE(sys.pt.isValid(p));
        EXPECT_FALSE(sys.pt.isDirty(p));
        EXPECT_FALSE(sys.pt.wasAccessed(p));
    }
}

TEST(Hardening, HugeSingleAllocationBuildsManyTrees)
{
    ManagedSpace space;
    auto &alloc = space.allocate(mib(64) + kib(320), "big");
    EXPECT_EQ(alloc.trees().size(), 33u); // 32 x 2MB + one 512KB tree
    EXPECT_EQ(alloc.trees().back()->capacityBytes(), kib(512));
    // Spot-check lookups at the extremes.
    EXPECT_EQ(space.treeFor(pageOf(alloc.base())), alloc.trees()[0].get());
    EXPECT_EQ(space.treeFor(pageOf(alloc.endAddr() - 1)),
              alloc.trees().back().get());
}

} // namespace uvmsim
