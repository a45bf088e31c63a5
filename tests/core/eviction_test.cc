/** @file Unit tests for the eviction policies (paper Secs. 4.2, 5, 7.5). */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/eviction.hh"
#include "core/gmmu.hh"
#include "sim/ticks.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

struct EvictionFixture : public ::testing::Test
{
    ManagedSpace space;
    TenantSet tenants{space};
    ResidencyTracker residency;
    Rng rng{11};

    EvictionContext
    ctx(std::uint64_t reserve = 0)
    {
        return EvictionContext{residency, tenants, rng, reserve};
    }

    /** Make `pages` pages of an allocation resident, in page order. */
    void
    populate(const ManagedAllocation &alloc, std::uint64_t pages)
    {
        PageNum first = pageOf(alloc.base());
        for (PageNum p = first; p < first + pages; ++p) {
            space.treeFor(p)->markPage(p);
            residency.onResident(p);
        }
    }
};

} // namespace

TEST_F(EvictionFixture, FactoryAndNames)
{
    EXPECT_EQ(makeEvictionPolicy(EvictionKind::lru4k)->name(), "LRU4K");
    EXPECT_EQ(makeEvictionPolicy(EvictionKind::random4k)->name(), "Re");
    EXPECT_EQ(makeEvictionPolicy(EvictionKind::sequentialLocal)->name(),
              "SLe");
    EXPECT_EQ(
        makeEvictionPolicy(EvictionKind::treeBasedNeighborhood)->name(),
        "TBNe");
    EXPECT_EQ(makeEvictionPolicy(EvictionKind::lru2mb)->name(), "LRU2MB");
}

TEST_F(EvictionFixture, WriteBackUnitSemantics)
{
    // Paper Sec. 5.1: block policies write whole units back; 4KB
    // policies write only dirty pages.
    EXPECT_FALSE(makeEvictionPolicy(EvictionKind::lru4k)
                     ->writesBackWholeUnits());
    EXPECT_FALSE(makeEvictionPolicy(EvictionKind::random4k)
                     ->writesBackWholeUnits());
    EXPECT_TRUE(makeEvictionPolicy(EvictionKind::sequentialLocal)
                    ->writesBackWholeUnits());
    EXPECT_TRUE(makeEvictionPolicy(EvictionKind::treeBasedNeighborhood)
                    ->writesBackWholeUnits());
    EXPECT_TRUE(
        makeEvictionPolicy(EvictionKind::lru2mb)->writesBackWholeUnits());
}

TEST_F(EvictionFixture, EmptyResidencyYieldsNoVictims)
{
    for (EvictionKind k :
         {EvictionKind::lru4k, EvictionKind::random4k,
          EvictionKind::sequentialLocal,
          EvictionKind::treeBasedNeighborhood, EvictionKind::lru2mb}) {
        auto policy = makeEvictionPolicy(k);
        auto c = ctx();
        EXPECT_TRUE(policy->selectVictims(c).empty())
            << policy->name();
    }
}

TEST_F(EvictionFixture, Lru4kPicksOldestPage)
{
    auto &alloc = space.allocate(mib(2), "a");
    populate(alloc, 10);
    residency.onAccess(pageOf(alloc.base())); // refresh page 0
    Lru4kEviction policy;
    auto c = ctx();
    auto victims = policy.selectVictims(c);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], pageOf(alloc.base()) + 1);
}

TEST_F(EvictionFixture, Lru4kRespectsReservation)
{
    auto &alloc = space.allocate(mib(2), "a");
    populate(alloc, 10);
    Lru4kEviction policy;
    auto c = ctx(3); // protect the three coldest pages
    auto victims = policy.selectVictims(c);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], pageOf(alloc.base()) + 3);
}

TEST_F(EvictionFixture, RandomPicksTrackedPage)
{
    auto &alloc = space.allocate(mib(2), "a");
    populate(alloc, 32);
    Random4kEviction policy;
    auto c = ctx();
    for (int i = 0; i < 10; ++i) {
        auto victims = policy.selectVictims(c);
        ASSERT_EQ(victims.size(), 1u);
        EXPECT_TRUE(residency.isTracked(victims[0]));
    }
}

TEST_F(EvictionFixture, SleEvictsWholeBlockIncludingUnaccessedPages)
{
    auto &alloc = space.allocate(mib(2), "a");
    populate(alloc, 2 * pagesPerBasicBlock); // blocks 0 and 1
    // Touch block 0's pages so block 1 is the LRU block.
    for (PageNum p = pageOf(alloc.base());
         p < pageOf(alloc.base()) + pagesPerBasicBlock; ++p)
        residency.onAccess(p);

    SequentialLocalEviction policy;
    auto c = ctx();
    auto victims = policy.selectVictims(c);
    EXPECT_EQ(victims.size(), pagesPerBasicBlock);
    EXPECT_EQ(victims.front(),
              pageOf(alloc.base()) + pagesPerBasicBlock);
    EXPECT_TRUE(std::is_sorted(victims.begin(), victims.end()));
}

TEST_F(EvictionFixture, TbneDrainsTreeOnImbalance)
{
    // Mirror the Figure 8 setup through the policy interface: a 512KB
    // allocation fully resident, evict blocks 1, 3, 4, then 0.
    auto &alloc = space.allocate(kib(512), "a");
    populate(alloc, 8 * pagesPerBasicBlock);
    TreeBasedEviction policy;

    auto evictBlock = [&](std::uint32_t leaf_hint) {
        // Make the target leaf's pages the LRU ones by touching all
        // other resident pages.
        PageNum lo = pageOf(alloc.base()) + leaf_hint * pagesPerBasicBlock;
        PageNum hi = lo + pagesPerBasicBlock;
        for (PageNum p = pageOf(alloc.base());
             p < pageOf(alloc.base()) + 8 * pagesPerBasicBlock; ++p) {
            if (residency.isTracked(p) && (p < lo || p >= hi))
                residency.onAccess(p);
        }
        auto c = ctx();
        auto victims = policy.selectVictims(c);
        for (PageNum p : victims)
            residency.onEvicted(p);
        return victims;
    };

    EXPECT_EQ(evictBlock(1).size(), pagesPerBasicBlock);
    EXPECT_EQ(evictBlock(3).size(), pagesPerBasicBlock);
    EXPECT_EQ(evictBlock(4).size(), pagesPerBasicBlock);
    // Fourth eviction triggers the cascading drain: blocks 0, 2, 5,
    // 6, 7 all go (80 pages).
    EXPECT_EQ(evictBlock(0).size(), 5 * pagesPerBasicBlock);
    EXPECT_EQ(residency.size(), 0u);
}

TEST_F(EvictionFixture, Lru2mbEvictsTheWholeLargePage)
{
    auto &a = space.allocate(mib(2), "a");
    auto &b = space.allocate(mib(2), "b");
    populate(a, 100);
    populate(b, 50);
    // Touch all of a's pages: b becomes the LRU chunk.
    for (PageNum p = pageOf(a.base()); p < pageOf(a.base()) + 100; ++p)
        residency.onAccess(p);

    Lru2mbEviction policy;
    auto c = ctx();
    auto victims = policy.selectVictims(c);
    EXPECT_EQ(victims.size(), 50u);
    for (PageNum p : victims)
        EXPECT_TRUE(b.contains(pageBase(p)));
}

TEST_F(EvictionFixture, ReservationFallbackHandledByCaller)
{
    auto &alloc = space.allocate(mib(2), "a");
    populate(alloc, 4);
    Lru4kEviction policy;
    auto c = ctx(100); // reserve more than resident
    EXPECT_TRUE(policy.selectVictims(c).empty());
    auto c0 = ctx(0);
    EXPECT_EQ(policy.selectVictims(c0).size(), 1u);
}

/**
 * Regression for the TBNe / in-flight migration interaction documented
 * at the top of TreeBasedEviction::selectVictims: the tree drain may
 * select pages whose migration is still in flight.  The GMMU must
 * filter them out of the eviction (they hold no frame yet), restore
 * their to-be-valid marks, and let the migration land normally --
 * losing the mark would strand the pages, applying the eviction would
 * double-count residency.  Verified with the SimAuditor sweeping after
 * every step.
 */
TEST(TbneInflight, EvictionDuringMigrationKeepsResidencyExact)
{
    GmmuConfig cfg;
    cfg.prefetcher_before = PrefetcherKind::treeBasedNeighborhood;
    cfg.prefetcher_after = PrefetcherKind::treeBasedNeighborhood;
    cfg.eviction = EvictionKind::treeBasedNeighborhood;
    cfg.audit = true;

    EventQueue eq;
    Closures closures;
    PcieLink pcie(eq, PcieBandwidthModel{});
    FrameAllocator frames(2 * pagesPerBasicBlock); // two blocks fit
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu(eq, pcie, frames, pt, space, cfg);

    stats::StatRegistry reg;
    gmmu.registerStats(reg);

    auto &alloc = space.allocate(mib(2), "a");
    LargePageTree *tree = space.treeFor(pageOf(alloc.base()));
    ASSERT_NE(tree, nullptr);

    auto touch = [&](Addr addr) {
        MemAccess m;
        m.addr = addr;
        m.size = 128;
        m.is_write = false;
        bool done = false;
        gmmu.translate(m, closures.thunk([&] { done = true; }));
        eq.run();
        EXPECT_TRUE(done);
    };

    // Fill the device: blocks 0 and 1 resident (32 frames used).
    touch(alloc.base());
    touch(alloc.base() + basicBlockSize);
    ASSERT_EQ(pt.validPages(), 2 * pagesPerBasicBlock);

    // Faulting block 2 migrates 16 in-flight pages while TBNe's drain
    // (triggered by the frame shortage) cascades over the sparse tree
    // and selects them along with the resident blocks 0 and 1.
    touch(alloc.base() + 2 * basicBlockSize);

    PageNum b0 = pageOf(alloc.base());
    PageNum b2 = b0 + 2 * pagesPerBasicBlock;

    // Exactly block 2 is resident: valid, tracked, and tree-marked.
    EXPECT_EQ(pt.validPages(), pagesPerBasicBlock);
    EXPECT_EQ(gmmu.residency().size(), pagesPerBasicBlock);
    for (std::uint64_t i = 0; i < pagesPerBasicBlock; ++i) {
        EXPECT_TRUE(pt.isValid(b2 + i));
        EXPECT_TRUE(gmmu.residency().isTracked(b2 + i));
        EXPECT_TRUE(tree->pageMarked(b2 + i));
    }
    for (std::uint64_t i = 0; i < 2 * pagesPerBasicBlock; ++i) {
        EXPECT_FALSE(pt.isValid(b0 + i));
        EXPECT_FALSE(gmmu.residency().isTracked(b0 + i));
        EXPECT_FALSE(tree->pageMarked(b0 + i));
    }
    EXPECT_EQ(tree->markedPages().size(), pagesPerBasicBlock);
    EXPECT_TRUE(tree->checkConsistent());
    EXPECT_TRUE(gmmu.residency().checkConsistent());

    // Only the 32 resident pages were evicted -- the 16 in-flight
    // drain picks were filtered, not lost and not double-counted.
    EXPECT_DOUBLE_EQ(reg.at("gmmu.pages_evicted").value(),
                     2.0 * pagesPerBasicBlock);
    EXPECT_DOUBLE_EQ(reg.at("gmmu.pages_migrated").value(),
                     3.0 * pagesPerBasicBlock);
    EXPECT_EQ(gmmu.mshr().pendingPages(), 0u);
    ASSERT_TRUE(gmmu.auditEnabled());
    EXPECT_GT(gmmu.auditor()->checksPerformed(), 0u);
}

} // namespace uvmsim
