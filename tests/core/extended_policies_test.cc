/**
 * @file
 * Tests for the extension policies: the Zheng et al. prefetcher
 * baselines (SGp, ZLp), MRU eviction, and the whole-unit write-back
 * ablation knob.
 */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "core/eviction.hh"
#include "core/gmmu.hh"
#include "core/prefetcher.hh"
#include "interconnect/pcie_link.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

constexpr Addr treeBase = 0x400000000ull;

} // namespace

TEST(ExtendedPolicies, FactoryAndStrings)
{
    EXPECT_EQ(makePrefetcher(PrefetcherKind::sequentialGlobal)->name(),
              "SGp");
    EXPECT_EQ(makePrefetcher(PrefetcherKind::zhengLocality)->name(),
              "ZLp");
    EXPECT_EQ(makeEvictionPolicy(EvictionKind::mru4k)->name(), "MRU4K");
    EXPECT_EQ(prefetcherFromString("SGp"),
              PrefetcherKind::sequentialGlobal);
    EXPECT_EQ(prefetcherFromString("ZLp"), PrefetcherKind::zhengLocality);
    EXPECT_EQ(evictionFromString("MRU"), EvictionKind::mru4k);
}

TEST(ExtendedPolicies, SgpStreamsFromLowestAddress)
{
    LargePageTree tree(treeBase, 32);
    Rng rng(1);
    SequentialGlobalPrefetcher pf(8);
    // Fault in the middle of the region: SGp still streams from the
    // region's lowest invalid pages.
    PageNum fault = tree.leafFirstPage(10);
    auto got = pf.selectPages(fault, tree, rng);
    ASSERT_EQ(got.size(), 9u); // fault + 8 streamed
    EXPECT_EQ(got.front(), pageOf(treeBase));
    EXPECT_EQ(got[7], pageOf(treeBase) + 7);
    EXPECT_EQ(got.back(), fault);
}

TEST(ExtendedPolicies, SgpSkipsValidPagesInItsPath)
{
    LargePageTree tree(treeBase, 32);
    Rng rng(1);
    SequentialGlobalPrefetcher pf(4);
    tree.markPage(pageOf(treeBase));     // page 0 already valid
    tree.markPage(pageOf(treeBase) + 2); // page 2 already valid
    auto got = pf.selectPages(tree.leafFirstPage(20), tree, rng);
    // Streams pages 1, 3, 4, 5 (the first four invalid ones).
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got[0], pageOf(treeBase) + 1);
    EXPECT_EQ(got[1], pageOf(treeBase) + 3);
    EXPECT_EQ(got[2], pageOf(treeBase) + 4);
}

TEST(ExtendedPolicies, ZlpTakes128ConsecutivePages)
{
    LargePageTree tree(treeBase, 32);
    Rng rng(1);
    ZhengLocalityPrefetcher pf;
    PageNum fault = tree.leafFirstPage(0) + 5;
    auto got = pf.selectPages(fault, tree, rng);
    ASSERT_EQ(got.size(), 128u);
    EXPECT_EQ(got.front(), fault);
    EXPECT_EQ(got.back(), fault + 127);
}

TEST(ExtendedPolicies, ZlpClampsAtRegionEnd)
{
    LargePageTree tree(treeBase, 4); // 256KB = 64 pages
    Rng rng(1);
    ZhengLocalityPrefetcher pf;
    PageNum fault = pageOf(treeBase) + 50;
    auto got = pf.selectPages(fault, tree, rng);
    EXPECT_EQ(got.size(), 14u); // pages 50..63
    EXPECT_EQ(got.back(), pageOf(treeBase) + 63);
}

TEST(ExtendedPolicies, ZlpSkipsValidPagesInRun)
{
    LargePageTree tree(treeBase, 32);
    Rng rng(1);
    ZhengLocalityPrefetcher pf(16);
    PageNum fault = tree.leafFirstPage(0);
    tree.markPage(fault + 3);
    auto got = pf.selectPages(fault, tree, rng);
    EXPECT_EQ(got.size(), 15u);
    for (PageNum p : got)
        EXPECT_NE(p, fault + 3);
}

TEST(ExtendedPolicies, MruEvictsTheHottestPage)
{
    ManagedSpace space;
    TenantSet tenants{space};
    auto &alloc = space.allocate(mib(2), "a");
    ResidencyTracker residency;
    Rng rng(1);
    for (PageNum p = pageOf(alloc.base());
         p < pageOf(alloc.base()) + 8; ++p) {
        space.treeFor(p)->markPage(p);
        residency.onResident(p);
    }
    residency.onAccess(pageOf(alloc.base()) + 3);

    Mru4kEviction policy;
    EvictionContext ctx{residency, tenants, rng, 0};
    auto victims = policy.selectVictims(ctx);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], pageOf(alloc.base()) + 3);
}

TEST(ExtendedPolicies, MruKeepsLoopPrefixResident)
{
    // Under a repetitive linear scan larger than memory, MRU converges
    // to keeping a stable prefix while LRU thrashes everything.
    for (EvictionKind kind : {EvictionKind::mru4k, EvictionKind::lru4k}) {
        EventQueue eq;
        Closures closures;
        PcieLink pcie(eq, PcieBandwidthModel{});
        FrameAllocator frames(8);
        PageTable pt;
        ManagedSpace space;
        GmmuConfig cfg;
        cfg.prefetcher_before = PrefetcherKind::none;
        cfg.eviction = kind;
        Gmmu gmmu(eq, pcie, frames, pt, space, cfg);
        auto &alloc = space.allocate(mib(2), "a");

        stats::StatRegistry reg;
        gmmu.registerStats(reg);

        // Three passes over 12 pages with 8 frames.
        for (int pass = 0; pass < 3; ++pass) {
            for (int i = 0; i < 12; ++i) {
                MemAccess m;
                m.addr = alloc.base() + i * pageSize;
                m.size = 128;
                bool done = false;
                gmmu.translate(m, closures.thunk([&] { done = true; }));
                eq.run();
                ASSERT_TRUE(done);
            }
        }
        double migrated = reg.at("gmmu.pages_migrated").value();
        if (kind == EvictionKind::mru4k) {
            // First pass 12 + ~5 per later pass (only the tail misses).
            EXPECT_LT(migrated, 26.0);
        } else {
            // LRU thrashes: every access of every pass faults.
            EXPECT_GE(migrated, 34.0);
        }
    }
}

TEST(ExtendedPolicies, WholeUnitWritebackKnobAblates)
{
    // With the knob off, SLe eviction of clean blocks writes nothing.
    for (bool whole : {true, false}) {
        EventQueue eq;
        Closures closures;
        PcieLink pcie(eq, PcieBandwidthModel{});
        FrameAllocator frames(2 * pagesPerBasicBlock);
        PageTable pt;
        ManagedSpace space;
        GmmuConfig cfg;
        cfg.prefetcher_before = PrefetcherKind::sequentialLocal;
        cfg.prefetcher_after = PrefetcherKind::sequentialLocal;
        cfg.eviction = EvictionKind::sequentialLocal;
        cfg.whole_unit_writeback = whole;
        Gmmu gmmu(eq, pcie, frames, pt, space, cfg);
        auto &alloc = space.allocate(mib(2), "a");

        for (int b = 0; b < 3; ++b) {
            MemAccess m;
            m.addr = alloc.base() + b * basicBlockSize;
            m.size = 128;
            bool done = false;
            gmmu.translate(m, closures.thunk([&] { done = true; }));
            eq.run();
            ASSERT_TRUE(done);
        }
        if (whole)
            EXPECT_EQ(pcie.bytesTransferred(PcieDir::deviceToHost),
                      basicBlockSize);
        else
            EXPECT_EQ(pcie.bytesTransferred(PcieDir::deviceToHost), 0u);
    }
}

TEST(ExtendedPolicies, RoundTripStringsForNewKinds)
{
    for (PrefetcherKind k : {PrefetcherKind::sequentialGlobal,
                             PrefetcherKind::zhengLocality})
        EXPECT_EQ(prefetcherFromString(toString(k)), k);
    EXPECT_EQ(evictionFromString(toString(EvictionKind::mru4k)),
              EvictionKind::mru4k);
}

} // namespace uvmsim
