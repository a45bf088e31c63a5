/**
 * @file
 * SimAuditor tests: healthy systems pass every sweep, and seeded
 * corruptions of each subsystem make the auditor fire with a
 * structured state diff (not a bare assert).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <optional>

#include "core/auditor.hh"
#include "core/gmmu.hh"
#include "sim/ticks.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

/**
 * A hand-assembled set of subsystems the tests corrupt directly.
 * Pages are made resident through the same three steps the GMMU
 * performs (tree mark, frame map, residency insert), so a healthy
 * fixture passes checkAll and each test breaks exactly one link.
 */
struct AuditFixture : public ::testing::Test
{
    ManagedSpace space;
    ResidencyTracker residency;
    PageTable pt;
    FrameAllocator frames{64};
    FarFaultMshr mshr;
    SimAuditor auditor{space, residency, pt, frames, mshr};
    SimAuditor::Transients none{};

    ManagedAllocation *alloc = nullptr;

    void
    SetUp() override
    {
        alloc = &space.allocate(mib(2), "audited");
    }

    PageNum
    page(std::uint64_t index) const
    {
        return pageOf(alloc->base()) + index;
    }

    /** Full resident bring-up of one page, GMMU-style. */
    void
    makeResident(PageNum p)
    {
        space.treeFor(p)->markPage(p);
        pt.mapPage(p, *frames.allocate());
        residency.onResident(p);
    }
};

} // namespace

TEST_F(AuditFixture, HealthySystemPassesAllSweeps)
{
    auditor.checkAll("empty", none);
    for (int i = 0; i < 20; ++i)
        makeResident(page(i));
    auditor.checkAll("resident", none);

    // An in-flight page (marked + MSHR, not yet valid) is legal.
    space.treeFor(page(30))->markPage(page(30));
    mshr.registerPrefetch(page(30));
    SimAuditor::Transients t;
    t.frames_in_transit = 0; // no frame granted yet in this fixture
    auditor.checkAll("in-flight", t);
    EXPECT_EQ(auditor.checksPerformed(), 3u);
}

TEST_F(AuditFixture, TreeMarkedOrphanPageFires)
{
    makeResident(page(0));
    // Corrupt: a to-be-valid mark with no migration behind it.
    space.treeFor(page(5))->markPage(page(5));
    ASSERT_EXIT(auditor.checkAll("seeded", none),
                ::testing::KilledBySignal(SIGABRT),
                "SimAuditor violation(.|\n)*tree-marked page neither "
                "valid nor in-flight(.|\n)*page table : no entry");
}

TEST_F(AuditFixture, ResidentPageMissingTreeMarkFires)
{
    makeResident(page(0));
    makeResident(page(1));
    // Corrupt: lose the tree mark of a resident page (the failure the
    // TBNe in-flight re-mark path prevents).
    space.treeFor(page(1))->unmarkPage(page(1));
    ASSERT_EXIT(auditor.checkAll("seeded", none),
                ::testing::KilledBySignal(SIGABRT),
                "resident page not marked in its tree(.|\n)*"
                "leaf bitmap: 10");
}

TEST_F(AuditFixture, ValidCountMismatchFires)
{
    // Corrupt: a page table mapping with no residency insert.
    space.treeFor(page(0))->markPage(page(0));
    pt.mapPage(page(0), *frames.allocate());
    ASSERT_EXIT(auditor.checkAll("seeded", none),
                ::testing::KilledBySignal(SIGABRT),
                "valid page missing from residency LRU(.|\n)*"
                "residency  : tracked=no");
}

TEST_F(AuditFixture, UntrackedResidencyEntryFires)
{
    // Corrupt: residency tracks a page the page table never mapped.
    residency.onResident(page(3));
    ASSERT_EXIT(auditor.checkAll("seeded", none),
                ::testing::KilledBySignal(SIGABRT),
                "residency-tracked page not valid in page table");
}

TEST_F(AuditFixture, DoubleMappedFrameFires)
{
    // Corrupt: two pages sharing one device frame.  Allocate two
    // frames so the aggregate counts still close and only the
    // ownership scan can catch it.
    FrameNum f0 = *frames.allocate();
    frames.allocate();
    for (PageNum p : {page(0), page(1)}) {
        space.treeFor(p)->markPage(p);
        pt.mapPage(p, f0);
        residency.onResident(p);
    }
    ASSERT_EXIT(auditor.checkAll("seeded", none),
                ::testing::KilledBySignal(SIGABRT),
                "frame mapped by two valid pages(.|\n)*also mapped by");
}

TEST_F(AuditFixture, PendingValidPageFires)
{
    makeResident(page(0));
    // Corrupt: an MSHR entry for a page that already landed.
    mshr.registerPrefetch(page(0));
    ASSERT_EXIT(auditor.checkAll("seeded", none),
                ::testing::KilledBySignal(SIGABRT),
                "page both valid and in-flight");
}

TEST_F(AuditFixture, FrameAccountingLeakFires)
{
    makeResident(page(0));
    // Corrupt: a frame handed out that nothing accounts for.
    frames.allocate();
    ASSERT_EXIT(auditor.checkAll("seeded", none),
                ::testing::KilledBySignal(SIGABRT),
                "frame accounting does not close(.|\n)*counts");
}

TEST_F(AuditFixture, VictimDuplicateFires)
{
    makeResident(page(0));
    ASSERT_EXIT(auditor.checkVictims("seeded", EvictionKind::lru4k,
                                     {page(0), page(0)}, 0),
                ::testing::KilledBySignal(SIGABRT),
                "duplicate eviction victim");
}

TEST_F(AuditFixture, VictimNonResidentFires)
{
    makeResident(page(0));
    ASSERT_EXIT(auditor.checkVictims("seeded", EvictionKind::lru4k,
                                     {page(7)}, 0),
                ::testing::KilledBySignal(SIGABRT),
                "non-resident eviction victim(.|\n)*victims    : "
                "[0-9]+\\*");
}

TEST_F(AuditFixture, VictimInReservedPrefixFires)
{
    for (int i = 0; i < 8; ++i)
        makeResident(page(i));
    // page(0) is the coldest; with 4 reserved pages it is protected.
    ASSERT_EXIT(auditor.checkVictims("seeded", EvictionKind::lru4k,
                                     {page(0)}, 4),
                ::testing::KilledBySignal(SIGABRT),
                "eviction victim inside reserved LRU prefix");
}

TEST_F(AuditFixture, VictimInFlightAllowedForTbneOnly)
{
    // An in-flight victim is legal for TBNe (the GMMU filters it and
    // restores the mark) but a bug for every other policy.
    space.treeFor(page(0))->markPage(page(0));
    mshr.registerPrefetch(page(0));
    auditor.checkVictims("ok", EvictionKind::treeBasedNeighborhood,
                         {page(0)}, 0);
    ASSERT_EXIT(auditor.checkVictims("seeded", EvictionKind::sequentialLocal,
                                     {page(0)}, 0),
                ::testing::KilledBySignal(SIGABRT),
                "non-resident eviction victim");
}

// ---------------------------------------------------------------------
// GMMU integration: the wired-in auditor sweeps a real oversubscribed
// run for every eviction kind without firing.
// ---------------------------------------------------------------------

namespace
{

struct AuditedHarness
{
    EventQueue eq;
    Closures closures;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;

    AuditedHarness(std::uint64_t num_frames, GmmuConfig cfg)
        : pcie(eq, PcieBandwidthModel{}),
          frames(num_frames),
          gmmu(eq, pcie, frames, pt, space, cfg)
    {
    }

    void
    touch(Addr addr, bool write = false)
    {
        MemAccess m;
        m.addr = addr;
        m.size = 128;
        m.is_write = write;
        bool done = false;
        gmmu.translate(m, closures.thunk([&] { done = true; }));
        eq.run();
        ASSERT_TRUE(done);
    }
};

} // namespace

class AuditedPolicyMatrix
    : public ::testing::TestWithParam<std::tuple<EvictionKind,
                                                 PrefetcherKind>>
{
};

TEST_P(AuditedPolicyMatrix, OversubscribedRunStaysConsistent)
{
    const auto &[eviction, prefetcher] = GetParam();

    GmmuConfig cfg;
    cfg.prefetcher_before = prefetcher;
    cfg.prefetcher_after = prefetcher;
    cfg.eviction = eviction;
    cfg.lru_reserve_fraction = 0.1;
    cfg.audit = true;

    AuditedHarness h(2 * pagesPerBasicBlock, cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    // Drive well past device capacity, with rewrites for dirty paths.
    for (std::uint64_t i = 0; i < 6 * pagesPerBasicBlock; ++i)
        h.touch(alloc.base() + i * pageSize, i % 3 == 0);
    for (std::uint64_t i = 0; i < 2 * pagesPerBasicBlock; ++i)
        h.touch(alloc.base() + i * pageSize);

    ASSERT_TRUE(h.gmmu.auditEnabled());
    EXPECT_GT(h.gmmu.auditor()->checksPerformed(), 0u);
    // End-state agreement, independently of the auditor.
    EXPECT_EQ(h.pt.validPages(), h.gmmu.residency().size());
    EXPECT_LE(h.pt.validPages(), h.frames.totalFrames());
}

INSTANTIATE_TEST_SUITE_P(
    AllEvictionsKeyPrefetchers, AuditedPolicyMatrix,
    ::testing::Combine(
        ::testing::Values(EvictionKind::lru4k, EvictionKind::random4k,
                          EvictionKind::sequentialLocal,
                          EvictionKind::treeBasedNeighborhood,
                          EvictionKind::lru2mb, EvictionKind::mru4k),
        ::testing::Values(PrefetcherKind::none,
                          PrefetcherKind::sequentialLocal,
                          PrefetcherKind::treeBasedNeighborhood)),
    [](const auto &info) {
        return toString(std::get<0>(info.param)) + "_" +
               toString(std::get<1>(info.param));
    });

} // namespace uvmsim
