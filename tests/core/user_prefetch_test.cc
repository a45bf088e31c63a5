/** @file Tests for the cudaMemPrefetchAsync-style prefetchRange path. */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "core/gmmu.hh"
#include "interconnect/pcie_link.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

struct PrefetchHarness
{
    EventQueue eq;
    Closures closures;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;

    explicit PrefetchHarness(std::uint64_t num_frames,
                             GmmuConfig cfg = GmmuConfig{})
        : pcie(eq, PcieBandwidthModel{}),
          frames(num_frames),
          gmmu(eq, pcie, frames, pt, space, cfg)
    {
    }
};

} // namespace

TEST(UserPrefetch, RangeBecomesResident)
{
    PrefetchHarness h(4096);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.gmmu.prefetchRange(alloc.base(), kib(256));
    h.eq.run();
    for (PageNum p = pageOf(alloc.base());
         p < pageOf(alloc.base()) + kib(256) / pageSize; ++p) {
        EXPECT_TRUE(h.pt.isValid(p));
        EXPECT_TRUE(h.gmmu.residency().isTracked(p));
    }
    EXPECT_FALSE(h.pt.isValid(pageOf(alloc.base()) + 64));
}

TEST(UserPrefetch, NoFaultEngineInvolved)
{
    PrefetchHarness h(4096);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.gmmu.prefetchRange(alloc.base(), mib(1));
    h.eq.run();
    EXPECT_EQ(h.gmmu.faultServices(), 0u);
}

TEST(UserPrefetch, SkipsResidentAndInFlightPages)
{
    PrefetchHarness h(4096);
    auto &alloc = h.space.allocate(mib(2), "a");
    stats::StatRegistry reg;
    h.gmmu.registerStats(reg);

    h.gmmu.prefetchRange(alloc.base(), kib(64));
    h.eq.run();
    // Second prefetch of an overlapping range migrates only the
    // missing tail.
    h.gmmu.prefetchRange(alloc.base(), kib(128));
    h.eq.run();
    EXPECT_DOUBLE_EQ(reg.at("gmmu.user_prefetched_pages").value(), 32.0);
    EXPECT_DOUBLE_EQ(reg.at("gmmu.pages_migrated").value(), 32.0);
}

TEST(UserPrefetch, BatchesAreLargeTransfers)
{
    PrefetchHarness h(4096);
    auto &alloc = h.space.allocate(mib(4), "a");
    h.gmmu.prefetchRange(alloc.base(), mib(4));
    h.eq.run();
    // Two 2MB batches, one transfer each.
    EXPECT_EQ(h.pcie.transferCount(PcieDir::hostToDevice), 2u);
    EXPECT_EQ(h.pcie.bytesTransferred(PcieDir::hostToDevice), mib(4));
}

TEST(UserPrefetch, FaultDuringInFlightPrefetchMerges)
{
    PrefetchHarness h(4096);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.gmmu.prefetchRange(alloc.base(), mib(1));
    // Raise a fault on a page of the in-flight range before running.
    bool done = false;
    MemAccess m;
    m.addr = alloc.base() + kib(512);
    m.size = 128;
    h.gmmu.translate(m, h.closures.thunk([&] { done = true; }));
    h.eq.run();
    EXPECT_TRUE(done);
    // The merged fault must not have triggered a second migration.
    EXPECT_EQ(h.pcie.bytesTransferred(PcieDir::hostToDevice), mib(1));
}

TEST(UserPrefetch, OversizedPrefetchEvictsItsOwnTail)
{
    // Prefetch 2x the device memory: the head lands, then evictions
    // recycle frames for the tail; the run must terminate.
    GmmuConfig cfg;
    cfg.eviction = EvictionKind::sequentialLocal;
    PrefetchHarness h(256, cfg); // 1MB of frames
    auto &alloc = h.space.allocate(mib(2), "a");
    h.gmmu.prefetchRange(alloc.base(), mib(2));
    h.eq.run();
    EXPECT_EQ(h.frames.usedFrames(), 256u);
    EXPECT_TRUE(h.gmmu.oversubscribed());
    EXPECT_EQ(h.pt.validPages(), 256u);
}

TEST(UserPrefetch, ZeroBytesIsANoOp)
{
    PrefetchHarness h(64);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.gmmu.prefetchRange(alloc.base(), 0);
    h.eq.run();
    EXPECT_EQ(h.pt.validPages(), 0u);
}

TEST(UserPrefetch, UnmanagedHolesAreSkipped)
{
    PrefetchHarness h(4096);
    auto &alloc = h.space.allocate(kib(128), "a"); // 128KB tree
    // Range extends past the padded allocation into unmanaged space.
    h.gmmu.prefetchRange(alloc.base(), mib(1));
    h.eq.run();
    EXPECT_EQ(h.pt.validPages(), kib(128) / pageSize);
}

} // namespace uvmsim
