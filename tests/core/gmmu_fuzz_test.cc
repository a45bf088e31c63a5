/**
 * @file
 * Randomized stress tests of the GMMU, driven by the fuzzing
 * subsystem's workload generator (src/testing/workload_gen.hh): the
 * generated allocation mixes cover single-leaf 64KB trees, 16-leaf 1MB
 * trees, exact 2MB large pages, and non-power-of-two tails that
 * exercise the 2^i * 64KB remainder rounding.  Traffic is the spec's
 * canonical access stream, replayed in concurrent bursts (harsher than
 * the serialized differential runs) through every policy combination
 * on a tiny device memory, then the global cross-subsystem invariants
 * are checked once the event queue drains.
 */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include <tuple>

#include "core/gmmu.hh"
#include "interconnect/pcie_link.hh"
#include "testing/workload_gen.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

using FuzzParam =
    std::tuple<PrefetcherKind, EvictionKind, std::uint64_t /*seed*/>;

class GmmuFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

/** A generated spec's allocations, materialized in a ManagedSpace.
 *  The generator mirrors the driver's VA layout, so the spec-relative
 *  access addresses hit the real allocations unmodified. */
void
materializeAllocs(const fuzzing::FuzzSpec &spec, ManagedSpace &space)
{
    const auto layouts = fuzzing::layoutAllocations(spec);
    for (std::size_t i = 0; i < spec.allocs.size(); ++i) {
        auto &alloc = space.allocate(spec.allocs[i].bytes,
                                     "fuzz" + std::to_string(i));
        ASSERT_EQ(alloc.base(), layouts[i].base)
            << "generator VA layout diverged from ManagedSpace";
    }
}

/** Replay a spec's access stream in concurrent bursts and check the
 *  end-state invariants. */
void
stressWithSpec(const fuzzing::FuzzSpec &spec, std::uint64_t frames_total)
{
    EventQueue eq;
    Closures closures;
    PcieLink pcie(eq, PcieBandwidthModel{});
    FrameAllocator frames(frames_total);
    PageTable pt;
    ManagedSpace space;
    GmmuConfig cfg;
    cfg.prefetcher_before = spec.prefetcher_before;
    cfg.prefetcher_after = spec.prefetcher_after;
    cfg.eviction = spec.eviction;
    cfg.seed = spec.seed;
    Gmmu gmmu(eq, pcie, frames, pt, space, cfg);

    materializeAllocs(spec, space);

    Rng rng(spec.seed * 77 + 1);
    std::uint64_t completions = 0;
    std::uint64_t issued = 0;
    int in_burst = 0;
    int burst_size = 1 + static_cast<int>(rng.below(24));
    for (const fuzzing::FuzzAccess &access :
         fuzzing::accessStream(spec)) {
        MemAccess m;
        m.addr = access.addr;
        m.size = 128;
        m.is_write = access.is_write;
        ++issued;
        gmmu.translate(m, closures.thunk([&completions] { ++completions; }));
        if (++in_burst >= burst_size) {
            eq.run();
            in_burst = 0;
            burst_size = 1 + static_cast<int>(rng.below(24));
        }
    }
    eq.run();

    // 1. Every access eventually completed.
    EXPECT_EQ(completions, issued);

    // 2. Device frame accounting matches the page table exactly.
    EXPECT_EQ(pt.validPages(), frames.usedFrames());
    EXPECT_LE(pt.validPages(), frames_total);

    // 3. The residency tracker agrees with the page table.
    EXPECT_EQ(gmmu.residency().size(), pt.validPages());
    EXPECT_TRUE(gmmu.residency().checkConsistent());

    // 4. With the queue drained, tree marks equal valid pages (no
    //    in-flight migrations remain), across every allocation.
    std::uint64_t marked = 0;
    for (const auto &alloc : space.allocations())
        for (const auto &tree : alloc->trees())
            marked += tree->totalMarkedBytes() / pageSize;
    EXPECT_EQ(marked, pt.validPages());

    // 5. Nothing is left pending in the MSHRs.
    EXPECT_EQ(gmmu.mshr().pendingPages(), 0u);
    EXPECT_EQ(gmmu.mshr().pendingWaiters(), 0u);
}

} // namespace

TEST_P(GmmuFuzz, InvariantsHoldAfterGeneratedTraffic)
{
    const auto [prefetcher, eviction, seed] = GetParam();

    // The generated mix varies allocation count, sizes (including
    // tails that are not 64KB multiples) and access patterns with the
    // seed; the policy pair under test is overlaid on top.
    fuzzing::FuzzSpec spec = fuzzing::generateSpec(seed);
    spec.prefetcher_before = prefetcher;
    spec.prefetcher_after = prefetcher;
    spec.eviction = eviction;
    // This harness drives a single-space GMMU; multi-tenant draws are
    // covered by the differential fuzzer.
    spec.tenants = 1;

    stressWithSpec(spec, 96); // tiny device: forces constant eviction
}

TEST_P(GmmuFuzz, SingleLeafTreeExtreme)
{
    const auto [prefetcher, eviction, seed] = GetParam();

    // 64KB allocations produce single-leaf trees: the hierarchical
    // policies (TBNp fill, TBNe drain) degenerate to leaf-only
    // operation and must still balance their books.
    fuzzing::FuzzSpec spec;
    spec.seed = seed;
    spec.prefetcher_before = prefetcher;
    spec.prefetcher_after = prefetcher;
    spec.eviction = eviction;
    spec.allocs = {fuzzing::AllocSpec{basicBlockSize},
                   fuzzing::AllocSpec{basicBlockSize},
                   fuzzing::AllocSpec{basicBlockSize}};
    spec.kernels = {
        fuzzing::KernelSpec{fuzzing::AccessPattern::random, 0, 120, 1,
                            0.5},
        fuzzing::KernelSpec{fuzzing::AccessPattern::streaming, 1, 80, 1,
                            0.0},
        fuzzing::KernelSpec{fuzzing::AccessPattern::hotspot, 2, 120, 1,
                            1.0},
    };

    stressWithSpec(spec, 24); // < one tree's 48 pages: heavy eviction
}

TEST_P(GmmuFuzz, SixteenLeafTreeExtreme)
{
    const auto [prefetcher, eviction, seed] = GetParam();

    // A 1MB allocation is the largest sub-2MB remainder tree (16
    // leaves); a 1MB + 8KB one rounds up to a 2MB-capacity tree that
    // is only half-backed.  Both are the upper extremes of the
    // remainder-rounding path.
    fuzzing::FuzzSpec spec;
    spec.seed = seed;
    spec.prefetcher_before = prefetcher;
    spec.prefetcher_after = prefetcher;
    spec.eviction = eviction;
    spec.allocs = {fuzzing::AllocSpec{mib(1)},
                   fuzzing::AllocSpec{mib(1) + kib(8)}};
    spec.kernels = {
        fuzzing::KernelSpec{fuzzing::AccessPattern::strided, 0, 150, 7,
                            0.3},
        fuzzing::KernelSpec{fuzzing::AccessPattern::random, 1, 150, 1,
                            0.3},
    };

    stressWithSpec(spec, 96);
}

TEST_P(GmmuFuzz, DeterministicUnderSameSeed)
{
    const auto [prefetcher, eviction, seed] = GetParam();

    auto runOnce = [&]() {
        EventQueue eq;
        Closures closures;
        PcieLink pcie(eq, PcieBandwidthModel{});
        FrameAllocator frames(64);
        PageTable pt;
        ManagedSpace space;
        GmmuConfig cfg;
        cfg.prefetcher_before = prefetcher;
        cfg.prefetcher_after = prefetcher;
        cfg.eviction = eviction;
        cfg.seed = seed;
        Gmmu gmmu(eq, pcie, frames, pt, space, cfg);

        fuzzing::FuzzSpec spec = fuzzing::generateSpec(seed);
        spec.prefetcher_before = prefetcher;
        spec.prefetcher_after = prefetcher;
        spec.eviction = eviction;
        spec.tenants = 1;
        materializeAllocs(spec, space);

        int i = 0;
        for (const fuzzing::FuzzAccess &access :
             fuzzing::accessStream(spec)) {
            MemAccess m;
            m.addr = access.addr;
            m.size = 128;
            m.is_write = access.is_write;
            gmmu.translate(m, closures.thunk([] {}));
            if (++i % 16 == 0)
                eq.run();
        }
        eq.run();
        return std::make_tuple(eq.curTick(),
                               pcie.bytesTransferred(
                                   PcieDir::hostToDevice),
                               pcie.bytesTransferred(
                                   PcieDir::deviceToHost),
                               pt.validPages());
    };

    EXPECT_EQ(runOnce(), runOnce());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicyCombos, GmmuFuzz,
    ::testing::Combine(
        ::testing::Values(PrefetcherKind::none, PrefetcherKind::random,
                          PrefetcherKind::sequentialLocal,
                          PrefetcherKind::treeBasedNeighborhood,
                          PrefetcherKind::sequentialGlobal,
                          PrefetcherKind::zhengLocality),
        ::testing::Values(EvictionKind::lru4k, EvictionKind::random4k,
                          EvictionKind::sequentialLocal,
                          EvictionKind::treeBasedNeighborhood,
                          EvictionKind::lru2mb, EvictionKind::mru4k),
        ::testing::Values(3u, 11u)),
    [](const ::testing::TestParamInfo<FuzzParam> &info) {
        return toString(std::get<0>(info.param)) + "_" +
               toString(std::get<1>(info.param)) + "_s" +
               std::to_string(std::get<2>(info.param));
    });

} // namespace uvmsim
