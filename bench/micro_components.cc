/**
 * @file
 * Component micro-benchmarks (google-benchmark): throughput of the
 * hot data structures -- tree balancing, the hierarchical LRU, the
 * page table, and the PCI-e timing model (the event queue's benches
 * live in simcore_micro.cc).  These are regression guards for
 * simulator performance, not paper artifacts.
 */

#include <benchmark/benchmark.h>

#include "core/large_page_tree.hh"
#include "core/residency_tracker.hh"
#include "interconnect/bandwidth_model.hh"
#include "mem/page_table.hh"
#include "sim/rng.hh"

namespace uvmsim
{

namespace
{

constexpr Addr base = 0x100000000ull;

void
BM_TreeFaultFill(benchmark::State &state)
{
    for (auto _ : state) {
        LargePageTree tree(base, 32);
        for (std::uint32_t leaf = 0; leaf < 32; ++leaf)
            benchmark::DoNotOptimize(
                tree.faultFill(tree.leafFirstPage(leaf)));
    }
}
BENCHMARK(BM_TreeFaultFill);

void
BM_TreeEvictDrain(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        LargePageTree tree(base, 32);
        for (std::uint32_t leaf = 0; leaf < 32; ++leaf)
            tree.faultFill(tree.leafFirstPage(leaf));
        state.ResumeTiming();
        for (std::uint32_t leaf = 0; leaf < 32; ++leaf)
            benchmark::DoNotOptimize(tree.evictDrain(leaf));
    }
}
BENCHMARK(BM_TreeEvictDrain);

void
BM_TreeRandomChurn(benchmark::State &state)
{
    LargePageTree tree(base, 32);
    Rng rng(1);
    for (auto _ : state) {
        PageNum page = pageOf(base) + rng.below(pagesPerLargePage);
        if (tree.pageMarked(page))
            benchmark::DoNotOptimize(tree.evictDrain(tree.leafOf(page)));
        else
            benchmark::DoNotOptimize(tree.faultFill(page));
    }
}
BENCHMARK(BM_TreeRandomChurn);

void
BM_ResidencyTouch(benchmark::State &state)
{
    ResidencyTracker rt;
    const std::uint64_t pages = 4096;
    for (PageNum p = 0; p < pages; ++p)
        rt.onResident(p);
    Rng rng(2);
    for (auto _ : state)
        rt.onAccess(rng.below(pages));
}
BENCHMARK(BM_ResidencyTouch);

void
BM_ResidencyBlockVictim(benchmark::State &state)
{
    ResidencyTracker rt;
    for (PageNum p = 0; p < 8192; ++p)
        rt.onResident(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(rt.lruBlockVictim(
            static_cast<std::uint64_t>(state.range(0))));
}
BENCHMARK(BM_ResidencyBlockVictim)->Arg(0)->Arg(256)->Arg(1024);

void
BM_PageTableChurn(benchmark::State &state)
{
    PageTable pt;
    Rng rng(3);
    for (auto _ : state) {
        PageNum p = rng.below(1 << 20);
        if (pt.isValid(p))
            pt.invalidatePage(p);
        else
            pt.mapPage(p, p);
    }
}
BENCHMARK(BM_PageTableChurn);

void
BM_BandwidthLookup(benchmark::State &state)
{
    PcieBandwidthModel model;
    Rng rng(4);
    for (auto _ : state) {
        std::uint64_t bytes = pageSize * (1 + rng.below(512));
        benchmark::DoNotOptimize(model.transferLatency(bytes));
    }
}
BENCHMARK(BM_BandwidthLookup);

} // namespace

} // namespace uvmsim

BENCHMARK_MAIN();
