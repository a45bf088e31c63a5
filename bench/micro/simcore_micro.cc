/**
 * @file
 * Hot-path micro-benchmarks (google-benchmark) for the pooled/flat
 * simulator core: the heap-ordered EventQueue's schedule, fire and
 * deschedule paths, the intrusive index-linked ResidencyTracker, the
 * implicit-heap LargePageTree walks, the L2 tag store, the
 * open-addressing TLB, the page table and the PCI-e timing model.
 * These isolate each hot structure so a regression in any one is
 * visible without a full sweep; they are not paper artifacts.
 */

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/large_page_tree.hh"
#include "core/residency_tracker.hh"
#include "gpu/gpu_config.hh"
#include "gpu/l2_cache.hh"
#include "interconnect/bandwidth_model.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace uvmsim
{

namespace
{

constexpr Addr base = 0x100000000ull;

void
podNop(void *, std::uint64_t)
{
}

/** Schedule and fire: one arena record and one heap key per event. */
void
BM_EventSchedulePodFire(benchmark::State &state)
{
    EventQueue eq;
    const int batch = 256;
    for (auto _ : state) {
        Tick now = eq.curTick();
        for (int i = 0; i < batch; ++i)
            eq.scheduleCall(now + 1 + (i % 7), &podNop, nullptr, i);
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventSchedulePodFire);

/** Schedule/deschedule churn: lazy reclaim of cancelled slots. */
void
BM_EventDescheduleChurn(benchmark::State &state)
{
    EventQueue eq;
    const int batch = 256;
    std::vector<EventQueue::EventId> ids(batch);
    for (auto _ : state) {
        Tick now = eq.curTick();
        for (int i = 0; i < batch; ++i)
            ids[i] = eq.scheduleCall(now + 1 + i, &podNop, nullptr, i);
        for (int i = 0; i < batch; i += 2)
            eq.deschedule(ids[i]);
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventDescheduleChurn);

/** Wide tick spread: delays from 1 tick up to 2^24 ticks. */
void
BM_EventWideSpread(benchmark::State &state)
{
    const int batch = 512;
    Rng rng(7);
    std::vector<Tick> delays(batch);
    for (int i = 0; i < batch; ++i)
        delays[i] = 1 + rng.below(1ull << (1 + i % 24));
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < batch; ++i)
            eq.scheduleCall(delays[i], &podNop, nullptr, i);
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventWideSpread);

/** Resident/evict churn through the intrusive arenas. */
void
BM_ResidencyResidentEvictChurn(benchmark::State &state)
{
    ResidencyTracker rt;
    const std::uint64_t span = 4 * pagesPerLargePage;
    PageNum first = pageOf(base);
    for (std::uint64_t p = 0; p < span; p += 2)
        rt.onResident(first + p);
    Rng rng(11);
    for (auto _ : state) {
        PageNum page = first + rng.below(span);
        if (rt.isTracked(page))
            rt.onEvicted(page);
        else
            rt.onResident(page);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResidencyResidentEvictChurn);

/** Pure touch path: flat-LRU splice plus hierarchy move-to-front. */
void
BM_ResidencyTouchHot(benchmark::State &state)
{
    ResidencyTracker rt;
    const std::uint64_t span = 2 * pagesPerLargePage;
    PageNum first = pageOf(base);
    for (std::uint64_t p = 0; p < span; ++p)
        rt.onResident(first + p);
    Rng rng(13);
    for (auto _ : state)
        rt.onAccess(first + rng.below(span));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResidencyTouchHot);

/** All five victim queries against a populated tracker. */
void
BM_ResidencyVictimQueries(benchmark::State &state)
{
    ResidencyTracker rt;
    const std::uint64_t span = 8 * pagesPerLargePage;
    PageNum first = pageOf(base);
    for (std::uint64_t p = 0; p < span; p += 3)
        rt.onResident(first + p);
    Rng rng(17);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rt.lruPageVictim(64));
        benchmark::DoNotOptimize(rt.mruPageVictim());
        benchmark::DoNotOptimize(rt.randomPageVictim(rng));
        benchmark::DoNotOptimize(rt.lruBlockVictim(64));
        benchmark::DoNotOptimize(rt.lruLargePageVictim(64));
    }
    state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_ResidencyVictimQueries);

/** Mark/unmark with the ancestor-counter updates. */
void
BM_TreeMarkUnmark(benchmark::State &state)
{
    LargePageTree tree(base, 32);
    PageNum first = pageOf(base);
    Rng rng(19);
    for (auto _ : state) {
        PageNum page = first + rng.below(pagesPerLargePage);
        if (tree.pageMarked(page))
            tree.unmarkPage(page);
        else
            tree.markPage(page);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeMarkUnmark);

/** Full fill/drain balancing walks over the implicit heap. */
void
BM_TreeFillDrainCycle(benchmark::State &state)
{
    PageNum first = pageOf(base);
    for (auto _ : state) {
        LargePageTree tree(base, 32);
        tree.faultFill(first);
        tree.faultFill(first + pagesPerLargePage / 2);
        for (std::uint32_t leaf = 0; leaf < 32; leaf += 4)
            tree.evictDrain(leaf);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeFillDrainCycle);

/** Aggregate reads for every node: one array load each. */
void
BM_TreeNodeWalk(benchmark::State &state)
{
    LargePageTree tree(base, 32);
    tree.faultFill(pageOf(base));
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::uint32_t h = 0; h <= tree.rootHeight(); ++h)
            for (std::uint32_t i = 0; i < (32u >> h); ++i)
                sink += tree.nodeMarkedBytes(h, i);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 63);
}
BENCHMARK(BM_TreeNodeWalk);

/** L2 tag-store probe at the paper geometry (miss-dominated). */
void
BM_L2CacheAccess(benchmark::State &state)
{
    const GpuConfig gpu;
    L2Cache l2(gpu.l2_bytes, gpu.l2_assoc, gpu.l2_line_bytes, "bench_l2");
    Rng rng(23);
    const Addr span = 64ull << 20;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            l2.access(base + (rng.below(span) & ~Addr{127}), false));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2CacheAccess);

/**
 * Whole-page read as the SM issues it: one 32-line run through the
 * L1, then one L2 run over the L1 misses.  Items are lines.
 */
void
BM_CachePageRun(benchmark::State &state)
{
    const GpuConfig gpu;
    L2Cache l1(gpu.l1_bytes, gpu.l1_assoc, gpu.l2_line_bytes, "bench_l1");
    L2Cache l2(gpu.l2_bytes, gpu.l2_assoc, gpu.l2_line_bytes, "bench_l2");
    const auto shift = static_cast<std::uint32_t>(
        std::bit_width(gpu.l2_line_bytes) - 1);
    const auto lines = static_cast<std::uint32_t>(pageSize >> shift);
    const std::uint64_t all = (std::uint64_t{1} << lines) - 1;
    Rng rng(37);
    const std::uint64_t pages = (64ull << 20) / pageSize;
    for (auto _ : state) {
        Addr first = (base + rng.below(pages) * pageSize) >> shift;
        std::uint64_t miss = all & ~l1.accessLines(first, lines, all);
        benchmark::DoNotOptimize(l2.accessLines(first, lines, miss));
    }
    state.SetItemsProcessed(state.iterations() * lines);
}
BENCHMARK(BM_CachePageRun);

/** 48-set L1 geometry: exercises the fastmod set index. */
void
BM_L1CacheAccess(benchmark::State &state)
{
    L2Cache l1(24ull << 10, 4, 128, "bench_l1");
    Rng rng(29);
    const Addr span = 1ull << 20;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            l1.access(base + (rng.below(span) & ~Addr{127}), false));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1CacheAccess);

/** Open-addressing TLB: hit-heavy lookup mix with LRU reordering. */
void
BM_TlbLookupInsert(benchmark::State &state)
{
    Tlb tlb("bench_tlb", 64);
    PageNum first = pageOf(base);
    for (std::uint64_t p = 0; p < 64; ++p)
        tlb.insert(first + p);
    Rng rng(31);
    for (auto _ : state) {
        PageNum page = first + rng.below(96);
        if (!tlb.lookup(page))
            tlb.insert(page);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupInsert);

/** Page-table map/invalidate churn over a 4 GB page range. */
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

/** PCI-e transfer-latency lookup for 4 KB .. 2 MB transfers. */
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
