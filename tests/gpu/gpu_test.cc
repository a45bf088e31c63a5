/** @file End-to-end tests of the GPU execution model. */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "core/gmmu.hh"
#include "gpu/gpu.hh"

namespace uvmsim
{

namespace
{

/** A complete small system driving real kernels. */
struct GpuHarness
{
    EventQueue eq;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;
    GpuConfig gcfg;
    Gpu gpu;

    explicit GpuHarness(std::uint64_t num_frames = 4096,
                        GmmuConfig mmu_cfg = GmmuConfig{},
                        GpuConfig gpu_cfg = smallGpu())
        : pcie(eq, PcieBandwidthModel{}),
          frames(num_frames),
          gmmu(eq, pcie, frames, pt, space, mmu_cfg),
          gcfg(gpu_cfg),
          gpu(eq, gcfg, gmmu)
    {
    }

    static GpuConfig
    smallGpu()
    {
        GpuConfig cfg;
        cfg.num_sms = 4;
        cfg.max_warps_per_sm = 8;
        cfg.max_tbs_per_sm = 2;
        return cfg;
    }

    /** Run one kernel to completion; returns true if it finished. */
    bool
    runKernel(Kernel &kernel)
    {
        bool done = false;
        gpu.launch(kernel, [&] { done = true; });
        eq.run();
        return done;
    }
};

/** A trivial kernel: `blocks` blocks x `warps` warps, each streaming
 *  `ops` reads of consecutive 128B chunks starting at base. */
std::unique_ptr<GridKernel>
streamKernel(Addr base, std::uint64_t blocks, std::uint32_t warps,
             std::uint32_t ops)
{
    return std::make_unique<GridKernel>(
        "stream", blocks, [=](std::uint64_t tb) {
            std::vector<std::unique_ptr<WarpTrace>> out;
            for (std::uint32_t w = 0; w < warps; ++w) {
                std::vector<WarpOp> trace;
                for (std::uint32_t i = 0; i < ops; ++i) {
                    WarpOp op;
                    op.compute_cycles = 4;
                    Addr a = base + ((tb * warps + w) *
                                     static_cast<Addr>(ops) + i) * 128;
                    op.accesses.push_back(TraceAccess{a, 128, false});
                    trace.push_back(std::move(op));
                }
                out.push_back(
                    std::make_unique<VectorTrace>(std::move(trace)));
            }
            return out;
        });
}

/** One block of one warp running exactly `ops`. */
std::unique_ptr<GridKernel>
opsKernel(std::vector<WarpOp> ops)
{
    return std::make_unique<GridKernel>(
        "ops", 1, [ops](std::uint64_t) {
            std::vector<std::unique_ptr<WarpTrace>> out;
            out.push_back(std::make_unique<VectorTrace>(ops));
            return out;
        });
}

/** An op of `compute` cycles reading 128B at each address. */
WarpOp
readOp(Cycles compute, std::vector<Addr> addrs)
{
    WarpOp op;
    op.compute_cycles = compute;
    for (Addr a : addrs)
        op.accesses.push_back(TraceAccess{a, 128, false});
    return op;
}

/** What one mixed-op run observed. */
struct MixedRun
{
    std::uint64_t events = 0;    //!< Events executed, whole run.
    Tick done_at = 0;            //!< Kernel (= last op) completion.
    Tick fault_accounted = 0;    //!< When the far fault's access ran.
    std::vector<Tick> accounted; //!< Every access of the mixed op.
};

/**
 * One warp: op 1 far-faults page A (its 64KB block migrates, A enters
 * the TLB); after a long compute burst op 2 mixes TLB hits on A
 * (1 + extra_hits of them), a walk to B (resident, not in the TLB)
 * and a walk that far-faults C in another 2MB region.
 */
MixedRun
runMixedOp(std::uint32_t extra_hits)
{
    GpuConfig cfg = GpuHarness::smallGpu();
    cfg.num_sms = 1;
    GpuHarness h(4096, GmmuConfig{}, cfg);
    const Addr a = h.space.allocate(mib(4), "a").base();
    const Addr b = a + pageSize;
    const Addr c = a + mib(2);

    std::vector<Addr> mixed(1 + extra_hits, a);
    mixed.push_back(b);
    mixed.push_back(c);
    auto kernel = opsKernel({readOp(4, {a}), readOp(100000, mixed)});

    MixedRun run;
    h.gmmu.setAccessObserver([&](Tick t, PageNum page, bool) {
        run.accounted.push_back(t);
        if (page == pageOf(c))
            run.fault_accounted = t;
    });
    h.gpu.launch(*kernel, [&] { run.done_at = h.eq.curTick(); });
    h.eq.run();
    run.events = h.eq.executed();
    run.accounted.erase(run.accounted.begin()); // op 1's access
    return run;
}

} // namespace

TEST(Gpu, MixedOpRetiresOnceAtItsLatestCompletion)
{
    const MixedRun one = runMixedOp(0);
    const MixedRun four = runMixedOp(3);

    ASSERT_EQ(one.accounted.size(), 3u);
    ASSERT_EQ(four.accounted.size(), 6u);
    ASSERT_GT(one.fault_accounted, 0u);
    // The far fault is the op's last access, by far: hits and the walk
    // are accounted when the op issues, the fault a service later.
    for (Tick t : one.accounted)
        EXPECT_LE(t, one.fault_accounted);
    EXPECT_GE(one.fault_accounted - one.accounted.front(),
              GmmuConfig{}.fault_handling_latency);
    // The op retires at the far-faulted access's own completion: after
    // it was accounted, within one memory round trip.
    EXPECT_GT(one.done_at, one.fault_accounted);
    EXPECT_LT(one.done_at - one.fault_accounted, microseconds(1));

    // Three more TLB hits in the op add no event: an op has one
    // completion event however many accesses it issues.
    EXPECT_EQ(four.events, one.events);
    EXPECT_EQ(four.done_at, one.done_at);
    EXPECT_EQ(four.fault_accounted, one.fault_accounted);
}

TEST(Gpu, EachOpCostsAnIssueAndOneCompletionEvent)
{
    // Warm page A into the L1, L2 and TLB, then time kernels whose
    // ops only hit: an op adds its issue event and one completion,
    // whatever its access count.
    auto events = [](std::uint32_t ops, std::uint32_t accesses) {
        GpuConfig cfg = GpuHarness::smallGpu();
        cfg.num_sms = 1;
        GpuHarness h(4096, GmmuConfig{}, cfg);
        const Addr a = h.space.allocate(mib(2), "a").base();
        auto warm = opsKernel({readOp(4, {a})});
        EXPECT_TRUE(h.runKernel(*warm));
        const std::uint64_t before = h.eq.executed();
        std::vector<WarpOp> trace(
            ops, readOp(4, std::vector<Addr>(accesses, a)));
        auto kernel = opsKernel(std::move(trace));
        EXPECT_TRUE(h.runKernel(*kernel));
        return h.eq.executed() - before;
    };
    const std::uint64_t base = events(1, 1);
    EXPECT_EQ(events(1, 8), base);
    EXPECT_EQ(events(2, 8), base + 2);
    EXPECT_EQ(events(5, 3), base + 8);
}

TEST(Gpu, EmptyKernelCompletes)
{
    GpuHarness h;
    GridKernel kernel("empty", 0, [](std::uint64_t) {
        return std::vector<std::unique_ptr<WarpTrace>>{};
    });
    EXPECT_TRUE(h.runKernel(kernel));
    EXPECT_EQ(h.gpu.kernelsCompleted(), 1u);
}

TEST(Gpu, SingleWarpKernelTouchesItsPages)
{
    GpuHarness h;
    auto &alloc = h.space.allocate(mib(2), "a");
    auto kernel = streamKernel(alloc.base(), 1, 1, 32); // 4KB touched
    EXPECT_TRUE(h.runKernel(*kernel));
    EXPECT_TRUE(h.pt.isValid(pageOf(alloc.base())));
    EXPECT_GT(h.gpu.totalKernelTime(), 0u);
}

TEST(Gpu, AllBlocksRunEvenWhenExceedingSmCapacity)
{
    GpuHarness h;
    auto &alloc = h.space.allocate(mib(4), "a");
    // 32 blocks on a 4-SM, 2-TB/SM GPU: must queue and drain.
    auto kernel = streamKernel(alloc.base(), 32, 2, 8);
    EXPECT_TRUE(h.runKernel(*kernel));
    stats::StatRegistry reg;
    h.gpu.registerStats(reg);
    EXPECT_DOUBLE_EQ(reg.at("gpu.blocks_dispatched").value(), 32.0);
}

TEST(Gpu, KernelTimeAccumulatesAcrossLaunches)
{
    GpuHarness h;
    auto &alloc = h.space.allocate(mib(2), "a");
    auto k1 = streamKernel(alloc.base(), 2, 2, 8);
    EXPECT_TRUE(h.runKernel(*k1));
    Tick after_first = h.gpu.totalKernelTime();
    auto k2 = streamKernel(alloc.base(), 2, 2, 8);
    EXPECT_TRUE(h.runKernel(*k2));
    EXPECT_GT(h.gpu.totalKernelTime(), after_first);
    EXPECT_EQ(h.gpu.kernelsCompleted(), 2u);
}

TEST(Gpu, SecondKernelReusesResidentPagesFaster)
{
    GpuHarness h;
    auto &alloc = h.space.allocate(mib(2), "a");
    auto k1 = streamKernel(alloc.base(), 4, 2, 32);
    h.runKernel(*k1);
    Tick first = h.gpu.totalKernelTime();
    auto k2 = streamKernel(alloc.base(), 4, 2, 32);
    h.runKernel(*k2);
    Tick second = h.gpu.totalKernelTime() - first;
    // No far-faults the second time: dramatically faster.
    EXPECT_LT(second * 5, first);
}

TEST(Gpu, TlbShootdownReachesEverySm)
{
    GpuHarness h;
    auto &alloc = h.space.allocate(mib(2), "a");
    auto kernel = streamKernel(alloc.base(), 4, 2, 8);
    h.runKernel(*kernel);
    // After the run some SM TLB holds the first page; invalidation
    // must drop it everywhere (exercised via the GMMU hook).
    h.gpu.invalidatePage(pageOf(alloc.base()));
    stats::StatRegistry reg;
    h.gpu.registerStats(reg);
    // No assertion beyond "does not crash" is possible on private
    // TLBs here; the L2 side is observable:
    EXPECT_FALSE(h.gpu.l2().contains(alloc.base()));
}

TEST(Gpu, L2CachesRepeatedAccesses)
{
    GpuHarness h;
    auto &alloc = h.space.allocate(mib(2), "a");
    auto k1 = streamKernel(alloc.base(), 1, 1, 16);
    h.runKernel(*k1);
    std::uint64_t misses_first = h.gpu.l2().misses();
    auto k2 = streamKernel(alloc.base(), 1, 1, 16);
    h.runKernel(*k2);
    // Second pass hits in L2: no new misses.
    EXPECT_EQ(h.gpu.l2().misses(), misses_first);
    EXPECT_GT(h.gpu.l2().hits(), 0u);
}

TEST(Gpu, LaunchWhileBusyDies)
{
    GpuHarness h;
    auto &alloc = h.space.allocate(mib(2), "a");
    auto k1 = streamKernel(alloc.base(), 1, 1, 4);
    auto k2 = streamKernel(alloc.base(), 1, 1, 4);
    h.gpu.launch(*k1, [] {});
    EXPECT_DEATH(h.gpu.launch(*k2, [] {}), "launched while");
}

TEST(Gpu, OversizedThreadBlockIsFatal)
{
    GpuHarness h;
    auto &alloc = h.space.allocate(mib(2), "a");
    // 100 warps > 8-warp SM limit.
    auto kernel = streamKernel(alloc.base(), 1, 100, 1);
    EXPECT_EXIT(h.runKernel(*kernel), ::testing::ExitedWithCode(1),
                "exceeds");
}

TEST(Gpu, WarpsWithEmptyOpsStillRetire)
{
    GpuHarness h;
    GridKernel kernel("compute_only", 2, [](std::uint64_t) {
        std::vector<std::unique_ptr<WarpTrace>> out;
        std::vector<WarpOp> trace(10); // pure compute, zero cycles
        out.push_back(std::make_unique<VectorTrace>(std::move(trace)));
        return out;
    });
    EXPECT_TRUE(h.runKernel(kernel));
}

} // namespace uvmsim
