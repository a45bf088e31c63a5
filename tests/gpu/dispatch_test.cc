/** @file Tests for the GPU thread-block dispatcher. */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include <set>

#include "closure_events.hh"
#include "core/gmmu.hh"
#include "gpu/gpu.hh"

namespace uvmsim
{

namespace
{

struct DispatchHarness
{
    EventQueue eq;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;
    GpuConfig gcfg;
    std::unique_ptr<Gpu> gpu;

    explicit DispatchHarness(std::uint32_t sms, std::uint32_t max_tbs,
                             std::uint32_t max_warps)
        : pcie(eq, PcieBandwidthModel{}),
          frames(4096),
          gmmu(eq, pcie, frames, pt, space, GmmuConfig{})
    {
        gcfg.num_sms = sms;
        gcfg.max_tbs_per_sm = max_tbs;
        gcfg.max_warps_per_sm = max_warps;
        gpu = std::make_unique<Gpu>(eq, gcfg, gmmu);
    }
};

/** Pure-compute kernel whose block ids are recorded as they start. */
std::unique_ptr<GridKernel>
computeKernel(std::uint64_t blocks, std::uint32_t warps,
              Cycles cycles_per_op, std::uint32_t ops)
{
    return std::make_unique<GridKernel>(
        "compute", blocks, [=](std::uint64_t) {
            std::vector<std::unique_ptr<WarpTrace>> out;
            for (std::uint32_t w = 0; w < warps; ++w) {
                std::vector<WarpOp> trace(ops);
                for (auto &op : trace)
                    op.compute_cycles = cycles_per_op;
                out.push_back(
                    std::make_unique<VectorTrace>(std::move(trace)));
            }
            return out;
        });
}

} // namespace

TEST(Dispatch, AllBlocksRunOnTinyGpu)
{
    DispatchHarness h(2, 1, 4);
    auto kernel = computeKernel(20, 2, 50, 10);
    bool done = false;
    h.gpu->launch(*kernel, [&] { done = true; });
    h.eq.run();
    EXPECT_TRUE(done);
    stats::StatRegistry reg;
    h.gpu->registerStats(reg);
    EXPECT_DOUBLE_EQ(reg.at("gpu.blocks_dispatched").value(), 20.0);
    // Warps must retire across both SMs (round-robin placement).
    EXPECT_GT(reg.at("sm0.warps_retired").value(), 0.0);
    EXPECT_GT(reg.at("sm1.warps_retired").value(), 0.0);
}

TEST(Dispatch, RoundRobinBalancesInitialPlacement)
{
    DispatchHarness h(4, 4, 16);
    // Exactly 8 long-running blocks of 4 warps: 2 per SM fit at once.
    auto kernel = computeKernel(8, 4, 10000, 2);
    h.gpu->launch(*kernel, [] {});
    // Run just past the launch overhead so dispatch has happened but
    // nothing has finished.
    h.eq.run(h.gcfg.kernel_launch_overhead + 10);
    stats::StatRegistry reg;
    h.gpu->registerStats(reg);
    EXPECT_DOUBLE_EQ(reg.at("gpu.blocks_dispatched").value(), 8.0);
    h.eq.run();
}

TEST(Dispatch, WarpBudgetLimitsConcurrentBlocks)
{
    // 1 SM, 8-warp budget, 4-warp blocks: only 2 blocks resident even
    // though max_tbs allows 4.
    DispatchHarness h(1, 4, 8);
    auto kernel = computeKernel(4, 4, 1000, 1);
    h.gpu->launch(*kernel, [] {});
    h.eq.run(h.gcfg.kernel_launch_overhead + 10);
    stats::StatRegistry reg;
    h.gpu->registerStats(reg);
    EXPECT_DOUBLE_EQ(reg.at("gpu.blocks_dispatched").value(), 2.0);
    h.eq.run();
    stats::StatRegistry reg2;
    h.gpu->registerStats(reg2);
    EXPECT_DOUBLE_EQ(reg2.at("gpu.blocks_dispatched").value(), 4.0);
}

TEST(Dispatch, MixedBlockSizesAllPlaced)
{
    DispatchHarness h(2, 2, 8);
    // Alternate 1-warp and 7-warp blocks.
    GridKernel kernel("mixed", 6, [](std::uint64_t tb) {
        std::vector<std::unique_ptr<WarpTrace>> out;
        std::uint32_t warps = (tb % 2) ? 7 : 1;
        for (std::uint32_t w = 0; w < warps; ++w) {
            std::vector<WarpOp> trace(3);
            for (auto &op : trace)
                op.compute_cycles = 20;
            out.push_back(
                std::make_unique<VectorTrace>(std::move(trace)));
        }
        return out;
    });
    bool done = false;
    h.gpu->launch(kernel, [&] { done = true; });
    h.eq.run();
    EXPECT_TRUE(done);
}

TEST(Dispatch, SequentialKernelsReuseTheSameGpu)
{
    DispatchHarness h(2, 2, 8);
    for (int k = 0; k < 5; ++k) {
        auto kernel = computeKernel(4, 2, 30, 4);
        bool done = false;
        h.gpu->launch(*kernel, [&] { done = true; });
        h.eq.run();
        ASSERT_TRUE(done) << "kernel " << k;
    }
    EXPECT_EQ(h.gpu->kernelsCompleted(), 5u);
}

TEST(Dispatch, KernelTimeExcludesGapsBetweenLaunches)
{
    DispatchHarness h(1, 1, 4);
    auto k1 = computeKernel(1, 1, 100, 1);
    bool done = false;
    h.gpu->launch(*k1, [&] { done = true; });
    h.eq.run();
    ASSERT_TRUE(done);
    Tick t1 = h.gpu->totalKernelTime();

    // A long idle gap must not count as kernel time.
    ClosureEvents ev(h.eq);
    ev.after(oneMillisecond, [] {});
    h.eq.run();
    auto k2 = computeKernel(1, 1, 100, 1);
    done = false;
    h.gpu->launch(*k2, [&] { done = true; });
    h.eq.run();
    ASSERT_TRUE(done);
    EXPECT_LT(h.gpu->totalKernelTime(), t1 + oneMillisecond);
    EXPECT_NEAR(static_cast<double>(h.gpu->totalKernelTime()),
                2.0 * static_cast<double>(t1),
                static_cast<double>(t1));
}

} // namespace uvmsim
