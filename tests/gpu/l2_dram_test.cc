/** @file Unit tests for the L2 cache and the DRAM channel model. */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "closure_events.hh"
#include "gpu/dram.hh"
#include "gpu/l2_cache.hh"

namespace uvmsim
{

TEST(L2Cache, MissThenHit)
{
    L2Cache l2(kib(16), 4, 128);
    EXPECT_FALSE(l2.access(0x1000, false)); // miss, fills
    EXPECT_TRUE(l2.access(0x1000, false));  // hit
    EXPECT_TRUE(l2.access(0x1040, false));  // same 128B line
    EXPECT_EQ(l2.hits(), 2u);
    EXPECT_EQ(l2.misses(), 1u);
}

TEST(L2Cache, DistinctLinesMissIndependently)
{
    L2Cache l2(kib(16), 4, 128);
    EXPECT_FALSE(l2.access(0x0, false));
    EXPECT_FALSE(l2.access(0x80, false));
    EXPECT_TRUE(l2.access(0x0, false));
    EXPECT_TRUE(l2.access(0x80, false));
}

TEST(L2Cache, LruEvictionWithinSet)
{
    // 2-way, 128B lines, 2 sets (512B total): lines 0x000, 0x100,
    // 0x200 map to set 0.
    L2Cache l2(512, 2, 128);
    l2.access(0x000, false);
    l2.access(0x100, false);
    l2.access(0x000, false); // refresh 0x000
    l2.access(0x200, false); // evicts 0x100
    EXPECT_TRUE(l2.contains(0x000));
    EXPECT_FALSE(l2.contains(0x100));
    EXPECT_TRUE(l2.contains(0x200));
}

TEST(L2Cache, InvalidatePageDropsAllItsLines)
{
    L2Cache l2(kib(64), 8, 128);
    for (Addr a = 0; a < pageSize; a += 128)
        l2.access(a, false);
    l2.access(pageSize, false); // line of the next page
    l2.invalidatePage(0);
    for (Addr a = 0; a < pageSize; a += 128)
        EXPECT_FALSE(l2.contains(a));
    EXPECT_TRUE(l2.contains(pageSize));
}

TEST(L2Cache, FlushAllEmptiesCache)
{
    L2Cache l2(kib(16), 4, 128);
    l2.access(0x0, false);
    l2.access(0x1000, true);
    l2.flushAll();
    EXPECT_FALSE(l2.contains(0x0));
    EXPECT_FALSE(l2.contains(0x1000));
}

TEST(L2Cache, ContainsIsSideEffectFree)
{
    L2Cache l2(512, 2, 128);
    l2.access(0x000, false);
    l2.access(0x100, false);
    EXPECT_TRUE(l2.contains(0x000)); // must NOT refresh
    l2.access(0x200, false);         // evicts 0x000 (still LRU)
    EXPECT_FALSE(l2.contains(0x000));
}

TEST(L2Cache, BadGeometryDies)
{
    EXPECT_DEATH(L2Cache(1000, 4, 128), "");
    EXPECT_DEATH(L2Cache(kib(16), 0, 128), "");
    EXPECT_DEATH(L2Cache(kib(16), 4, 100), "");
}

TEST(DramModel, FixedLatencyWhenIdle)
{
    EventQueue eq;
    DramModel dram(eq, nanoseconds(200), 320.0);
    Tick done = dram.access(128);
    // occupancy: 128B at 320GB/s = 0.4ns; latency 200ns.
    EXPECT_NEAR(ticksToNanoseconds(done), 200.4, 0.1);
}

TEST(DramModel, BandwidthSerializesBursts)
{
    EventQueue eq;
    DramModel dram(eq, nanoseconds(200), 320.0);
    Tick last = 0;
    for (int i = 0; i < 100; ++i)
        last = dram.access(128);
    // 100 x 128B at 320 GB/s = 40ns of occupancy + 200ns latency.
    EXPECT_NEAR(ticksToNanoseconds(last), 240.0, 1.0);
}

TEST(DramModel, OccupancyDrainsOverTime)
{
    EventQueue eq;
    DramModel dram(eq, nanoseconds(100), 32.0);
    dram.access(3200); // 100ns occupancy
    ClosureEvents ev(eq);
    ev.at(microseconds(1), [] {});
    eq.run();
    // Channel long idle: new access starts fresh.
    Tick done = dram.access(32); // 1ns occupancy
    EXPECT_NEAR(ticksToNanoseconds(done - eq.curTick()), 101.0, 0.5);
}

} // namespace uvmsim
