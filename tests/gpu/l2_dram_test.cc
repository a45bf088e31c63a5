/** @file Unit tests for the L2 cache and the DRAM channel model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"
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
    EXPECT_DEATH(L2Cache(kib(64), 2, 8192), "larger than a page");
}

namespace
{

/**
 * Reference tag store: per set, the valid lines with 64-bit last-touch
 * timestamps; a miss in a full set evicts the smallest timestamp.  No
 * way placement, no ranks -- only the LRU definition.
 */
class TimestampLru
{
  public:
    TimestampLru(std::uint64_t sets, std::uint32_t assoc,
                 std::uint32_t line_shift)
        : sets_(sets), assoc_(assoc), line_shift_(line_shift)
    {
    }

    bool
    access(Addr line)
    {
        auto &set = sets_[line % sets_.size()];
        ++clock_;
        for (Entry &e : set) {
            if (e.line == line) {
                e.stamp = clock_;
                ++hits_;
                return true;
            }
        }
        if (set.size() == assoc_) {
            set.erase(std::min_element(
                set.begin(), set.end(),
                [](const Entry &a, const Entry &b) {
                    return a.stamp < b.stamp;
                }));
        }
        set.push_back(Entry{line, clock_});
        ++misses_;
        return false;
    }

    bool
    contains(Addr line) const
    {
        for (const Entry &e : sets_[line % sets_.size()])
            if (e.line == line)
                return true;
        return false;
    }

    void
    invalidatePage(PageNum page)
    {
        for (auto &set : sets_) {
            invalidations_ += static_cast<std::uint64_t>(
                std::erase_if(set, [&](const Entry &e) {
                    return (e.line >> (pageShift - line_shift_)) == page;
                }));
        }
    }

    void
    flushAll()
    {
        for (auto &set : sets_)
            set.clear();
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    struct Entry
    {
        Addr line;
        std::uint64_t stamp;
    };

    std::vector<std::vector<Entry>> sets_;
    std::uint32_t assoc_;
    std::uint32_t line_shift_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
};

struct CacheGeometry
{
    std::uint32_t assoc;
    std::uint64_t sets;
    std::uint32_t line_bytes;
};

/**
 * Seeded random access / accessLines / invalidatePage / flushAll /
 * contains against the timestamp oracle; every outcome and both
 * counters must agree after every op.
 */
void
checkAgainstOracle(const CacheGeometry &g, std::uint64_t seed, int ops)
{
    SCOPED_TRACE(::testing::Message()
                 << "assoc=" << g.assoc << " sets=" << g.sets
                 << " line=" << g.line_bytes << " seed=" << seed);
    const auto line_shift = static_cast<std::uint32_t>(
        std::bit_width(g.line_bytes) - 1);
    L2Cache cache(g.sets * g.assoc * g.line_bytes, g.assoc, g.line_bytes,
                  "ref");
    stats::StatRegistry reg;
    cache.registerStats(reg);
    TimestampLru oracle(g.sets, g.assoc, line_shift);
    Rng rng(seed);

    // Three cache capacities of lines: enough reuse for hits, enough
    // conflict for evictions.
    const Addr first_line = Addr{0x40000000} >> line_shift;
    const std::uint64_t span = 3 * g.sets * g.assoc + 64;
    const std::uint64_t lines_per_page = pageSize >> line_shift;

    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(::testing::Message() << "op " << op);
        const std::uint64_t kind = rng.below(100);
        if (kind < 40) {
            Addr line = first_line + rng.below(span);
            bool write = rng.below(2) != 0;
            ASSERT_EQ(cache.access(line << line_shift, write),
                      oracle.access(line));
        } else if (kind < 85) {
            auto n = static_cast<std::uint32_t>(1 + rng.below(64));
            // Half the runs start just below a set-index wrap.
            Addr first = first_line + rng.below(span);
            if (rng.below(2) != 0) {
                first = first - first % g.sets + g.sets - 1 -
                        rng.below(std::min<std::uint64_t>(g.sets, n));
            }
            std::uint64_t want = rng.below(4) == 0 ? ~std::uint64_t{0}
                                                   : rng.next();
            std::uint64_t expect = 0;
            for (std::uint32_t i = 0; i < n; ++i) {
                if ((want >> i) & 1)
                    expect |= static_cast<std::uint64_t>(
                                  oracle.access(first + i))
                              << i;
            }
            ASSERT_EQ(cache.accessLines(first, n, want,
                                        rng.below(2) != 0),
                      expect);
        } else if (kind < 92) {
            PageNum page = (first_line + rng.below(span)) /
                           lines_per_page;
            cache.invalidatePage(page);
            oracle.invalidatePage(page);
            ASSERT_EQ(reg.at("ref.invalidations").value(),
                      static_cast<double>(oracle.invalidations()));
        } else if (kind < 93) {
            cache.flushAll();
            oracle.flushAll();
        } else {
            for (int i = 0; i < 8; ++i) {
                Addr line = first_line + rng.below(span);
                ASSERT_EQ(cache.contains(line << line_shift),
                          oracle.contains(line));
            }
        }
        ASSERT_EQ(cache.hits(), oracle.hits());
        ASSERT_EQ(cache.misses(), oracle.misses());
    }
    for (Addr line = first_line; line < first_line + span; ++line)
        ASSERT_EQ(cache.contains(line << line_shift),
                  oracle.contains(line));
}

} // namespace

TEST(L2Cache, TagStoreMatchesTimestampLruOracle)
{
    // Rank-update paths: 16-byte SSE2 (assoc 16, 32, 112, 128), the
    // 4-byte form (assoc 4), scalar (2, 3, 8, and 144, past the
    // signed-byte range).  Set counts mix powers of two (mask) with others
    // (fastmod), including the 48-set L1 and sets < 64 so line runs
    // wrap the set index.
    const CacheGeometry geometries[] = {
        {2, 5, 128},    {2, 64, 128},  {3, 7, 128},    {4, 48, 128},
        {4, 64, 128},   {4, 192, 32},  {8, 48, 128},   {8, 16, 128},
        {16, 48, 128},  {16, 1024, 128}, {32, 48, 128}, {32, 8, 64},
        {112, 3, 128},  {128, 2, 128}, {144, 2, 128},
    };
    for (const CacheGeometry &g : geometries)
        for (std::uint64_t seed : {1, 2})
            checkAgainstOracle(g, seed, 3000);
}

TEST(L2Cache, AccessLinesSkipsUnwantedLines)
{
    L2Cache l2(kib(16), 4, 128);
    // Lines 0..3 of the run; probe only 1 and 3.
    EXPECT_EQ(l2.accessLines(0, 4, 0b1010, false), 0u);
    EXPECT_EQ(l2.misses(), 2u);
    EXPECT_FALSE(l2.contains(0x000));
    EXPECT_TRUE(l2.contains(0x080));
    EXPECT_FALSE(l2.contains(0x100));
    EXPECT_TRUE(l2.contains(0x180));
    // Bits past n are ignored.
    EXPECT_EQ(l2.accessLines(0, 4, ~std::uint64_t{0}, false), 0b1010u);
    EXPECT_EQ(l2.hits(), 2u);
    EXPECT_EQ(l2.misses(), 4u);
}

TEST(L2Cache, AccessLinesRejectsBadRuns)
{
    L2Cache l2(kib(16), 4, 128);
    EXPECT_DEATH(l2.accessLines(0, 0, 1, false), "line run");
    EXPECT_DEATH(l2.accessLines(0, 65, 1, false), "line run");
    // The guard checks the last line of the run.
    EXPECT_DEATH(l2.accessLines(0xfffffffeull, 2, 1, false), "tag range");
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

TEST(DramModel, BatchedChargeEqualsSingleCalls)
{
    for (std::uint32_t k : {1u, 2u, 7u, 32u, 64u}) {
        for (bool backlog : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "k=" << k << " backlog=" << backlog);
            EventQueue eq_a;
            EventQueue eq_b;
            DramModel batched(eq_a, nanoseconds(220), 320.0);
            DramModel single(eq_b, nanoseconds(220), 320.0);
            if (backlog) {
                // 100 ns of occupancy, half drained when the charge
                // arrives.
                for (EventQueue *eq : {&eq_a, &eq_b}) {
                    (eq == &eq_a ? batched : single).access(32000);
                    ClosureEvents ev(*eq);
                    ev.at(nanoseconds(50), [] {});
                    eq->run();
                }
            }
            Tick one = batched.access(128, k);
            Tick many = 0;
            for (std::uint32_t i = 0; i < k; ++i)
                many = single.access(128);
            EXPECT_EQ(one, many);
            // The channel is left equally busy.
            EXPECT_EQ(batched.access(128), single.access(128));

            stats::StatRegistry ra;
            stats::StatRegistry rb;
            batched.registerStats(ra);
            single.registerStats(rb);
            EXPECT_EQ(ra.at("dram.accesses").value(),
                      rb.at("dram.accesses").value());
            EXPECT_EQ(ra.at("dram.bytes").value(),
                      rb.at("dram.bytes").value());
        }
    }
}

} // namespace uvmsim
