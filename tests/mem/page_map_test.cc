/**
 * @file
 * PageMap against std::unordered_map: random insert / find / erase /
 * size / clear over pages in two tenant spaces 2^35 bytes apart and
 * next to the 2^39-byte VA limit.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/managed_space.hh"
#include "core/tenant.hh"
#include "mem/page_map.hh"
#include "sim/rng.hh"

namespace uvmsim
{

namespace
{

/** Page bases the random pages cluster around. */
std::vector<PageNum>
hotBases()
{
    const PageNum tenant0 = pageOf(ManagedSpace::defaultVaBase);
    const PageNum tenant1 =
        pageOf(ManagedSpace::defaultVaBase + tenantVaStride);
    const PageNum top = PageMap<int>::maxPages - 2 * pagesPerLargePage;
    return {0, tenant0, tenant1, top};
}

} // namespace

TEST(PageMap, MatchesUnorderedMapUnderRandomOps)
{
    const std::vector<PageNum> bases = hotBases();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        PageMap<std::uint64_t> map;
        std::unordered_map<PageNum, std::uint64_t> ref;
        for (int op = 0; op < 20000; ++op) {
            // Pages within two 2MB regions of a base, so leaf edges
            // and repeat hits are common.
            const PageNum page = bases[rng.below(bases.size())] +
                                 rng.below(2 * pagesPerLargePage);
            const std::uint64_t kind = rng.below(100);
            if (kind < 40) {
                auto [value, inserted] = map.tryEmplace(page);
                auto [it, ref_inserted] = ref.try_emplace(page, 0);
                ASSERT_EQ(inserted, ref_inserted) << "page " << page;
                ASSERT_EQ(*value, it->second) << "page " << page;
                *value = it->second = rng.next();
            } else if (kind < 70) {
                const std::uint64_t *value = map.find(page);
                auto it = ref.find(page);
                ASSERT_EQ(value != nullptr, it != ref.end());
                ASSERT_EQ(map.contains(page), it != ref.end());
                if (value) {
                    ASSERT_EQ(*value, it->second);
                }
            } else if (kind < 99) {
                ASSERT_EQ(map.erase(page), ref.erase(page) == 1);
            } else {
                map.clear();
                ref.clear();
            }
            ASSERT_EQ(map.size(), ref.size()) << "seed " << seed;
        }
        for (const auto &[page, value] : ref) {
            ASSERT_NE(map.find(page), nullptr);
            EXPECT_EQ(*map.find(page), value);
        }
    }
}

TEST(PageMap, ReinsertAfterEraseStartsFromAValueInitializedValue)
{
    PageMap<std::uint32_t> map;
    *map.tryEmplace(7).first = 42;
    EXPECT_TRUE(map.erase(7));
    EXPECT_FALSE(map.erase(7));
    auto [value, inserted] = map.tryEmplace(7);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 0u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(PageMap, LastPageBelowTheVaLimitIsMappable)
{
    PageMap<int> map;
    const PageNum last = PageMap<int>::maxPages - 1;
    *map.tryEmplace(last).first = 3;
    ASSERT_NE(map.find(last), nullptr);
    EXPECT_EQ(*map.find(last), 3);
    EXPECT_EQ(map.find(last - 1), nullptr);
    // Lookups past the limit miss instead of reaching for a leaf.
    EXPECT_EQ(map.find(PageMap<int>::maxPages), nullptr);
    EXPECT_FALSE(map.erase(PageMap<int>::maxPages + 5));
}

TEST(PageMapDeathTest, InsertBeyondTheVaLimitPanics)
{
    PageMap<int> map;
    EXPECT_DEATH(map.tryEmplace(PageMap<int>::maxPages),
                 "beyond the managed VA limit");
}

} // namespace uvmsim
