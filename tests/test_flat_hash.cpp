// FlatHash unit suite: growth, deletion (backward shift, incl. clusters
// wrapping the array end), collision clusters, heterogeneous lookup, and
// a randomized differential against std::unordered_map. Runs under
// ASan/UBSan and TSan in CI (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/flat_hash.hpp"
#include "util/rng.hpp"

namespace dnh::util {
namespace {

TEST(FlatHashTest, StartsEmptyAndAnswersMissesWithoutAllocating) {
  FlatHash<std::uint64_t, int> h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.capacity(), 0u);  // no allocation until first insert/reserve
  EXPECT_EQ(h.find(42), h.end());
  EXPECT_FALSE(h.contains(42));
  EXPECT_EQ(h.erase(42), 0u);
  EXPECT_EQ(h.begin(), h.end());
}

TEST(FlatHashTest, InsertFindEraseRoundTrip) {
  FlatHash<std::uint64_t, std::string> h;
  auto [it, inserted] = h.try_emplace(7, "seven");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 7u);
  EXPECT_EQ(it->second, "seven");

  auto [it2, inserted2] = h.try_emplace(7, "SEVEN");
  EXPECT_FALSE(inserted2);          // existing value wins
  EXPECT_EQ(it2->second, "seven");

  h[7] = "VII";
  EXPECT_EQ(h.find(7)->second, "VII");
  EXPECT_EQ(h.erase(7), 1u);
  EXPECT_FALSE(h.contains(7));
  EXPECT_TRUE(h.empty());
}

TEST(FlatHashTest, GrowthPreservesEveryEntry) {
  FlatHash<std::uint64_t, std::uint64_t> h;
  constexpr std::uint64_t kN = 10'000;
  for (std::uint64_t k = 0; k < kN; ++k) h.try_emplace(k, k * 3);
  EXPECT_EQ(h.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    auto it = h.find(k);
    ASSERT_NE(it, h.end()) << "lost key " << k << " across rehashes";
    EXPECT_EQ(it->second, k * 3);
  }
  EXPECT_FALSE(h.contains(kN));
}

TEST(FlatHashTest, ReservePreventsRehash) {
  FlatHash<std::uint64_t, int> h;
  h.reserve(1000);
  const std::size_t cap = h.capacity();
  EXPECT_GE(cap, 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) h.try_emplace(k, 1);
  EXPECT_EQ(h.capacity(), cap) << "reserve(1000) must absorb 1000 inserts";
}

/// Hash whose value the test controls exactly; FlatHash's internal mixer
/// still runs on top, so "same hash" means "same probe chain".
struct FixedHash {
  std::size_t operator()(std::uint64_t) const noexcept { return 0; }
};

TEST(FlatHashTest, CollisionClusterKeepsAllKeysFindable) {
  // Every key hashes identically: one maximal probe cluster.
  FlatHash<std::uint64_t, std::uint64_t, FixedHash> h;
  for (std::uint64_t k = 0; k < 64; ++k) h.try_emplace(k, k);
  EXPECT_EQ(h.size(), 64u);
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(h.contains(k)) << "collision cluster lost key " << k;
    EXPECT_EQ(h.find(k)->second, k);
  }
}

TEST(FlatHashTest, BackwardShiftEraseKeepsClusterReachable) {
  // Erase from the middle/front of a pure collision cluster repeatedly:
  // with tombstone-free deletion every survivor must stay reachable (a
  // naive "mark empty" erase would cut the probe chain).
  FlatHash<std::uint64_t, std::uint64_t, FixedHash> h;
  for (std::uint64_t k = 0; k < 32; ++k) h.try_emplace(k, k);
  for (std::uint64_t victim = 0; victim < 32; victim += 2)
    EXPECT_EQ(h.erase(victim), 1u);
  EXPECT_EQ(h.size(), 16u);
  for (std::uint64_t k = 0; k < 32; ++k) {
    if (k % 2 == 0) {
      EXPECT_FALSE(h.contains(k));
    } else {
      ASSERT_TRUE(h.contains(k)) << "backward shift broke chain at " << k;
      EXPECT_EQ(h.find(k)->second, k);
    }
  }
  // Reinsert into the holes and verify again: shift must have left the
  // table in a state where normal insertion works.
  for (std::uint64_t k = 0; k < 32; k += 2) h.try_emplace(k, k + 100);
  for (std::uint64_t k = 0; k < 32; ++k) ASSERT_TRUE(h.contains(k));
}

TEST(FlatHashTest, BackwardShiftHandlesClusterWrappingArrayEnd) {
  // Build a cluster that wraps the physical end of the slot array, then
  // erase its head: the shift must move wrapped members across index 0
  // correctly (the `(i - home) & mask` distance test, not raw <).
  FlatHash<std::uint64_t, int> h;
  h.reserve(8);  // capacity 16 after the 7/8 rule; mask 15
  const std::size_t mask = h.capacity() - 1;
  // Find keys whose home slot is the LAST slot: their cluster wraps.
  std::vector<std::uint64_t> tail_keys;
  for (std::uint64_t k = 0; tail_keys.size() < 5 && k < 100'000; ++k) {
    const std::size_t home =
        static_cast<std::size_t>(flat_hash_mix(k) >> 7) & mask;
    if (home == mask) tail_keys.push_back(k);
  }
  ASSERT_EQ(tail_keys.size(), 5u);
  for (const auto k : tail_keys) h.try_emplace(k, static_cast<int>(k));
  ASSERT_EQ(h.capacity() - 1, mask) << "cluster build must not rehash";
  for (std::size_t i = 0; i < tail_keys.size(); ++i) {
    EXPECT_EQ(h.erase(tail_keys[i]), 1u);
    for (std::size_t j = i + 1; j < tail_keys.size(); ++j) {
      ASSERT_TRUE(h.contains(tail_keys[j]))
          << "wrap-around shift lost key " << tail_keys[j];
    }
  }
  EXPECT_TRUE(h.empty());
}

struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

TEST(FlatHashTest, HeterogeneousLookupTakesStringView) {
  FlatHash<std::string, int, TransparentStringHash> h;
  h.try_emplace("alpha.example.com", 1);
  h.try_emplace("beta.example.com", 2);
  const std::string_view probe{"beta.example.com"};
  auto it = h.find(probe);  // no std::string materialized
  ASSERT_NE(it, h.end());
  EXPECT_EQ(it->second, 2);
  EXPECT_TRUE(h.contains(std::string_view{"alpha.example.com"}));
  EXPECT_EQ(h.count(std::string_view{"missing"}), 0u);
  EXPECT_EQ(h.erase(std::string_view{"alpha.example.com"}), 1u);
  EXPECT_EQ(h.size(), 1u);
}

TEST(FlatHashTest, EraseIfRemovesExactlyMatchesIncludingShiftedOnes) {
  FlatHash<std::uint64_t, std::uint64_t, FixedHash> h;  // one big cluster
  for (std::uint64_t k = 0; k < 40; ++k) h.try_emplace(k, k);
  const std::size_t erased =
      h.erase_if([](const auto& kv) { return kv.first % 3 == 0; });
  EXPECT_EQ(erased, 14u);  // 0,3,...,39
  EXPECT_EQ(h.size(), 26u);
  for (std::uint64_t k = 0; k < 40; ++k)
    EXPECT_EQ(h.contains(k), k % 3 != 0) << k;
}

TEST(FlatHashTest, IterationVisitsEachEntryOnce) {
  FlatHash<std::uint64_t, std::uint64_t> h;
  for (std::uint64_t k = 0; k < 500; ++k) h.try_emplace(k, k);
  std::vector<bool> seen(500, false);
  for (const auto& [k, v] : h) {
    ASSERT_LT(k, 500u);
    EXPECT_EQ(v, k);
    EXPECT_FALSE(seen[k]) << "key visited twice: " << k;
    seen[k] = true;
  }
  for (std::uint64_t k = 0; k < 500; ++k) EXPECT_TRUE(seen[k]) << k;
}

TEST(FlatHashTest, CopyAndMoveSemantics) {
  FlatHash<std::uint64_t, std::string> h;
  for (std::uint64_t k = 0; k < 100; ++k)
    h.try_emplace(k, std::to_string(k));

  FlatHash<std::uint64_t, std::string> copy{h};
  EXPECT_EQ(copy.size(), 100u);
  copy[5] = "five";
  EXPECT_EQ(h.find(5)->second, "5") << "copy must not alias the original";

  FlatHash<std::uint64_t, std::string> moved{std::move(h)};
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_EQ(moved.find(99)->second, "99");

  FlatHash<std::uint64_t, std::string> assigned;
  assigned.try_emplace(1, "x");
  assigned = copy;
  EXPECT_EQ(assigned.size(), 100u);
  EXPECT_EQ(assigned.find(5)->second, "five");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 100u);
  EXPECT_EQ(assigned.find(99)->second, "99");
}

TEST(FlatHashTest, ClearEmptiesButKeepsCapacity) {
  FlatHash<std::uint64_t, std::string> h;
  for (std::uint64_t k = 0; k < 64; ++k) h.try_emplace(k, "v");
  const std::size_t cap = h.capacity();
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.capacity(), cap);
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_FALSE(h.contains(k));
  h.try_emplace(3, "again");
  EXPECT_EQ(h.find(3)->second, "again");
}

TEST(FlatHashTest, InsertOrAssignOverwrites) {
  FlatHash<std::uint64_t, int> h;
  EXPECT_TRUE(h.insert_or_assign(1, 10).second);
  EXPECT_FALSE(h.insert_or_assign(1, 20).second);
  EXPECT_EQ(h.find(1)->second, 20);
}

TEST(FlatHashTest, RandomizedDifferentialAgainstUnorderedMap) {
  // Mixed insert/erase/lookup churn over a small key space (maximizes
  // collisions and shift activity), mirrored into std::unordered_map;
  // contents must agree at every step and at the end.
  util::Rng rng{0xf1a7ba5eULL};
  FlatHash<std::uint64_t, std::uint64_t> h;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int step = 0; step < 60'000; ++step) {
    const std::uint64_t key = rng.next_u64() % 512;
    switch (rng.next_u64() % 4) {
      case 0:
      case 1: {  // insert-or-overwrite
        const std::uint64_t val = rng.next_u64();
        h.insert_or_assign(key, val);
        ref[key] = val;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(h.erase(key), ref.erase(key));
        break;
      }
      default: {  // lookup
        const auto it = h.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(it == h.end(), rit == ref.end()) << "step " << step;
        if (rit != ref.end()) {
          ASSERT_EQ(it->second, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(h.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    const auto it = h.find(k);
    ASSERT_NE(it, h.end());
    EXPECT_EQ(it->second, v);
  }
}

}  // namespace
}  // namespace dnh::util
