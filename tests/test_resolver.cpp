#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <span>

#include "core/resolver.hpp"
#include "nested_pair_index.hpp"
#include "util/rng.hpp"

namespace dnh::core {
namespace {

using net::Ipv4Address;
using util::Timestamp;

const Ipv4Address kClient1{10, 0, 0, 1};
const Ipv4Address kClient2{10, 0, 0, 2};
const Ipv4Address kServerA{93, 58, 110, 173};
const Ipv4Address kServerB{37, 241, 163, 105};
const Ipv4Address kServerC{216, 74, 41, 8};

template <typename R>
void insert(R& resolver, Ipv4Address client, const std::string& fqdn,
            std::vector<Ipv4Address> servers, std::int64_t t = 0) {
  resolver.insert(client, fqdn, std::span{servers},
                  Timestamp::from_seconds(t));
}

TEST(Resolver, BasicInsertLookup) {
  DnsResolver resolver{16};
  insert(resolver, kClient1, "itunes.apple.com", {kServerA, kServerB}, 5);
  const auto hit = resolver.lookup(kClient1, kServerA);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->fqdn, "itunes.apple.com");
  EXPECT_EQ(hit->response_time.seconds_since_epoch(), 5);
  // Every address in the answer list is a key (paper Fig. 2).
  EXPECT_TRUE(resolver.lookup(kClient1, kServerB));
}

TEST(Resolver, LookupIsPerClient) {
  DnsResolver resolver{16};
  insert(resolver, kClient1, "a.example.com", {kServerA});
  EXPECT_TRUE(resolver.lookup(kClient1, kServerA));
  EXPECT_FALSE(resolver.lookup(kClient2, kServerA));
}

TEST(Resolver, MissOnUnknownServer) {
  DnsResolver resolver{16};
  insert(resolver, kClient1, "a.example.com", {kServerA});
  EXPECT_FALSE(resolver.lookup(kClient1, kServerC));
  EXPECT_EQ(resolver.stats().misses, 1u);
  EXPECT_EQ(resolver.stats().hits, 0u);
}

TEST(Resolver, LastResponseWins) {
  DnsResolver resolver{16};
  insert(resolver, kClient1, "old.example.com", {kServerA}, 1);
  insert(resolver, kClient1, "new.example.com", {kServerA}, 2);
  const auto hit = resolver.lookup(kClient1, kServerA);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->fqdn, "new.example.com");
  EXPECT_EQ(resolver.stats().replaced_different_fqdn, 1u);
}

TEST(Resolver, SameFqdnRefreshCounted) {
  DnsResolver resolver{16};
  insert(resolver, kClient1, "x.example.com", {kServerA}, 1);
  insert(resolver, kClient1, "x.example.com", {kServerA}, 2);
  EXPECT_EQ(resolver.stats().replaced_same_fqdn, 1u);
  EXPECT_EQ(resolver.stats().replaced_different_fqdn, 0u);
}

TEST(Resolver, ClistEvictionExpiresOldEntries) {
  // Non-power-of-two L. Slots are created as the first lap reaches them,
  // but capacity() reports the configured L throughout.
  DnsResolver resolver{3};
  EXPECT_EQ(resolver.capacity(), 3u);
  insert(resolver, kClient1, "one.example.com", {kServerA});
  insert(resolver, kClient1, "two.example.com", {kServerB});
  EXPECT_EQ(resolver.capacity(), 3u);  // partway through the first lap
  insert(resolver, kClient1, "three.example.com", {kServerC});
  EXPECT_EQ(resolver.stats().evictions, 0u);
  const Ipv4Address server_d{1, 1, 1, 1};
  insert(resolver, kClient1, "four.example.com", {server_d});
  // Insert L+1 evicted exactly "one" (circular overwrite of slot 0).
  EXPECT_EQ(resolver.capacity(), 3u);
  EXPECT_FALSE(resolver.lookup(kClient1, kServerA));
  EXPECT_TRUE(resolver.lookup(kClient1, kServerB));
  EXPECT_TRUE(resolver.lookup(kClient1, kServerC));
  EXPECT_TRUE(resolver.lookup(kClient1, server_d));
  EXPECT_EQ(resolver.stats().evictions, 1u);
}

TEST(Resolver, EvictedSlotRemovesOnlyItsOwnKeys) {
  DnsResolver resolver{2};
  insert(resolver, kClient1, "a.example.com", {kServerA});
  // Re-point the same (client,server) key to a new entry...
  insert(resolver, kClient1, "b.example.com", {kServerA});
  // ...then force eviction of the first slot.
  insert(resolver, kClient2, "c.example.com", {kServerB});
  // The key now belongs to "b"; evicting "a"'s slot must not break it.
  const auto hit = resolver.lookup(kClient1, kServerA);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->fqdn, "b.example.com");
}

TEST(Resolver, EmptyAnswerListIsIgnored) {
  DnsResolver resolver{4};
  insert(resolver, kClient1, "nx.example.com", {});
  EXPECT_FALSE(resolver.lookup(kClient1, kServerA));
  // The slot was not consumed: four real inserts still fit.
  insert(resolver, kClient1, "a.example.com", {kServerA});
  insert(resolver, kClient1, "b.example.com", {kServerB});
  insert(resolver, kClient1, "c.example.com", {kServerC});
  insert(resolver, kClient1, "d.example.com", {Ipv4Address{1, 1, 1, 1}});
  EXPECT_TRUE(resolver.lookup(kClient1, kServerA));
  EXPECT_EQ(resolver.stats().evictions, 0u);
}

TEST(Resolver, DuplicateAddressesInAnswerList) {
  DnsResolver resolver{4};
  insert(resolver, kClient1, "dup.example.com", {kServerA, kServerA});
  const auto hit = resolver.lookup(kClient1, kServerA);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->fqdn, "dup.example.com");
  EXPECT_EQ(resolver.stats().replaced_same_fqdn, 0u);

  // A repeated address adds no history: the key's older label survives
  // even when the repeats outnumber kMaxLabelsPerKey.
  insert(resolver, kClient1, "new.example.com",
         {kServerA, kServerA, kServerA, kServerA}, 20);
  const auto older = resolver.lookup_at_or_before(
      kClient1, kServerA, Timestamp::from_seconds(0));
  ASSERT_TRUE(older);
  EXPECT_EQ(older->fqdn, "dup.example.com");
  EXPECT_EQ(resolver.stats().replaced_same_fqdn, 0u);
  EXPECT_EQ(resolver.stats().replaced_different_fqdn, 1u);
}

TEST(Resolver, ManyClientsSameServer) {
  DnsResolver resolver{64};
  for (std::uint32_t i = 0; i < 32; ++i) {
    insert(resolver, Ipv4Address{10, 0, 1, static_cast<std::uint8_t>(i)},
           "shared.example.com", {kServerA});
  }
  EXPECT_EQ(resolver.client_count(), 32u);
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(resolver.lookup(
        Ipv4Address{10, 0, 1, static_cast<std::uint8_t>(i)}, kServerA));
  }
}

TEST(Resolver, CapacityOneStillWorks) {
  DnsResolver resolver{1};
  insert(resolver, kClient1, "a.example.com", {kServerA});
  EXPECT_TRUE(resolver.lookup(kClient1, kServerA));
  insert(resolver, kClient1, "b.example.com", {kServerB});
  EXPECT_FALSE(resolver.lookup(kClient1, kServerA));
  EXPECT_TRUE(resolver.lookup(kClient1, kServerB));
}

TEST(Resolver, ZeroCapacityClampedToOne) {
  DnsResolver resolver{0};
  EXPECT_EQ(resolver.capacity(), 1u);
}

// Property test for the production index: drive FlatPairIndex and the
// paper's ordered maps (the oracle) through MANY full Clist wraps with
// randomized (client, server) keys — heavy slot recycling and
// delete_back_references churn — and require identical answers from all
// three query shapes at every step. The footnote-2 unordered maps run the
// same drive against the same oracle. Both sides share BasicDnsResolver,
// so lookup_at_or_before is also checked against a model of each key's
// label history. Parameterized over Clist sizes so the wrap frequency
// varies from "every insert" to "once, near the end" (2000) to "never"
// (2^20: every insert lands on the first lap).
class FlatPolicyEquivalence : public ::testing::TestWithParam<std::size_t> {
};

template <template <typename> class Index>
void expect_matches_ordered(std::size_t L) {
  BasicDnsResolver<Index> tested{L};
  BasicDnsResolver<OrderedPairIndex> ordered{L};
  util::Rng rng{0xC1157ULL * (L + 1)};
  // Model: each key keeps the newest kMaxLabelsPerKey inserts that named
  // it (once per insert, however often its answer list repeats the
  // address); an insert is live while it is among the last L.
  struct Label {
    std::size_t seq;
    std::string fqdn;
    std::int64_t time;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::deque<Label>>
      history;
  std::size_t inserted = 0;

  const std::size_t steps = 4000;
  for (std::size_t step = 0; step < steps; ++step) {
    const Ipv4Address client{10, 0, 0,
                             static_cast<std::uint8_t>(rng.index(6))};
    const Ipv4Address server{
        static_cast<std::uint32_t>(0xC0A80000u + rng.index(24))};
    if (rng.chance(0.55)) {
      const std::string fqdn =
          "svc" + std::to_string(rng.index(16)) + ".example.com";
      std::vector<Ipv4Address> answers;
      const std::size_t n = 1 + rng.index(3);
      for (std::size_t i = 0; i < n; ++i)
        answers.emplace_back(static_cast<std::uint32_t>(
            0xC0A80000u + rng.index(24)));
      tested.insert(client, fqdn, std::span{answers},
                    Timestamp::from_seconds(static_cast<std::int64_t>(step)));
      ordered.insert(client, fqdn, std::span{answers},
                     Timestamp::from_seconds(static_cast<std::int64_t>(step)));
      ++inserted;
      for (auto it = answers.begin(); it != answers.end(); ++it) {
        if (std::find(answers.begin(), it, *it) != it) continue;
        auto& labels = history[{client.value(), it->value()}];
        labels.push_front(
            {inserted, fqdn, static_cast<std::int64_t>(step)});
        if (labels.size() > kMaxLabelsPerKey) labels.pop_back();
      }
    } else {
      // lookup
      const auto a = tested.lookup(client, server);
      const auto b = ordered.lookup(client, server);
      ASSERT_EQ(a.has_value(), b.has_value()) << "lookup step " << step;
      if (a) {
        EXPECT_EQ(a->fqdn, b->fqdn);
        EXPECT_EQ(a->response_time.seconds_since_epoch(),
                  b->response_time.seconds_since_epoch());
      }
      // lookup_all
      const auto all_a = tested.lookup_all(client, server);
      const auto all_b = ordered.lookup_all(client, server);
      ASSERT_EQ(all_a.size(), all_b.size()) << "lookup_all step " << step;
      for (std::size_t i = 0; i < all_a.size(); ++i)
        EXPECT_EQ(all_a[i].fqdn, all_b[i].fqdn) << "step " << step;
      // lookup_at_or_before, with a cutoff somewhere inside the history
      const auto cutoff = Timestamp::from_seconds(
          static_cast<std::int64_t>(rng.index(step + 1)));
      const auto at_a = tested.lookup_at_or_before(client, server, cutoff);
      const auto at_b = ordered.lookup_at_or_before(client, server, cutoff);
      ASSERT_EQ(at_a.has_value(), at_b.has_value())
          << "lookup_at_or_before step " << step;
      if (at_a) {
        EXPECT_EQ(at_a->fqdn, at_b->fqdn);
      }
      const Label* want = nullptr;
      for (const auto& label : history[{client.value(), server.value()}]) {
        if (label.seq + L > inserted &&
            label.time <= cutoff.seconds_since_epoch()) {
          want = &label;
          break;
        }
      }
      ASSERT_EQ(at_a.has_value(), want != nullptr) << "model step " << step;
      if (at_a) {
        EXPECT_EQ(at_a->fqdn, want->fqdn) << "model step " << step;
      }
    }
    ASSERT_EQ(tested.client_count(), ordered.client_count()) << step;
    ASSERT_EQ(tested.stats().evictions, ordered.stats().evictions) << step;
  }
  // Every answer list is non-empty, so each insert past the first L
  // recycled exactly one live slot.
  const std::uint64_t inserts = tested.stats().inserts;
  EXPECT_EQ(tested.stats().evictions, inserts > L ? inserts - L : 0);
  EXPECT_EQ(tested.capacity(), L);
}

TEST_P(FlatPolicyEquivalence, MatchesOrderedThroughFullClistWrap) {
  expect_matches_ordered<FlatPairIndex>(GetParam());
}

TEST_P(FlatPolicyEquivalence, UnorderedMatchesOrderedThroughFullClistWrap) {
  expect_matches_ordered<UnorderedPairIndex>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(ClistSizes, FlatPolicyEquivalence,
                         ::testing::Values(1, 2, 7, 32, 256, 2000,
                                           std::size_t{1} << 20));

// Invariant sweep: after arbitrary insert sequences with a small Clist,
// every successful lookup returns the most recent FQDN inserted for that
// (client, server) pair among entries still within the last L inserts.
class ResolverInvariantSweep : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(ResolverInvariantSweep, LookupNeverReturnsStaleData) {
  const std::size_t L = GetParam();
  DnsResolver resolver{L};
  util::Rng rng{L * 31 + 7};

  struct Shadow {
    std::string fqdn;
    std::uint64_t insert_seq;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, Shadow> shadow;
  std::uint64_t seq = 0;

  for (int step = 0; step < 3000; ++step) {
    const Ipv4Address client{10, 0, 0,
                             static_cast<std::uint8_t>(rng.index(4))};
    if (rng.chance(0.6)) {
      const std::string fqdn =
          "svc" + std::to_string(rng.index(20)) + ".example.com";
      std::vector<Ipv4Address> answers;
      const std::size_t n = 1 + rng.index(3);
      for (std::size_t i = 0; i < n; ++i)
        answers.emplace_back(static_cast<std::uint32_t>(
            0xC6336400u + rng.index(10)));
      resolver.insert(client, fqdn, std::span{answers},
                      Timestamp::from_seconds(step));
      ++seq;
      for (const auto server : answers)
        shadow[{client.value(), server.value()}] = {fqdn, seq};
    } else {
      const Ipv4Address server{
          static_cast<std::uint32_t>(0xC6336400u + rng.index(10))};
      const auto hit = resolver.lookup(client, server);
      const auto it = shadow.find({client.value(), server.value()});
      if (hit) {
        // A hit must agree with the most recent insert for this key.
        ASSERT_NE(it, shadow.end());
        EXPECT_EQ(hit->fqdn, it->second.fqdn);
        // And that insert must still be within the Clist window.
        EXPECT_GT(it->second.insert_seq + L, seq);
      } else if (it != shadow.end()) {
        // A miss is only legal if the entry could have been evicted.
        EXPECT_LE(it->second.insert_seq + L, seq);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ClistSizes, ResolverInvariantSweep,
                         ::testing::Values(1, 2, 4, 16, 64, 1024));

TEST(Resolver, StatsCountersConsistent) {
  DnsResolver resolver{8};
  insert(resolver, kClient1, "a.example.com", {kServerA});
  resolver.lookup(kClient1, kServerA);
  resolver.lookup(kClient1, kServerB);
  const auto& stats = resolver.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

}  // namespace
}  // namespace dnh::core

namespace dnh::core {
namespace {

// ---- lookup_all: the paper's multi-label extension (Sec. 6) ----

TEST(LookupAll, ReturnsHistoryNewestFirst) {
  DnsResolver resolver{16};
  insert(resolver, kClient1, "google.com", {kServerA}, 1);
  insert(resolver, kClient1, "www.google.com", {kServerA}, 2);
  const auto all = resolver.lookup_all(kClient1, kServerA);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].fqdn, "www.google.com");
  EXPECT_EQ(all[1].fqdn, "google.com");
  // lookup() agrees with the newest label.
  EXPECT_EQ(resolver.lookup(kClient1, kServerA)->fqdn, "www.google.com");
}

TEST(LookupAll, DeduplicatesRepeatedFqdn) {
  DnsResolver resolver{16};
  insert(resolver, kClient1, "a.example.com", {kServerA}, 1);
  insert(resolver, kClient1, "b.example.com", {kServerA}, 2);
  insert(resolver, kClient1, "a.example.com", {kServerA}, 3);
  const auto all = resolver.lookup_all(kClient1, kServerA);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].fqdn, "a.example.com");
  EXPECT_EQ(all[1].fqdn, "b.example.com");
}

TEST(LookupAll, HistoryBounded) {
  DnsResolver resolver{64};
  for (int i = 0; i < 10; ++i)
    insert(resolver, kClient1, "svc" + std::to_string(i) + ".example.com",
           {kServerA}, i);
  const auto all = resolver.lookup_all(kClient1, kServerA);
  EXPECT_LE(all.size(), kMaxLabelsPerKey);
  EXPECT_EQ(all[0].fqdn, "svc9.example.com");
}

TEST(LookupAll, EvictedEntriesDropOut) {
  DnsResolver resolver{2};
  insert(resolver, kClient1, "old.example.com", {kServerA}, 1);
  insert(resolver, kClient1, "new.example.com", {kServerA}, 2);
  // Evict "old" via circular overwrite.
  insert(resolver, kClient2, "x.example.com", {kServerB}, 3);
  const auto all = resolver.lookup_all(kClient1, kServerA);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].fqdn, "new.example.com");
}

TEST(LookupAll, EmptyForUnknownKey) {
  DnsResolver resolver{4};
  EXPECT_TRUE(resolver.lookup_all(kClient1, kServerA).empty());
}

TEST(LookupAll, DoesNotDisturbStats) {
  DnsResolver resolver{4};
  insert(resolver, kClient1, "a.example.com", {kServerA}, 1);
  const auto lookups_before = resolver.stats().lookups;
  resolver.lookup_all(kClient1, kServerA);
  EXPECT_EQ(resolver.stats().lookups, lookups_before);
}

}  // namespace
}  // namespace dnh::core
