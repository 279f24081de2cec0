// DomainTable (FQDN interner) tests: id stability across growth, view
// stability across chunk allocation, absorb() remapping for the merge
// stage, sharded-vs-single TSV determinism through re-interning, and the
// zero-allocation contract of the decode+insert hot path.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/domain_table.hpp"
#include "core/flowdb.hpp"
#include "core/flowdb_io.hpp"
#include "core/resolver.hpp"
#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/wire_scan.hpp"
#include "tests/counting_alloc.hpp"
#include "util/rng.hpp"

namespace dnh::core {
namespace {

std::string random_fqdn(util::Rng& rng) {
  std::string out;
  const std::size_t labels = 1 + rng.index(3);
  for (std::size_t i = 0; i < labels; ++i) {
    if (i) out += '.';
    const std::size_t len = 1 + rng.index(14);
    for (std::size_t j = 0; j < len; ++j)
      out += static_cast<char>('a' + rng.index(26));
  }
  return out + ".com";
}

// ---- basic semantics --------------------------------------------------------

TEST(DomainTable, EmptyStringIsIdZero) {
  DomainTable table;
  EXPECT_EQ(table.intern(""), kEmptyDomainId);
  EXPECT_EQ(table.view(kEmptyDomainId), "");
  EXPECT_EQ(table.size(), 1u);  // the reserved empty entry
}

TEST(DomainTable, InternIsIdempotent) {
  DomainTable table;
  const DomainId a = table.intern("www.example.com");
  const DomainId b = table.intern("www.example.com");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kEmptyDomainId);
  EXPECT_EQ(table.view(a), "www.example.com");
  EXPECT_EQ(table.size(), 2u);
}

TEST(DomainTable, FindNeverInterns) {
  DomainTable table;
  EXPECT_FALSE(table.find("absent.example.com").has_value());
  const DomainId id = table.intern("present.example.com");
  ASSERT_TRUE(table.find("present.example.com").has_value());
  EXPECT_EQ(*table.find("present.example.com"), id);
  EXPECT_EQ(table.size(), 2u);
}

TEST(DomainTable, OutOfRangeIdYieldsEmptyView) {
  DomainTable table;
  EXPECT_EQ(table.view(12345), "");
}

// ---- growth: ids, views and arena pointers stay put -------------------------

TEST(DomainTable, IdsAndViewsStableAcrossGrowth) {
  DomainTable table;
  util::Rng rng{11};
  std::vector<std::string> names;
  std::vector<DomainId> ids;
  std::vector<const char*> data_ptrs;
  // Far beyond the initial 256 hash slots and past several 64 KiB arena
  // chunks: forces both rehashing and chunk allocation.
  for (int i = 0; i < 20000; ++i) {
    auto fqdn = random_fqdn(rng) ;
    fqdn += "." + std::to_string(i);  // distinct
    const DomainId id = table.intern(fqdn);
    names.push_back(std::move(fqdn));
    ids.push_back(id);
    data_ptrs.push_back(table.view(id).data());
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(table.view(ids[i]), names[i]);
    // Chunks never move: the arena bytes are where they always were.
    EXPECT_EQ(table.view(ids[i]).data(), data_ptrs[i]);
    ASSERT_TRUE(table.find(names[i]).has_value());
    EXPECT_EQ(*table.find(names[i]), ids[i]);
  }
  EXPECT_EQ(table.size(), names.size() + 1);
  EXPECT_GT(table.arena_bytes(), 64u * 1024u);
}

TEST(DomainTable, OversizedStringsGetDedicatedChunks) {
  DomainTable table;
  const std::string big(200 * 1024, 'x');
  const DomainId id = table.intern(big);
  EXPECT_EQ(table.view(id), big);
  const char* where = table.view(id).data();
  // Later interning must not disturb the oversized chunk.
  for (int i = 0; i < 1000; ++i)
    table.intern("pad" + std::to_string(i) + ".example");
  EXPECT_EQ(table.view(id).data(), where);
  EXPECT_EQ(table.view(id), big);
}

// ---- absorb: merge-stage id remapping ---------------------------------------

TEST(DomainTable, AbsorbRemapsOverlappingTables) {
  DomainTable shard_a, shard_b, unified;
  util::Rng rng{23};
  std::vector<std::string> common, only_a, only_b;
  for (int i = 0; i < 50; ++i) common.push_back(random_fqdn(rng));
  for (int i = 0; i < 30; ++i) only_a.push_back(random_fqdn(rng) + ".a");
  for (int i = 0; i < 30; ++i) only_b.push_back(random_fqdn(rng) + ".b");

  for (const auto& s : only_a) shard_a.intern(s);
  for (const auto& s : common) shard_a.intern(s);
  for (const auto& s : common) shard_b.intern(s);  // different id order
  for (const auto& s : only_b) shard_b.intern(s);

  const auto remap_a = unified.absorb(shard_a);
  const auto remap_b = unified.absorb(shard_b);
  ASSERT_EQ(remap_a.size(), shard_a.size());
  ASSERT_EQ(remap_b.size(), shard_b.size());
  EXPECT_EQ(remap_a[kEmptyDomainId], kEmptyDomainId);
  EXPECT_EQ(remap_b[kEmptyDomainId], kEmptyDomainId);

  for (DomainId id = 0; id < shard_a.size(); ++id)
    EXPECT_EQ(unified.view(remap_a[id]), shard_a.view(id));
  for (DomainId id = 0; id < shard_b.size(); ++id)
    EXPECT_EQ(unified.view(remap_b[id]), shard_b.view(id));

  // Shared strings collapse to one unified id regardless of source shard.
  for (const auto& s : common)
    EXPECT_EQ(remap_a[*shard_a.find(s)], remap_b[*shard_b.find(s)]);
  EXPECT_EQ(unified.size(),
            1 + common.size() + only_a.size() + only_b.size());
}

// ---- sharded vs single-threaded TSV determinism -----------------------------

TaggedFlow make_flow(std::string_view fqdn, std::uint32_t salt) {
  TaggedFlow flow;
  flow.key.client_ip =
      net::Ipv4Address{10, 0, static_cast<std::uint8_t>(salt % 7),
                       static_cast<std::uint8_t>(salt % 251)};
  flow.key.server_ip =
      net::Ipv4Address{23, 4, static_cast<std::uint8_t>(salt % 11),
                       static_cast<std::uint8_t>(salt % 241)};
  flow.key.client_port = static_cast<std::uint16_t>(40000 + salt % 2000);
  flow.key.server_port = salt % 2 ? 443 : 80;
  flow.first_packet = util::Timestamp::from_micros(1000 + salt);
  flow.last_packet = util::Timestamp::from_micros(2000 + salt);
  flow.bytes_c2s = salt;
  flow.bytes_s2c = salt * 3;
  flow.protocol = flow::ProtocolClass::kHttp;
  flow.fqdn = fqdn;
  return flow;
}

TEST(DomainTable, ShardedReinterningKeepsTsvByteIdentical) {
  // Property behind the pipeline's determinism guarantee: routing flows
  // through per-shard tables and re-interning into a unified database
  // yields byte-identical TSV to interning into one table directly, for
  // any shard assignment.
  util::Rng rng{31};
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) names.push_back(random_fqdn(rng));

  for (int round = 0; round < 5; ++round) {
    const std::size_t shards = 1 + rng.index(4);
    std::vector<TaggedFlow> flows;
    for (std::uint32_t i = 0; i < 300; ++i)
      flows.push_back(make_flow(names[rng.index(names.size())], i));

    FlowDatabase single;
    for (const auto& flow : flows) single.add(flow);

    // Shard, then merge in the original order (what the canonical merge
    // reconstructs): each flow crosses from its shard's arena into the
    // merged database's arena via add()'s re-interning.
    std::vector<FlowDatabase> parts(shards);
    std::vector<std::size_t> route(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      route[i] = rng.index(shards);
      parts[route[i]].add(flows[i]);
    }
    FlowDatabase merged;
    std::vector<std::size_t> cursor(shards, 0);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto& part = parts[route[i]];
      merged.add(part.flows()[cursor[route[i]]++]);
    }

    std::ostringstream single_tsv, merged_tsv;
    write_flow_tsv(single, single_tsv);
    write_flow_tsv(merged, merged_tsv);
    EXPECT_EQ(single_tsv.str(), merged_tsv.str()) << "round " << round;
  }
}

// ---- the zero-allocation contract -------------------------------------------

TEST(DomainTable, SteadyStateDecodeAndInsertAllocatesNothing) {
  // The tentpole claim, measured: once names are interned and scratch
  // buffers are warm, scan_response + intern + resolver insert runs an
  // entire pass over distinct-name responses without touching the heap.
  constexpr std::size_t kNames = 512;
  const std::vector<net::Ipv4Address> servers{
      net::Ipv4Address{23, 0, 0, 1}, net::Ipv4Address{23, 0, 0, 2}};
  std::vector<net::Bytes> wires;
  util::Rng rng{47};
  for (std::size_t i = 0; i < kNames; ++i) {
    const auto fqdn =
        dns::DnsName::from_string("s" + std::to_string(i) + "." +
                                  random_fqdn(rng));
    ASSERT_TRUE(fqdn);
    wires.push_back(
        dns::make_a_response(static_cast<std::uint16_t>(i), *fqdn, servers,
                             300).encode());
  }

  auto table = std::make_shared<DomainTable>();
  // Clist larger than the distinct-name set: the measured pass recycles
  // fresh slots and never churns chain-map nodes.
  BasicDnsResolver resolver{4096, table};
  dns::ResponseScratch scratch;
  const net::Ipv4Address client{10, 0, 0, 1};

  auto run_pass = [&](std::int64_t epoch) {
    for (std::size_t i = 0; i < wires.size(); ++i) {
      dns::MessageParseError error = dns::MessageParseError::kNone;
      ASSERT_TRUE(dns::scan_response(wires[i], scratch, error));
      ASSERT_TRUE(scratch.is_response);
      const DomainId id = table->intern(scratch.name_view());
      ASSERT_NE(id, kEmptyDomainId);
      resolver.insert(client, id, scratch.addresses,
                      util::Timestamp::from_micros(epoch + i));
    }
  };

  // Warmup: interning, chain setup, and one full trip around the Clist so
  // every slot's reference vector has been through a use/evict cycle and
  // holds its capacity (steady state recycles slots, it never meets a
  // pristine one).
  for (std::int64_t pass = 0; pass * kNames < 4096 + kNames; ++pass)
    run_pass(pass * 1000);

  const std::uint64_t before = counting_alloc::total();
  run_pass(1'000'000);
  const std::uint64_t after = counting_alloc::total();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations across " << kNames
      << " steady-state DNS messages";
}

}  // namespace
}  // namespace dnh::core
