// FlowDatabase tests for the export path: indexes built on first query
// (checked against an eager reference computed here), the block TSV
// formatter (checked byte for byte against the former ostream formatter,
// kept below as the oracle), free-text escaping, write-failure reporting,
// and the allocation contracts of add() and of row formatting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/flowdb.hpp"
#include "core/flowdb_io.hpp"
#include "dns/domain.hpp"
#include "pipeline/pipeline.hpp"
#include "tests/counting_alloc.hpp"
#include "util/rng.hpp"

namespace dnh::core {
namespace {

using FlowIndex = FlowDatabase::FlowIndex;

// ---- the former ostream formatter, kept as the differential oracle ---------

std::string oracle_join_san(const std::vector<std::string>& san) {
  std::string out;
  for (const auto& name : san) {
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

std::string oracle_tsv(const FlowDatabase& db) {
  std::ostringstream out;
  out << "#dnhunter-flows v1" << '\n'
      << "#client_ip\tserver_ip\tclient_port\tserver_port\ttransport\t"
         "first_us\tlast_us\tpkts_c2s\tpkts_s2c\tbytes_c2s\tbytes_s2c\t"
         "protocol\tfqdn\tdns_response_us\ttagged_at_start\tdpi_label\t"
         "cert_cn\tcert_san\thas_certificate\n";
  for (const auto& flow : db.flows()) {
    out << flow.key.client_ip.to_string() << '\t'
        << flow.key.server_ip.to_string() << '\t' << flow.key.client_port
        << '\t' << flow.key.server_port << '\t'
        << (flow.key.transport == flow::Transport::kTcp ? "tcp" : "udp")
        << '\t' << flow.first_packet.micros_since_epoch() << '\t'
        << flow.last_packet.micros_since_epoch() << '\t' << flow.packets_c2s
        << '\t' << flow.packets_s2c << '\t' << flow.bytes_c2s << '\t'
        << flow.bytes_s2c << '\t' << static_cast<int>(flow.protocol) << '\t'
        << flow.fqdn << '\t' << flow.dns_response_time.micros_since_epoch()
        << '\t' << (flow.tagged_at_start ? 1 : 0) << '\t' << flow.dpi_label
        << '\t' << flow.cert_cn << '\t' << oracle_join_san(flow.cert_san)
        << '\t' << (flow.has_certificate ? 1 : 0) << '\n';
  }
  return out.str();
}

std::string tsv(const FlowDatabase& db) {
  std::ostringstream out;
  write_flow_tsv(db, out);
  return out.str();
}

// ---- random flows ------------------------------------------------------------

/// Picks one of a few edge values or a random one.
template <typename T>
T pick(util::Rng& rng, std::initializer_list<T> edges) {
  const std::size_t k = rng.index(edges.size() + 2);
  if (k < edges.size()) return *(edges.begin() + k);
  return static_cast<T>(rng.next_u64());
}

util::Timestamp pick_time(util::Rng& rng) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  return util::Timestamp::from_micros(pick<std::int64_t>(
      rng, {kMin, kMax, -1, 0, -1'234'567, 1'300'000'000'000'000}));
}

/// A name of plain DNS characters (never an escapable byte).
std::string plain_name(util::Rng& rng, std::size_t max_len) {
  static constexpr std::string_view kChars =
      "abcdefghijklmnopqrstuvwxyz0123456789-._";
  std::string out(rng.index(max_len + 1), ' ');
  for (auto& c : out) c = kChars[rng.index(kChars.size())];
  return out;
}

/// Flows with values at every type's edges. Labels live in `labels`,
/// which must outlive the add() of each flow.
std::vector<TaggedFlow> random_flows(util::Rng& rng, std::size_t n,
                                     std::vector<std::string>& labels) {
  labels.reserve(labels.size() + n);
  std::vector<TaggedFlow> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TaggedFlow f;
    f.key.client_ip =
        net::Ipv4Address{pick<std::uint32_t>(rng, {0u, 0xffffffffu})};
    f.key.server_ip =
        net::Ipv4Address{pick<std::uint32_t>(rng, {0u, 0xffffffffu, 0x0a000001u})};
    f.key.client_port = pick<std::uint16_t>(rng, {0, 65535});
    f.key.server_port = pick<std::uint16_t>(rng, {0, 65535, 443, 80});
    f.key.transport = rng.chance(0.5) ? flow::Transport::kTcp
                                      : flow::Transport::kUdp;
    f.first_packet = pick_time(rng);
    f.last_packet = pick_time(rng);
    constexpr auto kMax64 = std::numeric_limits<std::uint64_t>::max();
    f.packets_c2s = pick<std::uint64_t>(rng, {0, kMax64});
    f.packets_s2c = pick<std::uint64_t>(rng, {0, kMax64});
    f.bytes_c2s = pick<std::uint64_t>(rng, {0, kMax64});
    f.bytes_s2c = pick<std::uint64_t>(rng, {0, kMax64});
    f.protocol = static_cast<flow::ProtocolClass>(rng.index(6));
    labels.push_back(rng.chance(0.2) ? std::string{} : plain_name(rng, 40));
    f.fqdn = labels.back();
    f.dns_response_time = pick_time(rng);
    f.tagged_at_start = rng.chance(0.5);
    f.dpi_label = rng.chance(0.5) ? std::string{} : plain_name(rng, 30);
    f.cert_cn = rng.chance(0.5) ? std::string{} : plain_name(rng, 30);
    const std::size_t sans = rng.chance(0.4) ? 0 : 1 + rng.index(6);
    for (std::size_t s = 0; s < sans; ++s)
      f.cert_san.push_back(plain_name(rng, 20));
    f.has_certificate = rng.chance(0.5);
    flows.push_back(std::move(f));
  }
  return flows;
}

// ---- formatter ----------------------------------------------------------------

TEST(FlowTsvFormatter, MatchesOstreamOracleByteForByte) {
  util::Rng rng{2012};
  std::vector<std::string> labels;
  FlowDatabase db;
  for (auto& flow : random_flows(rng, 6000, labels)) db.add(std::move(flow));

  // Rows the random draw may miss: all-zero and all-max values, a label
  // longer than the 64 KiB block, and text fields that straddle it.
  TaggedFlow zero;
  db.add(zero);
  TaggedFlow max = zero;
  max.key.client_ip = net::Ipv4Address{255, 255, 255, 255};
  max.key.server_ip = net::Ipv4Address{255, 255, 255, 255};
  max.key.client_port = max.key.server_port = 65535;
  max.first_packet = max.last_packet = max.dns_response_time =
      util::Timestamp::from_micros(std::numeric_limits<std::int64_t>::max());
  max.packets_c2s = max.packets_s2c = max.bytes_c2s = max.bytes_s2c =
      std::numeric_limits<std::uint64_t>::max();
  db.add(max);
  const std::string huge(200'000, 'x');
  TaggedFlow long_label = zero;
  long_label.fqdn = huge;
  long_label.dpi_label = std::string(70'000, 'd');
  long_label.cert_san = {std::string(65'536, 's'), "b", ""};
  db.add(long_label);
  for (auto& flow : random_flows(rng, 100, labels)) db.add(std::move(flow));

  const std::string expected = oracle_tsv(db);
  ASSERT_GT(expected.size(), 8u * 64 * 1024) << "crosses several blocks";
  const std::string actual = tsv(db);
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_TRUE(actual == expected);
  const auto [a, e] =
      std::mismatch(actual.begin(), actual.end(), expected.begin());
  EXPECT_EQ(a, actual.end()) << "first difference at byte "
                             << (a - actual.begin());
}

/// Discards its input and counts it, allocating nothing.
class CountingBuf : public std::streambuf {
 public:
  std::size_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::size_t>(n);
    return n;
  }
};

TEST(FlowTsvFormatter, RowsAllocateNothing) {
  // Every row shape, escapes included, over enough rows to flush many
  // blocks: a write costs the same allocations for 10 rows as for 20000.
  util::Rng rng{7};
  std::vector<std::string> labels;
  FlowDatabase small;
  FlowDatabase large;
  for (auto& flow : random_flows(rng, 10, labels)) small.add(std::move(flow));
  for (auto& flow : random_flows(rng, 20'000, labels)) {
    if (large.size() % 7 == 0) {
      flow.dpi_label = "tab\there";
      flow.cert_san.push_back("a,b\\c");
    }
    large.add(std::move(flow));
  }
  CountingBuf buf;
  std::ostream out{&buf};

  const std::uint64_t before_small = counting_alloc::total();
  write_flow_tsv(small, out);
  const std::uint64_t small_cost = counting_alloc::total() - before_small;
  const std::uint64_t before_large = counting_alloc::total();
  write_flow_tsv(large, out);
  const std::uint64_t large_cost = counting_alloc::total() - before_large;

  EXPECT_GT(buf.bytes, 16u * 64 * 1024);
  EXPECT_EQ(large_cost, small_cost)
      << "allocations grew with rows: " << small_cost << " for 10 rows, "
      << large_cost << " for 20000";
  EXPECT_LE(small_cost, 1u) << "one block per write";
}

// ---- escaping -----------------------------------------------------------------

TEST(FlowTsvEscape, EveryEscapableByteRoundTripsInEveryTextField) {
  const std::vector<std::string> nasty = {
      "a\tb", "line\nbreak", "cr\rlf", "back\\slash", "\\t-not-a-tab",
      "end\\", "\t\n\r\\", "comma,name", "",
  };
  FlowDatabase db;
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    TaggedFlow flow;
    flow.key.client_ip = net::Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(i)};
    flow.first_packet = util::Timestamp::from_micros(static_cast<std::int64_t>(i));
    flow.fqdn = nasty[i];
    flow.dpi_label = nasty[(i + 1) % nasty.size()];
    flow.cert_cn = nasty[(i + 2) % nasty.size()];
    // A leading empty entry has no v1 spelling (the join drops it); later
    // empty entries do.
    flow.cert_san = {"x,y", nasty[i], nasty[(i + 3) % nasty.size()]};
    db.add(std::move(flow));
  }
  const std::string text = tsv(db);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            static_cast<std::ptrdiff_t>(2 + nasty.size()))
      << "an escaped byte split a row";

  std::istringstream in{text};
  const auto loaded = read_flow_tsv(in);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto& want = db.flows()[i];
    const auto& got = loaded->flows()[i];
    EXPECT_EQ(got.fqdn, want.fqdn) << i;
    EXPECT_EQ(got.dpi_label, want.dpi_label) << i;
    EXPECT_EQ(got.cert_cn, want.cert_cn) << i;
    EXPECT_EQ(got.cert_san, want.cert_san) << i;
  }
  EXPECT_EQ(tsv(*loaded), text);
}

TEST(FlowTsvEscape, UnknownOrDanglingEscapeIsARowError) {
  const std::string header =
      "#dnhunter-flows v1\n"
      "#columns\n";
  const std::string good =
      "1.2.3.4\t5.6.7.8\t1\t2\ttcp\t0\t0\t0\t0\t0\t0\t0\ta\\tb\t0\t0\t\t\t\t0\n";
  const std::vector<std::string> bad = {
      "1.2.3.4\t5.6.7.8\t1\t2\ttcp\t0\t0\t0\t0\t0\t0\t0\ta\\qb\t0\t0\t\t\t\t0\n",
      "1.2.3.4\t5.6.7.8\t1\t2\ttcp\t0\t0\t0\t0\t0\t0\t0\ta\t0\t0\tx\\\t\t\t0\n",
      "1.2.3.4\t5.6.7.8\t1\t2\ttcp\t0\t0\t0\t0\t0\t0\t0\ta\t0\t0\t\tcn\\,\t\t0\n",
      "1.2.3.4\t5.6.7.8\t1\t2\ttcp\t0\t0\t0\t0\t0\t0\t0\ta\t0\t0\t\t\ts\\x\t0\n",
  };
  for (const auto& row : bad) {
    std::istringstream strict{header + good + row};
    EXPECT_FALSE(read_flow_tsv(strict).has_value()) << row;
    std::istringstream lenient{header + good + row};
    TsvRowErrors errors;
    const auto db = read_flow_tsv(lenient, TsvReadMode::kLenient, errors);
    ASSERT_TRUE(db.has_value());
    EXPECT_EQ(db->size(), 1u);
    EXPECT_EQ(errors.bad_escape, 1u) << row;
    EXPECT_EQ(errors.total(), 1u);
    EXPECT_EQ(db->flows()[0].fqdn, "a\tb");
  }
}

TEST(FlowTsvEscape, FieldHelpersRoundTrip) {
  std::string decoded;
  for (const std::string text : {"", "plain.example.com", "a\tb\nc\rd\\e",
                                 "comma,stays"}) {
    const std::string escaped = escape_tsv_field(text);
    EXPECT_EQ(escaped.find_first_of("\t\n\r"), std::string::npos);
    ASSERT_TRUE(unescape_tsv_field(escaped, decoded)) << escaped;
    EXPECT_EQ(decoded, text);
  }
  EXPECT_EQ(escape_tsv_field("plain.example.com"), "plain.example.com");
  EXPECT_FALSE(unescape_tsv_field("bad\\", decoded));
  EXPECT_FALSE(unescape_tsv_field("bad\\,", decoded));
}

// ---- write failure --------------------------------------------------------------

TEST(FlowTsvWrite, PathOverloadReportsWriteFailure) {
  FlowDatabase db;
  TaggedFlow flow;
  flow.fqdn = "www.example.com";
  db.add(flow);

  const auto dir = std::filesystem::temp_directory_path();
  const std::string ok_path =
      (dir / ("dnh_flowdb_" + std::to_string(::getpid()) + ".tsv")).string();
  const auto written = write_flow_tsv(db, ok_path);
  ASSERT_TRUE(written.has_value());
  EXPECT_EQ(*written, 1u);
  std::filesystem::remove(ok_path);

  EXPECT_FALSE(write_flow_tsv(db, (dir / "no-such-dir" / "x.tsv").string()));
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  // Every write to /dev/full fails with ENOSPC, even the flush of an
  // empty database's header.
  EXPECT_FALSE(write_flow_tsv(db, "/dev/full").has_value());
  EXPECT_FALSE(write_flow_tsv(FlowDatabase{}, "/dev/full").has_value());
}

// ---- indexes built on first query -------------------------------------------------

/// Eager reference: every index and query answer, recomputed from flows().
struct Reference {
  std::map<std::string, std::vector<FlowIndex>> by_fqdn;
  std::map<std::string, std::vector<FlowIndex>> by_sld;
  std::map<std::uint32_t, std::vector<FlowIndex>> by_server;
  std::map<std::uint16_t, std::vector<FlowIndex>> by_port;

  explicit Reference(const FlowDatabase& db) {
    for (std::size_t i = 0; i < db.size(); ++i) {
      const auto& f = db.flows()[i];
      const auto index = static_cast<FlowIndex>(i);
      if (f.labeled()) {
        by_fqdn[std::string{f.fqdn}].push_back(index);
        by_sld[std::string{dns::second_level_domain(f.fqdn)}].push_back(
            index);
      }
      by_server[f.key.server_ip.value()].push_back(index);
      by_port[f.key.server_port].push_back(index);
    }
  }
};

std::vector<net::Ipv4Address> servers_of(const FlowDatabase& db,
                                         const std::vector<FlowIndex>& in) {
  std::vector<net::Ipv4Address> out;
  for (const auto i : in) out.push_back(db.flows()[i].key.server_ip);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void expect_matches_reference(const FlowDatabase& db) {
  const Reference ref{db};
  for (const auto& [fqdn, indices] : ref.by_fqdn) {
    EXPECT_EQ(db.by_fqdn(fqdn), indices) << fqdn;
    EXPECT_EQ(db.servers_for_fqdn(fqdn), servers_of(db, indices)) << fqdn;
  }
  for (const auto& [sld, indices] : ref.by_sld) {
    EXPECT_EQ(db.by_second_level(sld), indices) << sld;
    EXPECT_EQ(db.servers_for_second_level(sld), servers_of(db, indices))
        << sld;
  }
  for (const auto& [server, indices] : ref.by_server) {
    const net::Ipv4Address ip{server};
    EXPECT_EQ(db.by_server(ip), indices);
    std::vector<std::string_view> names;
    for (const auto i : indices)
      if (db.flows()[i].labeled()) names.push_back(db.flows()[i].fqdn);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    EXPECT_EQ(db.fqdn_views(db.fqdns_on_server(ip)), names);
  }
  for (const auto& [port, indices] : ref.by_port)
    EXPECT_EQ(db.by_server_port(port), indices) << port;

  std::vector<std::string_view> all;
  for (const auto& [fqdn, _] : ref.by_fqdn) all.push_back(fqdn);
  EXPECT_EQ(db.fqdn_views(db.distinct_fqdns()), all);

  std::vector<std::pair<std::uint16_t, std::size_t>> ports;
  for (const auto& [port, indices] : ref.by_port)
    ports.emplace_back(port, indices.size());
  std::sort(ports.begin(), ports.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  EXPECT_EQ(db.ports_by_flow_count(), ports);

  // Keys the database never saw.
  EXPECT_TRUE(db.by_fqdn("never.seen.example").empty());
  EXPECT_TRUE(db.by_second_level("never-seen.example").empty());
  EXPECT_TRUE(db.by_server(net::Ipv4Address{203, 0, 113, 254}).empty());
}

/// Flows over a small name and address space, so every index has
/// multi-flow buckets.
std::vector<TaggedFlow> clustered_flows(util::Rng& rng, std::size_t n) {
  static const std::vector<std::string> kNames = {
      "www.example.com", "cdn.example.com",  "img.example.com",
      "a.zynga.com",     "scholar.google.com", "mail.google.com",
      "bbc.co.uk",       "news.bbc.co.uk",    "example.com",
  };
  std::vector<TaggedFlow> flows(n);
  for (auto& f : flows) {
    f.key.client_ip = net::Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(rng.index(50))};
    f.key.server_ip = net::Ipv4Address{23, 0, 0, static_cast<std::uint8_t>(rng.index(12))};
    f.key.client_port = static_cast<std::uint16_t>(rng.index(65536));
    f.key.server_port = std::vector<std::uint16_t>{80, 443, 53, 8080}[rng.index(4)];
    f.first_packet = util::Timestamp::from_micros(
        static_cast<std::int64_t>(rng.index(1'000'000)));
    f.fqdn = rng.chance(0.2) ? std::string_view{}
                             : std::string_view{kNames[rng.index(kNames.size())]};
  }
  return flows;
}

TEST(FlowDbLazyIndex, EmptyDatabaseAnswersEveryQuery) {
  const FlowDatabase db;
  expect_matches_reference(db);
  EXPECT_TRUE(db.distinct_fqdns().empty());
  EXPECT_TRUE(db.ports_by_flow_count().empty());
  EXPECT_TRUE(db.by_server_port(443).empty());
}

TEST(FlowDbLazyIndex, AddThenQuery) {
  util::Rng rng{1};
  FlowDatabase db;
  for (auto& f : clustered_flows(rng, 500)) db.add(std::move(f));
  expect_matches_reference(db);
}

TEST(FlowDbLazyIndex, SecondLevelQueryBeforeAnySldIsInterned) {
  // None of these labels is itself a 2nd-level domain, so before the
  // first query the table holds no SLD at all.
  FlowDatabase db;
  TaggedFlow f;
  f.fqdn = "scholar.google.com";
  db.add(f);
  f.fqdn = "news.bbc.co.uk";
  db.add(f);
  EXPECT_FALSE(db.domain_table()->find("google.com").has_value());
  ASSERT_EQ(db.by_second_level("google.com").size(), 1u);
  EXPECT_EQ(db.by_second_level("google.com")[0], 0u);
  ASSERT_EQ(db.by_second_level("bbc.co.uk").size(), 1u);
  EXPECT_EQ(db.by_second_level("bbc.co.uk")[0], 1u);
  expect_matches_reference(db);
}

TEST(FlowDbLazyIndex, QueryThenAddThenQuery) {
  util::Rng rng{2};
  FlowDatabase db;
  auto flows = clustered_flows(rng, 600);
  for (std::size_t i = 0; i < 200; ++i) db.add(flows[i]);
  expect_matches_reference(db);  // builds the indexes
  for (std::size_t i = 200; i < flows.size(); ++i) db.add(flows[i]);
  expect_matches_reference(db);  // maintained by add()
}

TEST(FlowDbLazyIndex, TakeFlowsThenReAddThenQuery) {
  util::Rng rng{3};
  FlowDatabase db;
  for (auto& f : clustered_flows(rng, 300)) db.add(std::move(f));
  expect_matches_reference(db);
  std::vector<TaggedFlow> taken = db.take_flows();
  EXPECT_EQ(db.size(), 0u);
  expect_matches_reference(db);  // dropped with the flows
  std::reverse(taken.begin(), taken.end());
  for (std::size_t i = 0; i < taken.size(); i += 2) db.add(taken[i]);
  expect_matches_reference(db);
}

TEST(FlowDbLazyIndex, CanonicalizeUnsortedAndSortedInput) {
  util::Rng rng{4};
  FlowDatabase db;
  for (auto& f : clustered_flows(rng, 400)) db.add(std::move(f));
  ASSERT_FALSE(std::is_sorted(db.flows().begin(), db.flows().end(),
                              [](const auto& a, const auto& b) {
                                return pipeline::canonical_less(a, b);
                              }));
  expect_matches_reference(db);  // indexes over the unsorted order
  pipeline::canonicalize(db);
  ASSERT_TRUE(std::is_sorted(db.flows().begin(), db.flows().end(),
                             [](const auto& a, const auto& b) {
                               return pipeline::canonical_less(a, b);
                             }));
  expect_matches_reference(db);  // rebuilt over the sorted order

  const std::string before = tsv(db);
  pipeline::canonicalize(db);  // already sorted: nothing moves
  EXPECT_EQ(tsv(db), before);
  expect_matches_reference(db);
}

TEST(FlowDbLazyIndex, AddWithInternedLabelsOnlyGrowsTheVector) {
  // add() touches no index until a query builds them: with every label
  // already interned, 10k adds allocate only for the flow vector's
  // geometric growth (~log2(10k) = 14 reallocations).
  constexpr std::size_t kFlows = 10'000;
  const std::vector<std::string> names = {"www.example.com",
                                          "cdn.example.com", "a.zynga.com"};
  FlowDatabase db;
  for (const auto& name : names) db.domain_table()->intern(name);
  std::vector<TaggedFlow> flows(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    flows[i].key.server_ip = net::Ipv4Address{static_cast<std::uint32_t>(i)};
    flows[i].key.server_port = static_cast<std::uint16_t>(i);
    flows[i].fqdn = names[i % names.size()];
  }

  const std::uint64_t before = counting_alloc::total();
  for (auto& flow : flows) db.add(std::move(flow));
  const std::uint64_t cost = counting_alloc::total() - before;
  EXPECT_LE(cost, 2 * static_cast<std::uint64_t>(std::log2(kFlows)) + 2)
      << cost << " allocations for " << kFlows << " adds";
  EXPECT_EQ(db.size(), kFlows);
  expect_matches_reference(db);
}

}  // namespace
}  // namespace dnh::core
