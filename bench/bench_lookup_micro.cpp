// Microbenchmarks for the resolver and flow-table hot paths
// (docs/performance.md):
//
//  Resolver index A/B/C — the paper's nested ordered maps, nested
//  unordered maps (footnote 2; both from tests/nested_pair_index.hpp) and
//  the production FlatPairIndex (one open-addressing probe over a packed
//  64-bit (client, server) key). Insert from text (`*_insert`, pays the
//  intern probe), insert of pre-interned DomainIds (`*_insert_interned`,
//  the sniffer's path) and lookup, each as the client population Nc
//  grows. The paper's complexity claim is O(log Nc + log Ns(c)) per
//  operation with ordered maps; hash maps trade ordering for O(1)
//  expected.
//
//  Flow-table packet churn — the container-level A/B behind converting
//  FlowTable::flows_: a FlowKey-keyed std::unordered_map vs
//  util::FlatHash under the mixed find/insert/erase pattern packets
//  drive.
//
//  FlowDatabase distinct queries — sorted interned vectors vs the
//  node-per-element std::set the helpers used to build.
//
// Every row reports `allocs_per_op` (global operator-new count per
// iteration). Lookups allocate 0. Steady-state inserts do not: a new
// (client, server) key's label chain (a vector) allocates on its first
// entry and evicting the key frees it, about 2 allocations per insert for
// flat and 3.5-4 for the nested maps at >= 1k clients
// (docs/performance.md). CI's perf-smoke job compares a Release run
// against bench/BENCH_lookup.json: a >2x tripwire on the guarded rows, 0
// allocs on every lookup, and flat lookup >= 1.5x unordered at every
// population.
//
// Run:  bench_lookup_micro --benchmark_format=json > BENCH_lookup.json
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/domain_table.hpp"
#include "core/flowdb.hpp"
#include "core/resolver.hpp"
#include "flow/flow.hpp"
#include "tests/counting_alloc.hpp"
#include "tests/nested_pair_index.hpp"
#include "util/flat_hash.hpp"
#include "util/rng.hpp"

namespace {

using dnh::core::BasicDnsResolver;
using dnh::core::FlatPairIndex;
using dnh::core::OrderedPairIndex;
using dnh::core::UnorderedPairIndex;
using dnh::net::Ipv4Address;

// Publishes the operator-new count of the timed region as a per-iteration
// counter next to the timing columns.
class AllocScope {
 public:
  explicit AllocScope(benchmark::State& state)
      : state_{state}, before_{dnh::counting_alloc::total()} {}
  ~AllocScope() {
    const auto total = dnh::counting_alloc::total() - before_;
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(total), benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  std::uint64_t before_;
};

// ---- resolver index A/B/C ---------------------------------------------

struct Workload {
  std::vector<Ipv4Address> clients;
  std::vector<Ipv4Address> servers;
  std::vector<std::string> fqdns;
};

Workload make_workload(std::size_t n_clients) {
  Workload w;
  for (std::size_t i = 0; i < n_clients; ++i)
    w.clients.emplace_back(static_cast<std::uint32_t>(0x0A000000 + i));
  for (std::size_t i = 0; i < 512; ++i)
    w.servers.emplace_back(static_cast<std::uint32_t>(0x17000000 + i));
  for (std::size_t i = 0; i < 1024; ++i)
    w.fqdns.push_back("svc" + std::to_string(i) + ".example.com");
  return w;
}

/// The per-packet query: every non-DNS packet's first sight costs one
/// resolver lookup, so this is THE number the flat index targets.
template <template <typename> class Index>
void resolver_lookup(benchmark::State& state) {
  const auto workload =
      make_workload(static_cast<std::size_t>(state.range(0)));
  BasicDnsResolver<Index> resolver{1 << 20};
  dnh::util::Rng rng{17};
  // Preload: every client knows ~32 servers (mixed hits and misses in the
  // timed loop, like real traffic).
  for (const auto& client : workload.clients) {
    for (int s = 0; s < 32; ++s) {
      const Ipv4Address answers[1] = {
          workload.servers[rng.index(workload.servers.size())]};
      resolver.insert(client,
                      workload.fqdns[rng.index(workload.fqdns.size())],
                      std::span{answers}, {});
    }
  }
  std::uint64_t i = 0;
  AllocScope allocs{state};
  for (auto _ : state) {
    const auto& client = workload.clients[i % workload.clients.size()];
    const auto& server = workload.servers[i % workload.servers.size()];
    benchmark::DoNotOptimize(resolver.lookup(client, server));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

/// Steady-state insert with Clist recycling: try_emplace plus
/// delete_back_references churn through the index. Every name is interned
/// and every Clist slot cycled once before timing, the state a live
/// capture runs in. `kInterned` hands the resolver DomainIds (the
/// sniffer's path); otherwise each insert pays the intern probe.
template <template <typename> class Index, bool kInterned>
void resolver_insert(benchmark::State& state) {
  const auto workload =
      make_workload(static_cast<std::size_t>(state.range(0)));
  auto table = std::make_shared<dnh::core::DomainTable>();
  std::vector<dnh::core::DomainId> ids;
  ids.reserve(workload.fqdns.size());
  for (const auto& fqdn : workload.fqdns) ids.push_back(table->intern(fqdn));
  constexpr std::size_t kClist = 1 << 16;
  BasicDnsResolver<Index> resolver{kClist, std::move(table)};
  dnh::util::Rng rng{13};
  std::uint64_t i = 0;
  auto insert_one = [&] {
    const auto& client = workload.clients[i % workload.clients.size()];
    const Ipv4Address answers[2] = {
        workload.servers[rng.index(workload.servers.size())],
        workload.servers[rng.index(workload.servers.size())]};
    const auto now =
        dnh::util::Timestamp::from_micros(static_cast<std::int64_t>(i));
    if constexpr (kInterned)
      resolver.insert(client, ids[i % ids.size()], std::span{answers}, now);
    else
      resolver.insert(client, workload.fqdns[i % workload.fqdns.size()],
                      std::span{answers}, now);
    ++i;
  };
  for (std::size_t warm = 0; warm < kClist + 1; ++warm) insert_one();
  AllocScope allocs{state};
  for (auto _ : state) insert_one();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void ordered_lookup(benchmark::State& s) {
  resolver_lookup<OrderedPairIndex>(s);
}
void unordered_lookup(benchmark::State& s) {
  resolver_lookup<UnorderedPairIndex>(s);
}
void flat_lookup(benchmark::State& s) { resolver_lookup<FlatPairIndex>(s); }
void ordered_insert(benchmark::State& s) {
  resolver_insert<OrderedPairIndex, false>(s);
}
void unordered_insert(benchmark::State& s) {
  resolver_insert<UnorderedPairIndex, false>(s);
}
void flat_insert(benchmark::State& s) {
  resolver_insert<FlatPairIndex, false>(s);
}
void ordered_insert_interned(benchmark::State& s) {
  resolver_insert<OrderedPairIndex, true>(s);
}
void unordered_insert_interned(benchmark::State& s) {
  resolver_insert<UnorderedPairIndex, true>(s);
}
void flat_insert_interned(benchmark::State& s) {
  resolver_insert<FlatPairIndex, true>(s);
}

BENCHMARK(ordered_lookup)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(unordered_lookup)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(flat_lookup)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(ordered_insert)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(unordered_insert)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(flat_insert)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(ordered_insert_interned)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(unordered_insert_interned)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(flat_insert_interned)->Arg(64)->Arg(1024)->Arg(16384);

// ---- flow-table packet churn ------------------------------------------

dnh::flow::FlowKey make_key(dnh::util::Rng& rng, std::size_t n_flows) {
  dnh::flow::FlowKey key;
  const std::uint64_t id = rng.index(n_flows);
  key.client_ip = Ipv4Address{
      static_cast<std::uint32_t>(0x0A000000 + (id & 0xFFFF))};
  key.server_ip = Ipv4Address{
      static_cast<std::uint32_t>(0x17000000 + (id >> 4))};
  key.client_port = static_cast<std::uint16_t>(20000 + (id % 30000));
  key.server_port = 443;
  key.transport = dnh::flow::Transport::kTcp;
  return key;
}

/// A thin stand-in for FlowRecord: the 5-tuple plus counters — what the
/// per-packet path actually touches (head bytes are append-only vectors
/// and identical for both containers, so they would only add noise).
struct ChurnRecord {
  dnh::flow::FlowKey key;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// The flow table's per-packet pattern: mostly find-hit-update, a steady
/// trickle of new flows and finished-flow erases at a fixed live size.
template <typename Table>
void flow_churn(benchmark::State& state) {
  const std::size_t n_flows = static_cast<std::size_t>(state.range(0));
  Table table;
  dnh::util::Rng rng{23};
  std::vector<dnh::flow::FlowKey> live;
  live.reserve(n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) {
    auto key = make_key(rng, 1 << 20);
    if (table.find(key) == table.end()) {
      table.emplace(key, ChurnRecord{key, 1, 64});
      live.push_back(key);
    }
  }
  std::uint64_t i = 0;
  AllocScope allocs{state};
  for (auto _ : state) {
    if (i % 16 == 15) {
      // One flow finishes, one starts: erase + insert at constant size.
      const std::size_t victim = rng.index(live.size());
      table.erase(live[victim]);
      auto key = make_key(rng, 1 << 20);
      if (table.find(key) == table.end())
        table.emplace(key, ChurnRecord{key, 1, 64});
      live[victim] = key;
    } else {
      // Mid-flow packet: find and update.
      auto it = table.find(live[i % live.size()]);
      if (it != table.end()) {
        ++it->second.packets;
        it->second.bytes += 1500;
        benchmark::DoNotOptimize(it->second.bytes);
      }
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void flow_churn_unordered_map(benchmark::State& s) {
  flow_churn<std::unordered_map<dnh::flow::FlowKey, ChurnRecord>>(s);
}
void flow_churn_flat_hash(benchmark::State& s) {
  flow_churn<dnh::util::FlatHash<dnh::flow::FlowKey, ChurnRecord>>(s);
}

BENCHMARK(flow_churn_unordered_map)->Arg(1024)->Arg(16384)->Arg(65536);
BENCHMARK(flow_churn_flat_hash)->Arg(1024)->Arg(16384)->Arg(65536);

// ---- flowdb distinct queries ------------------------------------------

dnh::core::FlowDatabase make_db(std::size_t n_flows) {
  dnh::core::FlowDatabase db;
  dnh::util::Rng rng{31};
  for (std::size_t i = 0; i < n_flows; ++i) {
    dnh::core::TaggedFlow flow;
    flow.key = make_key(rng, 1 << 14);
    // ~64 distinct labels spread over the flows, several servers each.
    const std::string fqdn =
        "cdn" + std::to_string(rng.index(64)) + ".example.com";
    flow.fqdn = fqdn;
    db.add(std::move(flow));
  }
  return db;
}

/// The old helper shape: a std::set<std::string> built per call (one node
/// allocation + string copy per distinct element). Kept here as the
/// baseline the vector API replaced.
void flowdb_distinct_fqdns_set(benchmark::State& state) {
  const auto db = make_db(static_cast<std::size_t>(state.range(0)));
  AllocScope allocs{state};
  for (auto _ : state) {
    std::set<std::string> out;
    for (const auto id : db.distinct_fqdns())
      out.emplace(db.domain_table()->view(id));
    benchmark::DoNotOptimize(out.size());
  }
}

void flowdb_distinct_fqdns_vec(benchmark::State& state) {
  const auto db = make_db(static_cast<std::size_t>(state.range(0)));
  AllocScope allocs{state};
  for (auto _ : state) {
    const auto ids = db.distinct_fqdns();
    benchmark::DoNotOptimize(ids.size());
  }
}

void flowdb_fqdns_on_server_set(benchmark::State& state) {
  const auto db = make_db(static_cast<std::size_t>(state.range(0)));
  const auto server = db.flow(0).key.server_ip;
  AllocScope allocs{state};
  for (auto _ : state) {
    std::set<std::string> out;
    for (const auto id : db.fqdns_on_server(server))
      out.emplace(db.domain_table()->view(id));
    benchmark::DoNotOptimize(out.size());
  }
}

void flowdb_fqdns_on_server_vec(benchmark::State& state) {
  const auto db = make_db(static_cast<std::size_t>(state.range(0)));
  const auto server = db.flow(0).key.server_ip;
  AllocScope allocs{state};
  for (auto _ : state) {
    const auto ids = db.fqdns_on_server(server);
    benchmark::DoNotOptimize(ids.size());
  }
}

BENCHMARK(flowdb_distinct_fqdns_set)->Arg(1 << 14);
BENCHMARK(flowdb_distinct_fqdns_vec)->Arg(1 << 14);
BENCHMARK(flowdb_fqdns_on_server_set)->Arg(1 << 14);
BENCHMARK(flowdb_fqdns_on_server_vec)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
