// The DN-Hunter DNS Resolver (paper Sec. 3.1.1, Algorithm 1).
//
// A replica of the clients' DNS caches built purely from sniffed responses:
//  - FQDN entries live in a fixed-size circular FIFO (the "Clist" of size
//    L), which bounds memory and implicitly ages entries out — L must be
//    dimensioned against the monitored hosts' cache lifetime (Sec. 6).
//    Slots are created as the first lap reaches them, so committed memory
//    grows with the responses inserted and L is only its upper bound.
//  - A (clientIP, serverIP) -> entry index implements lookup. The paper's
//    design is two nested ordered maps (O(log Nc + log Ns(c))); footnote 2
//    notes hash tables as the alternative. Production packs the two IPs
//    into one 64-bit key probed in a single open-addressing FlatHash
//    (FlatPairIndex): one cache-friendly probe instead of two node-walks
//    on every lookup/insert (docs/performance.md "Flat-hash hot path").
//    Both nested shapes live in tests/nested_pair_index.hpp as
//    differential oracles; bench_lookup_micro times all three.
//  - Entries keep back-references to their index keys so an overwritten
//    Clist slot (line 23-25 of Alg. 1) can remove exactly its own keys.
//
// Determinism note: no query ever ITERATES the index — every answer goes
// key -> Clist entry — so the index's iteration order can never leak into
// output. That is why the flat index labels byte-identically to the
// paper's ordered maps, which the differential tests (sharded vs
// single-threaded, flat vs nested index) enforce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/domain_table.hpp"
#include "net/ip.hpp"
#include "util/flat_hash.hpp"
#include "util/time.hpp"

namespace dnh::core {

/// Single flat open-addressing table keyed by the packed 64-bit
/// (client, server) pair. A small side table keeps per-client key counts
/// so client_count() (dimensioning studies, Sec. 6) stays O(1) and exact;
/// it is touched only when a key is created or destroyed, never on the
/// per-packet lookup path.
template <typename V>
class FlatPairIndex {
 public:
  // dnh-analyze: hot
  const V* find(net::Ipv4Address client, net::Ipv4Address server) const {
    const auto it = table_.find(pack(client, server));
    return it == table_.end() ? nullptr : &it->second;
  }
  V* find(net::Ipv4Address client, net::Ipv4Address server) {
    return const_cast<V*>(std::as_const(*this).find(client, server));
  }

  std::pair<V*, bool> try_emplace(net::Ipv4Address client,
                                  net::Ipv4Address server) {
    auto [it, inserted] = table_.try_emplace(pack(client, server));
    if (inserted) ++client_refs_[client.value()];
    return {&it->second, inserted};
  }

  void erase_key(net::Ipv4Address client, net::Ipv4Address server) {
    if (table_.erase(pack(client, server)) == 0) return;
    const auto it = client_refs_.find(client.value());
    if (it != client_refs_.end() && --it->second == 0)
      client_refs_.erase(it);
  }

  std::size_t client_count() const noexcept { return client_refs_.size(); }

  void reserve(std::size_t n) {
    table_.reserve(n);
    client_refs_.reserve(n / 4 + 1);
  }

 private:
  static std::uint64_t pack(net::Ipv4Address client,
                            net::Ipv4Address server) noexcept {
    return (std::uint64_t{client.value()} << 32) | server.value();
  }

  // Bounded by Clist recycling: eviction calls delete_back_references ->
  // erase_key for every key the slot created.
  // dnh-analyze: bounded(delete_back_references)
  util::FlatHash<std::uint64_t, V> table_;
  /// client -> number of live (client, *) keys; emptied with table_.
  // dnh-analyze: bounded(delete_back_references)
  util::FlatHash<std::uint32_t, std::uint32_t> client_refs_;
};

/// Result of a successful lookup: the FQDN plus when its DNS response was
/// observed (used for first-flow-delay analytics, Figs. 12-13).
struct ResolverHit {
  /// View into the resolver's DomainTable arena: valid for the table's
  /// lifetime, not just until the Clist entry is evicted.
  std::string_view fqdn;
  util::Timestamp response_time;
  /// Interned id of `fqdn` in the resolver's DomainTable; lets consumers
  /// that share the table (the sniffer's pending tags) skip re-hashing.
  DomainId fqdn_id = kEmptyDomainId;
};

/// How many historical labels a (client,server) key retains for the
/// multi-label extension (paper Sec. 6: "DN-Hunter could easily be
/// extended to return all possible labels").
inline constexpr std::size_t kMaxLabelsPerKey = 4;

/// Counters exposed for dimensioning studies (Sec. 6).
struct ResolverStats {
  std::uint64_t inserts = 0;        ///< DNS responses inserted
  std::uint64_t evictions = 0;      ///< Clist slots recycled
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// (client,server) key re-pointed to a NEW FQDN — the label-confusion
  /// situation discussed in Sec. 6.
  std::uint64_t replaced_different_fqdn = 0;
  /// Same key re-pointed to the same FQDN (TTL refresh; harmless).
  std::uint64_t replaced_same_fqdn = 0;
};

/// `Index<V>` maps a (client, server) pair to a V. Production uses
/// FlatPairIndex; the tests and the lookup microbench also instantiate the
/// paper's nested-map shape (tests/nested_pair_index.hpp) as an oracle.
template <template <typename> class Index = FlatPairIndex>
class BasicDnsResolver {
 public:
  /// `clist_size` is the paper's L; it bounds live entries. The resolver
  /// interns FQDNs in `table` when given (the sniffer shares one table
  /// across resolver, DNS log and flow DB) or in a private table otherwise.
  explicit BasicDnsResolver(std::size_t clist_size,
                            std::shared_ptr<DomainTable> table = nullptr)
      : table_{table ? std::move(table)
                     : std::make_shared<DomainTable>()},
        capacity_{clist_size > 0 ? clist_size : 1} {
    // Address space only: insert creates each Entry when the FIFO cursor
    // first reaches it, so untouched slots are never page-faulted, zeroed
    // or destroyed, and the first lap never reallocates.
    clist_.reserve(capacity_);
    // Warm the index for small/medium Clists so steady state does not
    // rehash; capped because live keys track traffic, not L.
    index_.reserve(std::min(capacity_, std::size_t{1} << 12));
  }

  /// INSERT(DNSresponse) with a pre-interned name: the zero-allocation
  /// sniffer path. `fqdn` must come from this resolver's DomainTable.
  // dnh-analyze: hot
  void insert(net::Ipv4Address client, DomainId fqdn,
              std::span<const net::Ipv4Address> servers,
              util::Timestamp now) {
    ++stats_.inserts;

    // First lap: the cursor is at the end of the created slots, so create
    // this one inside the reservation (never a reallocation).
    if (next_ == clist_.size()) clist_.emplace_back();
    // Recycle the next Clist slot (Alg. 1 lines 22-25): drop the old
    // entry's keys from the index before reusing the slot.
    Entry& slot = clist_[next_];
    if (slot.in_use) {
      ++stats_.evictions;
      delete_back_references(slot);
    }
    const std::uint32_t index = static_cast<std::uint32_t>(next_);
    // Increment-and-wrap: the modulo on every insert was a measurable
    // per-response cost (integer division) for a counter that only ever
    // advances by one.
    if (++next_ == capacity_) next_ = 0;

    slot.in_use = true;
    slot.generation += 1;
    slot.fqdn = fqdn;
    slot.response_time = now;
    slot.references.clear();
    slot.references.reserve(servers.size());

    for (const auto server : servers) {
      // Push the new reference in front of any older ones for this
      // (client,server) key (Alg. 1 lines 11-15; older labels are kept
      // for the lookup_all extension instead of being dropped).
      auto [chain, inserted] = index_.try_emplace(client, server);
      if (!inserted && !chain->empty()) {
        const EntryRef front = chain->front();
        // A repeated address in this answer list: the key already points
        // here, and a second ref would push an older label off the chain.
        if (front.index == index && front.generation == slot.generation)
          continue;
        const Entry& newest = clist_[front.index];
        if (newest.in_use && newest.generation == front.generation) {
          if (newest.fqdn == slot.fqdn)
            ++stats_.replaced_same_fqdn;
          else
            ++stats_.replaced_different_fqdn;
        }
      }
      chain->insert(chain->begin(), EntryRef{index, slot.generation});
      if (chain->size() > kMaxLabelsPerKey) chain->resize(kMaxLabelsPerKey);
      slot.references.push_back({client, server});
    }
    if (slot.references.empty()) {
      // Response with no A records: keep the slot unused.
      slot.in_use = false;
    }
  }

  /// INSERT(DNSresponse) from text: interns `fqdn` first. Convenience for
  /// the trace generator and tests; the sniffer uses the DomainId overload.
  void insert(net::Ipv4Address client, std::string_view fqdn,
              std::span<const net::Ipv4Address> servers,
              util::Timestamp now) {
    insert(client, table_->intern(fqdn), servers, now);
  }

  /// LOOKUP(ClientIP, ServerIP): the FQDN `client` most recently resolved
  /// for `server`, or nullopt. The returned view points into the
  /// DomainTable arena and stays valid for the table's lifetime (eviction
  /// recycles the Clist slot, not the interned bytes).
  // dnh-analyze: hot
  std::optional<ResolverHit> lookup(net::Ipv4Address client,
                                    net::Ipv4Address server) const {
    ++stats_.lookups;
    const RefChain* chain = find_chain(client, server);
    if (chain) {
      for (const auto& ref : *chain) {
        const Entry& entry = clist_[ref.index];
        if (entry.in_use && entry.generation == ref.generation) {
          ++stats_.hits;
          return ResolverHit{table_->view(entry.fqdn), entry.response_time,
                             entry.fqdn};
        }
      }
    }
    ++stats_.misses;
    return std::nullopt;
  }

  /// The multi-label extension: every FQDN this (client,server) key was
  /// recently bound to, newest first, duplicates removed. The first
  /// element equals lookup()'s answer. Does not touch hit/miss counters.
  std::vector<ResolverHit> lookup_all(net::Ipv4Address client,
                                      net::Ipv4Address server) const {
    std::vector<ResolverHit> out;
    const RefChain* chain = find_chain(client, server);
    if (!chain) return out;
    for (const auto& ref : *chain) {
      const Entry& entry = clist_[ref.index];
      if (!entry.in_use || entry.generation != ref.generation) continue;
      bool duplicate = false;
      for (const auto& hit : out) duplicate |= hit.fqdn_id == entry.fqdn;
      if (!duplicate)
        out.push_back(ResolverHit{table_->view(entry.fqdn),
                                  entry.response_time, entry.fqdn});
    }
    return out;
  }

  /// Newest label whose DNS response was observed at or before `cutoff`,
  /// walking the raw (un-deduplicated) per-key history. This is the
  /// schedule-independent export-time query: with `cutoff` = the flow's
  /// last packet, responses that arrived after the flow ended are ignored,
  /// so the answer does not depend on WHEN the export fires (idle-sweep
  /// cadence) — single-threaded and sharded runs label identically. The
  /// kMaxLabelsPerKey history cap bounds how far back this can see.
  /// Does not touch hit/miss counters.
  std::optional<ResolverHit> lookup_at_or_before(net::Ipv4Address client,
                                                 net::Ipv4Address server,
                                                 util::Timestamp cutoff) const {
    const RefChain* chain = find_chain(client, server);
    if (!chain) return std::nullopt;
    for (const auto& ref : *chain) {
      const Entry& entry = clist_[ref.index];
      if (!entry.in_use || entry.generation != ref.generation) continue;
      if (entry.response_time > cutoff) continue;
      return ResolverHit{table_->view(entry.fqdn), entry.response_time,
                         entry.fqdn};
    }
    return std::nullopt;
  }

  /// The interner backing this resolver's FQDN storage.
  const std::shared_ptr<DomainTable>& domain_table() const noexcept {
    return table_;
  }

  const ResolverStats& stats() const noexcept { return stats_; }
  /// The configured L, whether or not the first lap has reached it.
  std::size_t capacity() const noexcept { return capacity_; }

  /// Number of clients currently present in the index.
  std::size_t client_count() const noexcept {
    return index_.client_count();
  }

 private:
  struct Entry {
    DomainId fqdn = kEmptyDomainId;
    util::Timestamp response_time;
    std::vector<std::pair<net::Ipv4Address, net::Ipv4Address>> references;
    std::uint32_t generation = 0;
    bool in_use = false;
  };
  /// Map value element: Clist index plus the generation it was created
  /// for, so a stale mapping to a recycled slot is detected instead of
  /// mislabeling.
  struct EntryRef {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;
  };
  /// Newest-first bounded history of labels for one (client,server) key.
  using RefChain = std::vector<EntryRef>;
  using PairIndex = Index<RefChain>;

  const RefChain* find_chain(net::Ipv4Address client,
                             net::Ipv4Address server) const {
    return index_.find(client, server);
  }

  void delete_back_references(Entry& entry) {
    for (const auto& [client, server] : entry.references) {
      RefChain* chain = index_.find(client, server);
      if (chain == nullptr) continue;
      std::erase_if(*chain, [&](const EntryRef& ref) {
        return &clist_[ref.index] == &entry &&
               ref.generation == entry.generation;
      });
      if (chain->empty()) index_.erase_key(client, server);
    }
    entry.references.clear();
    entry.in_use = false;
  }

  std::shared_ptr<DomainTable> table_;
  std::size_t capacity_;
  /// Slots [0, clist_.size()) exist; capacity_ - size() remain reserved
  /// until the first lap reaches them.
  std::vector<Entry> clist_;
  std::size_t next_ = 0;
  PairIndex index_;
  mutable ResolverStats stats_;
};

/// The production resolver: flat single-probe index.
using DnsResolver = BasicDnsResolver<FlatPairIndex>;

}  // namespace dnh::core
