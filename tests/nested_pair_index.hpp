// The paper's nested clientIP -> (serverIP -> V) resolver index (Sec.
// 3.1.1): ordered maps as in Algorithm 1, hash maps per footnote 2. The
// production resolver runs FlatPairIndex (core/resolver.hpp); these shapes
// are the differential-test oracles and the microbench's comparison rows.
#pragma once

#include <map>
#include <unordered_map>
#include <utility>

#include "core/resolver.hpp"

namespace dnh::core {

template <template <typename...> class Map, typename V>
class NestedPairIndex {
 public:
  const V* find(net::Ipv4Address client, net::Ipv4Address server) const {
    const auto client_it = client_map_.find(client);
    if (client_it == client_map_.end()) return nullptr;
    const auto server_it = client_it->second.find(server);
    if (server_it == client_it->second.end()) return nullptr;
    return &server_it->second;
  }
  V* find(net::Ipv4Address client, net::Ipv4Address server) {
    return const_cast<V*>(std::as_const(*this).find(client, server));
  }

  /// Value slot for (client, server), created value-initialized if absent.
  std::pair<V*, bool> try_emplace(net::Ipv4Address client,
                                  net::Ipv4Address server) {
    auto [it, inserted] = client_map_[client].try_emplace(server);
    return {&it->second, inserted};
  }

  /// Removes the (client, server) key; prunes the client's inner map when
  /// it empties so client_count() stays exact.
  void erase_key(net::Ipv4Address client, net::Ipv4Address server) {
    const auto client_it = client_map_.find(client);
    if (client_it == client_map_.end()) return;
    client_it->second.erase(server);
    if (client_it->second.empty()) client_map_.erase(client_it);
  }

  std::size_t client_count() const noexcept { return client_map_.size(); }
  void reserve(std::size_t) {}  // node-based maps have no useful reserve

 private:
  Map<net::Ipv4Address, Map<net::Ipv4Address, V>> client_map_;
};

template <typename V>
using OrderedPairIndex = NestedPairIndex<std::map, V>;
template <typename V>
using UnorderedPairIndex = NestedPairIndex<std::unordered_map, V>;

}  // namespace dnh::core
