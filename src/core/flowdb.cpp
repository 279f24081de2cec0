#include "core/flowdb.hpp"

#include <algorithm>

#include "dns/domain.hpp"

namespace dnh::core {

const std::vector<FlowDatabase::FlowIndex> FlowDatabase::kEmpty{};

std::string_view TaggedFlow::second_level() const {
  return dns::second_level_domain(fqdn);
}

// dnh-analyze: hot
FlowDatabase::FlowIndex FlowDatabase::add(TaggedFlow flow) {
  const FlowIndex index = static_cast<FlowIndex>(flows_.size());
  // Re-intern: after this, the flow's label lives in OUR arena regardless
  // of where the caller staged it (sniffer scratch, TSV line, another
  // shard's table).
  flow.fqdn_id = table_->intern(flow.fqdn);
  flow.fqdn = table_->view(flow.fqdn_id);
  flows_.push_back(std::move(flow));
  if (indexed_) index_flow(index);
  return index;
}

void FlowDatabase::index_flow(FlowIndex index) const {
  const TaggedFlow& flow = flows_[index];
  if (flow.labeled()) {
    fqdn_index_[flow.fqdn_id].push_back(index);
    sld_index_[table_->intern(flow.second_level())].push_back(index);
  }
  server_index_[flow.key.server_ip].push_back(index);
  port_index_[flow.key.server_port].push_back(index);
}

void FlowDatabase::ensure_indexed() const {
  if (indexed_) return;
  for (std::size_t i = 0; i < flows_.size(); ++i)
    index_flow(static_cast<FlowIndex>(i));
  indexed_ = true;
}

std::vector<TaggedFlow> FlowDatabase::take_flows() {
  std::vector<TaggedFlow> out = std::move(flows_);
  flows_.clear();
  fqdn_index_.clear();
  sld_index_.clear();
  server_index_.clear();
  port_index_.clear();
  indexed_ = false;
  return out;
}

const std::vector<FlowDatabase::FlowIndex>& FlowDatabase::by_second_level(
    std::string_view sld) const {
  ensure_indexed();  // interns the 2nd-level domains find() looks up
  const auto id = table_->find(sld);
  if (!id) return kEmpty;
  const auto it = sld_index_.find(*id);
  return it == sld_index_.end() ? kEmpty : it->second;
}

const std::vector<FlowDatabase::FlowIndex>& FlowDatabase::by_fqdn(
    std::string_view fqdn) const {
  const auto id = table_->find(fqdn);
  if (!id) return kEmpty;
  ensure_indexed();
  const auto it = fqdn_index_.find(*id);
  return it == fqdn_index_.end() ? kEmpty : it->second;
}

const std::vector<FlowDatabase::FlowIndex>& FlowDatabase::by_server(
    net::Ipv4Address server) const {
  ensure_indexed();
  const auto it = server_index_.find(server);
  return it == server_index_.end() ? kEmpty : it->second;
}

const std::vector<FlowDatabase::FlowIndex>& FlowDatabase::by_server_port(
    std::uint16_t port) const {
  ensure_indexed();
  const auto it = port_index_.find(port);
  return it == port_index_.end() ? kEmpty : it->second;
}

namespace {

// Collect-sort-unique: one contiguous buffer instead of a red-black node
// per distinct element, and no per-element string copies for FQDNs.
template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::vector<net::Ipv4Address> FlowDatabase::servers_for_fqdn(
    std::string_view fqdn) const {
  std::vector<net::Ipv4Address> out;
  const auto& indices = by_fqdn(fqdn);
  out.reserve(indices.size());
  for (const auto i : indices) out.push_back(flows_[i].key.server_ip);
  sort_unique(out);
  return out;
}

std::vector<net::Ipv4Address> FlowDatabase::servers_for_second_level(
    std::string_view sld) const {
  std::vector<net::Ipv4Address> out;
  const auto& indices = by_second_level(sld);
  out.reserve(indices.size());
  for (const auto i : indices) out.push_back(flows_[i].key.server_ip);
  sort_unique(out);
  return out;
}

std::vector<DomainId> FlowDatabase::fqdns_on_server(
    net::Ipv4Address server) const {
  std::vector<DomainId> out;
  const auto& indices = by_server(server);
  out.reserve(indices.size());
  for (const auto i : indices) {
    if (flows_[i].labeled()) out.push_back(flows_[i].fqdn_id);
  }
  sort_unique(out);
  return out;
}

std::vector<DomainId> FlowDatabase::distinct_fqdns() const {
  ensure_indexed();
  std::vector<DomainId> out;
  out.reserve(fqdn_index_.size());
  for (const auto& [id, _] : fqdn_index_) out.push_back(id);
  std::sort(out.begin(), out.end());  // index keys are already unique
  return out;
}

std::vector<std::string_view> FlowDatabase::fqdn_views(
    std::span<const DomainId> ids) const {
  std::vector<std::string_view> out;
  out.reserve(ids.size());
  for (const auto id : ids) out.push_back(table_->view(id));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::uint16_t, std::size_t>>
FlowDatabase::ports_by_flow_count() const {
  ensure_indexed();
  std::vector<std::pair<std::uint16_t, std::size_t>> out;
  out.reserve(port_index_.size());
  for (const auto& [port, flows] : port_index_)
    out.emplace_back(port, flows.size());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace dnh::core
