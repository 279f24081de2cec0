#include "core/domain_table.hpp"

#include <cstring>
#include <functional>

namespace dnh::core {

namespace {

std::uint64_t hash_bytes(std::string_view s) noexcept {
  return std::hash<std::string_view>{}(s);
}

}  // namespace

DomainTable::DomainTable() {
  slots_.assign(256, kEmptyDomainId);
  mask_ = slots_.size() - 1;
  views_.reserve(128);
  views_.push_back({});  // id 0: the empty string
}

// dnh-analyze: hot
DomainId DomainTable::intern(std::string_view s) {
  if (s.empty()) return kEmptyDomainId;
  std::size_t i = hash_bytes(s) & mask_;
  while (true) {
    const DomainId id = slots_[i];
    if (id == kEmptyDomainId) break;
    if (views_[id] == s) return id;
    i = (i + 1) & mask_;
  }
  // First sight: copy into the arena and claim the probed slot. Ids are
  // dense, so a table would need ~4 billion distinct names to exhaust
  // DomainId — the arena (hundreds of GiB) gives out long before that.
  const DomainId id = static_cast<DomainId>(views_.size());
  views_.push_back(append(s));
  slots_[i] = id;
  // views_.size()-1 live entries (id 0 never occupies a slot); grow at
  // 3/4 load so probe chains stay short.
  if ((views_.size() - 1) * 4 >= slots_.size() * 3) grow_slots();
  return id;
}

std::optional<DomainId> DomainTable::find(std::string_view s) const noexcept {
  if (s.empty()) return kEmptyDomainId;
  std::size_t i = hash_bytes(s) & mask_;
  while (true) {
    const DomainId id = slots_[i];
    if (id == kEmptyDomainId) return std::nullopt;
    if (views_[id] == s) return id;
    i = (i + 1) & mask_;
  }
}

std::string_view DomainTable::append(std::string_view s) {
  if (chunk_cap_ - chunk_used_ < s.size()) {
    // Oversized strings get a dedicated chunk so regular chunks never
    // waste more than one partial tail.
    const std::size_t cap = s.size() > kChunkBytes ? s.size() : kChunkBytes;
    chunks_.push_back(std::make_unique<char[]>(cap));
    chunk_cap_ = cap;
    chunk_used_ = 0;
    arena_bytes_ += cap;
  }
  char* dst = chunks_.back().get() + chunk_used_;
  std::memcpy(dst, s.data(), s.size());
  chunk_used_ += s.size();
  return {dst, s.size()};
}

void DomainTable::grow_slots() {
  std::vector<DomainId> old = std::move(slots_);
  slots_.assign(old.size() * 2, kEmptyDomainId);
  mask_ = slots_.size() - 1;
  for (const DomainId id : old) {
    if (id == kEmptyDomainId) continue;
    std::size_t i = hash_bytes(views_[id]) & mask_;
    while (slots_[i] != kEmptyDomainId) i = (i + 1) & mask_;
    slots_[i] = id;
  }
}

std::vector<DomainId> DomainTable::absorb(const DomainTable& other) {
  std::vector<DomainId> remap(other.views_.size(), kEmptyDomainId);
  for (std::size_t id = 1; id < other.views_.size(); ++id)
    remap[id] = intern(other.views_[id]);
  return remap;
}

}  // namespace dnh::core
