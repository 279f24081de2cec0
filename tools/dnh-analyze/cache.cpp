// On-disk parse cache for dnh-analyze. CI runs the analyzer on every
// push; tokenizing + parsing ~200 files dominates the runtime, so each
// FileSummary is persisted keyed by FNV-1a64(parser version, path,
// content). Any content or parser change misses cleanly; entries are
// self-describing and a corrupt entry is treated as a miss, never an
// error.
#include "analyze.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace dnh::analyze {

namespace {

constexpr std::string_view kMagic = "dnh-analyze-cache";
constexpr char kSep = '\t';

std::string detab(std::string s) {
  for (char& c : s)
    if (c == kSep) c = ' ';
  return s;
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (c == kSep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::string cache_path(const std::string& cache_dir,
                       const std::string& relpath,
                       std::string_view content) {
  std::uint64_t h = fnv1a64(relpath, 0xcbf29ce484222325ULL +
                                         static_cast<std::uint64_t>(
                                             kParserVersion));
  h = fnv1a64(content, h);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return cache_dir + "/" + buf + ".summary";
}

void write_list(std::ostream& out, const std::set<std::string>& items) {
  out << items.size();
  for (const std::string& s : items) out << kSep << detab(s);
}

void write_list(std::ostream& out, const std::vector<std::string>& items) {
  out << items.size();
  for (const std::string& s : items) out << kSep << detab(s);
}

/// Reads `count` fields starting at `idx`; false on underrun.
bool read_list(const std::vector<std::string>& f, std::size_t& idx,
               std::vector<std::string>& out) {
  if (idx >= f.size()) return false;
  std::size_t n = 0;
  try {
    n = static_cast<std::size_t>(std::stoul(f[idx++]));
  } catch (...) {
    return false;
  }
  if (idx + n > f.size()) return false;
  for (std::size_t i = 0; i < n; ++i) out.push_back(f[idx++]);
  return true;
}

bool read_list(const std::vector<std::string>& f, std::size_t& idx,
               std::set<std::string>& out) {
  std::vector<std::string> v;
  if (!read_list(f, idx, v)) return false;
  out.insert(v.begin(), v.end());
  return true;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void cache_store(const std::string& cache_dir, const std::string& relpath,
                 std::string_view content, const FileSummary& summary) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  std::ostringstream out;
  out << kMagic << kSep << kParserVersion << kSep << detab(relpath) << "\n";
  for (const FunctionInfo& fn : summary.functions) {
    out << "F" << kSep << detab(fn.qname) << kSep << detab(fn.name) << kSep
        << detab(fn.cls) << kSep << detab(fn.file) << kSep << fn.line << kSep
        << fn.body_end << kSep << fn.tag_signal_safe << kSep << fn.tag_hot
        << kSep << fn.tag_shard_local_ids << kSep << fn.tag_merge_boundary
        << kSep << fn.tag_id_remap << kSep;
    write_list(out, fn.fn_allows);
    out << "\n";
    for (const CallSite& c : fn.calls) {
      out << "C" << kSep << detab(c.name) << kSep << detab(c.qualifier)
          << kSep << detab(c.object) << kSep << c.member << kSep << c.global
          << kSep << c.line << kSep;
      write_list(out, c.held);
      out << kSep;
      write_list(out, c.allows);
      out << kSep;
      write_list(out, c.tags);
      out << "\n";
    }
    for (const LockAcquire& l : fn.locks) {
      out << "L" << kSep << detab(l.expr) << kSep << l.line << kSep;
      write_list(out, l.held);
      out << kSep;
      write_list(out, l.allows);
      out << "\n";
    }
    for (const Evidence& e : fn.evidence) {
      out << "E" << kSep << static_cast<int>(e.kind) << kSep << detab(e.what)
          << kSep << e.line << kSep;
      write_list(out, e.allows);
      out << "\n";
    }
  }
  for (const auto& [cls, map] : summary.members)
    for (const auto& [member, type] : map)
      out << "M" << kSep << detab(cls) << kSep << detab(member) << kSep
          << detab(type) << "\n";
  for (const auto& [member, owners] : summary.mutex_owners)
    for (const std::string& cls : owners)
      out << "X" << kSep << detab(member) << kSep << detab(cls) << "\n";
  for (const auto& [line, message] : summary.tag_errors)
    out << "T" << kSep << line << kSep << detab(message) << "\n";
  for (const Site& site : summary.sites) {
    out << "S" << kSep << static_cast<int>(site.kind) << kSep
        << detab(site.text) << kSep << site.line << kSep << detab(site.bound)
        << kSep;
    write_list(out, site.allows);
    out << "\n";
  }
  out << "I" << kSep;
  write_list(out, summary.idents);
  out << "\n";
  const std::string path = cache_path(cache_dir, relpath, content);
  std::ofstream file{path + ".tmp", std::ios::binary | std::ios::trunc};
  if (!file) return;
  const std::string data = out.str();
  file.write(data.data(), static_cast<std::streamsize>(data.size()));
  file.close();
  if (file) {
    std::filesystem::rename(path + ".tmp", path, ec);
  } else {
    std::filesystem::remove(path + ".tmp", ec);
  }
}

std::optional<FileSummary> cache_load(const std::string& cache_dir,
                                      const std::string& relpath,
                                      std::string_view content) {
  std::ifstream in{cache_path(cache_dir, relpath, content),
                   std::ios::binary};
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  {
    const std::vector<std::string> head = split(line);
    if (head.size() < 3 || head[0] != kMagic ||
        head[1] != std::to_string(kParserVersion))
      return std::nullopt;
  }
  FileSummary summary;
  summary.path = relpath;
  auto to_int = [](const std::string& s, int& out) {
    try {
      out = std::stoi(s);
      return true;
    } catch (...) {
      return false;
    }
  };
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::vector<std::string> f = split(line);
    if (f[0] == "F") {
      if (f.size() < 13) return std::nullopt;
      FunctionInfo fn;
      fn.qname = f[1];
      fn.name = f[2];
      fn.cls = f[3];
      fn.file = f[4];
      if (!to_int(f[5], fn.line) || !to_int(f[6], fn.body_end))
        return std::nullopt;
      fn.tag_signal_safe = f[7] == "1";
      fn.tag_hot = f[8] == "1";
      fn.tag_shard_local_ids = f[9] == "1";
      fn.tag_merge_boundary = f[10] == "1";
      fn.tag_id_remap = f[11] == "1";
      std::size_t idx = 12;
      if (!read_list(f, idx, fn.fn_allows)) return std::nullopt;
      summary.functions.push_back(std::move(fn));
    } else if (f[0] == "C") {
      if (summary.functions.empty() || f.size() < 8) return std::nullopt;
      CallSite c;
      c.name = f[1];
      c.qualifier = f[2];
      c.object = f[3];
      c.member = f[4] == "1";
      c.global = f[5] == "1";
      if (!to_int(f[6], c.line)) return std::nullopt;
      std::size_t idx = 7;
      if (!read_list(f, idx, c.held) || !read_list(f, idx, c.allows) ||
          !read_list(f, idx, c.tags))
        return std::nullopt;
      summary.functions.back().calls.push_back(std::move(c));
    } else if (f[0] == "L") {
      if (summary.functions.empty() || f.size() < 4) return std::nullopt;
      LockAcquire l;
      l.expr = f[1];
      if (!to_int(f[2], l.line)) return std::nullopt;
      std::size_t idx = 3;
      if (!read_list(f, idx, l.held) || !read_list(f, idx, l.allows))
        return std::nullopt;
      summary.functions.back().locks.push_back(std::move(l));
    } else if (f[0] == "E") {
      if (summary.functions.empty() || f.size() < 5) return std::nullopt;
      Evidence e;
      int kind = 0;
      if (!to_int(f[1], kind) || !to_int(f[3], e.line)) return std::nullopt;
      e.kind = kind == 0 ? Evidence::Kind::kAlloc
                         : Evidence::Kind::kSignalUnsafe;
      e.what = f[2];
      std::size_t idx = 4;
      if (!read_list(f, idx, e.allows)) return std::nullopt;
      summary.functions.back().evidence.push_back(std::move(e));
    } else if (f[0] == "M") {
      if (f.size() < 4) return std::nullopt;
      summary.members[f[1]][f[2]] = f[3];
    } else if (f[0] == "X") {
      if (f.size() < 3) return std::nullopt;
      summary.mutex_owners[f[1]].insert(f[2]);
    } else if (f[0] == "T") {
      if (f.size() < 3) return std::nullopt;
      int tl = 0;
      if (!to_int(f[1], tl)) return std::nullopt;
      summary.tag_errors.emplace_back(tl, f[2]);
    } else if (f[0] == "S") {
      if (f.size() < 6) return std::nullopt;
      Site site;
      int kind = 0;
      if (!to_int(f[1], kind) || !to_int(f[3], site.line) || kind < 0 ||
          kind > static_cast<int>(Site::Kind::kContainer))
        return std::nullopt;
      site.kind = static_cast<Site::Kind>(kind);
      site.text = f[2];
      site.bound = f[4];
      std::size_t idx = 5;
      if (!read_list(f, idx, site.allows)) return std::nullopt;
      summary.sites.push_back(std::move(site));
    } else if (f[0] == "I") {
      std::size_t idx = 1;
      if (!read_list(f, idx, summary.idents)) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  return summary;
}

}  // namespace dnh::analyze
