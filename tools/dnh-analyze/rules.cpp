// Rule engine for dnh-analyze: heuristic call-graph resolution, the
// four interprocedural rules (signal-safety, no-alloc, id-provenance,
// lock-order), the six site rules, and the --dump-callgraph view.
// Resolution policy: unique match -> resolved; several same-name
// candidates -> traverse all of them (ambiguous, counted); no candidate
// -> classified by name against the known-external tables, and otherwise
// counted as unresolved and listed in the run summary — never silently
// dropped.
#include "analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>

namespace dnh::analyze {

namespace {

using FnId = std::pair<std::size_t, std::size_t>;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Externals the POSIX async-signal-safe list sanctions (plus raw memory
/// ops and atomics, which are safe by construction).
const std::set<std::string>& signal_safe_externals() {
  static const std::set<std::string> kSafe = {
      "open",   "openat", "write",  "read",    "close",    "fsync",
      "fdatasync", "rename", "unlink", "raise", "signal",  "sigaction",
      "sigemptyset", "sigfillset", "sigaddset", "kill",    "getpid",
      "_exit",  "_Exit",  "abort",  "memcpy",  "memmove",  "memset",
      "memcmp", "strlen", "time",   "clock_gettime", "umask",
      // std::atomic member functions.
      "load",   "store",  "exchange", "fetch_add", "fetch_sub", "fetch_or",
      "compare_exchange_weak", "compare_exchange_strong",
      // Value helpers that cannot allocate or block.
      "min",    "max",    "data",   "size",    "empty", "capacity",
  };
  return kSafe;
}

/// Known-unsafe externals for the signal-safety rule, by category.
const std::map<std::string, std::string>& signal_banned() {
  static const std::map<std::string, std::string> kBanned = {
      {"fprintf", "stdio"},   {"printf", "stdio"},   {"sprintf", "stdio"},
      {"snprintf", "stdio"},  {"vsnprintf", "stdio"},{"vfprintf", "stdio"},
      {"fwrite", "stdio"},    {"fread", "stdio"},    {"fopen", "stdio"},
      {"fclose", "stdio"},    {"fflush", "stdio"},   {"puts", "stdio"},
      {"fputs", "stdio"},     {"fputc", "stdio"},    {"putc", "stdio"},
      {"perror", "stdio"},    {"getline", "stdio"},
      {"malloc", "allocation"},   {"calloc", "allocation"},
      {"realloc", "allocation"},  {"free", "allocation"},
      {"strdup", "allocation"},   {"aligned_alloc", "allocation"},
      {"make_unique", "allocation"}, {"make_shared", "allocation"},
      {"to_string", "allocation"},   {"stoi", "allocation"},
      {"stol", "allocation"},        {"stoull", "allocation"},
      {"lock", "locking"},      {"unlock", "locking"},
      {"try_lock", "locking"},  {"wait", "locking"},
      {"wait_for", "locking"},  {"wait_until", "locking"},
      {"notify_one", "locking"},{"notify_all", "locking"},
      {"exit", "unsafe-libc"},     {"getenv", "unsafe-libc"},
      {"setenv", "unsafe-libc"},   {"syslog", "unsafe-libc"},
      {"localtime", "unsafe-libc"},{"gmtime", "unsafe-libc"},
      {"strftime", "unsafe-libc"}, {"sleep_for", "unsafe-libc"},
  };
  return kBanned;
}

/// Externals that allocate, for the hot-path no-alloc rule. Container
/// growth (push_back on reserved vectors) is hot-path-bound's territory;
/// this rule bans the unconditional allocators.
const std::set<std::string>& alloc_banned() {
  static const std::set<std::string> kBanned = {
      "malloc",      "calloc",      "realloc",  "strdup", "aligned_alloc",
      "make_unique", "make_shared", "to_string", "stoi",  "stol", "stoull",
  };
  return kBanned;
}

/// Common STL / utility member names kept out of the unresolved-name
/// report so it stays readable. These are *never* findings either way —
/// the list only affects summary noise.
const std::set<std::string>& benign_externals() {
  static const std::set<std::string> kBenign = {
      "push_back", "pop_back",  "emplace_back", "emplace", "emplace_hint",
      "insert",    "erase",     "clear",        "find",    "count",
      "contains",  "at",        "front",        "back",    "begin",
      "end",       "rbegin",    "rend",         "reserve", "resize",
      "substr",    "c_str",     "compare",      "append",  "assign",
      "swap",      "move",      "forward",      "get",     "reset",
      "release",   "value",     "has_value",    "value_or","push",
      "pop",       "top",       "first",        "second",  "test",
      "set",       "sort",      "stable_sort",  "lower_bound",
      "upper_bound", "equal_range", "fill", "copy", "transform",
      "accumulate", "distance", "advance", "abs", "ceil", "floor",
  };
  return kBenign;
}

/// Per-call resolved targets for one function, parallel to fn.calls.
struct Graph {
  std::map<FnId, std::vector<std::vector<FnId>>> targets;
};

std::vector<FnId> resolve_call(const Program& p, const FunctionInfo& caller,
                               const CallSite& c) {
  if (c.global) return {};  // `::name` always denotes an external symbol
  const auto it = p.by_name.find(c.name);
  if (it == p.by_name.end()) return {};
  const auto& cands = it->second;
  std::vector<FnId> out;
  if (!c.qualifier.empty()) {
    const std::string suffix = c.qualifier + "::" + c.name;
    for (const FnId& id : cands)
      if (ends_with(p.fn(id).qname, suffix)) out.push_back(id);
    return out;  // qualified and unmatched stays unmatched (std::..., etc.)
  }
  if (c.member) {
    std::string type;
    if (c.object == "this") {
      type = caller.cls;
    } else if (!c.object.empty() && !caller.cls.empty()) {
      const auto mit = p.members.find(caller.cls);
      if (mit != p.members.end()) {
        const auto f = mit->second.find(c.object);
        if (f != mit->second.end()) type = f->second;
      }
    }
    if (!type.empty()) {
      for (const FnId& id : cands)
        if (p.fn(id).cls == type) out.push_back(id);
      return out;  // typed receiver: empty means an external member
    }
    // Unknown receiver (local variable, chained call): only a tree-wide
    // unique name is trustworthy. Anything else is counted + listed as
    // unresolved rather than fanned out to every same-name method —
    // fan-out produced nonsense chains (::write -> pcap::Writer::write).
    if (cands.size() == 1) return cands;
    return {};
  }
  // Unqualified call: class scope shadows namespace scope (an implicit
  // this-> member call), then free functions. A method of an *unrelated*
  // class is unreachable without a receiver, so it is never a candidate —
  // `add(1)` inside Counter::inc must not resolve to ExportEncoder::add.
  std::vector<FnId> same_cls, free_fns;
  for (const FnId& id : cands) {
    if (!caller.cls.empty() && p.fn(id).cls == caller.cls)
      same_cls.push_back(id);
    else if (p.fn(id).cls.empty())
      free_fns.push_back(id);
  }
  if (!same_cls.empty()) return same_cls;
  return free_fns;
}

Graph build_graph(const Program& p, RuleStats& stats) {
  Graph g;
  for (std::size_t f = 0; f < p.files.size(); ++f) {
    for (std::size_t i = 0; i < p.files[f].functions.size(); ++i) {
      const FnId id{f, i};
      const FunctionInfo& fn = p.fn(id);
      ++stats.functions;
      auto& slots = g.targets[id];
      slots.reserve(fn.calls.size());
      for (const CallSite& c : fn.calls) {
        ++stats.call_sites;
        std::vector<FnId> t = resolve_call(p, fn, c);
        if (t.size() == 1) {
          ++stats.resolved_edges;
        } else if (t.size() > 1) {
          ++stats.ambiguous_edges;
        } else if (signal_safe_externals().count(c.name) == 0 &&
                   signal_banned().count(c.name) == 0 &&
                   alloc_banned().count(c.name) == 0 &&
                   benign_externals().count(c.name) == 0) {
          ++stats.unresolved_edges;
          ++stats.unresolved_names[c.name];
        }
        slots.push_back(std::move(t));
      }
    }
  }
  return g;
}

std::string loc(const FunctionInfo& fn) {
  return fn.file + ":" + std::to_string(fn.line);
}

/// Call chain root-first: each entry "qname (file:line)" where the line
/// is the call site in the *previous* frame (the root shows its def).
std::vector<std::string> build_chain(
    const Program& p, const std::map<FnId, std::pair<FnId, int>>& parent,
    FnId leaf) {
  std::vector<std::string> chain;
  FnId cur = leaf;
  int via_line = -1;
  while (true) {
    const FunctionInfo& fn = p.fn(cur);
    std::string entry = fn.qname + " (" + loc(fn) + ")";
    if (via_line >= 0)
      entry += " [called at line " + std::to_string(via_line) + "]";
    chain.push_back(std::move(entry));
    const auto it = parent.find(cur);
    if (it == parent.end() || it->second.first == cur) break;
    via_line = it->second.second;
    cur = it->second.first;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Shared BFS for the two reachability rules. `what` is the allow() key;
/// `scan` is invoked for every reached function with its root-first
/// chain-parent map so it can emit findings.
void reachability_scan(
    const Program& p, const Graph& g, RuleStats& stats,
    const std::function<bool(const FunctionInfo&)>& is_root,
    const std::string& what,
    const std::function<void(FnId, const std::map<FnId, std::pair<FnId, int>>&)>&
        scan) {
  std::map<FnId, std::pair<FnId, int>> parent;
  std::deque<FnId> queue;
  for (std::size_t f = 0; f < p.files.size(); ++f)
    for (std::size_t i = 0; i < p.files[f].functions.size(); ++i)
      if (is_root(p.files[f].functions[i])) {
        const FnId id{f, i};
        parent.emplace(id, std::make_pair(id, -1));
        queue.push_back(id);
      }
  while (!queue.empty()) {
    const FnId id = queue.front();
    queue.pop_front();
    const FunctionInfo& fn = p.fn(id);
    if (fn.fn_allows.count(what) != 0) {
      ++stats.suppressed;
      continue;  // sanctioned subtree: neither scanned nor expanded
    }
    scan(id, parent);
    const auto& slots = g.targets.at(id);
    for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
      if (fn.calls[ci].allows.count(what) != 0) {
        ++stats.suppressed;
        continue;
      }
      for (const FnId& callee : slots[ci]) {
        if (parent.count(callee) != 0) continue;
        parent.emplace(callee, std::make_pair(id, fn.calls[ci].line));
        queue.push_back(callee);
      }
    }
  }
}

void add_finding(std::vector<Finding>& findings, std::string rule,
                 const std::string& file, int line, std::string message,
                 std::vector<std::string> chain) {
  findings.push_back({std::move(rule), file, line, std::move(message),
                      std::move(chain)});
}

// ---- rule 1: signal-safety -------------------------------------------------

void rule_signal_safety(const Program& p, const Graph& g,
                        std::vector<Finding>& findings, RuleStats& stats) {
  reachability_scan(
      p, g, stats,
      [](const FunctionInfo& fn) { return fn.tag_signal_safe; },
      "signal-safety",
      [&](FnId id, const std::map<FnId, std::pair<FnId, int>>& parent) {
        const FunctionInfo& fn = p.fn(id);
        auto chain_to = [&](int line) {
          std::vector<std::string> chain = build_chain(p, parent, id);
          chain.push_back("  !! at " + fn.file + ":" + std::to_string(line));
          return chain;
        };
        for (const Evidence& e : fn.evidence) {
          if (e.allows.count("signal-safety") != 0) {
            ++stats.suppressed;
            continue;
          }
          add_finding(findings, "signal-safety", fn.file, e.line,
                      fn.qname + ": " + e.what +
                          " on a signal-safe path (async-signal-unsafe)",
                      chain_to(e.line));
        }
        for (const LockAcquire& l : fn.locks) {
          if (l.allows.count("signal-safety") != 0) {
            ++stats.suppressed;
            continue;
          }
          add_finding(findings, "signal-safety", fn.file, l.line,
                      fn.qname + ": acquires mutex `" + l.expr +
                          "` on a signal-safe path",
                      chain_to(l.line));
        }
        const auto& slots = g.targets.at(id);
        for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
          const CallSite& c = fn.calls[ci];
          if (!slots[ci].empty()) continue;  // resolved: scanned as bodies
          if (c.allows.count("signal-safety") != 0) {
            ++stats.suppressed;
            continue;
          }
          const auto ban = signal_banned().find(c.name);
          if (ban != signal_banned().end())
            add_finding(findings, "signal-safety", fn.file, c.line,
                        fn.qname + ": calls " + c.name + " (" + ban->second +
                            ") on a signal-safe path",
                        chain_to(c.line));
        }
      });
}

// ---- rule 2: transitive hot-path no-alloc ---------------------------------

void rule_no_alloc(const Program& p, const Graph& g,
                   std::vector<Finding>& findings, RuleStats& stats) {
  reachability_scan(
      p, g, stats, [](const FunctionInfo& fn) { return fn.tag_hot; },
      "alloc",
      [&](FnId id, const std::map<FnId, std::pair<FnId, int>>& parent) {
        const FunctionInfo& fn = p.fn(id);
        auto chain_to = [&](int line) {
          std::vector<std::string> chain = build_chain(p, parent, id);
          chain.push_back("  !! at " + fn.file + ":" + std::to_string(line));
          return chain;
        };
        for (const Evidence& e : fn.evidence) {
          if (e.kind != Evidence::Kind::kAlloc) continue;
          if (e.allows.count("alloc") != 0) {
            ++stats.suppressed;
            continue;
          }
          add_finding(findings, "no-alloc", fn.file, e.line,
                      fn.qname + ": " + e.what +
                          " reachable from a hot-path root",
                      chain_to(e.line));
        }
        const auto& slots = g.targets.at(id);
        for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
          const CallSite& c = fn.calls[ci];
          if (!slots[ci].empty()) continue;
          if (c.allows.count("alloc") != 0) {
            ++stats.suppressed;
            continue;
          }
          if (alloc_banned().count(c.name) != 0)
            add_finding(findings, "no-alloc", fn.file, c.line,
                        fn.qname + ": calls allocator " + c.name +
                            " reachable from a hot-path root",
                        chain_to(c.line));
        }
      });
}

// ---- rule 3: DomainId provenance ------------------------------------------

void rule_provenance(const Program& p, const Graph& g,
                     std::vector<Finding>& findings, RuleStats& stats) {
  // carrier(F): F's data contains shard-local DomainIds — F is a tagged
  // producer, or F calls a carrier and is not itself a sanctioned remap
  // point (calls DomainTable::absorb, or tagged id-remap / allow).
  auto sanitized = [&](const FunctionInfo& fn) {
    if (fn.tag_id_remap || fn.fn_allows.count("provenance") != 0) return true;
    for (const CallSite& c : fn.calls)
      if (c.name == "absorb") return true;
    return false;
  };
  std::map<FnId, std::pair<FnId, int>> carrier;  // id -> (witness callee, line)
  for (std::size_t f = 0; f < p.files.size(); ++f)
    for (std::size_t i = 0; i < p.files[f].functions.size(); ++i)
      if (p.files[f].functions[i].tag_shard_local_ids)
        carrier.emplace(FnId{f, i}, std::make_pair(FnId{f, i}, -1));
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [id, slots] : g.targets) {
      if (carrier.count(id) != 0) continue;
      const FunctionInfo& fn = p.fn(id);
      if (sanitized(fn)) continue;
      for (std::size_t ci = 0; ci < fn.calls.size() && carrier.count(id) == 0;
           ++ci) {
        if (fn.calls[ci].allows.count("provenance") != 0) continue;
        for (const FnId& callee : slots[ci])
          if (carrier.count(callee) != 0) {
            carrier.emplace(id,
                            std::make_pair(callee, fn.calls[ci].line));
            changed = true;
            break;
          }
      }
    }
  }
  // Witness chain: F down to the producer that made it a carrier.
  auto witness = [&](FnId id) {
    std::vector<std::string> chain;
    FnId cur = id;
    while (true) {
      const FunctionInfo& fn = p.fn(cur);
      const auto& [next, line] = carrier.at(cur);
      std::string entry = fn.qname + " (" + loc(fn) + ")";
      if (next == cur) {
        chain.push_back(entry + " [tagged shard-local-ids]");
        break;
      }
      chain.push_back(entry + " [carrier via line " + std::to_string(line) +
                      "]");
      cur = next;
    }
    return chain;
  };
  for (const auto& [id, slots] : g.targets) {
    if (carrier.count(id) == 0) continue;
    const FunctionInfo& fn = p.fn(id);
    for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
      const CallSite& c = fn.calls[ci];
      if (c.allows.count("provenance") != 0) {
        ++stats.suppressed;
        continue;
      }
      for (const FnId& callee : slots[ci]) {
        const FunctionInfo& sink = p.fn(callee);
        if (!sink.tag_merge_boundary) continue;
        add_finding(findings, "id-provenance", fn.file, c.line,
                    fn.qname + ": shard-local DomainIds reach merge boundary " +
                        sink.qname +
                        " without a DomainTable::absorb() remap",
                    witness(id));
      }
    }
    // A merge-boundary function that is itself a carrier pulls
    // shard-local ids into merge code directly.
    if (fn.tag_merge_boundary) {
      add_finding(findings, "id-provenance", fn.file, fn.line,
                  fn.qname + ": merge-boundary function obtains shard-local "
                            "DomainIds without a DomainTable::absorb() remap",
                  witness(id));
    }
  }
}

// ---- rule 4: lock order ----------------------------------------------------

/// Gives a mutex expression a program-wide identity. Member mutexes are
/// qualified by their owning class via the member-type maps; `#name`
/// (from a lock-name tag) is pre-normalized; a trailing "()" keeps the
/// call spelling (function-provided mutexes like detail::cells_mu()).
std::string normalize_mutex(const Program& p, const FunctionInfo& ctx,
                            const std::string& raw) {
  if (!raw.empty() && raw.front() == '#') return raw.substr(1);
  std::string expr = raw;
  // obj->field / obj.field: split at the last accessor.
  std::string object, field = expr;
  const std::size_t arrow = expr.rfind("->");
  const std::size_t dot = expr.rfind('.');
  if (arrow != std::string::npos &&
      (dot == std::string::npos || arrow > dot)) {
    object = expr.substr(0, arrow);
    field = expr.substr(arrow + 2);
  } else if (dot != std::string::npos) {
    object = expr.substr(0, dot);
    field = expr.substr(dot + 1);
  }
  if (field.size() >= 2 && field.compare(field.size() - 2, 2, "()") == 0)
    return field;  // function-provided mutex: identity is the call itself
  if (object.empty()) {
    if (!ctx.cls.empty()) {
      const auto mit = p.members.find(ctx.cls);
      if (mit != p.members.end() && mit->second.count(field) != 0)
        return ctx.cls + "::" + field;
    }
  } else if (object != "this") {
    std::string type;
    if (!ctx.cls.empty()) {
      const auto mit = p.members.find(ctx.cls);
      if (mit != p.members.end()) {
        const auto f = mit->second.find(object);
        if (f != mit->second.end()) type = f->second;
      }
    }
    if (!type.empty()) return type + "::" + field;
  } else if (!ctx.cls.empty()) {
    return ctx.cls + "::" + field;
  }
  const auto oit = p.mutex_owners.find(field);
  if (oit != p.mutex_owners.end() && oit->second.size() == 1)
    return *oit->second.begin() + "::" + field;
  return raw;
}

void rule_lock_order(const Program& p, const Graph& g,
                     std::vector<Finding>& findings, RuleStats& stats) {
  // may_acquire(F): identities F may acquire transitively.
  std::map<FnId, std::set<std::string>> may;
  for (const auto& [id, slots] : g.targets) {
    const FunctionInfo& fn = p.fn(id);
    if (fn.fn_allows.count("lock-order") != 0) continue;
    auto& s = may[id];
    for (const LockAcquire& l : fn.locks)
      if (l.allows.count("lock-order") == 0)
        s.insert(normalize_mutex(p, fn, l.expr));
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [id, slots] : g.targets) {
      const FunctionInfo& fn = p.fn(id);
      if (fn.fn_allows.count("lock-order") != 0) continue;
      auto& s = may[id];
      const std::size_t before = s.size();
      for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
        if (fn.calls[ci].allows.count("lock-order") != 0) continue;
        for (const FnId& callee : slots[ci]) {
          const auto it = may.find(callee);
          if (it != may.end()) s.insert(it->second.begin(), it->second.end());
        }
      }
      if (s.size() != before) changed = true;
    }
  }
  // Edge set A -> B: B acquired (directly or via a call) while A held.
  struct Edge {
    std::string file;
    int line = 0;
    std::string via;
  };
  std::map<std::string, std::map<std::string, Edge>> edges;
  for (const auto& [id, slots] : g.targets) {
    const FunctionInfo& fn = p.fn(id);
    if (fn.fn_allows.count("lock-order") != 0) {
      ++stats.suppressed;
      continue;
    }
    for (const LockAcquire& l : fn.locks) {
      if (l.allows.count("lock-order") != 0) {
        ++stats.suppressed;
        continue;
      }
      const std::string b = normalize_mutex(p, fn, l.expr);
      for (const std::string& h : l.held) {
        const std::string a = normalize_mutex(p, fn, h);
        if (a == b) {
          add_finding(findings, "lock-order", fn.file, l.line,
                      fn.qname + ": re-acquires `" + b +
                          "` already held on this path (self-deadlock)",
                      {fn.qname + " (" + loc(fn) + ")"});
          continue;
        }
        edges[a].emplace(b, Edge{fn.file, l.line,
                                 fn.qname + " acquires " + b});
      }
    }
    for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
      const CallSite& c = fn.calls[ci];
      if (c.held.empty() || c.allows.count("lock-order") != 0) continue;
      for (const FnId& callee : slots[ci]) {
        const auto it = may.find(callee);
        if (it == may.end()) continue;
        for (const std::string& b : it->second)
          for (const std::string& h : c.held) {
            const std::string a = normalize_mutex(p, fn, h);
            if (a == b) continue;  // same mutex via call: guarded re-acquire
                                   // is flagged inside the callee's context
            edges[a].emplace(b, Edge{fn.file, c.line,
                                     fn.qname + " calls " + p.fn(callee).qname +
                                         " which may acquire " + b});
          }
      }
    }
  }
  // Cycle detection: iterative DFS, report each cycle's node set once.
  std::set<std::set<std::string>> reported;
  std::function<bool(const std::string&, std::vector<std::string>&,
                     std::set<std::string>&)>
      dfs = [&](const std::string& node, std::vector<std::string>& path,
                std::set<std::string>& on_path) -> bool {
    path.push_back(node);
    on_path.insert(node);
    const auto it = edges.find(node);
    if (it != edges.end()) {
      for (const auto& [next, edge] : it->second) {
        if (on_path.count(next) != 0) {
          // Cycle: slice the path from `next` to the end.
          std::vector<std::string> cycle(
              std::find(path.begin(), path.end(), next), path.end());
          std::set<std::string> key(cycle.begin(), cycle.end());
          if (reported.insert(key).second) {
            std::string desc;
            std::vector<std::string> chain;
            for (std::size_t i = 0; i < cycle.size(); ++i) {
              const std::string& a = cycle[i];
              const std::string& b = cycle[(i + 1) % cycle.size()];
              const Edge& e = edges.at(a).at(b);
              desc += (i != 0 ? " -> " : "") + a;
              chain.push_back(a + " -> " + b + ": " + e.via + " (" + e.file +
                              ":" + std::to_string(e.line) + ")");
            }
            desc += " -> " + cycle.front();
            add_finding(findings, "lock-order", edges.at(cycle.front())
                            .at(cycle[1 % cycle.size()])
                            .file,
                        edges.at(cycle.front()).at(cycle[1 % cycle.size()])
                            .line,
                        "lock-order cycle: " + desc, chain);
          }
          continue;
        }
        dfs(next, path, on_path);
      }
    }
    path.pop_back();
    on_path.erase(node);
    return false;
  };
  for (const auto& [node, _] : edges) {
    std::vector<std::string> path;
    std::set<std::string> on_path;
    dfs(node, path, on_path);
  }
}

// ---- site rules ------------------------------------------------------------

bool under(const std::string& path, std::initializer_list<const char*> dirs) {
  for (const char* dir : dirs)
    if (path.rfind(std::string{dir} + "/", 0) == 0) return true;
  return false;
}

void rule_sites(const Program& p, std::vector<Finding>& findings,
                RuleStats& stats) {
  std::set<std::string> mechanisms;  // what a bounded(<name>) may name
  for (const FileSummary& f : p.files)
    if (f.site_rules) mechanisms.insert(f.idents.begin(), f.idents.end());
  for (const FileSummary& f : p.files) {
    if (!f.site_rules) continue;
    // Parsers return typed errors; every parser directory is also on the
    // per-packet hot path.
    const bool parser =
        under(f.path, {"src/dns", "src/pcap", "src/http", "src/flowexport"});
    const bool hot =
        parser || under(f.path, {"src/core", "src/flow", "src/pipeline"});
    const bool spill = f.path.rfind("src/", 0) == 0 &&
                       f.path.find("spill", f.path.rfind('/')) !=
                           std::string::npos;
    auto flag = [&](const char* rule, int line, std::string message) {
      add_finding(findings, rule, f.path, line, std::move(message), {});
    };
    // False (and counted) when an allow silences `rule` at the site.
    auto judged = [&](const std::set<std::string>& allows, const char* rule) {
      if (allows.count(rule) == 0) return true;
      ++stats.suppressed;
      return false;
    };
    for (const Site& s : f.sites) {
      switch (s.kind) {
        case Site::Kind::kMetric: {
          if (!judged(s.allows, "metric-name")) break;
          const std::string base = s.text.substr(0, s.text.find('{'));
          if (s.text.rfind("dnh_", 0) != 0)
            flag("metric-name", s.line,
                 "metric \"" + s.text + "\" does not start with \"dnh_\"");
          else if (p.catalog && p.catalog->count(base) == 0)
            flag("metric-name", s.line,
                 "metric \"" + base +
                     "\" is not documented in the docs/observability.md "
                     "catalog");
          break;
        }
        case Site::Kind::kTraceKind:
          if (p.catalog && judged(s.allows, "trace-catalog") &&
              p.catalog->count(s.text) == 0)
            flag("trace-catalog", s.line,
                 "trace event kind \"" + s.text +
                     "\" is not documented in the docs/observability.md "
                     "trace-event catalog");
          break;
        case Site::Kind::kThrow:
          if (parser && judged(s.allows, "typed-errors"))
            flag("typed-errors", s.line,
                 "parse code here must return typed errors "
                 "(DecodeFailure/NameParseError/...), not throw");
          break;
        case Site::Kind::kContainer:
          if (!hot || !judged(s.allows, "hot-path-bound")) break;
          if (s.bound.empty())
            flag("hot-path-bound", s.line,
                 "hot-path container has no `bounded(<mechanism>)` tag "
                 "naming its eviction/cap/rotation mechanism");
          else if (mechanisms.count(s.bound) == 0)
            flag("hot-path-bound", s.line,
                 "bounded(" + s.bound +
                     ") names a mechanism that does not exist in the "
                     "scanned sources");
          break;
      }
    }
    for (const FunctionInfo& fn : f.functions) {
      for (const CallSite& c : fn.calls) {
        const std::string side = ring_side(c);
        if (!side.empty() && judged(c.allows, "ring-role") &&
            c.tags.count("ring-" + side) == 0) {
          const std::string other =
              side == "producer" ? "ring-consumer" : "ring-producer";
          flag("ring-role", c.line,
               c.tags.count(other) != 0
                   ? c.name + "() is a " + side +
                         "-side operation but the site is tagged " + other
                   : "SPSC " + c.name + "() site missing a `ring-" + side +
                         "` role tag");
        }
        if (!spill || !is_raw_write(c) || !judged(c.allows, "spill-durability"))
          continue;
        if (c.tags.count("spill-write") == 0 &&
            c.tags.count("manifest-append") == 0) {
          flag("spill-durability", c.line,
               "raw write in spill/manifest code without a "
               "`spill-write(fsync)` or `manifest-append(fsync)` ordering "
               "tag (docs/recovery.md)");
          continue;
        }
        const bool synced =
            std::any_of(fn.calls.begin(), fn.calls.end(),
                        [&](const CallSite& other) {
                          return other.name == "fsync" &&
                                 other.line >= c.line &&
                                 other.line - c.line <= 4;
                        });
        if (!synced)
          flag("spill-durability", c.line,
               "tagged spill/manifest write has no fsync within 4 lines; "
               "the record must be durable before the manifest "
               "references it");
      }
    }
  }
}

}  // namespace

void run_rules(const Program& program, std::vector<Finding>& findings,
               RuleStats& stats) {
  const Graph g = build_graph(program, stats);
  for (const FileSummary& file : program.files)
    for (const auto& [line, message] : file.tag_errors)
      add_finding(findings, "tag-syntax", file.path, line, message, {});
  rule_signal_safety(program, g, findings, stats);
  rule_no_alloc(program, g, findings, stats);
  rule_provenance(program, g, findings, stats);
  rule_lock_order(program, g, findings, stats);
  rule_sites(program, findings, stats);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
}

void dump_callgraph(const Program& program, const std::string& root_tag) {
  RuleStats stats;
  const Graph g = build_graph(program, stats);
  auto has_tag = [&](const FunctionInfo& fn) {
    if (root_tag == "signal-safe") return fn.tag_signal_safe;
    if (root_tag == "hot") return fn.tag_hot;
    if (root_tag == "shard-local-ids") return fn.tag_shard_local_ids;
    if (root_tag == "merge-boundary") return fn.tag_merge_boundary;
    return false;
  };
  std::set<FnId> visited;
  std::function<void(FnId, int)> walk = [&](FnId id, int depth) {
    const FunctionInfo& fn = program.fn(id);
    const bool seen = visited.count(id) != 0;
    std::printf("%*s%s (%s)%s\n", depth * 2, "", fn.qname.c_str(),
                loc(fn).c_str(), seen ? "  [revisit]" : "");
    if (seen) return;
    visited.insert(id);
    const auto& slots = g.targets.at(id);
    for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
      const CallSite& c = fn.calls[ci];
      if (slots[ci].empty()) {
        if (signal_safe_externals().count(c.name) != 0 ||
            signal_banned().count(c.name) != 0)
          std::printf("%*s· %s [external]\n", depth * 2 + 2, "",
                      c.name.c_str());
        continue;
      }
      for (const FnId& callee : slots[ci]) walk(callee, depth + 1);
    }
  };
  bool any = false;
  for (std::size_t f = 0; f < program.files.size(); ++f)
    for (std::size_t i = 0; i < program.files[f].functions.size(); ++i)
      if (has_tag(program.files[f].functions[i])) {
        any = true;
        std::printf("root [%s]:\n", root_tag.c_str());
        walk({f, i}, 1);
      }
  if (!any)
    std::printf("no functions tagged `%s`\n", root_tag.c_str());
}

}  // namespace dnh::analyze
