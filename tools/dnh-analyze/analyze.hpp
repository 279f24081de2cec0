// dnh-analyze: the project's static checker. It tokenizes every
// translation unit named in compile_commands.json plus all headers under
// src/, recovers a function-level call graph (heuristic qualified-name
// resolution; unresolved edges are reported, never silently dropped),
// and runs two families of rules.
//
// Four interprocedural rules walk the call graph:
//
//   signal-safety  From roots tagged `// dnh-analyze: signal-safe`
//                  (the fatal trace dump in src/obs/traceio.cpp and
//                  everything it reaches), no transitive call may hit an
//                  allocator, std::string construction, stdio, locking,
//                  or any other non-async-signal-safe function. Findings
//                  print the full offending call chain.
//   no-alloc       A function tagged `// dnh-analyze: hot` may not
//                  *reach* allocation (new, malloc, make_unique,
//                  std::string construction, to_string, ...). Sanctioned
//                  escape hatches carry `// dnh-analyze: allow(alloc,
//                  <why>)`.
//   id-provenance  Shard-local DomainIds may only flow into
//                  merge/spill/emit code through a DomainTable::absorb()
//                  remap site. Producers are tagged `shard-local-ids`,
//                  sinks `merge-boundary`, and sanctioned remap sites
//                  either call absorb() or carry `id-remap(<why>)`.
//   lock-order     util::MutexLock acquisition order is extracted per
//                  function, the held-set is propagated through the call
//                  graph, and any cycle in the resulting lock-order graph
//                  (including a self-cycle: re-acquiring a held mutex)
//                  fails the run.
//
// Six site rules judge single sites, in src/ and tools/ only (or every
// --files input):
//
//   metric-name       registered metric names start with dnh_ and are
//                     documented in <root>/docs/observability.md
//   trace-catalog     recorded TraceKind values are documented there too
//   typed-errors      no `throw` in the parser directories
//   ring-role         SPSC try_produce/try_consume/... calls carry a
//                     matching `ring-producer` / `ring-consumer` tag
//   hot-path-bound    map/deque/FlatHash declarations in hot-path
//                     directories carry `bounded(<mechanism>)` naming an
//                     identifier that exists in the scanned sources
//   spill-durability  raw writes in spill code carry `spill-write(fsync)`
//                     or `manifest-append(fsync)` and an fsync follows
//                     within 4 lines
//
// See docs/static-analysis.md for the rule catalog, the tag grammar, and
// how this layer relates to Clang thread-safety, clang-tidy and the
// sanitizers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace dnh::analyze {

/// Bumped whenever the lexer/parser output changes shape: invalidates
/// every entry of the on-disk parse cache (see cache.cpp).
inline constexpr int kParserVersion = 5;

// ---- lexer ----------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kKeyword, kNumber, kString, kChar, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;  ///< a string literal keeps its quotes
  int line = 0;
};

/// One `// dnh-analyze: ...` comment, with the text after the marker.
/// A tag may wrap onto continuation comment lines; `line` is where it
/// starts (reported in findings) and `end_line` where it ends (used for
/// attachment, so a wrapped tag still sits adjacent to its target).
struct TagComment {
  int line = 0;
  int end_line = 0;
  std::string text;
};

struct LexOutput {
  std::vector<Token> tokens;
  std::vector<TagComment> tags;
};

/// Tokenizes C++ source: skips comments and preprocessor lines (keeping
/// line numbers), folds `::` and `->` into single tokens, and collects
/// every `dnh-analyze:` tag comment.
LexOutput lex_file(std::string_view text);

// ---- per-file model -------------------------------------------------------

/// One `name(...)` site inside a function body.
struct CallSite {
  std::string name;       ///< rightmost identifier ("absorb")
  std::string qualifier;  ///< "DomainTable" for DomainTable::absorb()
  std::string object;     ///< "table" for table.absorb(); "" if none
  bool member = false;    ///< preceded by `.` or `->`
  bool global = false;    ///< preceded by a bare `::` (e.g. ::write)
  int line = 0;
  std::vector<std::string> held;  ///< raw mutex exprs held at this call
  std::set<std::string> allows;   ///< allow(<what>) tags covering this line
  /// Site tags covering this line: "ring-producer", "ring-consumer",
  /// "spill-write", "manifest-append".
  std::set<std::string> tags;
};

/// One MutexLock / lock_guard-style acquisition.
struct LockAcquire {
  std::string expr;  ///< raw mutex expression ("inbox_->mutex", "mu_")
  int line = 0;
  std::vector<std::string> held;  ///< raw exprs already held
  std::set<std::string> allows;
};

/// Direct, non-call rule evidence in a body: a construct that allocates
/// or is non-async-signal-safe independent of who it calls.
struct Evidence {
  enum class Kind { kAlloc, kSignalUnsafe };
  Kind kind = Kind::kAlloc;
  std::string what;
  int line = 0;
  std::set<std::string> allows;
};

/// A token-level fact for the site rules, found anywhere in the file
/// (not only in function bodies).
struct Site {
  enum class Kind { kMetric, kTraceKind, kThrow, kContainer };
  Kind kind = Kind::kMetric;
  std::string text;   ///< metric literal, "kName" trace kind, or ""
  int line = 0;
  std::string bound;  ///< kContainer: the bounded(<mechanism>) tag's name
  std::set<std::string> allows;
};

struct FunctionInfo {
  std::string qname;  ///< "dnh::core::DomainTable::intern"
  std::string name;   ///< "intern"
  std::string cls;    ///< enclosing class ("DomainTable"), "" if free
  std::string file;   ///< repo-relative, '/'-separated
  int line = 0;       ///< line the definition starts on
  int body_end = 0;   ///< line of the closing brace
  std::vector<CallSite> calls;
  std::vector<LockAcquire> locks;
  std::vector<Evidence> evidence;
  bool tag_signal_safe = false;
  bool tag_hot = false;
  bool tag_shard_local_ids = false;
  bool tag_merge_boundary = false;
  bool tag_id_remap = false;
  std::set<std::string> fn_allows;  ///< function-level allow(<what>)
};

struct FileSummary {
  std::string path;
  std::vector<FunctionInfo> functions;
  /// class (last component) -> member name -> member type (last ident of
  /// the declared type; shared_ptr/unique_ptr unwrap to the pointee).
  std::map<std::string, std::map<std::string, std::string>> members;
  /// Classes declaring a util::Mutex member, by member name.
  std::map<std::string, std::set<std::string>> mutex_owners;
  /// Malformed or unattachable dnh-analyze tags (always findings: a tag
  /// that silently does nothing is worse than no tag).
  std::vector<std::pair<int, std::string>> tag_errors;
  std::vector<Site> sites;
  /// Every identifier in the file's code: a bounded(<mechanism>) tag
  /// resolves against the union over the site-rule files.
  std::set<std::string> idents;
  /// The site rules apply here: src/ and tools/ in a full-tree run, every
  /// input of --files and --fixture-test. Set by the driver, not cached.
  bool site_rules = false;
};

/// "producer" / "consumer" for an SPSC ring operation (`.try_produce(`,
/// `->try_consume_n(`, ...), "" for any other call.
std::string ring_side(const CallSite& call);
/// full_write, ::write and fwrite: the raw writes spill-durability judges.
bool is_raw_write(const CallSite& call);

/// Parses one file into its summary. `relpath` is repo-relative.
FileSummary parse_file(const std::string& relpath, std::string_view text);

// ---- findings & program model --------------------------------------------

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
  std::vector<std::string> chain;  ///< call chain, root first
};

/// Whole-program model: all summaries plus the indexes the rules need.
struct Program {
  std::vector<FileSummary> files;
  /// name -> (file index, function index) of every definition.
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      by_name;
  std::map<std::string, std::map<std::string, std::string>> members;
  std::map<std::string, std::set<std::string>> mutex_owners;
  /// Identifiers in <root>/docs/observability.md; nullopt when the file
  /// is absent (the site rules then check only the dnh_ prefix). Read at
  /// every run, never cached, so a catalog edit needs no cache miss.
  std::optional<std::set<std::string>> catalog;

  void index();
  const FunctionInfo& fn(std::pair<std::size_t, std::size_t> id) const {
    return files[id.first].functions[id.second];
  }
};

struct RuleStats {
  std::size_t functions = 0;
  std::size_t call_sites = 0;
  std::size_t resolved_edges = 0;
  std::size_t ambiguous_edges = 0;
  std::size_t unresolved_edges = 0;
  std::size_t suppressed = 0;
  /// Distinct unresolved callee names (reported, never dropped).
  std::map<std::string, std::size_t> unresolved_names;
};

/// Runs every rule plus tag validation. Appends to `findings`.
void run_rules(const Program& program, std::vector<Finding>& findings,
               RuleStats& stats);

/// Prints the call graph reachable from functions carrying `root_tag`
/// ("signal-safe", "hot", "shard-local-ids") to stdout.
void dump_callgraph(const Program& program, const std::string& root_tag);

// ---- reporting ------------------------------------------------------------

void print_findings(const std::vector<Finding>& findings);
std::string to_sarif(const std::vector<Finding>& findings);
bool write_text_file(const std::string& path, std::string_view content);

/// Baselines: one `rule|file|line-ignored|message-hash` key per finding.
std::string baseline_key(const Finding& finding);
std::set<std::string> read_baseline(const std::string& path);
std::string to_baseline(const std::vector<Finding>& findings);

// ---- cache ----------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed);

/// Loads a cached summary for (relpath, content); nullopt on miss.
std::optional<FileSummary> cache_load(const std::string& cache_dir,
                                      const std::string& relpath,
                                      std::string_view content);
void cache_store(const std::string& cache_dir, const std::string& relpath,
                 std::string_view content, const FileSummary& summary);

}  // namespace dnh::analyze
