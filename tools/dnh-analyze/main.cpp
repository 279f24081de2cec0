// dnh-analyze CLI. See the header comment in analyze.hpp for what the
// tool checks and docs/static-analysis.md for the full rule catalog.
//
// Exit codes: 0 clean, 1 findings (or fixture mismatch), 2 usage/IO
// error.
#include "analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;
using namespace dnh::analyze;

namespace {

constexpr const char* kUsage = R"(usage: dnh-analyze [options]

Project invariant checker: interprocedural rules over a recovered call
graph (signal-safety, transitive hot-path no-alloc, DomainId provenance,
lock order) and site rules over src/ and tools/ (metric and trace-event
catalog, typed parser errors, SPSC ring roles, hot-path container bounds,
spill durability).

inputs (default: --compile-commands build/compile_commands.json):
  --compile-commands PATH  TU list; headers under <root>/src are added
  --root DIR               repo root for relative paths and the catalog
                           <root>/docs/observability.md (default: .)
  --files FILE...          analyze exactly these files (rest of argv);
                           the site rules apply to every one

modes:
  --fixture-test DIR       self-test against an expectation-annotated
                           fixture corpus; exact rule@line matching
  --dump-callgraph TAG     print the call graph reachable from functions
                           tagged TAG (signal-safe|hot|shard-local-ids|
                           merge-boundary) and exit
  --list-rules             list rule ids and exit

output:
  --sarif OUT              also write findings as SARIF 2.1.0
  --show-unresolved        list unresolved callee names in the summary
  --baseline PATH          suppress findings whose key is in PATH
  --write-baseline PATH    write the current findings as a baseline

performance:
  --cache-dir DIR          per-file parse cache keyed by content hash
)";

int fail_usage(const char* msg) {
  std::fprintf(stderr, "dnh-analyze: %s\n", msg);
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

bool has_ext(const fs::path& p, std::initializer_list<const char*> exts) {
  const std::string e = p.extension().string();
  for (const char* want : exts)
    if (e == want) return true;
  return false;
}

/// Minimal compile_commands.json reader: walks key/string pairs and
/// resolves each object's "file" against its "directory". Good for the
/// CMake-emitted format; anything unparseable is skipped.
std::vector<fs::path> read_compile_commands(const fs::path& path) {
  std::string text;
  std::vector<fs::path> out;
  if (!read_file(path, text)) return out;
  std::string key, directory, file;
  bool expecting_value = false;
  std::string pending_key;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      std::string s;
      for (++i; i < text.size() && text[i] != '"'; ++i) {
        if (text[i] == '\\' && i + 1 < text.size()) {
          ++i;
          switch (text[i]) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            case 'u': i += 4; s += '?'; break;
            default: s += text[i];
          }
        } else {
          s += text[i];
        }
      }
      if (expecting_value) {
        if (pending_key == "directory") directory = s;
        if (pending_key == "file") file = s;
        expecting_value = false;
      } else {
        key = s;
      }
    } else if (c == ':') {
      pending_key = key;
      expecting_value = true;
    } else if (c == '}') {
      if (!file.empty()) {
        fs::path p{file};
        if (p.is_relative() && !directory.empty()) p = fs::path{directory} / p;
        out.push_back(p);
      }
      directory.clear();
      file.clear();
      expecting_value = false;
    }
  }
  return out;
}

/// Identifiers in the observability catalog; nullopt if it is absent.
std::optional<std::set<std::string>> read_catalog(const fs::path& root) {
  std::string text;
  if (!read_file(root / "docs" / "observability.md", text)) return std::nullopt;
  std::set<std::string> words;
  std::string word;
  for (const char c : text + ' ') {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      word += c;
    } else if (!word.empty()) {
      words.insert(std::move(word));
      word.clear();
    }
  }
  return words;
}

std::string rel_to_root(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty() || *rel.begin() == "..")
    return file.generic_string();
  return rel.generic_string();
}

struct Options {
  fs::path compile_commands;
  fs::path root = ".";
  std::vector<fs::path> files;
  fs::path fixture_dir;
  std::string dump_tag;
  fs::path sarif_out;
  fs::path baseline;
  fs::path write_baseline;
  fs::path cache_dir;
  bool show_unresolved = false;
  bool list_rules = false;
};

int run_fixture_test(const Options& opt);

int run(const Options& opt) {
  if (opt.list_rules) {
    std::printf(
        "signal-safety   no async-signal-unsafe work reachable from "
        "`signal-safe` roots\n"
        "no-alloc        no allocation reachable from `hot` roots\n"
        "id-provenance   shard-local DomainIds cross `merge-boundary` only "
        "via DomainTable::absorb()\n"
        "lock-order      no cycles in the held-set-propagated lock-order "
        "graph\n"
        "tag-syntax      every `dnh-analyze:` tag is well-formed and "
        "attaches to something\n"
        "metric-name     registered metric names start with dnh_ and are "
        "documented in docs/observability.md\n"
        "trace-catalog   recorded TraceKind values are documented in "
        "docs/observability.md\n"
        "typed-errors    parse code in src/{dns,pcap,http,flowexport} "
        "never throws\n"
        "ring-role       SPSC push/pop sites carry a matching ring-producer/"
        "ring-consumer tag\n"
        "hot-path-bound  hot-path map/deque/FlatHash declarations name a "
        "bounding mechanism\n"
        "spill-durability  spill/manifest raw writes carry an ordering tag "
        "and fsync within 4 lines\n");
    return 0;
  }
  if (!opt.fixture_dir.empty()) return run_fixture_test(opt);

  // Gather inputs.
  std::vector<fs::path> inputs = opt.files;
  if (inputs.empty()) {
    fs::path cc = opt.compile_commands;
    if (cc.empty()) cc = opt.root / "build" / "compile_commands.json";
    if (!fs::exists(cc)) {
      std::fprintf(stderr,
                   "dnh-analyze: %s not found (build with "
                   "CMAKE_EXPORT_COMPILE_COMMANDS=ON or pass --files)\n",
                   cc.string().c_str());
      return 2;
    }
    for (const fs::path& p : read_compile_commands(cc))
      if (has_ext(p, {".cpp", ".cc", ".cxx"})) inputs.push_back(p);
    const fs::path src = opt.root / "src";
    if (fs::exists(src))
      for (const auto& entry : fs::recursive_directory_iterator(src))
        if (entry.is_regular_file() &&
            has_ext(entry.path(), {".hpp", ".h"}))
          inputs.push_back(entry.path());
  }
  std::vector<std::pair<std::string, fs::path>> work;
  std::set<std::string> seen;
  for (const fs::path& p : inputs) {
    const std::string rel = rel_to_root(p, opt.root);
    if (rel.rfind("build/", 0) == 0) continue;
    if (seen.insert(rel).second) work.emplace_back(rel, p);
  }
  std::sort(work.begin(), work.end());

  Program program;
  for (const auto& [rel, path] : work) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "dnh-analyze: cannot read %s\n",
                   path.string().c_str());
      return 2;
    }
    if (!opt.cache_dir.empty()) {
      if (auto cached =
              cache_load(opt.cache_dir.string(), rel, text)) {
        program.files.push_back(std::move(*cached));
        continue;
      }
    }
    FileSummary summary = parse_file(rel, text);
    if (!opt.cache_dir.empty())
      cache_store(opt.cache_dir.string(), rel, text, summary);
    program.files.push_back(std::move(summary));
  }
  for (FileSummary& file : program.files)
    file.site_rules = !opt.files.empty() || file.path.rfind("src/", 0) == 0 ||
                      file.path.rfind("tools/", 0) == 0;
  program.catalog = read_catalog(opt.root);
  program.index();

  if (!opt.dump_tag.empty()) {
    dump_callgraph(program, opt.dump_tag);
    return 0;
  }

  std::vector<Finding> findings;
  RuleStats stats;
  run_rules(program, findings, stats);

  if (!opt.write_baseline.empty() &&
      !write_text_file(opt.write_baseline.string(), to_baseline(findings))) {
    std::fprintf(stderr, "dnh-analyze: cannot write %s\n",
                 opt.write_baseline.string().c_str());
    return 2;
  }
  std::size_t baselined = 0;
  if (!opt.baseline.empty()) {
    const std::set<std::string> keys = read_baseline(opt.baseline.string());
    std::vector<Finding> kept;
    for (Finding& f : findings) {
      if (keys.count(baseline_key(f)) != 0)
        ++baselined;
      else
        kept.push_back(std::move(f));
    }
    findings = std::move(kept);
  }
  if (!opt.sarif_out.empty() &&
      !write_text_file(opt.sarif_out.string(), to_sarif(findings))) {
    std::fprintf(stderr, "dnh-analyze: cannot write %s\n",
                 opt.sarif_out.string().c_str());
    return 2;
  }

  print_findings(findings);
  std::printf(
      "dnh-analyze: %zu files, %zu functions, %zu call sites "
      "(%zu resolved, %zu ambiguous, %zu unresolved), %zu findings, "
      "%zu suppressed, %zu baselined\n",
      program.files.size(), stats.functions, stats.call_sites,
      stats.resolved_edges, stats.ambiguous_edges, stats.unresolved_edges,
      findings.size(), stats.suppressed, baselined);
  if (opt.show_unresolved && !stats.unresolved_names.empty()) {
    std::printf("unresolved callee names (count):\n");
    for (const auto& [name, count] : stats.unresolved_names)
      std::printf("  %6zu  %s\n", count, name.c_str());
  }
  return findings.empty() ? 0 : 1;
}

/// Fixture self-test. Each fixture's first lines carry
///   // dnh-analyze-fixture: path=<virtual path> expect=<rule>@<line>,...
/// with expect=clean for must-not-flag fixtures. Matching is exact:
/// every expected (rule, line) must fire and nothing else may.
int run_fixture_test(const Options& opt) {
  if (!fs::is_directory(opt.fixture_dir)) {
    std::fprintf(stderr, "dnh-analyze: %s is not a directory\n",
                 opt.fixture_dir.string().c_str());
    return 2;
  }
  std::vector<fs::path> fixtures;
  for (const auto& entry : fs::directory_iterator(opt.fixture_dir))
    if (entry.is_regular_file() &&
        has_ext(entry.path(), {".cpp", ".hpp", ".h", ".cc"}))
      fixtures.push_back(entry.path());
  std::sort(fixtures.begin(), fixtures.end());
  if (fixtures.empty()) {
    std::fprintf(stderr, "dnh-analyze: no fixtures in %s\n",
                 opt.fixture_dir.string().c_str());
    return 2;
  }
  const auto catalog = read_catalog(opt.root);
  std::size_t failures = 0;
  for (const fs::path& path : fixtures) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "dnh-analyze: cannot read %s\n",
                   path.string().c_str());
      return 2;
    }
    // Header: first line of the form documented above.
    std::string virtual_path, expect;
    {
      std::istringstream lines{text};
      std::string line;
      while (std::getline(lines, line)) {
        const std::size_t marker = line.find("dnh-analyze-fixture:");
        if (marker == std::string::npos) continue;
        std::istringstream fields{line.substr(marker + 20)};
        std::string field;
        while (fields >> field) {
          if (field.rfind("path=", 0) == 0) virtual_path = field.substr(5);
          if (field.rfind("expect=", 0) == 0) expect = field.substr(7);
        }
        break;
      }
    }
    if (virtual_path.empty() || expect.empty()) {
      std::fprintf(stderr,
                   "FAIL %s: missing `dnh-analyze-fixture: path=... "
                   "expect=...` header\n",
                   path.filename().string().c_str());
      ++failures;
      continue;
    }
    std::set<std::string> expected;
    if (expect != "clean") {
      std::istringstream items{expect};
      std::string item;
      while (std::getline(items, item, ','))
        if (!item.empty()) expected.insert(item);
    }
    Program program;
    program.files.push_back(parse_file(virtual_path, text));
    program.files.back().site_rules = true;
    program.catalog = catalog;
    program.index();
    std::vector<Finding> findings;
    RuleStats stats;
    run_rules(program, findings, stats);
    std::set<std::string> got;
    for (const Finding& f : findings)
      got.insert(f.rule + "@" + std::to_string(f.line));
    if (got == expected) {
      std::printf("PASS %s (%s)\n", path.filename().string().c_str(),
                  expect.c_str());
      continue;
    }
    ++failures;
    std::printf("FAIL %s\n", path.filename().string().c_str());
    for (const std::string& e : expected)
      if (got.count(e) == 0) std::printf("  missing expected %s\n", e.c_str());
    for (const std::string& g : got)
      if (expected.count(g) == 0) std::printf("  unexpected %s\n", g.c_str());
    print_findings(findings);
  }
  std::printf("dnh-analyze --fixture-test: %zu fixtures, %zu failures\n",
              fixtures.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](fs::path& slot) {
      if (i + 1 >= argc) return false;
      slot = argv[++i];
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else if (arg == "--compile-commands") {
      if (!value(opt.compile_commands))
        return fail_usage("--compile-commands needs a path");
    } else if (arg == "--root") {
      if (!value(opt.root)) return fail_usage("--root needs a directory");
    } else if (arg == "--files") {
      for (++i; i < argc; ++i) opt.files.emplace_back(argv[i]);
      if (opt.files.empty()) return fail_usage("--files needs file paths");
    } else if (arg == "--fixture-test") {
      if (!value(opt.fixture_dir))
        return fail_usage("--fixture-test needs a directory");
    } else if (arg == "--dump-callgraph") {
      if (i + 1 >= argc) return fail_usage("--dump-callgraph needs a tag");
      opt.dump_tag = argv[++i];
    } else if (arg == "--sarif") {
      if (!value(opt.sarif_out)) return fail_usage("--sarif needs a path");
    } else if (arg == "--baseline") {
      if (!value(opt.baseline)) return fail_usage("--baseline needs a path");
    } else if (arg == "--write-baseline") {
      if (!value(opt.write_baseline))
        return fail_usage("--write-baseline needs a path");
    } else if (arg == "--cache-dir") {
      if (!value(opt.cache_dir))
        return fail_usage("--cache-dir needs a directory");
    } else if (arg == "--show-unresolved") {
      opt.show_unresolved = true;
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else {
      return fail_usage(("unknown argument: " + arg).c_str());
    }
  }
  return run(opt);
}
