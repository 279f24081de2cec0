// Heuristic C++ structure recovery for dnh-analyze: function definitions
// with qualified names, call sites, MutexLock acquisitions with the
// held-set at each site, direct allocation / signal-unsafety evidence,
// class member-type maps (used to give mutexes class-qualified
// identities), and the token-level sites the site rules judge. Not a
// compiler front-end: ambiguity is surfaced as unresolved/ambiguous edges
// downstream, never silently dropped.
#include "analyze.hpp"

#include <algorithm>
#include <cctype>

namespace dnh::analyze {

namespace {

bool all_caps(const std::string& s) {
  bool has_alpha = false;
  for (const char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

/// Types whose by-value construction is allocation evidence (and, a
/// fortiori, signal-unsafe).
const std::set<std::string>& alloc_types() {
  static const std::set<std::string> kTypes = {
      "string", "ostringstream", "istringstream", "stringstream",
      "ofstream", "ifstream", "fstream", "wstring"};
  return kTypes;
}

bool is_ring_op(const CallSite& call) { return !ring_side(call).empty(); }

const std::set<std::string>& guard_types() {
  static const std::set<std::string> kGuards = {
      "MutexLock", "lock_guard", "unique_lock", "scoped_lock"};
  return kGuards;
}

struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = Kind::kBlock;
  std::string name;
  int fn_index = -1;  ///< kFunction: index into summary.functions
};

struct Guard {
  std::string expr;
  std::size_t depth = 0;  ///< scope-stack size when acquired
};

class Parser {
 public:
  Parser(const std::string& relpath, LexOutput lexed)
      : toks_{std::move(lexed.tokens)}, tags_{std::move(lexed.tags)} {
    summary_.path = relpath;
  }

  FileSummary run() {
    while (pos_ < toks_.size()) step();
    collect_sites();
    attach_tags();
    return std::move(summary_);
  }

 private:
  const Token& tok(std::size_t i) const {
    static const Token kEof{Token::Kind::kPunct, "", 0};
    return i < toks_.size() ? toks_[i] : kEof;
  }
  bool is(std::size_t i, std::string_view text) const {
    return tok(i).text == text;
  }

  /// Index just past the token matching `open` at `i` (which must be the
  /// opening token). Angle brackets are matched textually — good enough
  /// for declarations, where `<` is template syntax.
  std::size_t skip_balanced(std::size_t i, std::string_view open,
                            std::string_view close) const {
    int depth = 0;
    for (; i < toks_.size(); ++i) {
      if (toks_[i].text == open) ++depth;
      else if (toks_[i].text == close && --depth == 0) return i + 1;
    }
    return toks_.size();
  }

  FunctionInfo* current_fn() {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it)
      if (it->kind == Scope::Kind::kFunction)
        return &summary_.functions[static_cast<std::size_t>(it->fn_index)];
    return nullptr;
  }

  const Scope* innermost_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) return nullptr;
      if (it->kind == Scope::Kind::kClass) return &*it;
    }
    return nullptr;
  }

  bool at_decl_scope() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      switch (it->kind) {
        case Scope::Kind::kFunction:
        case Scope::Kind::kBlock:
          return false;
        case Scope::Kind::kClass:
        case Scope::Kind::kNamespace:
          return true;
      }
    }
    return true;
  }

  std::vector<std::string> held_exprs() const {
    std::vector<std::string> out;
    out.reserve(guards_.size());
    for (const Guard& g : guards_) out.push_back(g.expr);
    return out;
  }

  // ---- main dispatch ------------------------------------------------------

  void step() {
    const Token& t = tok(pos_);
    if (t.text == "namespace" && at_decl_scope()) {
      parse_namespace();
      return;
    }
    if (t.text == "extern" && tok(pos_ + 1).kind == Token::Kind::kString) {
      if (is(pos_ + 2, "{")) {
        scopes_.push_back({Scope::Kind::kNamespace, "", -1});
        pos_ += 3;
      } else {
        pos_ += 2;
      }
      return;
    }
    if ((t.text == "class" || t.text == "struct" || t.text == "union") &&
        at_decl_scope()) {
      parse_class_head();
      return;
    }
    if (t.text == "enum") {
      skip_enum();
      return;
    }
    if (t.text == "{") {
      // At class scope a stray `{` is a member's brace initializer
      // (`std::atomic<int> head_{0};`) — skip it wholesale so the member
      // declaration buffer survives to the `;`. Inline member function
      // bodies never reach here: try_function_def consumed their `{`.
      if (!scopes_.empty() && scopes_.back().kind == Scope::Kind::kClass) {
        pos_ = skip_balanced(pos_, "{", "}");
        return;
      }
      scopes_.push_back({Scope::Kind::kBlock, "", -1});
      ++pos_;
      return;
    }
    if (t.text == "}") {
      if (!scopes_.empty()) {
        const bool leaving_fn = scopes_.back().kind == Scope::Kind::kFunction;
        if (leaving_fn) {
          auto& fn =
              summary_.functions[static_cast<std::size_t>(
                  scopes_.back().fn_index)];
          fn.body_end = t.line;
          guards_.clear();
        }
        scopes_.pop_back();
        while (!guards_.empty() && guards_.back().depth > scopes_.size())
          guards_.pop_back();
      }
      ++pos_;
      class_buf_.clear();
      return;
    }
    if (at_decl_scope()) {
      if (try_function_def()) return;
      // Class scope: accumulate declaration tokens for the member map.
      if (!scopes_.empty() && scopes_.back().kind == Scope::Kind::kClass) {
        if (t.text == ";") {
          process_member_decl();
          class_buf_.clear();
        } else if (t.text == ":" &&
                   (is(pos_ - 1, "public") || is(pos_ - 1, "private") ||
                    is(pos_ - 1, "protected"))) {
          class_buf_.clear();
        } else {
          class_buf_.push_back(t);
        }
      }
      ++pos_;
      return;
    }
    // Inside a function body.
    scan_body_token();
  }

  // ---- declarations -------------------------------------------------------

  void parse_namespace() {
    std::size_t q = pos_ + 1;
    std::string name;
    while (tok(q).kind == Token::Kind::kIdent) {
      if (!name.empty()) name += "::";
      name += tok(q).text;
      q += is(q + 1, "::") ? 2 : 1;
      if (!is(q - 1, "::") && tok(q - 1).kind == Token::Kind::kIdent) break;
    }
    if (is(q, "{")) {
      scopes_.push_back({Scope::Kind::kNamespace, name, -1});
      pos_ = q + 1;
    } else {
      pos_ = q + 1;  // namespace alias / using — skip
    }
  }

  void parse_class_head() {
    std::size_t q = pos_ + 1;
    // Skip attribute-ish macros (DNH_CAPABILITY("mutex"), alignas(..)).
    std::string name;
    while (q < toks_.size()) {
      const Token& t = tok(q);
      if (t.kind == Token::Kind::kIdent && all_caps(t.text)) {
        ++q;
        if (is(q, "(")) q = skip_balanced(q, "(", ")");
        continue;
      }
      if (t.text == "alignas") {
        ++q;
        if (is(q, "(")) q = skip_balanced(q, "(", ")");
        continue;
      }
      if (t.kind == Token::Kind::kIdent) {
        name = t.text;  // last component wins (Outer::Inner)
        ++q;
        if (is(q, "::")) { ++q; continue; }
        if (is(q, "<")) q = skip_balanced(q, "<", ">");
        break;
      }
      break;
    }
    // Find '{' (definition) or ';' (fwd decl) — base clause tolerated.
    while (q < toks_.size() && !is(q, "{") && !is(q, ";")) {
      if (is(q, "<")) { q = skip_balanced(q, "<", ">"); continue; }
      if (is(q, "(")) { q = skip_balanced(q, "(", ")"); continue; }
      ++q;
    }
    if (is(q, "{")) {
      scopes_.push_back({Scope::Kind::kClass, name, -1});
      class_buf_.clear();
      pos_ = q + 1;
    } else {
      pos_ = q + 1;
    }
  }

  void skip_enum() {
    std::size_t q = pos_ + 1;
    while (q < toks_.size() && !is(q, "{") && !is(q, ";")) ++q;
    pos_ = is(q, "{") ? skip_balanced(q, "{", "}") : q + 1;
  }

  /// Strips annotation macros, initializers and array extents from a
  /// member declaration buffer, then records the member's type.
  void process_member_decl() {
    const Scope* cls = innermost_class();
    if (cls == nullptr || class_buf_.empty()) return;
    const std::string& head = class_buf_.front().text;
    if (head == "using" || head == "typedef" || head == "friend" ||
        head == "template" || head == "static_assert" || head == "operator")
      return;
    std::vector<Token> clean;
    for (std::size_t i = 0; i < class_buf_.size(); ++i) {
      const Token& t = class_buf_[i];
      if (t.kind == Token::Kind::kIdent && all_caps(t.text)) {
        if (i + 1 < class_buf_.size() && class_buf_[i + 1].text == "(") {
          int depth = 0;
          while (i < class_buf_.size()) {
            if (class_buf_[i].text == "(") ++depth;
            if (class_buf_[i].text == ")" && --depth == 0) break;
            ++i;
          }
        }
        continue;  // annotation macro (DNH_GUARDED_BY, ...)
      }
      if (t.text == "=") break;         // initializer tail
      if (t.text == "{") {              // brace initializer tail
        break;
      }
      clean.push_back(t);
    }
    if (clean.size() < 2) return;
    // A '(' surviving the macro strip means a function declaration.
    for (const Token& t : clean)
      if (t.text == "(" || t.text == ":") return;
    // Name: last identifier; type: what precedes it.
    std::size_t name_idx = clean.size();
    for (std::size_t i = clean.size(); i-- > 0;) {
      if (clean[i].kind == Token::Kind::kIdent) { name_idx = i; break; }
      if (clean[i].text == "]" || clean[i].text == "[") continue;
      break;
    }
    if (name_idx == clean.size() || name_idx == 0) return;
    const std::string member = clean[name_idx].text;
    std::string outer, inner;
    int angle = 0;
    bool smart = false;
    for (std::size_t i = 0; i < name_idx; ++i) {
      const Token& t = clean[i];
      if (t.text == "<") { ++angle; continue; }
      if (t.text == ">") { --angle; continue; }
      if (t.kind != Token::Kind::kIdent && t.kind != Token::Kind::kKeyword)
        continue;
      if (t.text == "const" || t.text == "volatile" || t.text == "mutable" ||
          t.text == "static" || t.text == "constexpr" || t.text == "std" ||
          t.text == "inline")
        continue;
      if (angle == 0) {
        outer = t.text;
        if (t.text == "shared_ptr" || t.text == "unique_ptr") smart = true;
      } else if (angle == 1 && smart) {
        inner = t.text;
      }
    }
    const std::string type = smart && !inner.empty() ? inner : outer;
    if (type.empty()) return;
    summary_.members[cls->name][member] = type;
    if (type == "Mutex") summary_.mutex_owners[member].insert(cls->name);
  }

  // ---- function definitions ----------------------------------------------

  /// Attempts to match a function definition starting at pos_. On success
  /// the Function scope is pushed and pos_ advanced past the body `{`.
  bool try_function_def() {
    std::size_t q = pos_;
    std::vector<std::string> chain;
    // Qualified name: [~]ident (:: [~]ident)* | operator<punct>
    while (true) {
      std::string comp;
      if (is(q, "~")) { comp = "~"; ++q; }
      if (tok(q).text == "operator") {
        comp += "operator";
        ++q;
        while (tok(q).kind == Token::Kind::kPunct && !is(q, "(")) {
          comp += tok(q).text;
          ++q;
        }
        if (comp == "operator" && is(q, "(") && is(q + 1, ")")) {
          comp += "()";
          q += 2;
        }
        chain.push_back(comp);
        break;
      }
      if (tok(q).kind != Token::Kind::kIdent) return false;
      comp += tok(q).text;
      ++q;
      if (is(q, "<") && is_template_args(q))  // Foo<T>::bar definitions
        q = skip_balanced(q, "<", ">");
      chain.push_back(comp);
      if (is(q, "::")) { ++q; continue; }
      break;
    }
    if (!is(q, "(")) return false;
    if (all_caps(chain.back())) return false;  // macro invocation
    q = skip_balanced(q, "(", ")");

    // Trailer: cv/ref/noexcept/attribute macros/trailing return/init list.
    bool saw_init_list = false;
    while (q < toks_.size()) {
      const Token& t = tok(q);
      if (t.text == "const" || t.text == "volatile" || t.text == "override" ||
          t.text == "final" || t.text == "mutable" || t.text == "&" ||
          t.text == "&&") {
        ++q;
        continue;
      }
      if (t.text == "noexcept") {
        ++q;
        if (is(q, "(")) q = skip_balanced(q, "(", ")");
        continue;
      }
      if (t.kind == Token::Kind::kIdent && all_caps(t.text)) {
        ++q;
        if (is(q, "(")) q = skip_balanced(q, "(", ")");
        continue;
      }
      if (t.text == "->") {  // trailing return type
        ++q;
        while (q < toks_.size() && !is(q, "{") && !is(q, ";")) {
          if (is(q, "(")) { q = skip_balanced(q, "(", ")"); continue; }
          if (is(q, "<")) { q = skip_balanced(q, "<", ">"); continue; }
          ++q;
        }
        continue;
      }
      if (t.text == ":" && !saw_init_list) {  // ctor init list
        saw_init_list = true;
        ++q;
        while (q < toks_.size()) {
          while (q < toks_.size() && !is(q, "(") && !is(q, "{") &&
                 !is(q, ";") && !is(q, "}"))
            ++q;
          if (is(q, "(")) q = skip_balanced(q, "(", ")");
          else if (is(q, "{")) q = skip_balanced(q, "{", "}");
          else return false;
          if (is(q, ",")) { ++q; continue; }
          break;
        }
        continue;
      }
      if (t.text == "try") { ++q; continue; }
      if (t.text == "{") {
        begin_function(chain, tok(pos_).line, q);
        return true;
      }
      return false;  // ';', '=', ... — declaration, not a definition
    }
    return false;
  }

  /// True if `<` at q looks like template arguments (heuristic: balanced
  /// and followed by `::` — the only place it matters in a name chain).
  bool is_template_args(std::size_t q) const {
    const std::size_t end = skip_balanced(q, "<", ">");
    return end < toks_.size() && toks_[end].text == "::";
  }

  void begin_function(const std::vector<std::string>& chain, int line,
                      std::size_t body_open) {
    FunctionInfo fn;
    fn.name = chain.back();
    std::string prefix;
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::Kind::kNamespace && !s.name.empty())
        prefix += s.name + "::";
      if (s.kind == Scope::Kind::kClass) prefix += s.name + "::";
    }
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      prefix += chain[i] + "::";
    fn.qname = prefix + fn.name;
    if (chain.size() >= 2) {
      fn.cls = chain[chain.size() - 2];
    } else if (const Scope* cls = innermost_class()) {
      fn.cls = cls->name;
    }
    fn.file = summary_.path;
    fn.line = line;
    summary_.functions.push_back(std::move(fn));
    scopes_.push_back({Scope::Kind::kFunction, summary_.functions.back().name,
                       static_cast<int>(summary_.functions.size() - 1)});
    guards_.clear();
    locals_.clear();
    pos_ = body_open + 1;
    class_buf_.clear();
  }

  // ---- function bodies ----------------------------------------------------

  void scan_body_token() {
    FunctionInfo* fn = current_fn();
    const Token& t = tok(pos_);
    if (fn == nullptr) { ++pos_; return; }

    if (t.text == "new" && !is(pos_ - 1, "operator")) {
      fn->evidence.push_back(
          {Evidence::Kind::kAlloc, "new expression", t.line, {}});
      ++pos_;
      return;
    }
    if (t.text == "throw") {
      fn->evidence.push_back(
          {Evidence::Kind::kSignalUnsafe, "throw", t.line, {}});
      ++pos_;
      return;
    }
    if (t.kind == Token::Kind::kIdent) {
      // Local lambda: `auto finish = [&] {...}`. Calls to `finish()` below
      // must not resolve against same-name methods elsewhere in the tree;
      // the lambda's own body is scanned as part of this function anyway.
      if (is(pos_ + 1, "=") && is(pos_ + 2, "[")) locals_.insert(t.text);
      // Guard acquisition: MutexLock/lock_guard-style RAII declaration.
      if (guard_types().count(t.text) != 0 && try_lock_acquire(fn)) return;
      // By-value construction of an allocating type.
      if (alloc_types().count(t.text) != 0 && is_alloc_type_use()) {
        fn->evidence.push_back({Evidence::Kind::kAlloc,
                                "std::" + t.text + " construction", t.line,
                                {}});
        ++pos_;
        return;
      }
      if (is(pos_ + 1, "(") && !all_caps(t.text) &&
          locals_.count(t.text) == 0) {
        record_call(fn);
        ++pos_;
        return;
      }
    }
    ++pos_;
  }

  /// MutexLock lock{expr}; / lock_guard<M> lock(expr); — registers the
  /// guard and the acquisition with the currently-held set.
  bool try_lock_acquire(FunctionInfo* fn) {
    std::size_t q = pos_ + 1;
    if (is(q, "<")) q = skip_balanced(q, "<", ">");
    if (tok(q).kind != Token::Kind::kIdent) return false;
    ++q;  // guard variable name
    if (!is(q, "{") && !is(q, "(")) return false;
    const std::string open = tok(q).text;
    const std::string close = open == "{" ? "}" : ")";
    const std::size_t end = skip_balanced(q, open, close);
    std::string expr;
    for (std::size_t i = q + 1; i + 1 < end; ++i) {
      // First constructor argument only (scoped_lock / adopt_lock forms).
      if (toks_[i].text == ",") break;
      expr += toks_[i].text;
    }
    if (expr.empty()) return false;
    LockAcquire acq;
    acq.expr = expr;
    acq.line = tok(pos_).line;
    acq.held = held_exprs();
    fn->locks.push_back(std::move(acq));
    guards_.push_back({expr, scopes_.size()});
    pos_ = end;
    return true;
  }

  /// True when the type name at pos_ is a by-value use (declaration or
  /// temporary), not a reference/pointer/template-argument mention.
  bool is_alloc_type_use() const {
    // Chain must be bare or std-qualified ("string" / "std::string").
    if (is(pos_ - 1, "::") && !is(pos_ - 2, "std")) return false;
    const Token& next = tok(pos_ + 1);
    if (next.text == "&" || next.text == "*" || next.text == ">" ||
        next.text == "::" || next.text == ")" || next.text == "," ||
        next.text == ";" || next.text == ">>")
      return false;
    return next.kind == Token::Kind::kIdent || next.text == "(" ||
           next.text == "{";
  }

  void record_call(FunctionInfo* fn) {
    CallSite call;
    call.name = tok(pos_).text;
    call.line = tok(pos_).line;
    // Walk the qualifier chain backwards.
    std::size_t k = pos_;
    std::vector<std::string> quals;
    while (is(k - 1, "::")) {
      if (tok(k - 2).kind == Token::Kind::kIdent) {
        quals.push_back(tok(k - 2).text);
        k -= 2;
      } else {
        call.global = true;
        k -= 1;
        break;
      }
    }
    std::reverse(quals.begin(), quals.end());
    for (const std::string& s : quals) {
      if (!call.qualifier.empty()) call.qualifier += "::";
      call.qualifier += s;
    }
    if (is(k - 1, ".") || is(k - 1, "->")) {
      call.member = true;
      if (tok(k - 2).kind == Token::Kind::kIdent) call.object = tok(k - 2).text;
      if (tok(k - 2).text == "this") call.object = "this";
    }
    call.held = held_exprs();
    fn->calls.push_back(std::move(call));
  }

  // ---- site-rule facts ----------------------------------------------------

  /// Metric registrations, TraceKind uses, `throw`s and container
  /// declarations anywhere in the file, plus every identifier.
  void collect_sites() {
    static const std::set<std::string> kMetricCalls = {
        "counter", "gauge", "histogram", "shard_label", "shard_gauge_name"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.text == "throw")
        summary_.sites.push_back({Site::Kind::kThrow, "", t.line, "", {}});
      if (i == 0 || toks_[i - 1].line != t.line) collect_container(i);
      if (t.kind != Token::Kind::kIdent) continue;
      summary_.idents.insert(t.text);
      if (kMetricCalls.count(t.text) != 0 && is(i + 1, "(") &&
          tok(i + 2).kind == Token::Kind::kString) {
        const std::string& lit = tok(i + 2).text;
        summary_.sites.push_back({Site::Kind::kMetric,
                                  lit.substr(1, lit.size() - 2), t.line, "",
                                  {}});
      } else if (t.text == "TraceKind" && is(i + 1, "::") &&
                 tok(i + 2).kind == Token::Kind::kIdent &&
                 tok(i + 2).text.size() > 1 && tok(i + 2).text[0] == 'k') {
        summary_.sites.push_back(
            {Site::Kind::kTraceKind, tok(i + 2).text, t.line, "", {}});
      }
    }
  }

  /// Records a container declaration opening its line at token `i`:
  ///   [mutable] [const] std::map< | [dnh::]util::FlatHash<
  void collect_container(std::size_t i) {
    static const std::set<std::string> kStdContainers = {
        "map", "unordered_map", "multimap", "deque"};
    const int line = tok(i).line;
    if (is(i, "mutable")) ++i;
    if (is(i, "const")) ++i;
    if (is(i, "dnh") && is(i + 1, "::") && is(i + 2, "util")) i += 2;
    if ((is(i, "std") && is(i + 1, "::") &&
         kStdContainers.count(tok(i + 2).text) != 0 && is(i + 3, "<")) ||
        (is(i, "util") && is(i + 1, "::") && is(i + 2, "FlatHash") &&
         is(i + 3, "<")))
      summary_.sites.push_back({Site::Kind::kContainer, "", line, "", {}});
  }

  // ---- tags ---------------------------------------------------------------

  static bool parse_paren_arg(const std::string& text, std::size_t open,
                              std::string& first, std::string& rest) {
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos || close <= open) return false;
    const std::string inner = text.substr(open + 1, close - open - 1);
    const std::size_t comma = inner.find(',');
    first = inner.substr(0, comma);
    rest = comma == std::string::npos ? "" : inner.substr(comma + 1);
    auto trim = [](std::string& s) {
      while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.erase(s.begin());
      while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.pop_back();
    };
    trim(first);
    trim(rest);
    return true;
  }

  /// Function a tag at `line` belongs to, honoring body boundaries so a
  /// tag inside (or at the end of) one function can never attach to the
  /// next one, the way a fixed-size lookback window leaks. `fn_level`
  /// is true when the tag governs the whole function: it sits on/above
  /// the signature or on the first lines of the body.
  FunctionInfo* function_for_tag(int line, bool& fn_level) {
    fn_level = false;
    // Inside a body: the enclosing function owns the tag unconditionally.
    for (FunctionInfo& fn : summary_.functions) {
      if (line >= fn.line && fn.body_end != 0 && line <= fn.body_end) {
        fn_level = line - fn.line <= 2;
        return &fn;
      }
    }
    // Between functions: attach to the next signature if it is close.
    FunctionInfo* best = nullptr;
    for (FunctionInfo& fn : summary_.functions)
      if (fn.line >= line && fn.line - line <= 3)
        if (best == nullptr || fn.line < best->line) best = &fn;
    if (best != nullptr) fn_level = true;
    return best;
  }

  const FunctionInfo* enclosing(int line) const {
    for (const FunctionInfo& fn : summary_.functions)
      if (line >= fn.line && fn.body_end != 0 && line <= fn.body_end)
        return &fn;
    return nullptr;
  }

  /// A site tag's reach: its anchor line or the two lines below it, never
  /// into a different function than the one whose body holds the tag (an
  /// allow at the end of one function must not cover the next one).
  bool covers(const TagComment& tag, int anchor, int line) const {
    if (line < anchor || line - anchor > 2) return false;
    const FunctionInfo* home = enclosing(tag.line);
    return home == nullptr || home == enclosing(line);
  }

  /// Adds `what` to `slot` of every call site in reach that `pred`
  /// accepts; true if there was one.
  template <typename Pred>
  bool tag_calls(const TagComment& tag, int anchor, const std::string& what,
                 Pred pred, std::set<std::string> CallSite::*slot) {
    bool hit = false;
    for (FunctionInfo& fn : summary_.functions)
      for (CallSite& c : fn.calls)
        if (pred(c) && covers(tag, anchor, c.line)) {
          (c.*slot).insert(what);
          hit = true;
        }
    return hit;
  }

  /// Attaches allow(<what>) to what it reaches; true if anything. A site
  /// rule's allow must sit on a site of that rule. An interprocedural
  /// rule's allow covers any call, lock or evidence in reach, and the
  /// whole function when it sits at the top of the body.
  bool attach_allow(const std::string& what, const TagComment& tag,
                    int anchor) {
    static const std::map<std::string, Site::Kind> kSiteKinds = {
        {"metric-name", Site::Kind::kMetric},
        {"trace-catalog", Site::Kind::kTraceKind},
        {"typed-errors", Site::Kind::kThrow},
        {"hot-path-bound", Site::Kind::kContainer}};
    if (what == "ring-role")
      return tag_calls(tag, anchor, what, is_ring_op, &CallSite::allows);
    if (what == "spill-durability")
      return tag_calls(tag, anchor, what, is_raw_write, &CallSite::allows);
    bool hit = false;
    const auto site_kind = kSiteKinds.find(what);
    if (site_kind != kSiteKinds.end()) {
      for (Site& s : summary_.sites)
        if (s.kind == site_kind->second && covers(tag, anchor, s.line)) {
          s.allows.insert(what);
          hit = true;
        }
      return hit;
    }
    hit = tag_calls(tag, anchor, what, [](const CallSite&) { return true; },
                    &CallSite::allows);
    for (FunctionInfo& fn : summary_.functions) {
      for (LockAcquire& l : fn.locks)
        if (covers(tag, anchor, l.line)) {
          l.allows.insert(what);
          hit = true;
        }
      for (Evidence& e : fn.evidence)
        if (covers(tag, anchor, e.line)) {
          e.allows.insert(what);
          hit = true;
        }
    }
    bool fn_level = false;
    FunctionInfo* fn = function_for_tag(anchor, fn_level);
    if (fn != nullptr && fn_level) {
      fn->fn_allows.insert(what);
      hit = true;
    }
    return hit;
  }

  /// The identifier between `(` at `open` and the next `)`; "" if the
  /// argument is not one.
  static std::string ident_arg(const std::string& text, std::size_t open) {
    const std::size_t close = text.find(')', open);
    if (open == std::string::npos || close == std::string::npos) return "";
    const std::string arg = text.substr(open + 1, close - open - 1);
    if (arg.empty() || std::isdigit(static_cast<unsigned char>(arg[0])))
      return "";
    for (const char c : arg)
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return "";
    return arg;
  }

  /// Attachment anchor for a tag: its own end line, extended through any
  /// tags stacked directly beneath it, so in
  ///   | // dnh-analyze: allow(signal-safety, ...)
  ///   | // dnh-analyze: allow(alloc, ...)
  ///   | FlightRecorder& FlightRecorder::global() {
  /// both tags measure their distance to the signature from the bottom of
  /// the stack (gutter `|` so the self-scan does not harvest the example).
  int anchor_line(const TagComment& tag) const {
    int end = tag.end_line;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const TagComment& other : tags_)
        if (other.line > end && other.line - end <= 1 &&
            other.end_line > end) {
          end = other.end_line;
          grew = true;
        }
    }
    return end;
  }

  void attach_tags() {
    static const std::set<std::string> kAllowWhats = {
        "signal-safety", "alloc",          "provenance",    "lock-order",
        "metric-name",   "trace-catalog",  "typed-errors",  "ring-role",
        "hot-path-bound", "spill-durability"};
    for (const TagComment& tag : tags_) {
      const int aline = anchor_line(tag);
      const std::string& text = tag.text;
      const std::size_t paren = text.find('(');
      const std::string word =
          text.substr(0, std::min(paren, text.find(' ')));
      if (word == "signal-safe" || word == "hot" ||
          word == "shard-local-ids" || word == "merge-boundary") {
        bool fn_level = false;
        FunctionInfo* fn = function_for_tag(aline, fn_level);
        if (fn == nullptr || !fn_level) {
          summary_.tag_errors.push_back(
              {tag.line, "role tag `" + word + "` attaches to no function"});
          continue;
        }
        if (word == "signal-safe") fn->tag_signal_safe = true;
        if (word == "hot") fn->tag_hot = true;
        if (word == "shard-local-ids") fn->tag_shard_local_ids = true;
        if (word == "merge-boundary") fn->tag_merge_boundary = true;
        continue;
      }
      if (word == "id-remap") {
        std::string why, rest;
        if (paren == std::string::npos ||
            !parse_paren_arg(text, paren, why, rest) || why.empty()) {
          summary_.tag_errors.push_back(
              {tag.line, "id-remap needs a reason: id-remap(<why>)"});
          continue;
        }
        bool fn_level = false;
        FunctionInfo* fn = function_for_tag(aline, fn_level);
        if (fn == nullptr || !fn_level) {
          summary_.tag_errors.push_back(
              {tag.line, "id-remap tag attaches to no function"});
          continue;
        }
        fn->tag_id_remap = true;
        continue;
      }
      if (word == "ring-producer" || word == "ring-consumer") {
        if (!tag_calls(tag, aline, word, is_ring_op, &CallSite::tags))
          summary_.tag_errors.push_back(
              {tag.line, word + " tag sits on no SPSC ring operation"});
        continue;
      }
      if (word == "spill-write" || word == "manifest-append") {
        if (ident_arg(text, paren) != "fsync") {
          summary_.tag_errors.push_back(
              {tag.line, "malformed tag: " + word + "(fsync)"});
          continue;
        }
        if (!tag_calls(tag, aline, word, is_raw_write, &CallSite::tags))
          summary_.tag_errors.push_back(
              {tag.line, word + "(fsync) tag sits on no raw write"});
        continue;
      }
      if (word == "bounded") {
        const std::string mechanism = ident_arg(text, paren);
        if (mechanism.empty()) {
          summary_.tag_errors.push_back(
              {tag.line, "malformed bounded tag: bounded(<mechanism>)"});
          continue;
        }
        bool hit = false;
        for (Site& s : summary_.sites)
          if (s.kind == Site::Kind::kContainer &&
              covers(tag, aline, s.line)) {
            s.bound = mechanism;
            hit = true;
          }
        if (!hit)
          summary_.tag_errors.push_back(
              {tag.line, "bounded(" + mechanism +
                             ") sits on no container declaration"});
        continue;
      }
      if (word == "allow") {
        std::string what, why;
        if (paren == std::string::npos ||
            !parse_paren_arg(text, paren, what, why)) {
          summary_.tag_errors.push_back(
              {tag.line, "malformed allow tag: allow(<what>, <why>)"});
          continue;
        }
        if (kAllowWhats.count(what) == 0) {
          summary_.tag_errors.push_back(
              {tag.line, "allow(" + what + ", ...): unknown rule; one of "
                         "signal-safety|alloc|provenance|lock-order|"
                         "metric-name|trace-catalog|typed-errors|ring-role|"
                         "hot-path-bound|spill-durability"});
          continue;
        }
        if (why.empty()) {
          summary_.tag_errors.push_back(
              {tag.line,
               "allow(" + what + ") needs a written justification: "
               "allow(" + what + ", <why>)"});
          continue;
        }
        if (!attach_allow(what, tag, aline))
          summary_.tag_errors.push_back(
              {tag.line, "allow(" + what + ", ...) suppresses nothing here"});
        continue;
      }
      if (word == "lock-name") {
        std::string name, rest;
        if (paren == std::string::npos ||
            !parse_paren_arg(text, paren, name, rest) || name.empty()) {
          summary_.tag_errors.push_back(
              {tag.line, "malformed lock-name tag: lock-name(<identity>)"});
          continue;
        }
        bool hit = false;
        for (FunctionInfo& fn : summary_.functions)
          for (LockAcquire& l : fn.locks)
            if (l.line >= aline && l.line - aline <= 2) {
              l.expr = "#" + name;  // '#' marks a pre-normalized identity
              hit = true;
            }
        if (!hit)
          summary_.tag_errors.push_back(
              {tag.line, "lock-name(" + name + ") names no acquisition"});
        continue;
      }
      summary_.tag_errors.push_back(
          {tag.line, "unknown dnh-analyze tag `" + word + "`"});
    }
  }

  std::vector<Token> toks_;
  std::vector<TagComment> tags_;
  std::size_t pos_ = 0;
  std::vector<Scope> scopes_;
  std::vector<Token> class_buf_;
  std::vector<Guard> guards_;
  /// Names bound to lambdas in the current function body (see scan_body_token).
  std::set<std::string> locals_;
  FileSummary summary_;
};

}  // namespace

std::string ring_side(const CallSite& call) {
  if (!call.member || call.name.rfind("try_", 0) != 0) return "";
  std::string op = call.name.substr(4);
  if (op.size() > 2 && op.compare(op.size() - 2, 2, "_n") == 0)
    op.resize(op.size() - 2);
  if (op == "push" || op == "produce") return "producer";
  if (op == "pop" || op == "consume") return "consumer";
  return "";
}

bool is_raw_write(const CallSite& call) {
  return call.name == "full_write" || call.name == "fwrite" ||
         (call.name == "write" && call.global);
}

FileSummary parse_file(const std::string& relpath, std::string_view text) {
  return Parser{relpath, lex_file(text)}.run();
}

void Program::index() {
  by_name.clear();
  members.clear();
  mutex_owners.clear();
  for (std::size_t f = 0; f < files.size(); ++f) {
    const FileSummary& file = files[f];
    for (std::size_t i = 0; i < file.functions.size(); ++i)
      by_name[file.functions[i].name].push_back({f, i});
    for (const auto& [cls, map] : file.members)
      for (const auto& [member, type] : map) members[cls][member] = type;
    for (const auto& [member, owners] : file.mutex_owners)
      for (const std::string& cls : owners) mutex_owners[member].insert(cls);
  }
}

}  // namespace dnh::analyze
