// Tokenizer for dnh-analyze: enough C++ lexing to recover call sites,
// scopes and declarations, while preserving line numbers and harvesting
// `// dnh-analyze:` tag comments. Deliberately not a full lexer — the
// analyzer is a heuristic tool and the parser downstream tolerates noise.
#include "analyze.hpp"

#include <cctype>

namespace dnh::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "alignas",      "alignof",  "auto",      "bool",     "break",
      "case",         "catch",    "char",      "class",    "const",
      "consteval",    "constexpr","constinit", "continue", "decltype",
      "default",      "delete",   "do",        "double",   "else",
      "enum",         "explicit", "extern",    "false",    "float",
      "for",          "friend",   "goto",      "if",       "inline",
      "int",          "long",     "mutable",   "namespace","new",
      "noexcept",     "nullptr",  "operator",  "private",  "protected",
      "public",       "requires", "return",    "short",    "signed",
      "sizeof",       "static",   "struct",    "switch",   "template",
      "this",         "throw",    "true",      "try",      "typedef",
      "typeid",       "typename", "union",     "unsigned", "using",
      "virtual",      "void",     "volatile",  "while",
      "static_cast",  "dynamic_cast", "reinterpret_cast", "const_cast",
      "co_await",     "co_return", "co_yield", "concept",
  };
  return kw;
}

/// Records a `dnh-analyze:` tag if the comment body carries one. The
/// marker must START the comment (after whitespace / doc-comment slashes)
/// so that prose *about* tags — e.g. this file's own documentation —
/// never parses as a tag.
std::string_view strip_comment_body(std::string_view comment) {
  while (!comment.empty() &&
         (comment.front() == ' ' || comment.front() == '\t' ||
          comment.front() == '/' || comment.front() == '*' ||
          comment.front() == '!' || comment.front() == '<'))
    comment.remove_prefix(1);
  while (!comment.empty() &&
         (comment.back() == ' ' || comment.back() == '\t' ||
          comment.back() == '\r'))
    comment.remove_suffix(1);
  return comment;
}

bool tag_parens_balanced(const std::string& text) {
  int depth = 0;
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
  }
  return depth <= 0;
}

bool harvest_tag(std::vector<TagComment>& tags, std::string_view comment,
                 int line) {
  const std::string_view body = strip_comment_body(comment);
  constexpr std::string_view kMarker = "dnh-analyze:";
  if (body.substr(0, kMarker.size()) != kMarker) return false;
  std::string_view rest = body.substr(kMarker.size());
  while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
    rest.remove_prefix(1);
  tags.push_back({line, line, std::string{rest}});
  return true;
}

}  // namespace

LexOutput lex_file(std::string_view text) {
  LexOutput out;
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool tag_continues = false;
  int tag_cont_line = 0;

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? text[i + k] : '\0';
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Preprocessor line (only when # starts the logical line content; a
    // cheap check is fine — findings never anchor inside directives).
    if (c == '#') {
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (text[i] == '\n') break;
        ++i;
      }
      continue;
    }
    // Line comment. A tag whose parens have not closed yet continues
    // onto immediately-following `//` lines, so long justifications in
    // allow(...) tags can wrap (the `|` gutter keeps this example from
    // being harvested as a live tag when the tool scans its own source):
    //   | // dnh-analyze: allow(alloc, first-sight arena growth is
    //   | // amortized away in steady state)
    if (c == '/' && peek(1) == '/') {
      const std::size_t start = i + 2;
      std::size_t end = start;
      while (end < n && text[end] != '\n') ++end;
      const std::string_view body = text.substr(start, end - start);
      if (tag_continues && tag_cont_line + 1 == line && !out.tags.empty()) {
        out.tags.back().text +=
            " " + std::string{strip_comment_body(body)};
        out.tags.back().end_line = line;
        tag_cont_line = line;
        tag_continues = !tag_parens_balanced(out.tags.back().text);
      } else if (harvest_tag(out.tags, body, line)) {
        tag_cont_line = line;
        tag_continues = !tag_parens_balanced(out.tags.back().text);
      } else {
        tag_continues = false;
      }
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      const int tag_line = line;
      const std::size_t start = i + 2;
      std::size_t end = start;
      while (end + 1 < n && !(text[end] == '*' && text[end + 1] == '/')) {
        if (text[end] == '\n') ++line;
        ++end;
      }
      harvest_tag(out.tags, text.substr(start, end - start), tag_line);
      i = end + 2 <= n ? end + 2 : n;
      continue;
    }
    // Raw string literal.
    if (c == 'R' && peek(1) == '"') {
      std::size_t d = i + 2;
      while (d < n && text[d] != '(') ++d;
      const std::string delim =
          ")" + std::string{text.substr(i + 2, d - (i + 2))} + "\"";
      const std::size_t close = text.find(delim, d);
      const std::size_t end = close == std::string_view::npos
                                  ? n
                                  : close + delim.size();
      for (std::size_t k = i; k < end; ++k)
        if (text[k] == '\n') ++line;
      out.tokens.push_back({Token::Kind::kString, "\"\"", line});
      i = end;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t end = i + 1;
      while (end < n && text[end] != quote) {
        if (text[end] == '\\' && end + 1 < n) ++end;
        if (text[end] == '\n') break;  // unterminated: bail at line end
        ++end;
      }
      // A string keeps its quoted spelling (never equal to a punctuator
      // the parser matches on); the metric-name rule reads the contents.
      out.tokens.push_back(
          {quote == '"' ? Token::Kind::kString : Token::Kind::kChar,
           quote == '"' ? std::string{text.substr(i, end + 1 - i)}
                        : std::string{"'\""},
           line});
      i = end < n ? end + 1 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t end = i + 1;
      while (end < n && ident_char(text[end])) ++end;
      std::string word{text.substr(i, end - i)};
      const bool kw = keywords().count(word) != 0;
      out.tokens.push_back({kw ? Token::Kind::kKeyword : Token::Kind::kIdent,
                            std::move(word), line});
      i = end;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t end = i + 1;
      while (end < n && (ident_char(text[end]) || text[end] == '.' ||
                         ((text[end] == '+' || text[end] == '-') &&
                          (text[end - 1] == 'e' || text[end - 1] == 'E'))))
        ++end;
      out.tokens.push_back(
          {Token::Kind::kNumber, std::string{text.substr(i, end - i)}, line});
      i = end;
      continue;
    }
    // Multi-char punctuation the parser cares about.
    if (c == ':' && peek(1) == ':') {
      out.tokens.push_back({Token::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      out.tokens.push_back({Token::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

}  // namespace dnh::analyze
