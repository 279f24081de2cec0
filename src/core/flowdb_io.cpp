#include "core/flowdb_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>

#include "util/strings.hpp"

namespace dnh::core {
namespace {

constexpr std::string_view kHeader = "#dnhunter-flows v1";
constexpr std::string_view kColumns =
    "#client_ip\tserver_ip\tclient_port\tserver_port\ttransport\t"
    "first_us\tlast_us\tpkts_c2s\tpkts_s2c\tbytes_c2s\tbytes_s2c\t"
    "protocol\tfqdn\tdns_response_us\ttagged_at_start\tdpi_label\t"
    "cert_cn\tcert_san\thas_certificate\n";

/// The letter written after a backslash in place of byte `c`, or 0 when
/// `c` is written as itself. `san` also escapes the SAN separator.
constexpr char escape_code(char c, bool san) noexcept {
  switch (c) {
    case '\t': return 't';
    case '\n': return 'n';
    case '\r': return 'r';
    case '\\': return '\\';
    case ',': return san ? ',' : 0;
    default: return 0;
  }
}

/// Inverse of escape_code; 0 for an unknown escape.
constexpr char unescape_code(char code, bool san) noexcept {
  switch (code) {
    case 't': return '\t';
    case 'n': return '\n';
    case 'r': return '\r';
    case '\\': return '\\';
    case ',': return san ? ',' : 0;
    default: return 0;
  }
}

char* put_octet(char* p, unsigned v) noexcept {
  if (v >= 100) {
    *p++ = static_cast<char>('0' + v / 100);
    v %= 100;
    *p++ = static_cast<char>('0' + v / 10);
    v %= 10;
  } else if (v >= 10) {
    *p++ = static_cast<char>('0' + v / 10);
    v %= 10;
  }
  *p++ = static_cast<char>('0' + v);
  return p;
}

/// Formats TSV rows into one 64 KiB block and hands each full block to
/// the stream with a single write(). Text longer than the block passes
/// through it in pieces, so the block never grows and formatting a row
/// allocates nothing.
class BlockWriter {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  /// Room for the longest number ("-9223372036854775808") or dotted quad
  /// plus the separator that follows it.
  static constexpr std::size_t kScalarBytes = 24;

  explicit BlockWriter(std::ostream& out)
      : out_{out},
        block_{std::make_unique_for_overwrite<char[]>(kBlockBytes)} {}

  void flush() {
    out_.write(block_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

  /// Copies `s` verbatim.
  void raw(std::string_view s) {
    while (!s.empty()) {
      const std::size_t n = std::min(s.size(), kBlockBytes - used_);
      std::memcpy(block_.get() + used_, s.data(), n);
      used_ += n;
      s.remove_prefix(n);
      if (!s.empty()) flush();
    }
  }

  // dnh-analyze: hot
  void row(const TaggedFlow& flow) {
    address(flow.key.client_ip, '\t');
    address(flow.key.server_ip, '\t');
    number(flow.key.client_port, '\t');
    number(flow.key.server_port, '\t');
    raw(flow.key.transport == flow::Transport::kTcp ? "tcp\t" : "udp\t");
    number(flow.first_packet.micros_since_epoch(), '\t');
    number(flow.last_packet.micros_since_epoch(), '\t');
    number(flow.packets_c2s, '\t');
    number(flow.packets_s2c, '\t');
    number(flow.bytes_c2s, '\t');
    number(flow.bytes_s2c, '\t');
    number(static_cast<int>(flow.protocol), '\t');
    text(flow.fqdn, false);
    put('\t');
    number(flow.dns_response_time.micros_since_epoch(), '\t');
    number(flow.tagged_at_start ? 1 : 0, '\t');
    text(flow.dpi_label, false);
    put('\t');
    text(flow.cert_cn, false);
    put('\t');
    // v1 join: a ',' precedes an entry only once an earlier entry wrote
    // text, so leading empty entries leave no trace.
    bool joined = false;
    for (const auto& name : flow.cert_san) {
      if (joined) put(',');
      text(name, true);
      joined = joined || !name.empty();
    }
    put('\t');
    number(flow.has_certificate ? 1 : 0, '\n');
  }

 private:
  /// The next `n` free bytes, flushing first if the block lacks them.
  char* room(std::size_t n) {
    if (kBlockBytes - used_ < n) flush();
    return block_.get() + used_;
  }

  void put(char c) {
    *room(1) = c;
    ++used_;
  }

  template <typename T>
  void number(T value, char sep) {
    char* p = room(kScalarBytes);
    p = std::to_chars(p, p + kScalarBytes, value).ptr;
    *p++ = sep;
    used_ = static_cast<std::size_t>(p - block_.get());
  }

  void address(net::Ipv4Address a, char sep) {
    char* p = room(kScalarBytes);
    p = put_octet(p, a.octet(0));
    for (int i = 1; i < 4; ++i) {
      *p++ = '.';
      p = put_octet(p, a.octet(i));
    }
    *p++ = sep;
    used_ = static_cast<std::size_t>(p - block_.get());
  }

  /// Free text, backslash-escaped (see flowdb_io.hpp).
  void text(std::string_view s, bool san) {
    std::size_t plain = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char code = escape_code(s[i], san);
      if (code == 0) continue;
      raw(s.substr(plain, i - plain));
      char* p = room(2);
      p[0] = '\\';
      p[1] = code;
      used_ += 2;
      plain = i + 1;
    }
    raw(s.substr(plain));
  }

  std::ostream& out_;
  std::unique_ptr<char[]> block_;
  std::size_t used_ = 0;
};

/// Appends the bytes `field` encodes to `out`. False on an unknown escape
/// or a trailing backslash.
bool unescape_append(std::string_view field, std::string& out) {
  for (std::size_t i = 0; i < field.size(); ++i) {
    char c = field[i];
    if (c == '\\' &&
        (++i == field.size() || (c = unescape_code(field[i], false)) == 0))
      return false;
    out += c;
  }
  return true;
}

/// Splits the cert_san column on unescaped ',' and decodes each entry.
bool parse_san(std::string_view field, std::vector<std::string>& out) {
  if (field.empty()) return true;
  out.emplace_back();
  for (std::size_t i = 0; i < field.size(); ++i) {
    char c = field[i];
    if (c == ',') {
      out.emplace_back();
      continue;
    }
    if (c == '\\' &&
        (++i == field.size() || (c = unescape_code(field[i], true)) == 0))
      return false;
    out.back() += c;
  }
  return true;
}

template <typename T>
bool parse_int(std::string_view field, T& out) {
  const auto result =
      std::from_chars(field.data(), field.data() + field.size(), out);
  return result.ec == std::errc{} &&
         result.ptr == field.data() + field.size();
}

}  // namespace

std::string escape_tsv_field(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const char code = escape_code(c, false);
    if (code == 0) {
      out += c;
    } else {
      out += '\\';
      out += code;
    }
  }
  return out;
}

bool unescape_tsv_field(std::string_view field, std::string& out) {
  out.clear();
  return unescape_append(field, out);
}

std::size_t write_flow_tsv(const FlowDatabase& db, std::ostream& out) {
  BlockWriter writer{out};
  writer.raw(kHeader);
  writer.raw("\n");
  writer.raw(kColumns);
  for (const auto& flow : db.flows()) writer.row(flow);
  writer.flush();
  return db.size();
}

std::optional<std::size_t> write_flow_tsv(const FlowDatabase& db,
                                          const std::string& path) {
  std::ofstream out{path};
  if (!out) return std::nullopt;
  const std::size_t n = write_flow_tsv(db, out);
  out.close();  // flushes: a full disk must fail here, not go unnoticed
  if (!out) return std::nullopt;
  return n;
}

namespace {

enum class RowError {
  kNone,
  kFieldCount,
  kAddress,
  kNumber,
  kTransport,
  kProtocol,
  kEscape,
};

/// Parses one row into `flow`. An escaped fqdn is decoded into
/// `fqdn_scratch`, which must outlive the flow's add().
RowError parse_row(std::string_view line, TaggedFlow& flow,
                   std::string& fqdn_scratch) {
  const auto fields = util::split(line, '\t');
  if (fields.size() != 19) return RowError::kFieldCount;

  const auto client = net::Ipv4Address::parse(fields[0]);
  const auto server = net::Ipv4Address::parse(fields[1]);
  if (!client || !server) return RowError::kAddress;
  flow.key.client_ip = *client;
  flow.key.server_ip = *server;

  std::int64_t first_us = 0, last_us = 0, dns_us = 0;
  int protocol = 0, tagged = 0, has_cert = 0;
  if (!parse_int(fields[2], flow.key.client_port) ||
      !parse_int(fields[3], flow.key.server_port) ||
      !parse_int(fields[5], first_us) || !parse_int(fields[6], last_us) ||
      !parse_int(fields[7], flow.packets_c2s) ||
      !parse_int(fields[8], flow.packets_s2c) ||
      !parse_int(fields[9], flow.bytes_c2s) ||
      !parse_int(fields[10], flow.bytes_s2c) ||
      !parse_int(fields[11], protocol) ||
      !parse_int(fields[13], dns_us) || !parse_int(fields[14], tagged) ||
      !parse_int(fields[18], has_cert))
    return RowError::kNumber;
  if (fields[4] == "tcp") {
    flow.key.transport = flow::Transport::kTcp;
  } else if (fields[4] == "udp") {
    flow.key.transport = flow::Transport::kUdp;
  } else {
    return RowError::kTransport;
  }
  if (protocol < 0 ||
      protocol > static_cast<int>(flow::ProtocolClass::kOther))
    return RowError::kProtocol;
  flow.protocol = static_cast<flow::ProtocolClass>(protocol);
  flow.first_packet = util::Timestamp::from_micros(first_us);
  flow.last_packet = util::Timestamp::from_micros(last_us);
  flow.dns_response_time = util::Timestamp::from_micros(dns_us);
  flow.tagged_at_start = tagged != 0;
  // View into the caller's line buffer (or the scratch, when escaped);
  // FlowDatabase::add re-interns it.
  flow.fqdn = fields[12];
  if (flow.fqdn.find('\\') != std::string_view::npos) {
    if (!unescape_tsv_field(flow.fqdn, fqdn_scratch)) return RowError::kEscape;
    flow.fqdn = fqdn_scratch;
  }
  if (!unescape_append(fields[15], flow.dpi_label) ||
      !unescape_append(fields[16], flow.cert_cn) ||
      !parse_san(fields[17], flow.cert_san))
    return RowError::kEscape;
  flow.has_certificate = has_cert != 0;
  return RowError::kNone;
}

void count_row_error(RowError error, TsvRowErrors& errors) {
  switch (error) {
    case RowError::kFieldCount: ++errors.bad_field_count; break;
    case RowError::kAddress: ++errors.bad_address; break;
    case RowError::kNumber: ++errors.bad_number; break;
    case RowError::kTransport: ++errors.bad_transport; break;
    case RowError::kProtocol: ++errors.bad_protocol; break;
    case RowError::kEscape: ++errors.bad_escape; break;
    case RowError::kNone: break;
  }
}

}  // namespace

std::optional<FlowDatabase> read_flow_tsv(std::istream& in) {
  TsvRowErrors errors;
  return read_flow_tsv(in, TsvReadMode::kStrict, errors);
}

std::optional<FlowDatabase> read_flow_tsv(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  return read_flow_tsv(in);
}

std::optional<FlowDatabase> read_flow_tsv(std::istream& in, TsvReadMode mode,
                                          TsvRowErrors& errors) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) return std::nullopt;

  FlowDatabase db;
  std::string fqdn_scratch;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    TaggedFlow flow;
    const RowError row_error = parse_row(line, flow, fqdn_scratch);
    if (row_error != RowError::kNone) {
      count_row_error(row_error, errors);
      if (mode == TsvReadMode::kStrict) return std::nullopt;
      continue;  // lenient: a damaged row must not discard the database
    }
    db.add(std::move(flow));
  }
  return db;
}

std::optional<FlowDatabase> read_flow_tsv(const std::string& path,
                                          TsvReadMode mode,
                                          TsvRowErrors& errors) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  return read_flow_tsv(in, mode, errors);
}

}  // namespace dnh::core
