// FlowDatabase serialization: the paper's architecture (Fig. 1) stores
// labeled flows in a database for the off-line analyzer; this is the
// interchange format — a versioned TSV that round-trips every TaggedFlow
// field, loadable by the analyzer, the CLI, or anything that reads TSV.
//
// Free-text columns (fqdn, dpi_label, cert_cn, cert_san) hold names copied
// from the wire, so they are backslash-escaped: tab, newline, carriage
// return and backslash are written as \t, \n, \r and \\, and a ',' inside
// a SAN entry as \, (a raw ',' separates entries). A name without those
// bytes is written verbatim. Readers decode the escapes and treat any
// other byte after a backslash, or a trailing backslash, as a row error.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/flowdb.hpp"

namespace dnh::core {

/// Writes `db` as TSV with a "#dnhunter-flows v1" header line and one
/// column-documenting comment line. Returns the number of flows written;
/// the caller checks `out` for write errors.
std::size_t write_flow_tsv(const FlowDatabase& db, std::ostream& out);
/// Writes `db` to the file at `path` and flushes it. Returns the number of
/// flows written, or nullopt when the file cannot be opened or any write
/// (the final flush included) fails.
std::optional<std::size_t> write_flow_tsv(const FlowDatabase& db,
                                          const std::string& path);

/// Escapes free text the way write_flow_tsv escapes its text columns
/// (outside a SAN list), for other TSV writers that carry names.
std::string escape_tsv_field(std::string_view text);
/// Decodes a field written by escape_tsv_field into `out`, replacing its
/// contents. False on an unknown escape or a trailing backslash.
bool unescape_tsv_field(std::string_view field, std::string& out);

/// Reads a TSV produced by write_flow_tsv. Returns nullopt on a missing
/// file, bad header, or any malformed row (all-or-nothing).
std::optional<FlowDatabase> read_flow_tsv(std::istream& in);
std::optional<FlowDatabase> read_flow_tsv(const std::string& path);

/// How read_flow_tsv treats malformed rows.
enum class TsvReadMode {
  kStrict,   ///< any malformed row fails the whole read (default)
  kLenient,  ///< skip malformed rows, tallying them in TsvRowErrors
};

/// Per-category counts of rows skipped by a lenient read. All-zero after a
/// clean read; `total()` is the number of rows dropped.
struct TsvRowErrors {
  std::uint64_t bad_field_count = 0;  ///< wrong number of columns
  std::uint64_t bad_address = 0;      ///< unparseable client/server IP
  std::uint64_t bad_number = 0;       ///< non-numeric numeric field
  std::uint64_t bad_transport = 0;    ///< transport not "tcp"/"udp"
  std::uint64_t bad_protocol = 0;     ///< protocol class out of range
  std::uint64_t bad_escape = 0;       ///< unknown or dangling '\' escape

  std::uint64_t total() const noexcept {
    return bad_field_count + bad_address + bad_number + bad_transport +
           bad_protocol + bad_escape;
  }
};

/// Reads with explicit row-error policy. In kLenient mode a malformed row
/// is skipped and counted in `errors` rather than failing the read; only a
/// missing file or bad header returns nullopt. In kStrict mode behaves as
/// the two-argument overloads (errors still records the first bad row).
std::optional<FlowDatabase> read_flow_tsv(std::istream& in, TsvReadMode mode,
                                          TsvRowErrors& errors);
std::optional<FlowDatabase> read_flow_tsv(const std::string& path,
                                          TsvReadMode mode,
                                          TsvRowErrors& errors);

}  // namespace dnh::core
