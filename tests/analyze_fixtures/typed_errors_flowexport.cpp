// dnh-analyze-fixture: path=src/flowexport/typed_errors.cpp expect=typed-errors@12,hot-path-bound@15
// Export-datagram parse code degrades through ExportParseError, never
// exceptions: a hostile datagram would otherwise unwind the ingest
// thread. src/flowexport is a hot-path directory too, so an IPFIX
// template cache with no declared bound is flagged.
#include <map>
#include <stdexcept>

namespace dnh::flowexport {

std::uint16_t parse_version(const std::uint8_t* data, std::size_t len) {
  if (len < 2) throw std::runtime_error("short export datagram");
  return static_cast<std::uint16_t>(data[0] << 8 | data[1]);
}
std::map<std::uint64_t, std::vector<std::uint16_t>> templates;

}  // namespace dnh::flowexport
