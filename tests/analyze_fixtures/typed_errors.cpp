// dnh-analyze-fixture: path=src/dns/typed_errors.cpp expect=typed-errors@10
// Parse code under src/dns returns typed errors; a throw is flagged, the
// word in a comment or a "throw-away string" is not, and an allow with
// its reason silences one site.
#include <stdexcept>

namespace dnh::dns {

std::uint16_t parse_id(const std::uint8_t* data, std::size_t len) {
  if (len < 2) throw std::runtime_error("short DNS header");
  // dnh-analyze: allow(typed-errors, wraps a legacy API that throws)
  if (data == nullptr) throw std::invalid_argument("throw-away string");
  return static_cast<std::uint16_t>(data[0] << 8 | data[1]);
}

}  // namespace dnh::dns
