// dnh-analyze-fixture: path=fix/noalloc_site_allows.cpp expect=no-alloc@18,no-alloc@27
// Site-level allows on the hot path. decode_name builds a std::string
// from wire bytes (flagged); compare carries a same-line allow
// (suppressed). That allow reaches two lines down, but neighbor's
// construction sits in another function: a tag inside one function
// never covers the next. The cold helper is unreachable from a hot root
// and may allocate freely.
#include <string>

std::string pretty(const char* wire) { return std::string{wire}; }

struct Reader {
  const char* data;
};

// dnh-analyze: hot
std::size_t decode_name(Reader& r) {
  std::string name{r.data};
  return name.size();
}

int compare(const char* wire) {
  if (wire == nullptr) return 0;
  if (*wire == '\0') return 1;
  return std::string{wire}.empty() ? 0 : 1;  // dnh-analyze: allow(alloc, A/B)
}
int neighbor(const char* wire) { return std::string{wire}.empty() ? 0 : 2; }

// dnh-analyze: hot
int on_packet(const char* wire) { return compare(wire) + neighbor(wire); }
