// dnh-analyze-fixture: path=src/dns/allow_stacked_sites.cpp expect=clean
// Two stacked allows above two sites, each naming a different rule: both
// measure their reach from the bottom of the stack, so the allocation
// (no-alloc) and the throw (typed-errors) below stay suppressed.
#include <string>

// dnh-analyze: hot
int drain(const char* wire) {
  if (wire == nullptr) return 0;
  // dnh-analyze: allow(alloc, reference branch, off by default)
  // dnh-analyze: allow(typed-errors, wraps a legacy API that throws)
  const std::string blob{wire};
  if (blob.empty()) throw 1;
  return static_cast<int>(blob.size());
}
