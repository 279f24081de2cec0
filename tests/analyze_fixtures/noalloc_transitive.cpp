// dnh-analyze-fixture: path=fix/noalloc_transitive.cpp expect=no-alloc@7,no-alloc@8
// Allocation two hops away from the hot root: a check confined to the
// tagged body cannot see this, the reachability rule must.
#include <string>

std::string label_for(int code) {
  std::string out = "code-";
  out += std::to_string(code);
  return out;
}

int classify(int code) { return static_cast<int>(label_for(code).size()); }

// dnh-analyze: hot
int on_packet(int code) { return classify(code); }
