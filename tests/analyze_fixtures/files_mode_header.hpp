// dnh-analyze-fixture: path=src/pipeline/files_mode_header.hpp expect=ring-role@12
// Doubles as the `--files` mode probe: a header that belongs to no
// translation unit in compile_commands.json, scanned directly by the
// dnh_analyze_files_header test, which asserts the violation below still
// exits 1 (the site rules apply to every explicit --files input).
#pragma once

namespace dnh::pipeline {

template <typename Ring>
inline bool forward_frame(Ring& ring, int frame) {
  return ring.try_push(frame);
}

}  // namespace dnh::pipeline
