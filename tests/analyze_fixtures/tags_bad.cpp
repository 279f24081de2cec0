// dnh-analyze-fixture: path=fix/tags_bad.cpp expect=tag-syntax@4,tag-syntax@7,tag-syntax@9,tag-syntax@11,tag-syntax@14,tag-syntax@16,tag-syntax@17,tag-syntax@18,tag-syntax@19,tag-syntax@20
// Every malformed or floating tag is a finding: a tag that silently does
// nothing is worse than no tag.
// dnh-analyze: hot
int orphaned_by_distance = 0;

// dnh-analyze: allow(bogus-rule, not a rule)

// dnh-analyze: allow(alloc)

// dnh-analyze: frobnicate

int site_tags(int fd) {
  // dnh-analyze: ring-producer (no ring operation below)
  int v = fd + orphaned_by_distance;
  // dnh-analyze: bounded(sweep) (no container below)
  // dnh-analyze: bounded(2fast)
  // dnh-analyze: spill-write(nosync)
  // dnh-analyze: allow(typed-errors, a trace kind is no throw to silence)
  // dnh-analyze: allow(ring-role)
  return v + static_cast<int>(obs::TraceKind::kWindowSealed);
}
