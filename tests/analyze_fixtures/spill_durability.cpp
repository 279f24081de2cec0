// dnh-analyze-fixture: path=src/pipeline/spill_durability.cpp expect=spill-durability@30,spill-durability@41,spill-durability@42,spill-durability@43
// Raw writes (full_write, ::write, fwrite) in spill code carry an
// ordering tag and an fsync follows within 4 lines, so a segment record
// is durable before the manifest line that references it (a crash in
// between must not leave the manifest pointing at unflushed bytes).
namespace dnh::pipeline {

bool full_write(int fd, const void* data, unsigned long size) {
  // dnh-analyze: allow(spill-durability, this loop is the durability
  // helper; every caller carries the ordering tag and the fsync)
  return ::write(fd, data, size) == static_cast<long>(size);
}

bool append_record(int fd, const char* frame, unsigned long size) {
  // dnh-analyze: spill-write(fsync) the record is on disk first
  if (!full_write(fd, frame, size)) return false;
  return ::fsync(fd) == 0;
}

bool append_manifest_line(int fd, const char* line, unsigned long size) {
  // dnh-analyze: manifest-append(fsync) durable before recovery reads it
  if (!full_write(fd, line, size)) return false;
  if (size == 0) return true;
  if (line[0] == '#') return true;
  return ::fsync(fd) == 0;
}

bool append_late_sync(int fd, const char* line, unsigned long size) {
  // dnh-analyze: spill-write(fsync) but the fsync drifted 5 lines away
  if (!full_write(fd, line, size)) return false;
  if (size == 0) return true;
  if (line[0] == '#') return true;
  if (line[0] == '!') return true;
  if (line[0] == '?') return true;
  return ::fsync(fd) == 0;
}

bool append_unsynced(int fd, const char* line, unsigned long size,
                     FILE* log) {
  // dnh-analyze: manifest-append(fsync) tagged, but the fsync was dropped
  if (!full_write(fd, line, size)) return false;
  fwrite(line, 1, size, log);
  return full_write(fd, line, size);
}

}  // namespace dnh::pipeline
