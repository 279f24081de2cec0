#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "faultinject/faultinject.hpp"
#include "packet/build.hpp"
#include "pcap/pcap.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/pipeline.hpp"
#include "tests/counting_alloc.hpp"

namespace dnh::pcap {
namespace {

namespace fs = std::filesystem;

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: `ctest -j` runs cases as separate processes,
    // and a shared directory would let one TearDown delete another's files.
    dir_ = fs::temp_directory_path() /
           ("dnh_pcap_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

Frame make_frame(std::int64_t us, std::initializer_list<std::uint8_t> bytes) {
  Frame f;
  f.timestamp = util::Timestamp::from_micros(us);
  f.data.assign(bytes);
  f.original_length = static_cast<std::uint32_t>(f.data.size());
  return f;
}

TEST_F(PcapTest, WriteReadRoundTrip) {
  const std::string p = path("roundtrip.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'123, {1, 2, 3, 4}));
    writer->write(make_frame(2'500'456, {9, 8, 7}));
  }
  auto reader = Reader::open(p);
  Frame scratch;
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);

  Frame f1;
  ASSERT_TRUE(reader->next(f1));
  EXPECT_EQ(f1.timestamp.micros_since_epoch(), 1'000'123);
  EXPECT_EQ(f1.data, (net::Bytes{1, 2, 3, 4}));
  EXPECT_EQ(f1.original_length, 4u);

  Frame f2;
  ASSERT_TRUE(reader->next(f2));
  EXPECT_EQ(f2.data.size(), 3u);

  EXPECT_FALSE(reader->next(scratch));
  EXPECT_TRUE(reader->error().empty()) << reader->error();
  EXPECT_EQ(reader->frames_read(), 2u);
}

TEST_F(PcapTest, EmptyFileHasNoFramesButValidHeader) {
  const std::string p = path("empty.pcap");
  { ASSERT_TRUE(Writer::create(p)); }
  auto reader = Reader::open(p);
  Frame scratch;
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next(scratch));
  EXPECT_TRUE(reader->error().empty());
}

TEST_F(PcapTest, MissingFileFailsToOpen) {
  EXPECT_FALSE(Reader::open(path("does_not_exist.pcap")));
}

TEST_F(PcapTest, GarbageMagicRejected) {
  const std::string p = path("garbage.pcap");
  std::ofstream out{p, std::ios::binary};
  out.write("not a pcap file at all, padding padding", 40);
  out.close();
  EXPECT_FALSE(Reader::open(p));
}

TEST_F(PcapTest, TruncatedGlobalHeaderRejected) {
  const std::string p = path("short.pcap");
  std::ofstream out{p, std::ios::binary};
  const char magic[] = {'\xd4', '\xc3', '\xb2', '\xa1'};
  out.write(magic, 4);
  out.close();
  EXPECT_FALSE(Reader::open(p));
}

TEST_F(PcapTest, TruncatedRecordReportsError) {
  const std::string p = path("truncrec.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1, {1, 2, 3, 4, 5, 6, 7, 8}));
  }
  // Chop the last 4 bytes of the record body.
  fs::resize_file(p, fs::file_size(p) - 4);
  auto reader = Reader::open(p);
  Frame scratch;
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next(scratch));
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapTest, ImplausibleRecordLengthReportsError) {
  const std::string p = path("hugelen.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
  }
  std::ofstream out{p, std::ios::binary | std::ios::app};
  // Record header claiming a 100MB body.
  const std::uint32_t rec[4] = {0, 0, 100u * 1024 * 1024, 100u * 1024 * 1024};
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.close();
  auto reader = Reader::open(p);
  Frame scratch;
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next(scratch));
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapTest, ReadsSwappedByteOrder) {
  const std::string p = path("swapped.pcap");
  std::ofstream out{p, std::ios::binary};
  // Big-endian global header written byte-by-byte (we are little-endian).
  const unsigned char gh[] = {
      0xa1, 0xb2, 0xc3, 0xd4,  // magic in file byte order != host order
      0x00, 0x02, 0x00, 0x04,  // version 2.4
      0, 0, 0, 0, 0, 0, 0, 0,  // thiszone, sigfigs
      0x00, 0x00, 0xff, 0xff,  // snaplen
      0x00, 0x00, 0x00, 0x01,  // linktype ethernet
  };
  out.write(reinterpret_cast<const char*>(gh), sizeof gh);
  const unsigned char rec[] = {
      0x00, 0x00, 0x00, 0x05,  // ts_sec = 5
      0x00, 0x00, 0x00, 0x0a,  // ts_usec = 10
      0x00, 0x00, 0x00, 0x02,  // incl_len = 2
      0x00, 0x00, 0x00, 0x02,  // orig_len = 2
      0xde, 0xad,
  };
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.close();

  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);
  Frame f;
  ASSERT_TRUE(reader->next(f));
  EXPECT_EQ(f.timestamp.micros_since_epoch(), 5'000'010);
  EXPECT_EQ(f.data, (net::Bytes{0xde, 0xad}));
}

TEST_F(PcapTest, NanosecondMagicConvertedToMicros) {
  const std::string p = path("nanos.pcap");
  std::ofstream out{p, std::ios::binary};
  const std::uint32_t gh[6] = {0xa1b23c4d, 0x00040002u, 0, 0, 65535, 1};
  // Note: version field is (major|minor<<16) little-endian = 2,4.
  std::uint32_t fixed_gh[6];
  std::memcpy(fixed_gh, gh, sizeof gh);
  fixed_gh[1] = 2 | (4u << 16);
  out.write(reinterpret_cast<const char*>(fixed_gh), sizeof fixed_gh);
  const std::uint32_t rec[4] = {7, 123'456'789, 1, 1};
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.put('\x42');
  out.close();

  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  Frame f;
  ASSERT_TRUE(reader->next(f));
  EXPECT_EQ(f.timestamp.micros_since_epoch(), 7'000'000 + 123'456);
}

TEST_F(PcapTest, OriginalLengthPreservedWhenLargerThanCaptured) {
  const std::string p = path("snap.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    Frame f = make_frame(1, {1, 2, 3});
    f.original_length = 1500;
    writer->write(f);
  }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  Frame f;
  ASSERT_TRUE(reader->next(f));
  EXPECT_EQ(f.data.size(), 3u);
  EXPECT_EQ(f.original_length, 1500u);
}

TEST_F(PcapTest, ManyFramesStreamCleanly) {
  const std::string p = path("many.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 5000; ++i)
      writer->write(make_frame(i * 100, {static_cast<std::uint8_t>(i)}));
    EXPECT_EQ(writer->frames_written(), 5000u);
  }
  auto reader = Reader::open(p);
  Frame scratch;
  ASSERT_TRUE(reader);
  std::uint64_t n = 0;
  while (reader->next(scratch)) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_TRUE(reader->error().empty());
}

// ----------------------------------------------------- resync recovery

/// Reads all bytes of a file.
std::vector<std::uint8_t> slurp(const std::string& p) {
  std::ifstream in{p, std::ios::binary};
  return {std::istreambuf_iterator<char>{in},
          std::istreambuf_iterator<char>{}};
}

/// Overwrites a file with the given bytes.
void dump(const std::string& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out{p, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST_F(PcapTest, ResyncSkipsMidFileGarbage) {
  const std::string p = path("garbage.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'000, {1, 2, 3, 4}));
    writer->write(make_frame(2'000'000, {5, 6, 7, 8}));
  }
  // Splice 100 bytes of 0xff between the two records (after the 24-byte
  // global header, the 16-byte record header and the 4-byte body).
  auto bytes = slurp(p);
  ASSERT_EQ(bytes.size(), 24u + 2 * (16 + 4));
  bytes.insert(bytes.begin() + 24 + 16 + 4, 100, 0xff);
  dump(p, bytes);

  // Strict mode: the garbage terminates the stream with an error.
  {
    auto reader = Reader::open(p);
    Frame scratch;
    ASSERT_TRUE(reader);
    ASSERT_TRUE(reader->next(scratch));
    EXPECT_FALSE(reader->next(scratch));
    EXPECT_FALSE(reader->error().empty());
  }
  // Resync mode: both frames recovered, damage accounted.
  auto reader = Reader::open(p, Reader::Mode::kResync);
  Frame scratch;
  ASSERT_TRUE(reader);
  Frame f1;
  ASSERT_TRUE(reader->next(f1));
  EXPECT_EQ(f1.data, (net::Bytes{1, 2, 3, 4}));
  Frame f2;
  ASSERT_TRUE(reader->next(f2));
  EXPECT_EQ(f2.data, (net::Bytes{5, 6, 7, 8}));
  EXPECT_FALSE(reader->next(scratch));
  EXPECT_TRUE(reader->error().empty());
  EXPECT_EQ(reader->corruption().resyncs, 1u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 100u);
  EXPECT_EQ(reader->corruption().truncated_tail, 0u);
}

TEST_F(PcapTest, ResyncSkipsRecordWithLyingLength) {
  const std::string p = path("lie.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 3; ++i)
      writer->write(make_frame(i * 1'000'000, {0xaa, 0xbb, 0xcc}));
  }
  // Lie in the middle record's incl_len: implausibly huge.
  auto bytes = slurp(p);
  const std::size_t second_header = 24 + (16 + 3);
  const std::uint32_t lie = 0x10000000;
  std::memcpy(bytes.data() + second_header + 8, &lie, 4);
  dump(p, bytes);

  auto reader = Reader::open(p, Reader::Mode::kResync);
  Frame scratch;
  ASSERT_TRUE(reader);
  std::uint64_t frames = 0;
  while (reader->next(scratch)) ++frames;
  // The lying record is unrecoverable; its neighbours survive.
  EXPECT_EQ(frames, 2u);
  EXPECT_TRUE(reader->error().empty());
  EXPECT_EQ(reader->corruption().resyncs, 1u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 16u + 3u);
}

TEST_F(PcapTest, ResyncCountsTruncatedTail) {
  const std::string p = path("tail.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'000, {1, 2, 3, 4, 5, 6}));
    writer->write(make_frame(2'000'000, {7, 8, 9, 10, 11, 12}));
  }
  auto bytes = slurp(p);
  bytes.resize(bytes.size() - 3);  // cut into the last record body
  dump(p, bytes);

  auto reader = Reader::open(p, Reader::Mode::kResync);
  Frame scratch;
  ASSERT_TRUE(reader);
  ASSERT_TRUE(reader->next(scratch));
  EXPECT_FALSE(reader->next(scratch));
  EXPECT_TRUE(reader->error().empty());  // resync mode never sets error
  EXPECT_EQ(reader->corruption().truncated_tail, 1u);
  EXPECT_EQ(reader->corruption().events(), 1u);
}

TEST_F(PcapTest, ResyncModeOnCleanFileIsInvisible) {
  const std::string p = path("clean.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 100; ++i)
      writer->write(make_frame(i * 1000, {static_cast<std::uint8_t>(i)}));
  }
  auto reader = Reader::open(p, Reader::Mode::kResync);
  Frame scratch;
  ASSERT_TRUE(reader);
  std::uint64_t n = 0;
  while (reader->next(scratch)) ++n;
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(reader->corruption().events(), 0u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 0u);
}

// ------------------------------------------------ block-buffered reading

constexpr std::size_t kGlobalHeaderBytes = 24;
constexpr std::size_t kRecordHeaderBytes = 16;

/// A frame of `size` bytes whose content encodes `index`.
Frame numbered_frame(std::size_t index, std::size_t size) {
  Frame f;
  f.timestamp = util::Timestamp::from_micros(
      1'000'000 + static_cast<std::int64_t>(index) * 1000);
  f.data.resize(size);
  for (std::size_t i = 0; i < size; ++i)
    f.data[i] = static_cast<std::uint8_t>(index * 31 + i);
  f.original_length = static_cast<std::uint32_t>(size);
  return f;
}

/// Frames laid out so that the first read-block boundary (file offset
/// kReadBlockBytes) falls `split` bytes into frame 5's record, which
/// carries a `body`-byte body. Three more frames follow it.
std::vector<Frame> frames_split_at(std::size_t split, std::size_t body) {
  std::vector<Frame> frames;
  std::size_t offset = kGlobalHeaderBytes;
  for (std::size_t i = 0; i < 4; ++i) {
    frames.push_back(numbered_frame(i, 200'000));
    offset += kRecordHeaderBytes + 200'000;
  }
  // Frame 4 pads so frame 5 starts at kReadBlockBytes - split.
  const std::size_t start = kReadBlockBytes - split;
  frames.push_back(numbered_frame(4, start - offset - kRecordHeaderBytes));
  frames.push_back(numbered_frame(5, body));
  for (std::size_t i = 6; i < 9; ++i) frames.push_back(numbered_frame(i, 64));
  return frames;
}

void write_frames(const std::string& p, const std::vector<Frame>& frames) {
  auto writer = Writer::create(p);
  ASSERT_TRUE(writer);
  for (const auto& f : frames) writer->write(f);
}

/// Reads every frame of `p`; fails the test on a reader error.
std::vector<Frame> read_frames(const std::string& p,
                               Reader::Mode mode = Reader::Mode::kStrict) {
  std::vector<Frame> out;
  auto reader = Reader::open(p, mode);
  EXPECT_TRUE(reader);
  if (!reader) return out;
  Frame frame;
  while (reader->next(frame)) out.push_back(frame);
  EXPECT_TRUE(reader->error().empty()) << reader->error();
  return out;
}

void expect_same_frames(const std::vector<Frame>& got,
                        const std::vector<Frame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << "frame " << i;
    EXPECT_EQ(got[i].original_length, want[i].original_length) << "frame " << i;
    EXPECT_TRUE(got[i].data == want[i].data) << "frame " << i;
  }
}

TEST_F(PcapTest, RecordStraddlingTheBlockBoundaryReadsIntact) {
  // At the record start, inside the header, at the body start, mid-body.
  for (const std::size_t split : {std::size_t{0}, std::size_t{8},
                                  kRecordHeaderBytes, std::size_t{700}}) {
    const std::string p = path("straddle.pcap");
    const auto frames = frames_split_at(split, 1500);
    write_frames(p, frames);
    expect_same_frames(read_frames(p), frames);
  }
}

TEST_F(PcapTest, MaxSizeRecordReadsAcrossTheBlockBoundary) {
  const std::string p = path("max.pcap");
  const auto frames = frames_split_at(1000, kMaxRecordBytes);
  write_frames(p, frames);
  expect_same_frames(read_frames(p), frames);

  // One byte more is corruption, and strict mode says so.
  const std::string over = path("over.pcap");
  write_frames(over, {numbered_frame(0, 64),
                      numbered_frame(1, kMaxRecordBytes + 1)});
  auto reader = Reader::open(over);
  ASSERT_TRUE(reader);
  Frame frame;
  EXPECT_TRUE(reader->next(frame));
  EXPECT_FALSE(reader->next(frame));
  EXPECT_EQ(reader->error(), "implausible record length");
}

TEST_F(PcapTest, ResyncRecoversDamageAfterTheFirstBlock) {
  const std::string p = path("late_damage.pcap");
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < 3000; ++i)
    frames.push_back(numbered_frame(i, 1000));
  write_frames(p, frames);
  // Splice 300 bytes of garbage between two records ~1.5 MiB in, deep in
  // the second read block.
  const std::size_t record = kRecordHeaderBytes + 1000;
  const std::size_t at = kGlobalHeaderBytes + 1500 * record;
  ASSERT_GT(at, kReadBlockBytes);
  auto bytes = slurp(p);
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), 300, 0xee);
  dump(p, bytes);

  {
    auto reader = Reader::open(p);
    ASSERT_TRUE(reader);
    Frame frame;
    std::size_t n = 0;
    while (reader->next(frame)) ++n;
    EXPECT_EQ(n, 1500u);
    EXPECT_EQ(reader->error(), "implausible record length");
  }
  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  std::vector<Frame> got;
  Frame frame;
  while (reader->next(frame)) got.push_back(frame);
  expect_same_frames(got, frames);
  EXPECT_EQ(reader->corruption().resyncs, 1u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 300u);
  EXPECT_EQ(reader->corruption().truncated_tail, 0u);
}

TEST_F(PcapTest, TruncatedTailInsideABlockEndsTheStream) {
  const std::string p = path("tail_in_block.pcap");
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < 1200; ++i)
    frames.push_back(numbered_frame(i, 1000));
  write_frames(p, frames);
  // Cut 400 bytes into the last record's body: the cut lies in the second
  // block, behind a run of whole records in the same block.
  const std::size_t size = fs::file_size(p);
  ASSERT_GT(size, kReadBlockBytes);
  fs::resize_file(p, size - 600);
  frames.pop_back();

  {
    auto reader = Reader::open(p);
    ASSERT_TRUE(reader);
    Frame frame;
    std::size_t n = 0;
    while (reader->next(frame)) ++n;
    EXPECT_EQ(n, frames.size());
    EXPECT_EQ(reader->error(), "truncated record body");
  }
  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  std::vector<Frame> got;
  Frame frame;
  while (reader->next(frame)) got.push_back(frame);
  expect_same_frames(got, frames);
  EXPECT_TRUE(reader->error().empty());
  EXPECT_EQ(reader->corruption().truncated_tail, 1u);
  EXPECT_EQ(reader->corruption().bytes_skipped, kRecordHeaderBytes + 400);
}

// ------------------------------------------------------ view reading

/// A BlockSource that never reuses a block, so every view it backs stays
/// readable for the test's lifetime; it tallies the reader's traffic.
class FakeBlockSource final : public BlockSource {
 public:
  unsigned char* acquire() override {
    blocks_.push_back(std::make_unique<unsigned char[]>(kReadBlockBytes));
    return blocks_.back().get();
  }
  void release(unsigned char* block) override {
    EXPECT_EQ(std::count(released_.begin(), released_.end(), block), 0)
        << "block released twice";
    released_.push_back(block);
  }

  std::size_t acquired() const { return blocks_.size(); }
  std::size_t released() const { return released_.size(); }
  /// Index of the block `p` points into, or acquired() if none.
  std::size_t block_of(const unsigned char* p) const {
    for (std::size_t i = 0; i < blocks_.size(); ++i)
      if (p >= blocks_[i].get() && p < blocks_[i].get() + kReadBlockBytes)
        return i;
    return blocks_.size();
  }

 private:
  std::vector<std::unique_ptr<unsigned char[]>> blocks_;
  std::vector<unsigned char*> released_;
};

/// Reads every frame of `p` as views through `source`.
std::vector<FrameView> read_views(const std::string& p,
                                  FakeBlockSource& source,
                                  Reader::Mode mode = Reader::Mode::kStrict) {
  std::vector<FrameView> out;
  auto reader = Reader::open(p, mode, &source);
  EXPECT_TRUE(reader);
  if (!reader) return out;
  FrameView view;
  while (reader->next(view)) out.push_back(view);
  EXPECT_TRUE(reader->error().empty()) << reader->error();
  // Every block but the one the reader may still hold has come back.
  EXPECT_LE(source.acquired() - source.released(), 1u);
  return out;
}

void expect_views_match(const std::vector<FrameView>& got,
                        const std::vector<Frame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << "frame " << i;
    EXPECT_EQ(got[i].original_length, want[i].original_length) << "frame " << i;
    EXPECT_TRUE(std::equal(got[i].data.begin(), got[i].data.end(),
                           want[i].data.begin(), want[i].data.end()))
        << "frame " << i;
  }
}

TEST_F(PcapTest, ViewsKeepTheirBytesUntilTheirBlockIsRecycled) {
  // Frame 5 straddles the first block boundary; 1200 more 2 KB frames
  // carry the file across at least three blocks.
  const std::string p = path("views.pcap");
  auto frames = frames_split_at(700, 1500);
  for (std::size_t i = 0; i < 1200; ++i)
    frames.push_back(numbered_frame(9 + i, 2000));
  write_frames(p, frames);

  FakeBlockSource source;
  std::vector<FrameView> views;
  {
    views = read_views(p, source);
    EXPECT_GE(source.acquired(), 3u);
  }
  // The reader is gone and every block is back with the source, which has
  // reused none of them: each view still reads its original bytes.
  EXPECT_EQ(source.released(), source.acquired());
  expect_views_match(views, frames);
  // The straddling record was carried whole into the second block.
  EXPECT_EQ(source.block_of(views[4].data.data()), 0u);
  EXPECT_EQ(source.block_of(views[5].data.data()), 1u);
  std::set<std::size_t> used;
  for (const auto& view : views) used.insert(source.block_of(view.data.data()));
  EXPECT_GE(used.size(), 3u);
  EXPECT_EQ(used.count(source.acquired()), 0u) << "a view outside every block";
}

TEST_F(PcapTest, ResyncHandsItsBlockBackToTheSource) {
  // Damage deep in the second block: the resync drops that block, so it
  // must go back to the source, and the views read from it before the
  // damage must survive the refill that follows.
  const std::string p = path("views_damage.pcap");
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < 3000; ++i)
    frames.push_back(numbered_frame(i, 1000));
  write_frames(p, frames);
  const std::size_t at = kGlobalHeaderBytes + 1500 * (kRecordHeaderBytes + 1000);
  auto bytes = slurp(p);
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), 300, 0xee);
  dump(p, bytes);

  FakeBlockSource source;
  std::vector<FrameView> views;
  {
    auto reader = Reader::open(p, Reader::Mode::kResync, &source);
    ASSERT_TRUE(reader);
    FrameView view;
    while (reader->next(view)) views.push_back(view);
    EXPECT_EQ(reader->corruption().resyncs, 1u);
    EXPECT_EQ(source.released() + 1, source.acquired());
    // The damaged block was handed back and a fresh one taken: no view
    // before the damage shares a block with a view after it.
    EXPECT_NE(source.block_of(views[1499].data.data()),
              source.block_of(views[1500].data.data()));
  }
  EXPECT_EQ(source.released(), source.acquired());
  expect_views_match(views, frames);
}

TEST_F(PcapTest, FrameAndViewReadsYieldIdenticalFrames) {
  const std::string clean = path("same_clean.pcap");
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < 4000; ++i)
    frames.push_back(numbered_frame(i, 60 + (i * 37) % 1400));
  write_frames(clean, frames);
  ASSERT_GT(fs::file_size(clean), 2 * kReadBlockBytes);

  faultinject::FileFaultConfig faults;
  faults.seed = 5;
  faults.garbage_run_rate = 0.004;
  faults.length_lie_rate = 0.002;
  faults.truncate_tail = true;
  const std::string damaged = path("same_damaged.pcap");
  const auto report = faultinject::corrupt_pcap_file(clean, damaged, faults);
  ASSERT_TRUE(report);
  ASSERT_GT(report->faults(), 2u);

  for (const auto& [p, mode] :
       {std::pair{clean, Reader::Mode::kStrict},
        std::pair{clean, Reader::Mode::kResync},
        std::pair{damaged, Reader::Mode::kResync}}) {
    const std::vector<Frame> copied = read_frames(p, mode);
    // Views through a block source, and views from the reader's own block
    // (copied before the next read, which may move that block's bytes).
    FakeBlockSource source;
    expect_views_match(read_views(p, source, mode), copied);
    auto reader = Reader::open(p, mode);
    ASSERT_TRUE(reader);
    std::vector<Frame> own;
    FrameView view;
    while (reader->next(view)) own.emplace_back().assign(view);
    expect_same_frames(own, copied);
    if (p == damaged) {
      EXPECT_GE(reader->corruption().events(), 1u);
      EXPECT_LE(reader->corruption().events(), report->faults());
      EXPECT_LT(copied.size(), frames.size());
    } else {
      expect_same_frames(copied, frames);
    }
  }
}

TEST_F(PcapTest, SteadyStateReadAnyCaptureAllocatesNothing) {
  // Over 2 MiB of frames, largest first, so the reused Frame reaches its
  // final capacity on frame 0 and every later read, block refills
  // included, recycles memory.
  const std::string p = path("steady.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(numbered_frame(0, 1514));
    for (std::size_t i = 1; i < 4000; ++i)
      writer->write(numbered_frame(i, 60 + (i * 37) % 1400));
  }
  ASSERT_GT(fs::file_size(p), 2 * kReadBlockBytes);
  std::uint64_t frames = 0;
  std::uint64_t at_warm = 0;
  std::uint64_t at_last = 0;
  std::string error;
  ASSERT_TRUE(read_any_capture(
      p,
      [&](const Frame&) {
        ++frames;
        if (frames == 100) at_warm = counting_alloc::total();
        at_last = counting_alloc::total();
      },
      error))
      << error;
  EXPECT_EQ(frames, 4000u);
  EXPECT_EQ(at_last - at_warm, 0u)
      << "allocations across " << frames - 100 << " steady-state frames";
}

TEST_F(PcapTest, PipelineDispatchAllocatesNothingAfterWarmUp) {
  // Valid UDP frames from 200 clients over more than eight read blocks,
  // so the dispatcher's frame pool recycles blocks many times over.
  const std::string p = path("dispatch.pcap");
  constexpr std::size_t kFrames = 12'000;
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    const net::Bytes payload(1400, 0x5a);
    for (std::size_t i = 0; i < kFrames; ++i) {
      packet::FrameSpec spec;
      spec.src_ip = net::Ipv4Address{10, 1, 0, static_cast<std::uint8_t>(i % 200)};
      spec.dst_ip = net::Ipv4Address{192, 0, 2, 1};
      spec.src_port = static_cast<std::uint16_t>(40'000 + i % 200);
      spec.dst_port = 443;
      const net::BytesView body{payload.data(), 400 + (i * 37) % 900};
      writer->write(packet::make_pcap_frame(
          util::Timestamp::from_micros(1'000'000 +
                                       static_cast<std::int64_t>(i) * 1000),
          packet::build_udp_frame(spec, body)));
    }
  }
  ASSERT_GT(fs::file_size(p), 8 * kReadBlockBytes);
  std::vector<Frame> frames;
  std::string error;
  ASSERT_TRUE(read_any_capture(
      p, [&](const Frame& frame) { frames.push_back(frame); }, error));

  // The dispatcher is this thread: drain_check is polled on it (before
  // every read and every 64th dispatch), which makes it a probe into the
  // middle of process_pcap. Small rings keep the blocks in flight, and
  // so the pool's size, independent of worker timing.
  std::uint64_t polls = 0;
  std::uint64_t at_warm = 0;
  std::uint64_t at_last = 0;
  pipeline::PipelineConfig config;
  config.shards = 2;
  config.queue_capacity = 64;
  config.drain_check = [&] {
    if (++polls == kFrames / 2) at_warm = counting_alloc::this_thread();
    at_last = counting_alloc::this_thread();
    return false;
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};
  ASSERT_TRUE(analyzer.process_pcap(p)) << analyzer.error();
  EXPECT_GT(polls, kFrames);
  EXPECT_EQ(at_last - at_warm, 0u)
      << "dispatcher allocations while reading views into the rings";

  // The copying path: on_frame from caller-owned buffers.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == frames.size() / 2) at_warm = counting_alloc::this_thread();
    analyzer.on_frame(frames[i].data, frames[i].timestamp +
                                          util::Duration::seconds(60));
  }
  EXPECT_EQ(counting_alloc::this_thread() - at_warm, 0u)
      << "dispatcher allocations while copying frames into the rings";
  analyzer.finish();
  EXPECT_EQ(analyzer.stats().frames_dispatched, 2 * kFrames);
  EXPECT_EQ(analyzer.stats().frames_dropped, 0u);
  EXPECT_LE(analyzer.stats().frame_blocks, 4u);
}

}  // namespace
}  // namespace dnh::pcap

namespace dnh::pcap {
namespace {

/// Writes a minimal pcapng file: SHB + IDB (+ optional if_tsresol) + one
/// EPB per payload.
class PcapngBuilder {
 public:
  explicit PcapngBuilder(bool nanos = false) {
    // SHB: type, len=28, magic, version 1.0, section length -1, len.
    u32(0x0a0d0d0a); u32(28); u32(0x1a2b3c4d);
    u16(1); u16(0);
    u32(0xffffffff); u32(0xffffffff);
    u32(28);
    // IDB: linktype ethernet, snaplen, optional tsresol option.
    if (nanos) {
      // option if_tsresol(9) len 1 value 9 (10^-9), padded; endofopt.
      u32(1); u32(20 + 8 + 4); u16(1); u16(0); u32(65535);
      u16(9); u16(1); bytes_.push_back(9);
      bytes_.push_back(0); bytes_.push_back(0); bytes_.push_back(0);
      u16(0); u16(0);
      u32(20 + 8 + 4);
    } else {
      u32(1); u32(20); u16(1); u16(0); u32(65535); u32(20);
    }
  }

  void add_packet(std::uint64_t ts_ticks,
                  std::initializer_list<std::uint8_t> payload) {
    const std::uint32_t captured = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t padded = (captured + 3u) & ~3u;
    const std::uint32_t total = 32 + padded;
    u32(6); u32(total);
    u32(0);  // interface
    u32(static_cast<std::uint32_t>(ts_ticks >> 32));
    u32(static_cast<std::uint32_t>(ts_ticks));
    u32(captured); u32(captured);
    bytes_.insert(bytes_.end(), payload);
    for (std::uint32_t i = captured; i < padded; ++i) bytes_.push_back(0);
    u32(total);
  }

  std::string write(const std::filesystem::path& dir,
                    const std::string& name) const {
    const std::string path = (dir / name).string();
    std::ofstream out{path, std::ios::binary};
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
    return path;
  }

 private:
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  std::vector<std::uint8_t> bytes_;
};

class PcapngTest : public PcapTest {};

TEST_F(PcapngTest, ReadsEnhancedPacketBlocks) {
  PcapngBuilder builder;
  builder.add_packet(5'000'123, {1, 2, 3, 4, 5});
  builder.add_packet(6'000'000, {9, 9});
  const auto path = builder.write(dir_, "basic.pcapng");

  auto reader = NgReader::open(path);
  Frame scratch;
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);
  Frame f1;
  ASSERT_TRUE(reader->next(f1));
  EXPECT_EQ(f1.timestamp.micros_since_epoch(), 5'000'123);
  EXPECT_EQ(f1.data.size(), 5u);
  Frame f2;
  ASSERT_TRUE(reader->next(f2));
  EXPECT_EQ(f2.data, (net::Bytes{9, 9}));
  EXPECT_FALSE(reader->next(scratch));
  EXPECT_TRUE(reader->error().empty()) << reader->error();
}

TEST_F(PcapngTest, HonoursNanosecondResolution) {
  PcapngBuilder builder{/*nanos=*/true};
  builder.add_packet(1'500'000'000ull, {1});  // 1.5s in ns ticks
  const auto path = builder.write(dir_, "nanos.pcapng");
  auto reader = NgReader::open(path);
  ASSERT_TRUE(reader);
  Frame frame;
  ASSERT_TRUE(reader->next(frame));
  EXPECT_EQ(frame.timestamp.micros_since_epoch(), 1'500'000);
}

TEST_F(PcapngTest, RejectsClassicPcapMagic) {
  const std::string p = path("classic.pcap");
  { ASSERT_TRUE(Writer::create(p)); }
  EXPECT_FALSE(NgReader::open(p));
}

TEST_F(PcapngTest, RejectsGarbage) {
  const std::string p = path("garbage.pcapng");
  std::ofstream out{p, std::ios::binary};
  out.write("garbage garbage garbage garbage!", 32);
  out.close();
  EXPECT_FALSE(NgReader::open(p));
}

TEST_F(PcapngTest, TruncatedBlockReportsError) {
  PcapngBuilder builder;
  builder.add_packet(1, {1, 2, 3, 4});
  const auto p = builder.write(dir_, "trunc.pcapng");
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 6);
  auto reader = NgReader::open(p);
  Frame scratch;
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next(scratch));
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapngTest, SkipsUnknownBlocks) {
  PcapngBuilder builder;
  builder.add_packet(1, {0xaa});
  auto p = builder.write(dir_, "unknown.pcapng");
  // Append an unknown block (type 0x0BAD) then another valid-looking EPB
  // is unnecessary; just ensure the packet before it is still delivered
  // and the unknown trailing block is skipped cleanly at EOF.
  std::ofstream out{p, std::ios::binary | std::ios::app};
  const std::uint32_t blk[4] = {0x0BAD, 16, 0xdeadbeef, 16};
  out.write(reinterpret_cast<const char*>(blk), sizeof blk);
  out.close();
  auto reader = NgReader::open(p);
  Frame scratch;
  ASSERT_TRUE(reader);
  EXPECT_TRUE(reader->next(scratch));
  EXPECT_FALSE(reader->next(scratch));
  EXPECT_TRUE(reader->error().empty()) << reader->error();
}

TEST_F(PcapngTest, ReadAnyCaptureDispatches) {
  // Classic file through the unified entry point.
  const std::string classic = path("any.pcap");
  {
    auto writer = Writer::create(classic);
    Frame f;
    f.timestamp = util::Timestamp::from_seconds(1);
    f.data = {1, 2, 3};
    f.original_length = 3;
    writer->write(f);
  }
  int classic_frames = 0;
  std::string error;
  EXPECT_TRUE(read_any_capture(classic,
                               [&](const Frame&) { ++classic_frames; },
                               error));
  EXPECT_EQ(classic_frames, 1);

  PcapngBuilder builder;
  builder.add_packet(1, {1});
  builder.add_packet(2, {2});
  const auto ng = builder.write(dir_, "any.pcapng");
  int ng_frames = 0;
  EXPECT_TRUE(read_any_capture(ng, [&](const Frame&) { ++ng_frames; },
                               error));
  EXPECT_EQ(ng_frames, 2);

  EXPECT_FALSE(read_any_capture(path("missing.pcapng"),
                                [](const Frame&) {}, error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace dnh::pcap

#include "util/rng.hpp"

namespace dnh::pcap {
namespace {

TEST_F(PcapngTest, FuzzMutatedFilesDoNotCrash) {
  PcapngBuilder builder;
  for (int i = 0; i < 5; ++i)
    builder.add_packet(i * 1000, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto base_path = builder.write(dir_, "fuzz_base.pcapng");
  std::ifstream in{base_path, std::ios::binary};
  std::vector<char> base{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};

  util::Rng rng{2024};
  for (int iter = 0; iter < 300; ++iter) {
    auto mutated = base;
    const int flips = 1 + static_cast<int>(rng.uniform(0, 8));
    for (int i = 0; i < flips; ++i)
      mutated[rng.index(mutated.size())] =
          static_cast<char>(rng.next_u64());
    const std::string p = path("fuzz_mut.pcapng");
    {
      std::ofstream out{p, std::ios::binary};
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
    }
    auto reader = NgReader::open(p);
    Frame scratch;
    if (!reader) continue;
    // Reading to the end must terminate (no hang, no crash).
    int frames = 0;
    while (reader->next(scratch) && frames < 1000) ++frames;
  }
}

TEST_F(PcapngTest, FuzzRandomFilesDoNotCrash) {
  util::Rng rng{4048};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<char> junk(rng.uniform(0, 512));
    for (auto& b : junk) b = static_cast<char>(rng.next_u64());
    const std::string p = path("fuzz_junk.pcapng");
    {
      std::ofstream out{p, std::ios::binary};
      out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    auto reader = NgReader::open(p);
    Frame scratch;
    if (reader) {
      int frames = 0;
      while (reader->next(scratch) && frames < 1000) ++frames;
    }
  }
}

}  // namespace
}  // namespace dnh::pcap
