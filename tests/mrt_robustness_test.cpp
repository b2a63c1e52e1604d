// Adversarial MRT corpus: truncated headers, lying length fields, unknown
// record types and subtypes, zero-length bodies, EOF mid-record, and
// corrupt inner BGP messages. Every malformed input class must
// deterministically raise DecodeError — from Reader, ChunkedReader, and
// the pipelined ingest_mrt_sources/ingest_mrt_files engine (including
// from framer and decode worker threads, with the bounded queue at
// pathological depths) — and never hang, crash, or silently drop
// records. Tests completing at all is the no-hang assertion; ASan/UBSan
// CI covers the no-crash half.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/codec.h"
#include "core/ingest.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc::mrt {
namespace {

std::string bytes_to_string(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// Hand-assembles one MRT record with full control over every header
/// field — including inconsistent ones no Writer would produce.
std::string raw_record(std::uint16_t type, std::uint16_t subtype,
                       std::uint32_t claimed_length,
                       const std::vector<std::uint8_t>& body) {
  ByteWriter w;
  w.u32(1600000000);  // timestamp
  w.u16(type);
  w.u16(subtype);
  w.u32(claimed_length);
  w.bytes(body);
  return bytes_to_string(w.data());
}

/// One well-formed BGP4MP_ET MESSAGE_AS4 record carrying a valid UPDATE.
std::string good_record(std::uint32_t peer_asn = 65001) {
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string("10.1.0.0/16"));
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({peer_asn, 65100});
  attrs.next_hop = IpAddress::from_string("192.0.2.1");
  update.attrs = std::move(attrs);

  Bgp4mpMessage message;
  message.peer_asn = Asn(peer_asn);
  message.local_asn = Asn(64512);
  message.peer_ip = IpAddress::v4(0x0a000001u);
  message.local_ip = IpAddress::from_string("203.0.113.1");
  message.bgp_message = encode_update(update);

  std::ostringstream out;
  Writer writer(out);
  writer.write_message(Timestamp::from_unix_seconds(1600000000), message);
  return out.str();
}

/// good_record() with its BGP4MP_ET microsecond field (the first four
/// body bytes, after the 12-byte header) set to `micros`.
std::string record_with_micros(std::uint32_t micros) {
  std::string record = good_record();
  for (int i = 0; i < 4; ++i) {
    record[12 + i] = static_cast<char>((micros >> (24 - 8 * i)) & 0xff);
  }
  return record;
}

/// A structurally valid record whose inner BGP message is garbage: frames
/// fine, dies on a decode worker.
std::string corrupt_inner_record() {
  Bgp4mpMessage message;
  message.peer_asn = Asn(65001);
  message.local_asn = Asn(64512);
  message.peer_ip = IpAddress::v4(0x0a000001u);
  message.local_ip = IpAddress::from_string("203.0.113.1");
  message.bgp_message = std::vector<std::uint8_t>(19, 0x00);  // bad marker

  std::ostringstream out;
  Writer writer(out);
  writer.write_message(Timestamp::from_unix_seconds(1600000000), message);
  return out.str();
}

void expect_reader_throws(const std::string& archive) {
  {
    std::istringstream in(archive);
    Reader reader(in);
    EXPECT_THROW(
        {
          while (reader.next()) {
          }
        },
        DecodeError);
  }
  {
    std::istringstream in(archive);
    ChunkedReader reader(in, 4);
    EXPECT_THROW(
        {
          while (reader.next_chunk()) {
          }
        },
        DecodeError);
  }
}

void expect_ingest_throws(const std::string& archive) {
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::IngestOptions options;
    options.num_threads = threads;
    options.chunk_records = 2;
    options.queue_chunks = 2;
    std::istringstream in(archive);
    EXPECT_THROW((void)core::ingest_mrt_stream("C1", in, options),
                 DecodeError);
  }
}

/// Like expect_reader_throws, but through the transparent decompression
/// layer — so the DecodeError comes from the gzip/bzip2 stage (or from
/// the MRT layer validating the INFLATED bytes), not from the raw reader
/// misparsing compressed bytes as a record header.
void expect_decompressed_throws(const std::string& archive) {
  {
    std::istringstream in(archive);
    InputStream input = InputStream::wrap(in);
    Reader reader(input.stream());
    EXPECT_THROW(
        {
          while (reader.next()) {
          }
        },
        DecodeError);
  }
  {
    std::istringstream in(archive);
    InputStream input = InputStream::wrap(in);
    ChunkedReader reader(input.stream(), 4);
    EXPECT_THROW(
        {
          while (reader.next_chunk()) {
          }
        },
        DecodeError);
  }
  // The engine runs its own detection on every source.
  expect_ingest_throws(archive);
}

void expect_all_throw(const std::string& archive) {
  expect_reader_throws(archive);
  expect_ingest_throws(archive);
}

TEST(MrtRobustness, TruncatedHeader) {
  expect_all_throw(std::string("\x5f\x6a\x00", 3));
  // 11 of the 12 header bytes: one short.
  expect_all_throw(raw_record(16, 4, 0, {}).substr(0, 11));
}

TEST(MrtRobustness, TruncatedBodyEofMidRecord) {
  // Header claims 100 body bytes; only 10 follow.
  expect_all_throw(raw_record(16, 4, 100, std::vector<std::uint8_t>(10, 0)));
  // A good record, then EOF mid-way through the next one's body.
  std::string good = good_record();
  expect_all_throw(good + raw_record(17, 4, 500, {0x01, 0x02}));
  // EOF exactly mid-header of the trailing record.
  expect_all_throw(good + good.substr(0, 7));
}

TEST(MrtRobustness, LyingLengthField) {
  // A length field of ~4 GiB on a tiny archive must fail the sanity bound
  // (fast, no giant allocation), not OOM or read garbage.
  expect_all_throw(raw_record(16, 4, 0xFFFFFFF0u, {}));
  expect_all_throw(raw_record(17, 1, kMaxRecordLength + 1, {}));
}

TEST(MrtRobustness, UnknownRecordType) {
  // TABLE_DUMP (12) and a nonsense type: unsupported records are a hard
  // error, never a silent skip that would under-count a collector's feed.
  expect_all_throw(raw_record(12, 1, 4, {0, 0, 0, 0}));
  expect_all_throw(raw_record(999, 4, 4, {0, 0, 0, 0}));
  // After a valid prefix of the archive, so partial results can't leak.
  expect_all_throw(good_record() + raw_record(999, 4, 0, {}));
}

TEST(MrtRobustness, UnknownBgp4mpSubtype) {
  expect_all_throw(raw_record(16, 77, 4, {0, 0, 0, 0}));
  expect_all_throw(good_record() +
                   raw_record(17, 9, 8, {0, 0, 0, 0, 0, 0, 0, 0}));
}

TEST(MrtRobustness, ZeroLengthBody) {
  // BGP4MP_ET with length 0 cannot even hold its microsecond field.
  expect_all_throw(raw_record(17, 4, 0, {}));
  // Plain BGP4MP MESSAGE with an empty body frames, but decoding the
  // endpoints underruns — the ingest engine must surface that.
  expect_ingest_throws(raw_record(16, 4, 0, {}));
  {
    std::istringstream in(raw_record(16, 4, 0, {}));
    Reader reader(in);
    auto record = reader.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_THROW((void)Reader::parse_message(*record), DecodeError);
  }
}

TEST(MrtRobustness, TruncatedEndpoints) {
  // A BGP4MP message whose body ends inside the endpoint block.
  expect_ingest_throws(raw_record(16, 4, 6, {0, 0, 0xFD, 0xE9, 0, 0}));
  // AFI claims IPv6 but only 4 address bytes follow.
  ByteWriter body;
  body.u32(65001);  // peer asn
  body.u32(64512);  // local asn
  body.u16(0);      // ifindex
  body.u16(2);      // AFI: IPv6
  body.u32(0x0a000001);
  expect_ingest_throws(raw_record(
      16, 4, static_cast<std::uint32_t>(body.size()), body.data()));
}

// Worker-thread propagation: the corrupt record decodes on a pool worker
// while the framer is still pushing. The abort path must unblock a framer
// waiting on the full bounded queue — completing at all proves no
// deadlock.
TEST(MrtRobustness, CorruptInnerMessageOnWorkerThread) {
  std::string archive;
  for (int i = 0; i < 64; ++i) archive += good_record();
  archive += corrupt_inner_record();
  for (int i = 0; i < 64; ++i) archive += good_record();

  core::IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 1;  // many chunks
  options.queue_chunks = 2;   // pathologically shallow queue
  std::istringstream in(archive);
  EXPECT_THROW((void)core::ingest_mrt_stream("C1", in, options), DecodeError);
}

// Mirror case: the FRAMER throws mid-pipeline (truncated tail) while
// decode workers are waiting on the queue; close/abort must release them.
TEST(MrtRobustness, FramerThrowsMidPipeline) {
  std::string archive;
  for (int i = 0; i < 64; ++i) archive += good_record();
  archive += good_record().substr(0, 20);  // truncated tail record

  core::IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 4;
  options.queue_chunks = 2;
  std::istringstream in(archive);
  EXPECT_THROW((void)core::ingest_mrt_stream("C1", in, options), DecodeError);
}

// The corrupt record as the very FIRST one of a long archive: workers die
// immediately while framers still have hundreds of chunks to push.
TEST(MrtRobustness, CorruptFirstRecordLongArchive) {
  std::string archive = corrupt_inner_record();
  for (int i = 0; i < 256; ++i) archive += good_record();

  core::IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 1;
  options.queue_chunks = 1;
  std::istringstream in(archive);
  EXPECT_THROW((void)core::ingest_mrt_stream("C1", in, options), DecodeError);
}

TEST(MrtRobustness, MultiSourceErrors) {
  // Second of three sources is corrupt: the whole multi-archive run fails,
  // at any thread count (4 threads frame the three sources concurrently).
  std::string good;
  for (int i = 0; i < 32; ++i) good += good_record();
  std::string bad = good + raw_record(999, 4, 0, {});

  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::istringstream in_a(good);
    std::istringstream in_b(bad);
    std::istringstream in_c(good);
    core::IngestOptions options;
    options.num_threads = threads;
    options.chunk_records = 2;
    options.queue_chunks = 2;
    EXPECT_THROW((void)core::ingest_mrt_sources(
                     {core::MrtSource{"C1", &in_a},
                      core::MrtSource{"C2", &in_b},
                      core::MrtSource{"C3", &in_c}},
                     options),
                 DecodeError);
  }
}

// BGP4MP_ET carries the sub-second part in microseconds, so 999,999 is
// the largest valid value. A larger one must raise DecodeError rather than
// roll the record into a later second, ahead of records it followed.
TEST(MrtRobustness, EtMicrosecondFieldBounded) {
  const Timestamp last_micro =
      Timestamp::from_unix_micros(1600000000LL * 1000000 + 999999);
  std::string valid = good_record() + record_with_micros(999999) +
                      good_record();
  {
    std::istringstream in(valid);
    Reader reader(in);
    ASSERT_TRUE(reader.next().has_value());
    std::optional<Record> record = reader.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->timestamp, last_micro);
  }
  {
    core::IngestOptions options;
    options.num_threads = 4;
    options.chunk_records = 2;
    std::istringstream in(valid);
    core::IngestResult result = core::ingest_mrt_stream("C1", in, options);
    ASSERT_EQ(result.stream.size(), 3u);
    EXPECT_EQ(result.stream.records().back().time, last_micro);
  }
  expect_all_throw(good_record() + record_with_micros(1000000) +
                   good_record());
}

TEST(MrtRobustness, MissingFileAndNullStream) {
  EXPECT_THROW((void)core::ingest_mrt_files(
                   "C1", {"/nonexistent/bgpcc/archive.mrt"}),
               DecodeError);
  EXPECT_THROW((void)core::ingest_mrt_sources(
                   {core::MrtSource{"C1", nullptr}}),
               ConfigError);
}

TEST(MrtRobustness, EmptyArchiveIsCleanEof) {
  // Sanity guard for the other direction: a zero-byte archive is a valid
  // empty feed, not an error.
  std::istringstream in_reader((std::string()));
  Reader reader(in_reader);
  EXPECT_FALSE(reader.next().has_value());

  std::istringstream in_ingest((std::string()));
  core::IngestResult result = core::ingest_mrt_stream("C1", in_ingest);
  EXPECT_EQ(result.stream.size(), 0u);
  EXPECT_EQ(result.stats.raw_records, 0u);
  EXPECT_EQ(result.stats.windows, 0u);

  // No framed record means no window: a batch finish() and a poll() loop
  // both report 0 windows and fire no window bracket, over a zero-byte
  // archive and over no source at all, inline and on a pool.
  for (unsigned threads : {1u, 4u}) {
    for (bool poll : {false, true}) {
      for (bool any_source : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " poll=" + std::to_string(poll) +
                     " any_source=" + std::to_string(any_source));
        int brackets = 0;
        core::IngestOptions options;
        options.num_threads = threads;
        options.window_begin = [&brackets] { ++brackets; };
        options.window_commit = [&brackets] { ++brackets; };
        std::istringstream in((std::string()));
        core::StreamingIngestor engine(options);
        if (any_source) engine.add_stream("C1", in);
        if (poll) {
          EXPECT_FALSE(engine.poll());
        }
        core::IngestResult empty = engine.finish();
        EXPECT_EQ(empty.stream.size(), 0u);
        EXPECT_EQ(empty.stats.raw_records, 0u);
        EXPECT_EQ(empty.stats.files, any_source ? 1u : 0u);
        EXPECT_EQ(empty.stats.windows, 0u);
        EXPECT_EQ(engine.stats().windows, 0u);
        EXPECT_EQ(brackets, 0);

        if (!poll && !any_source) {
          core::IngestResult none = core::ingest_mrt_sources({}, options);
          EXPECT_EQ(none.stream.size(), 0u);
          EXPECT_EQ(none.stats.files, 0u);
          EXPECT_EQ(none.stats.windows, 0u);
          EXPECT_EQ(brackets, 0);
        }
      }
    }
  }
}

// Compressed-input robustness: a truncated or corrupt gzip/bzip2 archive
// must raise DecodeError from the decompression stage — through the
// Reader, the ChunkedReader, and the pipelined engine (no hang on the
// bounded queue, no partial silent results).
TEST(MrtRobustness, TruncatedGzipStream) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  std::string archive;
  for (int i = 0; i < 16; ++i) archive += good_record();
  std::string gz = gzip_compress(archive);
  ASSERT_GT(gz.size(), 24u);
  // Cut inside the deflate payload and inside the 8-byte CRC/size
  // trailer: both are mid-member EOFs.
  expect_decompressed_throws(gz.substr(0, gz.size() / 2));
  expect_decompressed_throws(gz.substr(0, gz.size() - 4));
}

TEST(MrtRobustness, TruncatedBzip2Stream) {
  if (!bzip2_supported()) GTEST_SKIP() << "built without libbz2";
  std::string archive;
  for (int i = 0; i < 16; ++i) archive += good_record();
  std::string bz2 = bzip2_compress(archive);
  ASSERT_GT(bz2.size(), 12u);
  expect_decompressed_throws(bz2.substr(0, bz2.size() / 2));
  expect_decompressed_throws(bz2.substr(0, bz2.size() - 2));
}

TEST(MrtRobustness, GarbageAfterCompressionMagic) {
  if (!gzip_supported() || !bzip2_supported()) {
    GTEST_SKIP() << "built without zlib/libbz2";
  }
  // A valid magic followed by noise: the decompressor itself must reject
  // it (gzip: bad header CRC/flags or deflate stream; bzip2: bad block).
  std::string gz_garbage("\x1f\x8b", 2);
  gz_garbage += std::string(64, '\x55');
  expect_decompressed_throws(gz_garbage);

  std::string bz2_garbage("BZh9", 4);
  bz2_garbage += std::string(64, '\x55');
  expect_decompressed_throws(bz2_garbage);
}

TEST(MrtRobustness, CompressedGarbagePayload) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  // Valid gzip wrapping that inflates fine — into bytes that are not MRT.
  // The failure must come from the MRT layer, proving the decompressed
  // bytes actually flow through the same validation.
  std::string garbage = gzip_compress(std::string(64, '\x7f'));
  expect_decompressed_throws(garbage);
  // And a compressed archive whose decompressed tail is truncated.
  std::string archive;
  for (int i = 0; i < 8; ++i) archive += good_record();
  expect_decompressed_throws(
      gzip_compress(archive.substr(0, archive.size() - 5)));
}

TEST(MrtRobustness, TruncatedGzipOnWorkerPipeline) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  // Long compressed archive with a truncated tail at pathological queue
  // depth: the framer throws mid-decompression while workers are busy —
  // completing at all proves the abort path also covers the
  // decompression stage.
  std::string archive;
  for (int i = 0; i < 256; ++i) archive += good_record();
  std::string gz = gzip_compress(archive);
  std::string truncated = gz.substr(0, gz.size() - 6);

  core::IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 1;
  options.queue_chunks = 1;
  std::istringstream in(truncated);
  EXPECT_THROW((void)core::ingest_mrt_stream("C1", in, options), DecodeError);
}

TEST(MrtRobustness, TwoOctetWriterRejectsWideAsn) {
  Bgp4mpMessage message;
  message.peer_asn = Asn(200000);  // does not fit 16 bits
  message.local_asn = Asn(64512);
  message.peer_ip = IpAddress::v4(0x0a000001u);
  message.local_ip = IpAddress::from_string("203.0.113.1");
  message.bgp_message = encode_keepalive();

  std::ostringstream out;
  Writer writer(out);
  EXPECT_THROW(writer.write_message(Timestamp::from_unix_seconds(1600000000),
                                    message, /*extended_time=*/true,
                                    /*as4=*/false),
               ConfigError);
}

}  // namespace
}  // namespace bgpcc::mrt
