// Kill-and-resume differential for the checkpoint subsystem
// (AnalysisDriver::checkpoint/restore + StreamingIngestor cursor):
// interrupt a windowed analysis run after window K, serialize driver +
// ingest cursor, rebuild both in a "new process" (fresh objects, fresh
// input streams), resume, and require the final reports of every
// shipped pass to be IDENTICAL to the uninterrupted run — for every K.
//
// Also pins the documented non-goals and misuse errors: the resumed
// finish() stream contains only post-checkpoint windows (RunStore spill
// files belong to the original process), and every out-of-order or
// mismatched-configuration call throws ConfigError instead of
// corrupting results.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "analytics/serialize.h"
#include "analytics/standard.h"
#include "archive_gen.h"
#include "core/cleaning.h"
#include "core/codec.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "core/stream.h"
#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc::analytics {
namespace {

using core::CleaningOptions;
using core::IngestOptions;
using core::IngestResult;
using core::Registry;
using core::StreamingIngestor;
using core::archgen::allocated_registry;
using core::archgen::ArchiveGenerator;

/// The shared two-collector fixture: sessions on two archives, windowed
/// ingestion so a checkpoint can land mid-source or between sources.
struct Fixture {
  std::string archive_a;
  std::string archive_b;
  Registry registry;
  CleaningOptions cleaning;

  Fixture() {
    ArchiveGenerator gen_a(20260806);
    ArchiveGenerator gen_b(20260807);
    archive_a = gen_a.generate(700);
    archive_b = gen_b.generate(500);
    registry = allocated_registry();
    cleaning.registry = &registry;
  }

  [[nodiscard]] IngestOptions options() const {
    IngestOptions opt;
    opt.chunk_records = 32;
    opt.window_records = 128;
    opt.cleaning = &cleaning;
    return opt;
  }

  /// Builds driver + ingestor wired together over fresh input streams.
  struct Run {
    AnalysisDriver driver;
    StandardPasses handles;
    IngestOptions opt;
    std::unique_ptr<std::istringstream> in_a;
    std::unique_ptr<std::istringstream> in_b;
    std::unique_ptr<StreamingIngestor> engine;
  };

  [[nodiscard]] std::unique_ptr<Run> start() const {
    auto run = std::make_unique<Run>();
    run->handles = StandardPasses::add(run->driver);
    run->opt = options();
    run->driver.attach(run->opt);
    run->engine = std::make_unique<StreamingIngestor>(run->opt);
    run->in_a = std::make_unique<std::istringstream>(archive_a);
    run->in_b = std::make_unique<std::istringstream>(archive_b);
    run->engine->add_stream("rrc00", *run->in_a);
    run->engine->add_stream("rrc01", *run->in_b);
    return run;
  }
};

TEST(CheckpointResume, EveryInterruptionPointResumesExactly) {
  Fixture fixture;

  // Uninterrupted reference (and the window count for the K sweep).
  auto reference = fixture.start();
  std::size_t windows = 0;
  while (reference->engine->poll()) ++windows;
  IngestResult ref_result = reference->engine->finish();
  ASSERT_GT(ref_result.stream.size(), 0u);
  ASSERT_GT(windows, 3u) << "fixture too small to exercise resume";
  StandardReports expected = reference->handles.collect(reference->driver);
  ASSERT_GT(expected.types.counts.total(), 0u);
  ASSERT_GT(expected.revealed.total_unique, 0u);

  for (std::size_t k = 1; k < windows; ++k) {
    // "Process one": run K windows, checkpoint, drop everything.
    std::ostringstream checkpoint;
    {
      auto run = fixture.start();
      for (std::size_t w = 0; w < k; ++w) {
        ASSERT_TRUE(run->engine->poll()) << "k=" << k;
      }
      run->driver.checkpoint(checkpoint, *run->engine);
    }

    // "Process two": fresh everything, restore, resume to completion.
    auto resumed = fixture.start();
    std::istringstream checkpoint_in(checkpoint.str());
    resumed->driver.restore(checkpoint_in, *resumed->engine);
    IngestResult result = resumed->engine->finish();
    // The resumed stream holds only post-checkpoint windows (the
    // original process owns the earlier runs); the REPORTS are complete
    // because the driver states cover every pre-checkpoint record.
    EXPECT_LT(result.stream.size(), ref_result.stream.size()) << "k=" << k;
    EXPECT_EQ(resumed->handles.collect(resumed->driver), expected)
        << "k=" << k;
  }
}

TEST(CheckpointResume, ShardCountAdoptedAcrossHosts) {
  Fixture fixture;

  // Reference: the uninterrupted run at this host's default shard count.
  auto reference = fixture.start();
  IngestResult ref_result = reference->engine->finish();
  ASSERT_GT(ref_result.stream.size(), 0u);
  StandardReports expected = reference->handles.collect(reference->driver);

  // "Big host": an explicit 32-shard run (what num_threads = 0 resolves
  // to on a 32-core machine), interrupted after two windows.
  std::ostringstream checkpoint;
  {
    AnalysisDriver driver;
    (void)StandardPasses::add(driver);
    IngestOptions opt = fixture.options();
    opt.shards = 32;
    driver.attach(opt);
    StreamingIngestor engine(opt);
    std::istringstream in_a(fixture.archive_a);
    std::istringstream in_b(fixture.archive_b);
    engine.add_stream("rrc00", in_a);
    engine.add_stream("rrc01", in_b);
    ASSERT_TRUE(engine.poll());
    ASSERT_TRUE(engine.poll());
    EXPECT_EQ(engine.stats().shards, 32u);
    driver.checkpoint(checkpoint, engine);
  }

  // "Small host": default options resolve to 16 shards here, but the
  // restore ADOPTS the checkpoint's 32 — and because the shard count is
  // a parallelism knob with no semantic weight, the resumed reports
  // equal the default-shard uninterrupted run exactly.
  auto resumed = fixture.start();
  std::istringstream in(checkpoint.str());
  resumed->driver.restore(in, *resumed->engine);
  EXPECT_EQ(resumed->engine->stats().shards, 32u);
  (void)resumed->engine->finish();
  EXPECT_EQ(resumed->handles.collect(resumed->driver), expected);
}

TEST(CheckpointResume, CheckpointIsDeterministic) {
  Fixture fixture;
  std::ostringstream first;
  std::ostringstream second;
  for (std::ostringstream* out : {&first, &second}) {
    auto run = fixture.start();
    ASSERT_TRUE(run->engine->poll());
    ASSERT_TRUE(run->engine->poll());
    run->driver.checkpoint(*out, *run->engine);
  }
  EXPECT_EQ(first.str(), second.str());
}

TEST(CheckpointResume, StateOnlyCheckpointRestoresReports) {
  Fixture fixture;
  auto run = fixture.start();
  IngestResult result = run->engine->finish();
  ASSERT_GT(result.stream.size(), 0u);

  // Driver-only snapshot (no ingest cursor): shard-faithful states.
  std::ostringstream out;
  run->driver.checkpoint(out);
  StandardReports expected = run->handles.collect(run->driver);

  AnalysisDriver restored;
  StandardPasses handles = StandardPasses::add(restored);
  std::istringstream in(out.str());
  restored.restore(in);
  EXPECT_EQ(handles.collect(restored), expected);

  // The same snapshot is also loadable as a disjoint-run partial.
  AnalysisDriver merged;
  StandardPasses merged_handles = StandardPasses::add(merged);
  std::istringstream again(out.str());
  merged.load_state(again);
  EXPECT_EQ(merged_handles.collect(merged), expected);
}

TEST(CheckpointResume, MisuseThrowsConfigError) {
  Fixture fixture;

  // Checkpoint after finalization.
  {
    auto run = fixture.start();
    (void)run->engine->finish();
    (void)run->driver.report(run->handles.types);
    std::ostringstream out;
    EXPECT_THROW(run->driver.checkpoint(out), ConfigError);
    std::istringstream in("x");
    EXPECT_THROW(run->driver.restore(in), ConfigError);
  }

  // checkpoint_state once finished.
  {
    auto run = fixture.start();
    (void)run->engine->finish();
    EXPECT_THROW((void)run->engine->checkpoint_state(), ConfigError);
  }

  // Cursor-less checkpoint restored with an ingestor.
  {
    auto run = fixture.start();
    ASSERT_TRUE(run->engine->poll());
    std::ostringstream out;
    run->driver.checkpoint(out);  // no ingestor
    auto resumed = fixture.start();
    std::istringstream in(out.str());
    EXPECT_THROW(resumed->driver.restore(in, *resumed->engine), ConfigError);
  }

  // Mismatched chunk_records on the resuming ingestor.
  {
    auto run = fixture.start();
    ASSERT_TRUE(run->engine->poll());
    std::ostringstream out;
    run->driver.checkpoint(out, *run->engine);

    AnalysisDriver driver;
    (void)StandardPasses::add(driver);
    IngestOptions opt = fixture.options();
    opt.chunk_records = 64;  // chunking defines windows: must match
    driver.attach(opt);
    StreamingIngestor engine(opt);
    std::istringstream in_a(fixture.archive_a);
    std::istringstream in_b(fixture.archive_b);
    engine.add_stream("rrc00", in_a);
    engine.add_stream("rrc01", in_b);
    std::istringstream in(out.str());
    EXPECT_THROW(driver.restore(in, engine), ConfigError);
  }

  // Mismatched collector registration.
  {
    auto run = fixture.start();
    ASSERT_TRUE(run->engine->poll());
    std::ostringstream out;
    run->driver.checkpoint(out, *run->engine);

    AnalysisDriver driver;
    (void)StandardPasses::add(driver);
    IngestOptions opt = fixture.options();
    driver.attach(opt);
    StreamingIngestor engine(opt);
    std::istringstream in_a(fixture.archive_a);
    engine.add_stream("rrc00", in_a);  // rrc01 missing
    std::istringstream in(out.str());
    EXPECT_THROW(driver.restore(in, engine), ConfigError);
  }

  // A second attach() resolving a different shard count: the states are
  // already minted at the first run's layout.
  {
    AnalysisDriver driver;
    (void)StandardPasses::add(driver);
    IngestOptions first = fixture.options();
    driver.attach(first);
    IngestOptions second = fixture.options();
    second.shards = 32;
    EXPECT_THROW(driver.attach(second), ConfigError);
  }

  // Restore into a used (already polled) ingestor.
  {
    auto run = fixture.start();
    ASSERT_TRUE(run->engine->poll());
    std::ostringstream out;
    run->driver.checkpoint(out, *run->engine);

    auto resumed = fixture.start();
    ASSERT_TRUE(resumed->engine->poll());
    std::istringstream in(out.str());
    EXPECT_THROW(resumed->driver.restore(in, *resumed->engine), ConfigError);
  }
}

TEST(CheckpointResume, TruncatedCheckpointThrowsDecodeError) {
  Fixture fixture;
  auto run = fixture.start();
  ASSERT_TRUE(run->engine->poll());
  std::ostringstream out;
  run->driver.checkpoint(out, *run->engine);
  std::string bytes = out.str();

  for (std::size_t cut : {std::size_t{3}, std::size_t{20}, bytes.size() / 2,
                          bytes.size() - 1}) {
    auto resumed = fixture.start();
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_THROW(resumed->driver.restore(in, *resumed->engine), DecodeError)
        << "cut=" << cut;
  }

  // A small state-only checkpoint whose shard 0 holds a stream table:
  // every prefix must throw, and every bit flip inside the table section
  // must either decode or throw DecodeError/ConfigError — nothing else.
  IngestOptions batch;
  batch.num_threads = 1;
  std::istringstream archive(ArchiveGenerator(20261017).generate(12));
  IngestResult small = core::ingest_mrt_stream("rrc00", archive, batch);
  ASSERT_GT(small.stream.size(), 0u);
  AnalysisDriver driver;
  (void)driver.add(DuplicateBurstPass{});
  driver.observe_stream(small.stream);  // all records land in slot 0
  std::ostringstream small_out;
  driver.checkpoint(small_out);
  const std::string ckpt = small_out.str();

  // The table section of shard 0 follows the header (7 bytes), the pass
  // list (u16 count + one u16 tag), has_cursor (u8) and the shard count
  // (u16); it must equal a plain Classifier's table over the same records.
  core::Classifier table;
  for (const core::UpdateRecord& record : small.stream.records()) {
    (void)table.advance(record);
  }
  ASSERT_GT(table.stream_states().size(), 0u);
  ByteWriter section_writer;
  serialize::write_stream_table(section_writer, table.stream_states());
  const std::string section(section_writer.data().begin(),
                            section_writer.data().end());
  const std::size_t begin = 7 + 2 + 2 + 1 + 2;
  ASSERT_EQ(ckpt.substr(begin, section.size()), section);

  auto restore = [](const std::string& bytes) {
    AnalysisDriver fresh;
    (void)fresh.add(DuplicateBurstPass{});
    std::istringstream in(bytes);
    fresh.restore(in);
  };
  ASSERT_NO_THROW(restore(ckpt));
  for (std::size_t cut = 0; cut < ckpt.size(); ++cut) {
    EXPECT_THROW(restore(ckpt.substr(0, cut)), DecodeError) << "cut=" << cut;
  }
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < section.size() * 8; ++bit) {
    std::string flipped = ckpt;
    flipped[begin + bit / 8] = static_cast<char>(
        flipped[begin + bit / 8] ^ static_cast<char>(1u << (bit % 8)));
    try {
      restore(flipped);
    } catch (const DecodeError&) {
      ++rejected;
    } catch (const ConfigError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

// A checkpoint whose table section holds streams, restored into a driver
// whose passes read no stream events: no table owns those cursors, so
// restore() refuses the file instead of dropping them silently. The same
// bytes with an empty table section restore.
TEST(CheckpointResume, OrphanStreamTableThrowsDecodeError) {
  core::UpdateRecord record;
  record.session =
      core::SessionKey{"rrc00", Asn(65001), IpAddress::v4(10, 0, 0, 1)};
  record.prefix = Prefix::from_string("10.0.0.0/8");
  record.attrs.as_path = AsPath::sequence({Asn(65001), Asn(65002)});
  core::Classifier table;
  (void)table.advance(record);

  auto checkpoint_with = [](const core::Classifier::StreamStates& streams) {
    ByteWriter w;
    serialize::write_block_header(w, serialize::BlockKind::kCheckpoint);
    w.u16(1);                         // one pass,
    w.u16(TomographyPass::kStateTag);  // which reads no stream events
    core::codec::write_value(w, false);  // no ingest cursor
    w.u16(1);                         // one shard slot
    serialize::write_stream_table(w, streams);
    w.u64(8);  // the tomography blob: an empty AS list
    w.u64(0);
    return std::string(w.data().begin(), w.data().end());
  };
  auto restore = [](const std::string& bytes) {
    AnalysisDriver driver;
    (void)driver.add(TomographyPass{});
    std::istringstream in(bytes);
    driver.restore(in);
  };
  EXPECT_NO_THROW(restore(checkpoint_with({})));
  EXPECT_THROW(restore(checkpoint_with(table.stream_states())), DecodeError);
}

TEST(CheckpointResume, SourceShorterThanCheckpointThrows) {
  Fixture fixture;
  auto run = fixture.start();
  ASSERT_TRUE(run->engine->poll());
  ASSERT_TRUE(run->engine->poll());
  std::ostringstream out;
  run->driver.checkpoint(out, *run->engine);

  // Resume against a truncated first archive: the framer cannot skip to
  // the checkpointed chunk, and must say so rather than resume wrong.
  AnalysisDriver driver;
  (void)StandardPasses::add(driver);
  IngestOptions opt = fixture.options();
  driver.attach(opt);
  StreamingIngestor engine(opt);
  std::istringstream in_a(fixture.archive_a.substr(0, 64));
  std::istringstream in_b(fixture.archive_b);
  engine.add_stream("rrc00", in_a);
  engine.add_stream("rrc01", in_b);
  std::istringstream in(out.str());
  EXPECT_THROW(driver.restore(in, engine), DecodeError);
}

}  // namespace
}  // namespace bgpcc::analytics
