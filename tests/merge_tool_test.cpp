// End-to-end test of the bgpcc-merge binary (tools/bgpcc_merge.cpp):
// per-collector `ingest` runs fanned in with `merge` must print
// BYTE-IDENTICAL reports to a monolithic run over every archive at
// once — the split-run workflow the wire codec exists for, proven
// against the real executable's stdout, not a library shortcut. That
// stdout is the standard pass set's canonical rendering
// (analytics/standard.h), byte for byte.
//
// The tool's path arrives via the BGPCC_MERGE_TOOL compile definition
// (see tests/CMakeLists.txt); commands run through std::system with
// stdout redirected into the test's temp directory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analytics/standard.h"
#include "archive_gen.h"
#include "core/ingest.h"

namespace bgpcc {
namespace {

using core::archgen::ArchiveGenerator;

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int run_tool(const std::string& args, const std::string& stdout_path) {
  std::string command = std::string(BGPCC_MERGE_TOOL) + " " + args + " > " +
                        stdout_path + " 2> " + stdout_path + ".err";
  int status = std::system(command.c_str());
  return status;
}

class MergeToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: CTest runs the cases as concurrent
    // processes, which must not share archive or state files.
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("bgpcc_merge_") + test->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ArchiveGenerator gen_a(424200);
    ArchiveGenerator gen_b(424201);
    archive_a_ = temp_path("a.mrt");
    archive_b_ = temp_path("b.mrt");
    write_file(archive_a_, gen_a.generate(500));
    write_file(archive_b_, gen_b.generate(400));
  }

  std::string temp_path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
  std::string archive_a_;
  std::string archive_b_;
};

TEST_F(MergeToolTest, SplitIngestMergeEqualsMonolithicRun) {
  // Monolithic: both collectors in one ingest.
  std::string mono_state = temp_path("mono.state");
  ASSERT_EQ(run_tool("ingest " + mono_state + " rrc00=" + archive_a_ +
                         " rrc01=" + archive_b_,
                     temp_path("mono_ingest.out")),
            0);
  std::string mono_out = temp_path("mono.out");
  ASSERT_EQ(run_tool("merge " + mono_state, mono_out), 0);

  // Split: one ingest per collector, then fan-in.
  std::string state_a = temp_path("a.state");
  std::string state_b = temp_path("b.state");
  ASSERT_EQ(run_tool("ingest " + state_a + " rrc00=" + archive_a_,
                     temp_path("a_ingest.out")),
            0);
  ASSERT_EQ(run_tool("ingest " + state_b + " rrc01=" + archive_b_,
                     temp_path("b_ingest.out")),
            0);
  std::string split_out = temp_path("split.out");
  ASSERT_EQ(run_tool("merge " + state_a + " " + state_b, split_out), 0);

  std::string mono_report = read_file(mono_out);
  std::string split_report = read_file(split_out);
  ASSERT_FALSE(mono_report.empty());
  EXPECT_NE(mono_report.find("[classifier]\n"), std::string::npos);
  EXPECT_NE(mono_report.find("\n[usage] "), std::string::npos);
  EXPECT_EQ(split_report, mono_report);
}

TEST_F(MergeToolTest, MergePrintsTheStandardRendering) {
  std::string state = temp_path("render.state");
  ASSERT_EQ(run_tool("ingest " + state + " rrc00=" + archive_a_ +
                         " rrc01=" + archive_b_,
                     temp_path("render_ingest.out")),
            0);
  std::string out = temp_path("render.out");
  ASSERT_EQ(run_tool("merge " + state, out), 0);

  // The same ingest in process, with `ingest`'s default IngestOptions.
  analytics::AnalysisDriver driver;
  const analytics::StandardPasses standard =
      analytics::StandardPasses::add(driver);
  core::IngestOptions options;
  driver.attach(options);
  core::StreamingIngestor ingestor(options);
  ingestor.add_file("rrc00", archive_a_);
  ingestor.add_file("rrc01", archive_b_);
  (void)ingestor.finish();
  EXPECT_EQ(read_file(out), standard.collect(driver).render());
}

TEST_F(MergeToolTest, ChainedSaveMergesAssociatively) {
  std::string state_a = temp_path("chain_a.state");
  std::string state_b = temp_path("chain_b.state");
  ASSERT_EQ(run_tool("ingest " + state_a + " rrc00=" + archive_a_,
                     temp_path("chain_a.out")),
            0);
  ASSERT_EQ(run_tool("ingest " + state_b + " rrc01=" + archive_b_,
                     temp_path("chain_b.out")),
            0);

  // (a ⊕ b) saved, then re-merged alone, equals merging a and b directly.
  std::string combined = temp_path("chain_ab.state");
  std::string direct_out = temp_path("chain_direct.out");
  ASSERT_EQ(run_tool("merge --save " + combined + " " + state_a + " " +
                         state_b,
                     direct_out),
            0);
  std::string chained_out = temp_path("chain_again.out");
  ASSERT_EQ(run_tool("merge " + combined, chained_out), 0);
  EXPECT_EQ(read_file(chained_out), read_file(direct_out));
}

TEST_F(MergeToolTest, TagsListsTheStandardPassSet) {
  std::string state = temp_path("tags.state");
  ASSERT_EQ(run_tool("ingest " + state + " rrc00=" + archive_a_,
                     temp_path("tags_ingest.out")),
            0);
  std::string out = temp_path("tags.out");
  ASSERT_EQ(run_tool("tags " + state, out), 0);
  EXPECT_EQ(read_file(out), "1\n2\n3\n4\n5\n6\n7\n8\n9\n");
}

TEST_F(MergeToolTest, ErrorsExitNonZero) {
  // No arguments: usage.
  EXPECT_NE(run_tool("", temp_path("usage.out")), 0);
  // Unknown command.
  EXPECT_NE(run_tool("frobnicate", temp_path("unknown.out")), 0);
  // Missing state file.
  EXPECT_NE(run_tool("merge " + temp_path("nonexistent.state"),
                     temp_path("missing.out")),
            0);
  // Malformed collector=archive operand.
  EXPECT_NE(run_tool("ingest " + temp_path("bad.state") + " no-separator",
                     temp_path("badarg.out")),
            0);
  // Corrupt state file: decode error, not a crash.
  std::string corrupt = temp_path("corrupt.state");
  write_file(corrupt, "BGPCthis is not a state file");
  EXPECT_NE(run_tool("merge " + corrupt, temp_path("corrupt.out")), 0);
}

}  // namespace
}  // namespace bgpcc
