// Unit tests: table/number formatting.
#include <gtest/gtest.h>

#include <fstream>

#include "core/tables.h"
#include "test_dir.h"

namespace bgpcc::core {
namespace {

TEST(Format, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(1008000000ull), "1,008,000,000");
}

TEST(Format, HumanCount) {
  EXPECT_EQ(human_count(532), "532");
  EXPECT_EQ(human_count(737000000ull), "737.0M");
  EXPECT_EQ(human_count(1008000000ull), "1.0B");
}

TEST(Format, Percent) {
  EXPECT_EQ(percent(0.337), "33.7%");
  EXPECT_EQ(percent(0.005, 1), "0.5%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(Format, FormatDouble) {
  EXPECT_EQ(format_double(1.2345, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"type", "share"});
  table.add_row({"pc", "33.7%"});
  table.add_row({"nn", "25.7%"});
  table.add_separator();
  table.add_row({"total", "100%"});
  std::string out = table.to_string();
  // Header present, rows present, separator lines drawn.
  EXPECT_NE(out.find("type"), std::string::npos);
  EXPECT_NE(out.find("33.7%"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // First column left-aligned: "pc" padded to width of "total".
  EXPECT_NE(out.find("pc   "), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"x"});
  EXPECT_NO_THROW((void)table.to_string());
}

TEST(Csv, EscapesCells) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(csv_escape("cr\rlf"), "\"cr\rlf\"");
}

TEST(Csv, QuotesDirtyCellsOnDisk) {
  const test::TestDir csv("tables", ".csv");
  const std::string& path = csv.path();
  write_csv(path, {"communities", "note"},
            {{"65000:1 65000:2", "a,b"}, {"x", "he said \"go\""}});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "communities,note");
  std::getline(in, line);
  EXPECT_EQ(line, "65000:1 65000:2,\"a,b\"");
  std::getline(in, line);
  EXPECT_EQ(line, "x,\"he said \"\"go\"\"\"");
}

TEST(Csv, WritesRows) {
  const test::TestDir csv("tables", ".csv");
  const std::string& path = csv.path();
  write_csv(path, {"h1", "h2"}, {{"1", "2"}, {"3", "4"}});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1,h2");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
}

}  // namespace
}  // namespace bgpcc::core
