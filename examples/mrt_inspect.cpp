// mrt_inspect: a command-line MRT dump/classify tool (bgpdump-lite).
// Reads an RFC 6396 BGP4MP file, prints each update, and summarizes the
// announcement-type mix.
//
// Run: ./mrt_inspect <file.mrt> [--quiet]
// (produce an input with ./beacon_study, which writes rrc0*.mrt)
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/classifier.h"
#include "core/ingest.h"
#include "core/tables.h"
#include "netbase/error.h"

using namespace bgpcc;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <file.mrt> [--quiet]\n", argv[0]);
    return 2;
  }
  bool quiet = argc > 2 && std::strcmp(argv[2], "--quiet") == 0;

  core::UpdateStream stream;
  try {
    stream = core::ingest_mrt_file("mrt", argv[1]).stream;
  } catch (const DecodeError& e) {
    std::fprintf(stderr, "decode error: %s\n", e.what());
    return 1;
  }

  core::Classifier classifier;
  for (const core::UpdateRecord& record : stream.records()) {
    std::optional<core::AnnouncementType> type = classifier.classify(record);
    if (quiet) continue;
    if (!record.announcement) {
      std::printf("%s %-22s W %s\n", record.time.time_of_day_string().c_str(),
                  record.session.peer_asn.to_string().c_str(),
                  record.prefix.to_string().c_str());
      continue;
    }
    std::printf("%s %-22s A %-20s %-4s [%s] {%s}\n",
                record.time.time_of_day_string().c_str(),
                record.session.peer_asn.to_string().c_str(),
                record.prefix.to_string().c_str(),
                type ? core::label(*type) : "new",
                record.attrs.as_path.to_string().c_str(),
                record.attrs.communities.to_string().c_str());
  }
  const core::TypeCounts counts = classifier.counts();

  std::printf("\n%zu records, %zu announcements, %zu withdrawals, %zu "
              "sessions\n",
              stream.size(), stream.announcement_count(),
              stream.withdrawal_count(), stream.sessions().size());
  core::TextTable table({"type", "count", "share"});
  for (core::AnnouncementType t : core::kAllAnnouncementTypes) {
    table.add_row({core::label(t), core::with_commas(counts.count(t)),
                   core::percent(counts.share(t))});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
