#include "core/cleaning.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace bgpcc::core {

void sort_seq_records(std::vector<SeqRecord>& records) {
  std::sort(records.begin(), records.end(), seq_time_order);
}

namespace cleaning {

std::size_t repair_route_server_paths(
    std::vector<SeqRecord>& records, const std::map<IpAddress, Asn>& servers) {
  if (servers.empty()) return 0;
  std::size_t repaired = 0;
  for (SeqRecord& sr : records) {
    UpdateRecord& record = sr.record;
    if (!record.announcement) continue;
    auto it = servers.find(record.session.peer_address);
    if (it == servers.end()) continue;
    auto first = record.attrs.as_path.first_as();
    if (!first || *first != it->second) {
      record.attrs.as_path.prepend(it->second);
      ++repaired;
    }
  }
  return repaired;
}

void drop_unallocated(std::vector<SeqRecord>& records,
                      const Registry& registry, std::size_t* dropped_asn,
                      std::size_t* dropped_prefix) {
  std::erase_if(records, [&](const SeqRecord& sr) {
    const UpdateRecord& record = sr.record;
    if (record.announcement) {
      for (const AsPathSegment& segment : record.attrs.as_path.segments()) {
        for (Asn asn : segment.asns) {
          if (!registry.asn_allocated(asn, record.time)) {
            ++*dropped_asn;
            return true;
          }
        }
      }
    }
    if (!registry.prefix_allocated(record.prefix, record.time)) {
      ++*dropped_prefix;
      return true;
    }
    return false;
  });
}

std::size_t fix_second_granularity(std::vector<SeqRecord>& records,
                                   SecondCarry* carry, std::size_t* late) {
  constexpr std::int64_t kStepMicros = 10;
  std::size_t adjusted = 0;
  // Keyed by the stable FNV hash map: this runs once per record on the
  // per-shard cleaning hot path, where ordered-map lookups dominated.
  // Streaming callers pass their shard's persistent map instead, so the
  // spacing counters survive window boundaries.
  SecondCarry local;
  SecondCarry& last_second = carry != nullptr ? *carry : local;
  for (SeqRecord& sr : records) {
    UpdateRecord& record = sr.record;
    // Collectors with real sub-second stamps are untouched.
    if (record.time.unix_micros() % 1000000 != 0) continue;
    auto [it, inserted] = last_second.try_emplace(
        record.session, std::make_pair(record.time.unix_seconds(), 0));
    auto& [second, count] = it->second;
    if (!inserted && second == record.time.unix_seconds()) {
      ++count;
      record.time = record.time + Duration::micros(kStepMicros * count);
      ++adjusted;
    } else {
      if (!inserted && late != nullptr && record.time.unix_seconds() < second) {
        ++*late;
      }
      second = record.time.unix_seconds();
      count = 0;
    }
  }
  return adjusted;
}

CleaningReport run(std::vector<SeqRecord>& records,
                   const CleaningOptions& options, SecondCarry* carry) {
  CleaningReport report;
  report.route_server_paths_repaired =
      repair_route_server_paths(records, options.route_servers);
  if (options.registry != nullptr) {
    drop_unallocated(records, *options.registry,
                     &report.dropped_unallocated_asn,
                     &report.dropped_unallocated_prefix);
  }
  sort_seq_records(records);
  report.timestamps_adjusted =
      fix_second_granularity(records, carry, &report.late_records);
  sort_seq_records(records);
  return report;
}

}  // namespace cleaning
}  // namespace bgpcc::core
