#include "core/stream.h"

#include <algorithm>
#include <utility>

#include "core/cleaning.h"

namespace bgpcc::core {

std::string SessionKey::to_string() const {
  return collector + "|" + peer_asn.to_string() + "|" +
         peer_address.to_string();
}

std::size_t SessionKey::hash() const {
  // FNV-1a over the key's canonical bytes: collector name, ASN, address.
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (char c : collector) mix(static_cast<std::uint8_t>(c));
  std::uint32_t asn = peer_asn.value();
  for (int shift = 0; shift < 32; shift += 8) {
    mix(static_cast<std::uint8_t>(asn >> shift));
  }
  mix(static_cast<std::uint8_t>(peer_address.family()));
  for (std::uint8_t byte : peer_address.bytes()) mix(byte);
  return static_cast<std::size_t>(h);
}

void append_update_records(const std::string& collector, Asn peer_asn,
                           const IpAddress& peer_address, Timestamp time,
                           const UpdateMessage& update,
                           std::vector<UpdateRecord>& out) {
  SessionKey key{collector, peer_asn, peer_address};
  for (const Prefix& prefix : update.withdrawn) {
    UpdateRecord record;
    record.time = time;
    record.session = key;
    record.prefix = prefix;
    record.announcement = false;
    out.push_back(std::move(record));
  }
  if (!update.announced.empty() && update.attrs) {
    for (const Prefix& prefix : update.announced) {
      UpdateRecord record;
      record.time = time;
      record.session = key;
      record.prefix = prefix;
      record.announcement = true;
      record.attrs = *update.attrs;
      out.push_back(std::move(record));
    }
  }
}

void UpdateStream::add_message(const std::string& collector, Asn peer_asn,
                               const IpAddress& peer_address, Timestamp time,
                               const UpdateMessage& update) {
  append_update_records(collector, peer_asn, peer_address, time, update,
                        records_);
}

void UpdateStream::sort_by_time() {
  std::stable_sort(
      records_.begin(), records_.end(),
      [](const UpdateRecord& a, const UpdateRecord& b) { return a.time < b.time; });
}

std::size_t UpdateStream::announcement_count() const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [](const UpdateRecord& r) { return r.announcement; }));
}

std::size_t UpdateStream::withdrawal_count() const {
  return size() - announcement_count();
}

std::set<SessionKey> UpdateStream::sessions() const {
  std::set<SessionKey> out;
  for (const UpdateRecord& r : records_) out.insert(r.session);
  return out;
}

CleaningReport clean(UpdateStream& stream, const CleaningOptions& options) {
  // Wrap records with their arrival index and run the shared §4 kernels —
  // the same code the parallel ingestion engine runs per shard.
  std::vector<SeqRecord> records;
  records.reserve(stream.size());
  std::uint64_t seq = 0;
  for (UpdateRecord& record : stream.records()) {
    records.push_back(SeqRecord{seq++, std::move(record)});
  }
  CleaningReport report = cleaning::run(records, options);
  stream.records().clear();
  stream.records().reserve(records.size());
  for (SeqRecord& sr : records) {
    stream.records().push_back(std::move(sr.record));
  }
  return report;
}

}  // namespace bgpcc::core
