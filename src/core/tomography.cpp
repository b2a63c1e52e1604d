#include "core/tomography.h"

#include <algorithm>

namespace bgpcc::core {

const char* label(CommunityBehavior behavior) {
  switch (behavior) {
    case CommunityBehavior::kTagger:
      return "tagger";
    case CommunityBehavior::kCleaner:
      return "cleaner";
    case CommunityBehavior::kPropagator:
      return "propagator";
    case CommunityBehavior::kMixed:
      return "mixed";
    case CommunityBehavior::kUnknown:
      return "unknown";
  }
  return "?";
}

AsEvidence& AsEvidence::operator+=(const AsEvidence& other) {
  on_path += other.on_path;
  own_namespace_tagged += other.own_namespace_tagged;
  as_peer += other.as_peer;
  as_peer_with_communities += other.as_peer_with_communities;
  as_peer_with_foreign += other.as_peer_with_foreign;
  return *this;
}

void accumulate_community_evidence(const UpdateRecord& record,
                                   std::map<Asn, AsEvidence>& evidence) {
  if (!record.announcement) return;
  std::vector<Asn> path = record.attrs.as_path.dedup_sequence();
  if (path.empty()) return;

  for (std::size_t i = 0; i < path.size(); ++i) {
    Asn asn = path[i];
    AsEvidence& e = evidence.try_emplace(asn, AsEvidence{asn}).first->second;
    ++e.on_path;
    if (asn.is_2byte()) {
      std::uint16_t asn16 = static_cast<std::uint16_t>(asn.value());
      for (Community c : record.attrs.communities) {
        if (c.asn16() == asn16) {
          ++e.own_namespace_tagged;
          break;
        }
      }
    }
  }

  // Peer-level evidence: the first AS on the path feeds the collector.
  Asn peer = path.front();
  AsEvidence& pe = evidence.at(peer);
  ++pe.as_peer;
  if (!record.attrs.communities.empty()) {
    ++pe.as_peer_with_communities;
    // Foreign community: namespace of an AS deeper in the path.
    bool foreign = false;
    for (Community c : record.attrs.communities) {
      for (std::size_t i = 1; i < path.size() && !foreign; ++i) {
        if (path[i].is_2byte() &&
            c.asn16() == static_cast<std::uint16_t>(path[i].value())) {
          foreign = true;
        }
      }
      if (foreign) break;
    }
    if (foreign) ++pe.as_peer_with_foreign;
  }
}

std::vector<AsEvidence> finalize_community_behavior(
    std::map<Asn, AsEvidence> evidence, const TomographyOptions& options) {
  std::vector<AsEvidence> out;
  out.reserve(evidence.size());
  for (auto& [asn, e] : evidence) {
    if (e.on_path < options.min_on_path) {
      e.classification = CommunityBehavior::kUnknown;
      out.push_back(e);
      continue;
    }
    double tag_fraction = e.on_path == 0
                              ? 0.0
                              : static_cast<double>(e.own_namespace_tagged) /
                                    static_cast<double>(e.on_path);
    bool tagger = tag_fraction >= options.tagger_min_fraction;
    bool cleaner = false;
    bool propagator = false;
    if (e.as_peer >= options.min_on_path) {
      double with_comm = static_cast<double>(e.as_peer_with_communities) /
                         static_cast<double>(e.as_peer);
      double with_foreign = static_cast<double>(e.as_peer_with_foreign) /
                            static_cast<double>(e.as_peer);
      cleaner = with_comm < options.cleaner_max_community_fraction;
      propagator = with_foreign >= options.propagator_min_fraction;
    }
    if (tagger && cleaner) {
      e.classification = CommunityBehavior::kMixed;
    } else if (cleaner) {
      e.classification = CommunityBehavior::kCleaner;
    } else if (tagger) {
      e.classification = CommunityBehavior::kTagger;
    } else if (propagator) {
      e.classification = CommunityBehavior::kPropagator;
    } else {
      e.classification = CommunityBehavior::kUnknown;
    }
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const AsEvidence& a, const AsEvidence& b) {
              return a.on_path > b.on_path;
            });
  return out;
}

}  // namespace bgpcc::core
