#include "core/registry.h"

namespace bgpcc::core {

void Registry::allocate_asn(Asn asn, Timestamp when) {
  auto [it, inserted] = asns_.try_emplace(asn.value(), when);
  if (!inserted && when < it->second) it->second = when;
}

void Registry::allocate_prefix(const Prefix& block, Timestamp when) {
  if (Timestamp* existing = blocks_.find(block)) {
    if (when < *existing) *existing = when;
    return;
  }
  blocks_.insert(block, when);
}

bool Registry::asn_allocated(Asn asn, Timestamp at) const {
  auto it = asns_.find(asn.value());
  return it != asns_.end() && it->second <= at;
}

bool Registry::prefix_allocated(const Prefix& prefix, Timestamp at) const {
  return blocks_.any_covering(
      prefix, [at](const Timestamp& when) { return when <= at; });
}

}  // namespace bgpcc::core
