// Number-resource registry: which ASNs and prefix blocks were allocated
// when. The paper's §4 cleaning step drops BGP messages containing an ASN
// or prefix that was unallocated at message time; this is the lookup side
// of that step (the synthetic registry content lives in bgpcc::synth).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "netbase/asn.h"
#include "netbase/timeutil.h"
#include "rib/trie.h"

namespace bgpcc::core {

class Registry {
 public:
  /// Registers an ASN as allocated from `when` onwards.
  void allocate_asn(Asn asn, Timestamp when = Timestamp{});
  /// Registers an address block as allocated from `when` onwards. Any
  /// equal-or-more-specific prefix counts as allocated.
  void allocate_prefix(const Prefix& block, Timestamp when = Timestamp{});

  [[nodiscard]] bool asn_allocated(Asn asn, Timestamp at) const;
  /// True if some registered block containing `prefix` was allocated at
  /// `at`. Costs one trie descent of at most `prefix.length()` steps.
  [[nodiscard]] bool prefix_allocated(const Prefix& prefix,
                                      Timestamp at) const;

  [[nodiscard]] std::size_t asn_count() const { return asns_.size(); }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

 private:
  std::unordered_map<std::uint32_t, Timestamp> asns_;
  PrefixTrie<Timestamp> blocks_;
};

}  // namespace bgpcc::core
