// Binary prefix trie: the routing-table index. One tree per address family
// (IPv4/IPv6 keys must not mix); deterministic in-order traversal gives
// reproducible iteration for the simulator and tests.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/prefix.h"

namespace bgpcc {

/// Maps Prefix -> T with exact-match and longest-prefix-match lookups.
///
/// A plain (uncompressed) binary trie: simple to reason about, O(prefix
/// length) per operation, and fast enough for simulation-scale tables.
/// Traversal order is (shorter first at equal position, then by address
/// bits), i.e. standard prefix order.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() = default;

  /// Inserts or overwrites. Returns true if the prefix was newly added.
  bool insert(const Prefix& prefix, T value) {
    Node* node = descend_or_create(prefix);
    bool fresh = !node->value.has_value();
    node->value = std::move(value);
    if (fresh) ++size_;
    return fresh;
  }

  /// Returns the stored value for exactly this prefix, or nullptr.
  [[nodiscard]] T* find(const Prefix& prefix) {
    Node* node = descend(prefix);
    return (node != nullptr && node->value) ? &*node->value : nullptr;
  }
  [[nodiscard]] const T* find(const Prefix& prefix) const {
    return const_cast<PrefixTrie*>(this)->find(prefix);
  }

  /// Removes the exact prefix. Returns true if it was present.
  /// (Nodes are not pruned; tables in this codebase shrink rarely and
  /// re-grow at the same keys.)
  bool erase(const Prefix& prefix) {
    Node* node = descend(prefix);
    if (node == nullptr || !node->value) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Longest-prefix match for an address: the most specific stored prefix
  /// containing `addr`, or nullopt.
  [[nodiscard]] std::optional<std::pair<Prefix, const T*>> lookup(
      const IpAddress& addr) const {
    const Node* node = root_for(addr.family());
    std::optional<std::pair<Prefix, const T*>> best;
    int depth = 0;
    while (node != nullptr) {
      if (node->value) {
        best = {Prefix(addr.masked(depth), depth), &*node->value};
      }
      if (depth >= addr.bit_width()) break;
      node = node->children[addr.bit(depth) ? 1 : 0].get();
      ++depth;
    }
    return best;
  }

  /// True if `pred` accepts the value of some stored prefix covering
  /// `prefix` (lengths 0..prefix.length(), `prefix` itself included).
  /// Costs one descent from the family root: values are tested on the
  /// way down, shortest first, and the walk stops at the first accepted.
  template <typename Pred>
  [[nodiscard]] bool any_covering(const Prefix& prefix, Pred&& pred) const {
    const Node* node = root_for(prefix.family());
    for (int depth = 0; node != nullptr; ++depth) {
      if (node->value && pred(*node->value)) return true;
      if (depth == prefix.length()) break;
      node = node->children[prefix.address().bit(depth) ? 1 : 0].get();
    }
    return false;
  }

  /// In-order visit of all (prefix, value) pairs of both families
  /// (IPv4 subtree first).
  void for_each(
      const std::function<void(const Prefix&, const T&)>& fn) const {
    std::vector<bool> bits;
    visit(v4_root_.get(), AddressFamily::kIpv4, bits, fn);
    bits.clear();
    visit(v6_root_.get(), AddressFamily::kIpv6, bits, fn);
  }

  /// Mutable visit (values only; keys are fixed).
  void for_each_mutable(const std::function<void(const Prefix&, T&)>& fn) {
    std::vector<bool> bits;
    visit_mutable(v4_root_.get(), AddressFamily::kIpv4, bits, fn);
    bits.clear();
    visit_mutable(v6_root_.get(), AddressFamily::kIpv6, bits, fn);
  }

  /// All stored prefixes in traversal order.
  [[nodiscard]] std::vector<Prefix> keys() const {
    std::vector<Prefix> out;
    out.reserve(size_);
    for_each([&](const Prefix& p, const T&) { out.push_back(p); });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    v4_root_.reset();
    v6_root_.reset();
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<T> value;
    std::array<std::unique_ptr<Node>, 2> children;
  };

  [[nodiscard]] const Node* root_for(AddressFamily family) const {
    return family == AddressFamily::kIpv4 ? v4_root_.get() : v6_root_.get();
  }

  Node* descend(const Prefix& prefix) {
    auto& root =
        prefix.family() == AddressFamily::kIpv4 ? v4_root_ : v6_root_;
    Node* node = root.get();
    for (int i = 0; node != nullptr && i < prefix.length(); ++i) {
      node = node->children[prefix.address().bit(i) ? 1 : 0].get();
    }
    return node;
  }

  Node* descend_or_create(const Prefix& prefix) {
    auto& root =
        prefix.family() == AddressFamily::kIpv4 ? v4_root_ : v6_root_;
    if (!root) root = std::make_unique<Node>();
    Node* node = root.get();
    for (int i = 0; i < prefix.length(); ++i) {
      auto& child = node->children[prefix.address().bit(i) ? 1 : 0];
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    return node;
  }

  static Prefix prefix_from_bits(AddressFamily family,
                                 const std::vector<bool>& bits) {
    std::array<std::uint8_t, 16> bytes{};
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) bytes[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
    IpAddress addr =
        family == AddressFamily::kIpv4
            ? IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3])
            : IpAddress::v6(bytes);
    return Prefix(addr, static_cast<int>(bits.size()));
  }

  void visit(const Node* node, AddressFamily family, std::vector<bool>& bits,
             const std::function<void(const Prefix&, const T&)>& fn) const {
    if (node == nullptr) return;
    if (node->value) fn(prefix_from_bits(family, bits), *node->value);
    for (int b = 0; b < 2; ++b) {
      bits.push_back(b == 1);
      visit(node->children[static_cast<std::size_t>(b)].get(), family, bits,
            fn);
      bits.pop_back();
    }
  }

  void visit_mutable(Node* node, AddressFamily family, std::vector<bool>& bits,
                     const std::function<void(const Prefix&, T&)>& fn) {
    if (node == nullptr) return;
    if (node->value) fn(prefix_from_bits(family, bits), *node->value);
    for (int b = 0; b < 2; ++b) {
      bits.push_back(b == 1);
      visit_mutable(node->children[static_cast<std::size_t>(b)].get(), family,
                    bits, fn);
      bits.pop_back();
    }
  }

  std::unique_ptr<Node> v4_root_;
  std::unique_ptr<Node> v6_root_;
  std::size_t size_ = 0;
};

}  // namespace bgpcc
