#include "bgp/aspath.h"

#include <algorithm>
#include <charconv>

#include "netbase/error.h"

namespace bgpcc {

AsPath AsPath::sequence(std::initializer_list<std::uint32_t> asns) {
  std::vector<Asn> list;
  list.reserve(asns.size());
  for (std::uint32_t a : asns) list.emplace_back(a);
  return sequence(list);
}

AsPath AsPath::sequence(const std::vector<Asn>& asns) {
  AsPath path;
  if (!asns.empty()) {
    path.segments_.push_back(
        AsPathSegment{AsPathSegment::Type::kSequence, asns});
  }
  return path;
}

AsPath AsPath::from_segments(std::vector<AsPathSegment> segments) {
  AsPath path;
  for (AsPathSegment& seg : segments) {
    if (seg.asns.empty()) continue;
    if (seg.asns.size() > 255) {
      throw ParseError("AS path segment longer than 255 ASNs");
    }
    path.segments_.push_back(std::move(seg));
  }
  return path;
}

AsPath AsPath::from_string(std::string_view text) {
  AsPath path;
  AsPathSegment current{AsPathSegment::Type::kSequence, {}};
  bool in_set = false;
  std::size_t i = 0;

  auto flush = [&](AsPathSegment::Type next_type) {
    if (!current.asns.empty()) path.segments_.push_back(current);
    current = AsPathSegment{next_type, {}};
  };

  while (i < text.size()) {
    char c = text[i];
    if (c == ' ' || c == '\t') {
      ++i;
    } else if (c == '{') {
      if (in_set) throw ParseError("nested '{' in AS path");
      flush(AsPathSegment::Type::kSet);
      in_set = true;
      ++i;
    } else if (c == '}') {
      if (!in_set) throw ParseError("unmatched '}' in AS path");
      if (current.asns.empty()) throw ParseError("empty AS_SET in AS path");
      flush(AsPathSegment::Type::kSequence);
      in_set = false;
      ++i;
    } else if (c >= '0' && c <= '9') {
      std::size_t j = i;
      while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
      std::uint64_t value = 0;
      auto [ptr, ec] = std::from_chars(text.data() + i, text.data() + j, value);
      if (ec != std::errc() || ptr != text.data() + j || value > 0xffffffffull) {
        throw ParseError("malformed ASN in AS path: " + std::string(text));
      }
      current.asns.emplace_back(static_cast<std::uint32_t>(value));
      i = j;
    } else {
      throw ParseError("unexpected character in AS path: " + std::string(text));
    }
  }
  if (in_set) throw ParseError("unterminated '{' in AS path");
  flush(AsPathSegment::Type::kSequence);
  return path;
}

int AsPath::length() const {
  int n = 0;
  for (const AsPathSegment& seg : segments_) {
    n += (seg.type == AsPathSegment::Type::kSet)
             ? 1
             : static_cast<int>(seg.asns.size());
  }
  return n;
}

void AsPath::prepend(Asn asn, int count) {
  if (count <= 0) return;
  if (segments_.empty() ||
      segments_.front().type != AsPathSegment::Type::kSequence ||
      segments_.front().asns.size() + static_cast<std::size_t>(count) > 255) {
    segments_.insert(segments_.begin(),
                     AsPathSegment{AsPathSegment::Type::kSequence, {}});
  }
  auto& front = segments_.front().asns;
  front.insert(front.begin(), static_cast<std::size_t>(count), asn);
}

std::optional<Asn> AsPath::first_as() const {
  for (const AsPathSegment& seg : segments_) {
    if (seg.type == AsPathSegment::Type::kSequence && !seg.asns.empty()) {
      return seg.asns.front();
    }
  }
  return std::nullopt;
}

std::optional<Asn> AsPath::origin_as() const {
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (it->type == AsPathSegment::Type::kSequence && !it->asns.empty()) {
      return it->asns.back();
    }
  }
  return std::nullopt;
}

bool AsPath::contains(Asn asn) const {
  for (const AsPathSegment& seg : segments_) {
    if (std::find(seg.asns.begin(), seg.asns.end(), asn) != seg.asns.end()) {
      return true;
    }
  }
  return false;
}

std::vector<Asn> AsPath::flatten() const {
  std::vector<Asn> out;
  for (const AsPathSegment& seg : segments_) {
    out.insert(out.end(), seg.asns.begin(), seg.asns.end());
  }
  return out;
}

std::vector<Asn> AsPath::as_set() const {
  std::vector<Asn> out = flatten();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool AsPath::same_as_set(const AsPath& other) const {
  return as_set() == other.as_set();
}

std::vector<Asn> AsPath::dedup_sequence() const {
  std::vector<Asn> out;
  for (Asn asn : flatten()) {
    if (out.empty() || out.back() != asn) out.push_back(asn);
  }
  return out;
}

bool AsPath::prepending_only_change_from(const AsPath& other) const {
  // Equal de-duplicated sequences already mean equal AS sets.
  return *this != other && dedup_sequence() == other.dedup_sequence();
}

std::string AsPath::to_string() const {
  std::string out;
  for (const AsPathSegment& seg : segments_) {
    if (!out.empty()) out.push_back(' ');
    if (seg.type == AsPathSegment::Type::kSet) out.push_back('{');
    bool first = true;
    for (Asn asn : seg.asns) {
      if (!first) out.push_back(' ');
      out += std::to_string(asn.value());
      first = false;
    }
    if (seg.type == AsPathSegment::Type::kSet) out.push_back('}');
  }
  return out;
}

}  // namespace bgpcc
