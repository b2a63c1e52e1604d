// bgpcc-lint fixture: the clean twin of s1_bad.cc — wire counts are
// sanity-capped before they size anything (the core/codec.h idiom).
// S1 must stay silent.
#include <algorithm>
#include <cstdint>
#include <istream>
#include <stdexcept>
#include <vector>

namespace fixture {

class ByteReader {
 public:
  std::uint32_t u32();
  std::uint64_t u64();
  // The primitives themselves are exempt: they are what decode
  // functions go through.
  void read_from(std::istream& in, char* buf) { in.read(buf, 16); }
};

struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class CleanState {
 public:
  void load(ByteReader& r) {
    std::uint32_t count = r.u32();
    // The cap comes before any allocation sized by the count.
    if (count > (1u << 16)) {
      throw DecodeError("implausible element count");
    }
    values_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      values_.push_back(r.u32());
    }
  }

  void load_segments(ByteReader& r) {
    std::uint32_t n = r.u32();
    // A std::min clamp also counts as a bound.
    segments_.reserve(std::min<std::uint32_t>(n, 64));
    for (std::uint32_t i = 0; i < n; ++i) {
      segments_.push_back(r.u32());
    }
  }

 private:
  std::vector<std::uint32_t> values_;
  std::vector<std::uint32_t> segments_;
};

}  // namespace fixture
