// bgpcc-lint fixture: S1 must fire — decode paths that bypass the
// ByteReader primitives or trust a wire count before validating it.
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace fixture {

struct ByteReader {
  std::uint32_t u32();
  std::uint64_t u64();
};

class BadState {
 public:
  void load(ByteReader& r) {
    // BAD: pre-sizing from an unvalidated wire-read count — corrupt
    // input can drive a multi-gigabyte allocation before any
    // DecodeError fires.
    std::uint32_t count = r.u32();
    values_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      values_.push_back(r.u32());
    }
  }

 private:
  std::vector<std::uint32_t> values_;
};

// BAD: raw stream read inside a decode function — truncation yields
// garbage instead of a DecodeError.
void read_header(std::istream& in, char* buf) {
  in.read(buf, 16);
}

// BAD: not named load or read_*, but it takes a ByteReader&, so it is a
// decode function all the same.
std::vector<std::uint64_t> decode_counts(ByteReader& r) {
  std::uint64_t n = r.u64();
  std::vector<std::uint64_t> counts;
  counts.resize(n);
  return counts;
}

}  // namespace fixture
