// bgpcc-lint fixture: the clean twin of p1_bad.cc — the full
// Pass/SerializablePass contract shape from src/analytics/passes.h.
// P1 must stay silent.
#include <cstdint>
#include <ostream>
#include <tuple>

namespace fixture {

struct Record {};

class GoodPass {
 public:
  static constexpr std::uint16_t kStateTag = 1;

  struct State {
    void observe(const Record& r) { ++seen_; }
    void merge(const State& other) { seen_ += other.seen_; }
    std::uint64_t report() const { return seen_; }
    static auto fields(auto& self) { return std::tie(self.seen_); }

   private:
    std::uint64_t seen_ = 0;
  };

  State make_state() const { return State{}; }
};

}  // namespace fixture
