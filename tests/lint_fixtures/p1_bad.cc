// bgpcc-lint fixture: P1 must fire — a pass that violates the
// Pass/SerializablePass contract in several ways.
#include <cstdint>
#include <mutex>
#include <ostream>

namespace fixture {

struct Record {};
struct Reader {};
struct Writer {};

// BAD: no kStateTag, no make_state, State not copy-constructible and
// missing its fields() list.
class BrokenPass {
 public:
  struct State {
    State() = default;
    State(const State&) = delete;  // BAD: snapshot() must copy states

    void observe(const Record& r) { ++seen_; }
    void merge(const State& other) { seen_ += other.seen_; }
    std::uint64_t report() const { return seen_; }
    // BAD: no fields() list — cannot checkpoint.

    std::uint64_t seen_ = 0;
    std::mutex mu_;  // BAD: non-copyable member
  };
};

}  // namespace fixture
