// bgpcc-lint fixture: P1 must fire — pass States that tally §5 types per
// session instead of reading the stream table's ledger.
#include <cstdint>
#include <map>
#include <tuple>

namespace fixture {

namespace core {
struct Record {};
struct SessionKey {};
struct StreamEvent {};
struct TypeCounts {};
}  // namespace core

class SessionTypesPass {
 public:
  static constexpr std::uint16_t kStateTag = 1;

  struct State {
    void observe(const core::Record& r, const core::StreamEvent& e) {}
    void merge(const State& other) {}
    std::uint64_t report() const { return 0; }
    static auto fields(auto& self) { return std::tie(self.counts_); }

   private:
    std::map<core::SessionKey, core::TypeCounts> counts_;  // BAD: a copy
  };

  State make_state() const { return State{}; }
};

}  // namespace fixture
