// bgpcc-lint fixture: the clean twin of classifier_p1_bad.cc — the State
// reads the driver's StreamEvent and keeps only tallies. A pass merely
// named after the classifier is fine. P1 must stay silent.
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

class ClassifierPass {
 public:
  static constexpr std::uint16_t kStateTag = 1;

  struct State {
    void observe(const core::Record& r, const core::StreamEvent& e) {}
    void merge(const State& other) {}
    std::uint64_t report() const { return 0; }
    static auto fields(auto& self) { return std::tie(self.counts_); }

   private:
    std::map<core::SessionKey, core::TypeCounts> counts_;
  };

  State make_state() const { return State{}; }
};

}  // namespace fixture
