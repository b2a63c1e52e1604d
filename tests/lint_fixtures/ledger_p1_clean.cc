// bgpcc-lint fixture: the clean twin of ledger_p1_bad.cc — one State
// reads the stream table's ledger at report time and observes nothing,
// another keeps a per-session count the ledger does not hold. P1 must
// stay silent.
#include <cstdint>
#include <map>
#include <tuple>

namespace fixture {

namespace core {
struct Record {};
struct SessionKey {};
struct StreamEvent {};
struct SessionLedger {};
}  // namespace core

class SessionTypesPass {
 public:
  static constexpr std::uint16_t kStateTag = 1;

  struct State {
    void merge(const State& other) {}
    std::uint64_t report(const core::SessionLedger& ledger) const;
    static auto fields(auto&) { return std::tie(); }
  };

  State make_state() const { return State{}; }
};

class BurstPass {
 public:
  static constexpr std::uint16_t kStateTag = 2;

  struct State {
    void observe(const core::Record& r, const core::StreamEvent& e) {}
    void merge(const State& other) {}
    std::uint64_t report(const core::SessionLedger& ledger) const {
      return 0;
    }
    static auto fields(auto& self) { return std::tie(self.bursts_); }

   private:
    std::map<core::SessionKey, std::uint64_t> bursts_;
  };

  State make_state() const { return State{}; }
};

}  // namespace fixture
