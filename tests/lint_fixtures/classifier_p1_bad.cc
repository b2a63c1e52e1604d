// bgpcc-lint fixture: P1 must fire — pass States that keep their own
// §5 stream cursor instead of reading the driver's stream table.
#include <cstdint>
#include <map>
#include <tuple>

namespace fixture {

namespace core {
struct Record {};
struct SessionKey {};
class Classifier {};
}  // namespace core

class CursorPass {
 public:
  static constexpr std::uint16_t kStateTag = 1;

  struct State {
    void observe(const core::Record& r) {}
    void merge(const State& other) {}
    std::uint64_t report() const { return 0; }
    static auto fields(auto& self) { return std::tie(); }

   private:
    core::Classifier classifier_;  // BAD: a private stream cursor
  };

  State make_state() const { return State{}; }
};

class PerSessionCursorPass {
 public:
  static constexpr std::uint16_t kStateTag = 2;

  struct State {
    void observe(const core::Record& r) {}
    void merge(const State& other) {}
    std::uint64_t report() const { return 0; }
    static auto fields(auto& self) { return std::tie(); }

   private:
    // BAD: one cursor map per session
    std::map<core::SessionKey, core::Classifier> classifiers_;
  };

  State make_state() const { return State{}; }
};

}  // namespace fixture
