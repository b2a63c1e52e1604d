// Unit tests: beacon schedule, phase labeling, revealed-attribute and
// community-exploration analyses.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/beacon.h"
#include "netbase/error.h"
#include "run_pass.h"

namespace bgpcc::core {
namespace {

using Phase = BeaconSchedule::Phase;

Timestamp at(int hour, int minute = 0) {
  return Timestamp::from_unix_seconds(1584230400 + hour * 3600 + minute * 60);
}

SessionKey session_a() {
  return SessionKey{"rrc00", Asn(20205), IpAddress::from_string("192.0.2.1")};
}

UpdateRecord record_at(Timestamp t, const std::string& path,
                       const std::string& comms, bool announcement = true) {
  UpdateRecord r;
  r.time = t;
  r.session = session_a();
  r.prefix = Prefix::from_string("84.205.64.0/24");
  r.announcement = announcement;
  if (announcement) {
    r.attrs.as_path = AsPath::from_string(path);
    if (!comms.empty()) {
      std::size_t start = 0;
      while (start < comms.size()) {
        std::size_t end = comms.find(' ', start);
        if (end == std::string::npos) end = comms.size();
        r.attrs.communities.add(
            Community::from_string(comms.substr(start, end - start)));
        start = end + 1;
      }
    }
  }
  return r;
}

TEST(BeaconSchedule, RipePhases) {
  BeaconSchedule schedule;
  EXPECT_EQ(schedule.label(at(0, 0)), Phase::kAnnounce);
  EXPECT_EQ(schedule.label(at(0, 14)), Phase::kAnnounce);
  EXPECT_EQ(schedule.label(at(0, 15)), Phase::kOutside);
  EXPECT_EQ(schedule.label(at(2, 0)), Phase::kWithdraw);
  EXPECT_EQ(schedule.label(at(2, 14)), Phase::kWithdraw);
  EXPECT_EQ(schedule.label(at(2, 15)), Phase::kOutside);
  EXPECT_EQ(schedule.label(at(1, 0)), Phase::kOutside);
  // Every 4 hours.
  EXPECT_EQ(schedule.label(at(4, 0)), Phase::kAnnounce);
  EXPECT_EQ(schedule.label(at(22, 5)), Phase::kWithdraw);
  EXPECT_EQ(schedule.label(at(23, 59)), Phase::kOutside);
}

TEST(BeaconSchedule, ZeroPeriodThrowsInsteadOfDividingByZero) {
  BeaconSchedule schedule;
  schedule.period = Duration::hours(0);
  EXPECT_THROW((void)schedule.label(at(0)), ConfigError);
  EXPECT_THROW((void)schedule.announce_times(at(0)), ConfigError);
  EXPECT_THROW((void)schedule.withdraw_times(at(0)), ConfigError);
  schedule.period = Duration::micros(-1);
  EXPECT_THROW((void)schedule.label(at(0)), ConfigError);
}

TEST(BeaconSchedule, WindowReachingPeriodThrowsInsteadOfDoubleLabeling) {
  BeaconSchedule schedule;
  schedule.period = Duration::hours(1);
  schedule.window = Duration::hours(2);  // would label every instant
  EXPECT_THROW((void)schedule.label(at(0)), ConfigError);
  EXPECT_THROW(schedule.validate(), ConfigError);
  // window == period is equally degenerate: rel < window always holds.
  schedule.window = Duration::hours(1);
  EXPECT_THROW(schedule.validate(), ConfigError);
  schedule.window = Duration::minutes(59);
  EXPECT_NO_THROW(schedule.validate());
}

TEST(BeaconSchedule, PhaseBoundaryIsExclusive) {
  BeaconSchedule schedule;
  // rel == window is the first instant OUTSIDE the phase; one microsecond
  // earlier is the last instant inside.
  Timestamp boundary = at(2, 15);
  EXPECT_EQ(schedule.label(boundary), Phase::kOutside);
  EXPECT_EQ(schedule.label(
                Timestamp::from_unix_micros(boundary.unix_micros() - 1)),
            Phase::kWithdraw);
}

TEST(BeaconSchedule, MidnightWraparound) {
  BeaconSchedule schedule;
  schedule.announce_offset = Duration::hours(23);
  schedule.withdraw_offset = Duration::hours(21);
  // Phases recur at 23:00, 03:00, 07:00, ... — the 23:00 window is the
  // last before midnight and the modulo math must not mislabel the
  // following early-morning instants.
  EXPECT_EQ(schedule.label(at(23, 5)), Phase::kAnnounce);
  EXPECT_EQ(schedule.label(at(23, 20)), Phase::kOutside);
  EXPECT_EQ(schedule.label(at(0, 5)), Phase::kOutside);
  EXPECT_EQ(schedule.label(at(3, 5)), Phase::kAnnounce);
  EXPECT_EQ(schedule.label(at(21, 10)), Phase::kWithdraw);
  EXPECT_EQ(schedule.label(at(1, 10)), Phase::kWithdraw);
}

TEST(BeaconSchedule, OffsetBeyondPeriodRecursModuloPeriod) {
  BeaconSchedule schedule;
  schedule.announce_offset = Duration::hours(26);  // == 02:00 mod 4h
  schedule.withdraw_offset = Duration::hours(1);
  EXPECT_EQ(schedule.label(at(2, 5)), Phase::kAnnounce);
  EXPECT_EQ(schedule.label(at(6, 5)), Phase::kAnnounce);
  EXPECT_EQ(schedule.label(at(0, 5)), Phase::kOutside);
  EXPECT_EQ(schedule.label(at(1, 5)), Phase::kWithdraw);
}

TEST(BeaconSchedule, PhaseTimes) {
  BeaconSchedule schedule;
  auto announces = schedule.announce_times(at(0));
  auto withdraws = schedule.withdraw_times(at(0));
  ASSERT_EQ(announces.size(), 6u);
  ASSERT_EQ(withdraws.size(), 6u);
  EXPECT_EQ(announces[0], at(0));
  EXPECT_EQ(announces[5], at(20));
  EXPECT_EQ(withdraws[0], at(2));
  EXPECT_EQ(withdraws[5], at(22));
}

TEST(RevealedStats, BucketsByPhaseExclusivity) {
  BeaconSchedule schedule;
  UpdateStream stream;
  // Attribute A: only during withdraw phases.
  stream.add(record_at(at(2, 1), "1 2", "3356:1"));
  stream.add(record_at(at(6, 2), "1 2", "3356:1"));
  // Attribute B: only during announce phase.
  stream.add(record_at(at(0, 1), "1 2", "3356:2"));
  // Attribute C: both -> ambiguous.
  stream.add(record_at(at(0, 5), "1 2", "3356:3"));
  stream.add(record_at(at(2, 5), "1 2", "3356:3"));
  // Attribute D: outside only.
  stream.add(record_at(at(1, 0), "1 2", "3356:4"));
  // Empty communities never count.
  stream.add(record_at(at(2, 3), "1 2", ""));

  RevealedStats stats =
      test::run_pass(analytics::RevealedPass{schedule}, stream);
  EXPECT_EQ(stats.total_unique, 4u);
  EXPECT_EQ(stats.withdrawal_only, 1u);
  EXPECT_EQ(stats.announce_only, 1u);
  EXPECT_EQ(stats.outside_only, 1u);
  EXPECT_EQ(stats.ambiguous, 1u);
  EXPECT_DOUBLE_EQ(stats.withdrawal_ratio(), 0.25);
}

TEST(RevealedStats, AttributeIsTheWholeSet) {
  // {3356:1} and {3356:1, 3356:2} are distinct attributes.
  BeaconSchedule schedule;
  UpdateStream stream;
  stream.add(record_at(at(2, 1), "1 2", "3356:1"));
  stream.add(record_at(at(2, 2), "1 2", "3356:1 3356:2"));
  RevealedStats stats =
      test::run_pass(analytics::RevealedPass{schedule}, stream);
  EXPECT_EQ(stats.total_unique, 2u);
  EXPECT_EQ(stats.withdrawal_only, 2u);
}

TEST(CommunityExploration, DetectsNcRunsInWithdrawPhase) {
  BeaconSchedule schedule;
  UpdateStream stream;
  // Steady announcement outside the phase.
  stream.add(record_at(at(1, 0), "20205 3356 174 12654", "3356:2001"));
  // Withdrawal phase: same path, changing communities (3 nc's).
  stream.add(record_at(at(2, 1), "20205 3356 174 12654", "3356:2002"));
  stream.add(record_at(at(2, 2), "20205 3356 174 12654", "3356:2003"));
  stream.add(record_at(at(2, 3), "20205 3356 174 12654", "3356:2004"));
  stream.add(record_at(at(2, 4), "", "", false));  // final withdraw

  auto events = test::run_pass(analytics::ExplorationPass{schedule}, stream);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].nc_count, 3);
  EXPECT_GE(events[0].distinct_attributes, 3);
  EXPECT_EQ(events[0].as_path.to_string(), "20205 3356 174 12654");
}

TEST(CommunityExploration, PathChangeBreaksRun) {
  BeaconSchedule schedule;
  UpdateStream stream;
  stream.add(record_at(at(2, 0), "1 2 3", "3356:1"));
  stream.add(record_at(at(2, 1), "1 2 3", "3356:2"));
  stream.add(record_at(at(2, 2), "1 9 3", "3356:3"));  // path change
  stream.add(record_at(at(2, 3), "1 9 3", "3356:4"));
  auto events = test::run_pass(analytics::ExplorationPass{schedule}, stream);
  // Two separate runs, each with one nc: below the >=2 threshold.
  EXPECT_TRUE(events.empty());
}

TEST(CommunityExploration, SingleNcIsNotAnEvent) {
  BeaconSchedule schedule;
  UpdateStream stream;
  stream.add(record_at(at(2, 0), "1 2", "3356:1"));
  stream.add(record_at(at(2, 1), "1 2", "3356:2"));
  EXPECT_TRUE(
      test::run_pass(analytics::ExplorationPass{schedule}, stream).empty());
}

TEST(CommunityExploration, OutsidePhaseRunsIgnored) {
  BeaconSchedule schedule;
  UpdateStream stream;
  stream.add(record_at(at(1, 0), "1 2", "3356:1"));
  stream.add(record_at(at(1, 1), "1 2", "3356:2"));
  stream.add(record_at(at(1, 2), "1 2", "3356:3"));
  EXPECT_TRUE(
      test::run_pass(analytics::ExplorationPass{schedule}, stream).empty());
}

// The sorted-flush pinned golden: still-active runs used to be flushed
// in run-map (session-key) order at end of stream, so the returned
// events were not in time order like the mid-stream ones. The output
// order is now (begin, session, prefix), whoever emitted the event.
TEST(CommunityExploration, EndOfStreamFlushIsSortedByBeginTime) {
  BeaconSchedule schedule;
  UpdateStream stream;
  // Three sessions whose key order (peer ASN 100 < 200 < 300) is the
  // REVERSE of their run begin times; every run is still active at end
  // of stream, so all three are flushed.
  struct Spec {
    std::uint32_t peer;
    int start_minute;
  };
  for (const Spec& spec : {Spec{100, 10}, Spec{200, 5}, Spec{300, 1}}) {
    for (int i = 0; i < 3; ++i) {
      UpdateRecord r;
      r.time = at(2, spec.start_minute) + Duration::seconds(i * 20);
      r.session = SessionKey{"rrc00", Asn(spec.peer),
                             IpAddress::from_string("192.0.2.1")};
      r.prefix = Prefix::from_string("84.205.64.0/24");
      r.announcement = true;
      r.attrs.as_path = AsPath::from_string("1 2 3");
      r.attrs.communities.add(
          Community::of(3356, static_cast<std::uint16_t>(2000 + i)));
      stream.add(r);
    }
  }
  stream.sort_by_time();
  auto events = test::run_pass(analytics::ExplorationPass{schedule}, stream);
  ASSERT_EQ(events.size(), 3u);
  // Sorted by begin: the ASN-300 run (2:01) first, then 200, then 100 —
  // the run-map order would have returned 100, 200, 300.
  EXPECT_EQ(events[0].session.peer_asn, Asn(300));
  EXPECT_EQ(events[1].session.peer_asn, Asn(200));
  EXPECT_EQ(events[2].session.peer_asn, Asn(100));
  EXPECT_LT(events[0].begin, events[1].begin);
  EXPECT_LT(events[1].begin, events[2].begin);
  // Each run's begin is its second announcement (the first nc).
  EXPECT_EQ(events[0].begin, at(2, 1) + Duration::seconds(20));
  EXPECT_EQ(events[0].nc_count, 2);
  EXPECT_EQ(events[0].distinct_attributes, 3);
}

// The exploration edge cases, one stream each. Times are seconds past
// 02:00, inside the default schedule's withdraw phase until 02:15
// (900 s); the next withdraw phase opens at 06:00 (14400 s).
struct ExplorationStep {
  int second;
  const char* path;  // nullptr: a withdrawal
  const char* comms;
};

struct ExpectedExploration {
  int begin_second;
  int end_second;
  int nc_count;
  int distinct_attributes;
};

struct ExplorationCase {
  const char* name;
  std::vector<ExplorationStep> steps;
  std::vector<ExpectedExploration> events;
};

std::vector<ExplorationCase> exploration_cases() {
  const char* path = "1 2 3";
  return {
      {"reannouncement_after_withdrawal_starts_no_run",
       {{0, path, "3356:1"},
        {60, nullptr, ""},
        {120, path, "3356:2"},
        {180, path, "3356:3"},
        {240, path, "3356:4"}},
       {{180, 240, 2, 3}}},
      {"nn_inside_run_keeps_it_open",
       {{0, path, "3356:1"},
        {60, path, "3356:2"},
        {120, path, "3356:2"},
        {180, path, "3356:3"}},
       {{60, 180, 2, 3}}},
      {"xc_ends_run",
       {{0, path, "3356:1"},
        {60, path, "3356:2"},
        {120, path, "3356:3"},
        {180, "1 1 2 3", "3356:4"},
        {240, "1 1 2 3", "3356:5"}},
       {{60, 120, 2, 3}}},
      {"withdrawal_ends_run",
       {{0, path, "3356:1"},
        {60, path, "3356:2"},
        {120, path, "3356:3"},
        {180, nullptr, ""},
        {240, path, "3356:4"},
        {300, path, "3356:5"}},
       {{60, 120, 2, 3}}},
      {"phase_end_closes_run",
       {{720, path, "3356:1"},
        {780, path, "3356:2"},
        {840, path, "3356:3"},
        {900, path, "3356:4"},
        {960, path, "3356:5"}},
       {{780, 840, 2, 3}}},
      {"nn_outside_phase_closes_run",
       {{780, path, "3356:1"},
        {840, path, "3356:2"},
        {870, path, "3356:3"},
        {900, path, "3356:3"},
        {14460, path, "3356:4"}},
       {{840, 870, 2, 3}}},
      {"withdrawal_on_never_announced_stream",
       {{0, nullptr, ""},
        {60, path, "3356:1"},
        {120, path, "3356:2"},
        {180, path, "3356:3"}},
       {{120, 180, 2, 3}}},
      {"alternating_sets_count_distinct_once",
       {{0, path, "3356:1"},
        {60, path, "3356:2"},
        {120, path, "3356:1"},
        {180, path, "3356:2"}},
       {{60, 180, 3, 2}}},
  };
}

UpdateStream exploration_stream(const ExplorationCase& c) {
  UpdateStream stream;
  for (const ExplorationStep& step : c.steps) {
    Timestamp t = at(2) + Duration::seconds(step.second);
    stream.add(step.path == nullptr ? record_at(t, "", "", false)
                                    : record_at(t, step.path, step.comms));
  }
  return stream;
}

TEST(CommunityExploration, EdgeCasesArePinned) {
  BeaconSchedule schedule;
  for (const ExplorationCase& c : exploration_cases()) {
    SCOPED_TRACE(c.name);
    auto events = test::run_pass(analytics::ExplorationPass{schedule},
                                 exploration_stream(c));
    ASSERT_EQ(events.size(), c.events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const ExpectedExploration& want = c.events[i];
      EXPECT_EQ(events[i].begin, at(2) + Duration::seconds(want.begin_second));
      EXPECT_EQ(events[i].end, at(2) + Duration::seconds(want.end_second));
      EXPECT_EQ(events[i].nc_count, want.nc_count);
      EXPECT_EQ(events[i].distinct_attributes, want.distinct_attributes);
    }
  }
}

TEST(RouteSeries, FiltersByPathAndCollectsWithdrawals) {
  UpdateStream stream;
  stream.add(record_at(at(0, 1), "20205 3356 174 12654", "3356:2001"));
  stream.add(record_at(at(2, 1), "20205 6939 50304 12654", "6939:1"));
  stream.add(record_at(at(2, 2), "20205 3356 174 12654", "3356:2002"));
  stream.add(record_at(at(2, 5), "", "", false));

  AsPath t_path = AsPath::from_string("20205 3356 174 12654");
  RouteSeries series =
      route_series(stream, session_a(),
                   Prefix::from_string("84.205.64.0/24"), t_path);
  // First sighting is untyped and excluded; the 2:2 announcement is a pc
  // (path changed back from the 6939 route).
  ASSERT_EQ(series.announcements.size(), 1u);
  EXPECT_EQ(series.announcements[0].type, AnnouncementType::kPc);
  ASSERT_EQ(series.withdrawals.size(), 1u);
  EXPECT_EQ(series.withdrawals[0], at(2, 5));
}

TEST(RouteSeries, UnfilteredSeesAllTypes) {
  UpdateStream stream;
  stream.add(record_at(at(0, 1), "1 2", "3356:1"));
  stream.add(record_at(at(0, 2), "1 2", "3356:2"));
  stream.add(record_at(at(0, 3), "1 3", "3356:2"));
  RouteSeries series = route_series(
      stream, session_a(), Prefix::from_string("84.205.64.0/24"));
  ASSERT_EQ(series.announcements.size(), 2u);
  EXPECT_EQ(series.announcements[0].type, AnnouncementType::kNc);
  EXPECT_EQ(series.announcements[1].type, AnnouncementType::kPn);
}

TEST(PhaseLabels, Strings) {
  EXPECT_STREQ(label(Phase::kAnnounce), "announce");
  EXPECT_STREQ(label(Phase::kWithdraw), "withdraw");
  EXPECT_STREQ(label(Phase::kOutside), "outside");
}

// The same battery interrupted at every record index: checkpoint after
// the first `split` records, restore into a fresh driver, observe the
// rest. Every split must report exactly what the uninterrupted run does,
// so runs in flight and withdrawn streams survive the checkpoint.
TEST(CommunityExploration, EverySplitResumesExactly) {
  BeaconSchedule schedule;
  for (const ExplorationCase& c : exploration_cases()) {
    SCOPED_TRACE(c.name);
    UpdateStream stream = exploration_stream(c);
    const auto whole =
        test::run_pass(analytics::ExplorationPass{schedule}, stream);
    const std::vector<UpdateRecord>& records = stream.records();
    for (std::size_t split = 0; split <= records.size(); ++split) {
      SCOPED_TRACE("split=" + std::to_string(split));
      analytics::AnalysisDriver first;
      (void)first.add(analytics::ExplorationPass{schedule});
      for (std::size_t i = 0; i < split; ++i) first.observe(records[i]);
      std::stringstream checkpoint;
      first.checkpoint(checkpoint);

      analytics::AnalysisDriver resumed;
      auto handle = resumed.add(analytics::ExplorationPass{schedule});
      resumed.restore(checkpoint);
      for (std::size_t i = split; i < records.size(); ++i) {
        resumed.observe(records[i]);
      }
      EXPECT_TRUE(resumed.report(handle) == whole);
    }
  }
}

}  // namespace
}  // namespace bgpcc::core
