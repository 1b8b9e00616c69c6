// Autonomous rebalancing tests: the self-healing load controller (trigger
// windows, cooldown pacing, split/merge decisions, serialized trend state),
// PickMoveSet determinism, ScanOverload boundary cases, active-prosumer
// migration (precondition reporting, conservation, checkpointed resume),
// split/merge elasticity with topology-epoch'd stores and golden-pinned
// resize output, the closed control loop, and the rebalancing kill matrix
// (crash at every durable write while plans execute; recovery converges to
// the uninterrupted run).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/messages.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "sim/alerts.h"
#include "sim/coordinator.h"
#include "sim/online.h"
#include "sim/rebalance.h"
#include "sim/shard.h"
#include "sim/workload.h"
#include "util/fault.h"
#include "util/crc32.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace flexvis {
namespace {

namespace fs = std::filesystem;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

TimeInterval Day() { return TimeInterval(T0(), T0() + timeutil::kMinutesPerDay); }

sim::ShardLoadSample Sample(int64_t shed, int depth, int64_t backlog) {
  sim::ShardLoadSample sample;
  sample.shed_offers = shed;
  sample.queue_depth = depth;
  sample.backlog = backlog;
  return sample;
}

void ExpectReportsEqual(const sim::OnlineReport& a, const sim::OnlineReport& b,
                        const std::string& label) {
  EXPECT_EQ(a.outbox, b.outbox) << label;
  EXPECT_EQ(a.offers_received, b.offers_received) << label;
  EXPECT_EQ(a.accepted, b.accepted) << label;
  EXPECT_EQ(a.rejected, b.rejected) << label;
  EXPECT_EQ(a.assigned, b.assigned) << label;
  EXPECT_EQ(a.missed_acceptance, b.missed_acceptance) << label;
  EXPECT_EQ(a.missed_assignment, b.missed_assignment) << label;
  EXPECT_EQ(a.dropped_ingest, b.dropped_ingest) << label;
  EXPECT_EQ(a.failed_sends, b.failed_sends) << label;
  EXPECT_EQ(a.shed_offers, b.shed_offers) << label;
  EXPECT_EQ(a.queue_high_watermark, b.queue_high_watermark) << label;
  EXPECT_EQ(a.ticks, b.ticks) << label;
  EXPECT_EQ(a.imbalance_kwh, b.imbalance_kwh) << label;  // exact, not near
  ASSERT_EQ(a.offers.size(), b.offers.size()) << label;
  for (size_t i = 0; i < a.offers.size(); ++i) {
    EXPECT_EQ(core::EncodeFlexOffer(a.offers[i]), core::EncodeFlexOffer(b.offers[i]))
        << label << " offer " << i;
  }
}

void ExpectMergedEqual(const sim::MergedOnlineReport& a, const sim::MergedOnlineReport& b,
                       const std::string& label) {
  EXPECT_EQ(a.num_shards, b.num_shards) << label;
  EXPECT_EQ(a.epoch, b.epoch) << label;
  EXPECT_EQ(a.topology, b.topology) << label;
  EXPECT_EQ(a.total_offered_kwh, b.total_offered_kwh) << label;
  ExpectReportsEqual(a.global, b.global, label + " (global)");
  ASSERT_EQ(a.shard_reports.size(), b.shard_reports.size()) << label;
  for (size_t s = 0; s < a.shard_reports.size(); ++s) {
    ExpectReportsEqual(a.shard_reports[s], b.shard_reports[s],
                       label + " (shard " + std::to_string(s) + ")");
  }
}

/// Global conservation invariants every (possibly rebalanced) run must obey:
/// every input offer comes back exactly once in global input order, and the
/// additive counters and outbox merge as sums over the per-shard reports.
void ExpectConserved(const sim::MergedOnlineReport& merged,
                     const std::vector<core::FlexOffer>& inputs, const std::string& label) {
  ASSERT_EQ(merged.global.offers.size(), inputs.size()) << label;
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(merged.global.offers[i].id, inputs[i].id) << label << " position " << i;
  }
  int received = 0;
  int accepted = 0;
  int rejected = 0;
  int shed = 0;
  size_t outbox = 0;
  for (const sim::OnlineReport& r : merged.shard_reports) {
    received += r.offers_received;
    accepted += r.accepted;
    rejected += r.rejected;
    shed += r.shed_offers;
    outbox += r.outbox.size();
  }
  EXPECT_EQ(received, merged.global.offers_received) << label;
  EXPECT_EQ(accepted, merged.global.accepted) << label;
  EXPECT_EQ(rejected, merged.global.rejected) << label;
  EXPECT_EQ(shed, merged.global.shed_offers) << label;
  EXPECT_EQ(outbox, merged.global.outbox.size()) << label;
}

/// CRC-32 over a merged report's observable output: fleet shape, then for
/// the global report and every shard report the counters, the outbox and
/// every offer's wire encoding. Pins what a resize produces, not merely that
/// it conserves.
uint32_t MergedCrc(const sim::MergedOnlineReport& merged) {
  uint32_t crc = Crc32(StrFormat("shards=%d topology=%d epoch=%lld", merged.num_shards,
                                 merged.topology, static_cast<long long>(merged.epoch)));
  auto fold = [&crc](const sim::OnlineReport& r) {
    const std::string counters =
        StrFormat("|%d %d %d %d %d %d %d %d %d %d %d %.17g", r.offers_received, r.accepted,
                  r.rejected, r.assigned, r.missed_acceptance, r.missed_assignment,
                  r.dropped_ingest, r.failed_sends, r.shed_offers, r.queue_high_watermark, r.ticks,
                  r.imbalance_kwh);
    crc = Crc32(counters, crc);
    for (const std::string& wire : r.outbox) crc = Crc32(wire, crc);
    for (const core::FlexOffer& offer : r.offers) crc = Crc32(core::EncodeFlexOffer(offer), crc);
  };
  fold(merged.global);
  for (const sim::OnlineReport& r : merged.shard_reports) fold(r);
  return crc;
}

// ---- PickMoveSet ------------------------------------------------------------

TEST(PickMoveSetTest, OrdersByLoadThenIdAndStopsAtTarget) {
  std::vector<sim::ProsumerLoad> candidates = {
      {7, 3}, {2, 5}, {9, 5}, {4, 1},
  };
  // Sorted: 2 (5), 9 (5, higher id loses the tie), 7 (3), 4 (1). Target 8 is
  // reached after {2, 9} (5 + 5 >= 8).
  std::vector<core::ProsumerId> picked = sim::PickMoveSet(candidates, 10, 8);
  EXPECT_EQ(picked, (std::vector<core::ProsumerId>{2, 9}));
}

TEST(PickMoveSetTest, HonorsMaxMovesAndSkipsZeroLoad) {
  std::vector<sim::ProsumerLoad> candidates = {{1, 4}, {2, 3}, {3, 2}, {4, 0}, {5, 0}};
  std::vector<core::ProsumerId> capped = sim::PickMoveSet(candidates, 2, 1000);
  EXPECT_EQ(capped, (std::vector<core::ProsumerId>{1, 2}));
  // Zero-load prosumers are never picked, even with room to spare.
  std::vector<core::ProsumerId> all = sim::PickMoveSet(candidates, 10, 1000);
  EXPECT_EQ(all, (std::vector<core::ProsumerId>{1, 2, 3}));
  EXPECT_TRUE(sim::PickMoveSet({{4, 0}}, 10, 1000).empty());
  EXPECT_TRUE(sim::PickMoveSet({}, 10, 1000).empty());
}

// ---- ScanOverload boundary cases --------------------------------------------

TEST(ScanOverloadTest, EmptyShardReportsYieldNoAlerts) {
  EXPECT_TRUE(sim::ScanOverload({}, Day()).empty());
  EXPECT_TRUE(sim::ScanOverload({}, Day(), 5).empty());
}

TEST(ScanOverloadTest, WatermarkExactlyAtThresholdAlerts) {
  sim::OnlineReport report;
  report.queue_high_watermark = 5;
  report.offers_received = 10;
  // Exactly at the threshold triggers (>=, not >); one below stays quiet;
  // threshold 0 disables the depth signal entirely.
  EXPECT_EQ(sim::ScanOverload({report}, Day(), 5).size(), 1u);
  EXPECT_TRUE(sim::ScanOverload({report}, Day(), 6).empty());
  EXPECT_TRUE(sim::ScanOverload({report}, Day(), 0).empty());
  EXPECT_TRUE(sim::ScanOverload({report}, Day()).empty());
}

TEST(ScanOverloadTest, AllShardsOverloadedYieldsOneAlertPerShardWithItsIndex) {
  std::vector<sim::OnlineReport> reports(3);
  for (sim::OnlineReport& report : reports) {
    report.shed_offers = 2;
    report.offers_received = 4;
  }
  std::vector<sim::Alert> alerts = sim::ScanOverload(reports, Day());
  ASSERT_EQ(alerts.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(alerts[s].kind, sim::AlertKind::kOverload);
    EXPECT_EQ(alerts[s].shard, s);
    EXPECT_NE(alerts[s].message.find("shard " + std::to_string(s)), std::string::npos);
  }
}

// ---- RebalanceController ----------------------------------------------------

sim::RebalanceParams ControllerParams() {
  sim::RebalanceParams params;
  params.window_ticks = 2;
  params.cooldown_ticks = 2;
  params.max_moves = 2;
  return params;
}

TEST(RebalanceControllerTest, TriggersMoveAfterSustainedWindowAndPicksColdestTarget) {
  sim::RebalanceController controller(ControllerParams(), 3, Day());
  // Tick 0: shard 0 sheds 2 (streak 1) — below the window, no decision.
  EXPECT_FALSE(controller.Observe(0, {Sample(2, 4, 6), Sample(0, 1, 3), Sample(0, 0, 1)})
                   .has_value());
  // Tick 1: sheds again (streak 2 == window) — decision. Shard 2 has the
  // least backlog + depth, so it is the cold target.
  std::optional<sim::RebalanceDecision> decision =
      controller.Observe(1, {Sample(4, 4, 6), Sample(0, 1, 3), Sample(0, 0, 1)});
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->plan_id, 1);
  EXPECT_EQ(decision->tick, 1);
  EXPECT_EQ(decision->action, sim::RebalancePlan::Action::kMove);
  EXPECT_EQ(decision->hot_shard, 0);
  EXPECT_EQ(decision->cold_shard, 2);
}

TEST(RebalanceControllerTest, ShedCountersAreDifferencedNotAbsolute) {
  sim::RebalanceController controller(ControllerParams(), 2, Day());
  // A cumulative counter stuck at 5 means no NEW sheds: after the first
  // observation the delta is zero and the streak never builds.
  EXPECT_FALSE(controller.Observe(0, {Sample(5, 0, 0), Sample(0, 0, 0)}).has_value());
  EXPECT_FALSE(controller.Observe(1, {Sample(5, 0, 0), Sample(0, 0, 0)}).has_value());
  EXPECT_FALSE(controller.Observe(2, {Sample(5, 0, 0), Sample(0, 0, 0)}).has_value());
  EXPECT_EQ(controller.last_observed_tick(), 2);
  EXPECT_EQ(controller.next_plan_id(), 1);
}

TEST(RebalanceControllerTest, CooldownPacesConsecutivePlans) {
  sim::RebalanceController controller(ControllerParams(), 2, Day());
  auto hot = [&](int64_t tick, int64_t shed) {
    return controller.Observe(tick, {Sample(shed, 3, 3), Sample(0, 0, 0)});
  };
  EXPECT_FALSE(hot(0, 2).has_value());
  ASSERT_TRUE(hot(1, 4).has_value());  // plan 1 fires; cooldown 2 starts
  EXPECT_FALSE(hot(2, 6).has_value());
  EXPECT_FALSE(hot(3, 8).has_value());
  // Cooldown spent and the streak re-built through it: plan 2 fires.
  std::optional<sim::RebalanceDecision> second = hot(4, 10);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->plan_id, 2);
}

TEST(RebalanceControllerTest, SplitsWhenEveryShardIsHotAndResizeAllowed) {
  sim::RebalanceParams params = ControllerParams();
  params.allow_resize = true;
  params.max_shards = 8;
  sim::RebalanceController controller(params, 2, Day());
  EXPECT_FALSE(controller.Observe(0, {Sample(1, 2, 2), Sample(1, 2, 2)}).has_value());
  std::optional<sim::RebalanceDecision> decision =
      controller.Observe(1, {Sample(2, 2, 2), Sample(2, 2, 2)});
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->action, sim::RebalancePlan::Action::kSplit);
  EXPECT_EQ(decision->new_num_shards, 4);
}

TEST(RebalanceControllerTest, SplitClampsToMaxShardsAndFallsBackToMove) {
  sim::RebalanceParams params = ControllerParams();
  params.allow_resize = true;
  params.max_shards = 2;  // already there: a split cannot grow the fleet
  sim::RebalanceController controller(params, 2, Day());
  EXPECT_FALSE(controller.Observe(0, {Sample(1, 2, 2), Sample(1, 1, 1)}).has_value());
  std::optional<sim::RebalanceDecision> decision =
      controller.Observe(1, {Sample(2, 2, 2), Sample(2, 1, 1)});
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->action, sim::RebalancePlan::Action::kMove);
}

TEST(RebalanceControllerTest, MergesAfterSustainedIdleFleet) {
  sim::RebalanceParams params = ControllerParams();
  params.allow_resize = true;
  params.merge_window_ticks = 3;
  params.min_shards = 1;
  sim::RebalanceController controller(params, 4, Day());
  std::vector<sim::ShardLoadSample> idle(4);
  EXPECT_FALSE(controller.Observe(0, idle).has_value());
  EXPECT_FALSE(controller.Observe(1, idle).has_value());
  std::optional<sim::RebalanceDecision> decision = controller.Observe(2, idle);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->action, sim::RebalancePlan::Action::kMerge);
  EXPECT_EQ(decision->new_num_shards, 2);
}

TEST(RebalanceControllerTest, SingleShardWithoutResizeNeverTriggers) {
  sim::RebalanceController controller(ControllerParams(), 1, Day());
  for (int64_t t = 0; t < 6; ++t) {
    EXPECT_FALSE(controller.Observe(t, {Sample(2 * (t + 1), 5, 5)}).has_value())
        << "tick " << t;
  }
}

TEST(RebalanceControllerTest, StateRoundTripsThroughJsonMidStream) {
  // Two controllers walk the same sample history; one is serialized and
  // decoded mid-stream. Every later decision must match exactly — the
  // property the crash-resume controller feed depends on.
  sim::RebalanceParams params = ControllerParams();
  params.cooldown_ticks = 1;
  sim::RebalanceController live(params, 2, Day());
  auto samples = [](int64_t t) {
    return std::vector<sim::ShardLoadSample>{Sample(2 * (t + 1), 3, 3), Sample(0, 0, 0)};
  };
  std::vector<std::optional<sim::RebalanceDecision>> live_decisions;
  for (int64_t t = 0; t < 4; ++t) live_decisions.push_back(live.Observe(t, samples(t)));

  sim::RebalanceController resumed(params, 2, Day());
  ASSERT_TRUE(resumed.DecodeState(live.EncodeState()).ok());
  EXPECT_EQ(resumed.last_observed_tick(), live.last_observed_tick());
  EXPECT_EQ(resumed.next_plan_id(), live.next_plan_id());
  for (int64_t t = 4; t < 10; ++t) {
    std::optional<sim::RebalanceDecision> a = live.Observe(t, samples(t));
    std::optional<sim::RebalanceDecision> b = resumed.Observe(t, samples(t));
    ASSERT_EQ(a.has_value(), b.has_value()) << "tick " << t;
    if (a.has_value()) {
      EXPECT_EQ(a->plan_id, b->plan_id) << "tick " << t;
      EXPECT_EQ(a->tick, b->tick) << "tick " << t;
      EXPECT_EQ(a->action, b->action) << "tick " << t;
      EXPECT_EQ(a->hot_shard, b->hot_shard) << "tick " << t;
      EXPECT_EQ(a->cold_shard, b->cold_shard) << "tick " << t;
    }
  }
}

TEST(RebalanceControllerTest, DecodeRejectsStateForTheWrongFleetSize) {
  sim::RebalanceController two(ControllerParams(), 2, Day());
  sim::RebalanceController three(ControllerParams(), 3, Day());
  Status status = three.DecodeState(two.EncodeState());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST(RebalancePlanTest, CodecRoundTripsAndRejectsGarbage) {
  sim::RebalancePlan plan;
  plan.id = 7;
  plan.tick = 11;
  plan.action = sim::RebalancePlan::Action::kMove;
  plan.moves.push_back({42, 0, 3});
  plan.moves.push_back({43, 0, 3});
  Result<sim::RebalancePlan> decoded = sim::DecodeRebalancePlan(sim::EncodeRebalancePlan(plan));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, plan.id);
  EXPECT_EQ(decoded->tick, plan.tick);
  EXPECT_EQ(decoded->action, plan.action);
  ASSERT_EQ(decoded->moves.size(), 2u);
  EXPECT_EQ(decoded->moves[1].prosumer, 43);
  EXPECT_EQ(decoded->moves[1].to, 3);

  EXPECT_EQ(sim::ParseRebalanceAction("bogus").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim::DecodeRebalancePlan(JsonValue::Object()).status().code(),
            StatusCode::kDataLoss);
  sim::RebalanceParams params;
  Result<sim::RebalanceParams> round =
      sim::DecodeRebalanceParams(sim::EncodeRebalanceParams(params));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->window_ticks, params.window_ticks);
  EXPECT_EQ(sim::DecodeRebalanceParams(JsonValue::Object()).status().code(),
            StatusCode::kDataLoss);

  // Integers are read strictly: a double is never truncated (2.9 -> 2) and a
  // value past an int is never narrowed (4294967297 -> 1).
  const JsonValue encoded_params = sim::EncodeRebalanceParams(params);
  const JsonValue encoded_plan = sim::EncodeRebalancePlan(plan);
  const auto with = [](JsonValue object, const char* key, JsonValue value) {
    object.Set(key, std::move(value));
    return object;
  };
  for (const JsonValue& bad : {JsonValue::Double(2.9), JsonValue::Int(4294967297LL),
                               JsonValue::Str("3")}) {
    EXPECT_EQ(sim::DecodeRebalanceParams(with(encoded_params, "window_ticks", bad))
                  .status()
                  .code(),
              StatusCode::kDataLoss)
        << bad.Dump();
    EXPECT_EQ(sim::DecodeRebalancePlan(with(encoded_plan, "new_num_shards", bad)).status().code(),
              StatusCode::kDataLoss)
        << bad.Dump();
    JsonValue moves = JsonValue::Array();
    moves.Append(with(encoded_plan.Get("moves")[0], "to", bad));
    EXPECT_EQ(sim::DecodeRebalancePlan(with(encoded_plan, "moves", moves)).status().code(),
              StatusCode::kDataLoss)
        << bad.Dump();
  }
  EXPECT_EQ(sim::DecodeRebalancePlan(with(encoded_plan, "tick", JsonValue::Double(11.5)))
                .status()
                .code(),
            StatusCode::kDataLoss);

  // The controller's trend state: a list entry that is no integer is never
  // read as 0.
  sim::RebalanceController controller(params, 2, Day());
  const JsonValue state = controller.EncodeState();
  ASSERT_TRUE(controller.DecodeState(state).ok());
  JsonValue strings = JsonValue::Array();
  strings.Append(JsonValue::Str("x"));
  strings.Append(JsonValue::Str("y"));
  JsonValue fractions = JsonValue::Array();
  fractions.Append(JsonValue::Double(2.9));
  fractions.Append(JsonValue::Int(0));
  for (const JsonValue& bad : {with(state, "streak", strings), with(state, "streak", fractions),
                               with(state, "prev_shed", strings),
                               with(state, "cooldown", JsonValue::Double(2.9)),
                               with(state, "idle_streak", JsonValue::Int(4294967297LL))}) {
    EXPECT_EQ(controller.DecodeState(bad).code(), StatusCode::kDataLoss) << bad.Dump();
  }
}

// ---- Coordinator-level rebalancing ------------------------------------------

class RebalanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetParallelThreadCount(1);
    FaultRegistry::Global().DisarmAll();
    atlas_ = geo::Atlas::MakeDenmark();
    topology_ = grid::GridTopology::MakeRadial(2, 2, 2, 3);
    sim::WorkloadGenerator generator(&atlas_, &topology_);
    sim::WorkloadParams wp;
    wp.seed = 4242;
    wp.num_prosumers = 30;
    wp.offers_per_prosumer = 1.5;
    wp.horizon = Day();
    workload_ = *generator.Generate(wp);
    window_ = wp.horizon;
    online_.tick_minutes = 120;  // 12 ticks over the day

    root_ = fs::path(::testing::TempDir()) /
            ("flexvis_rebalance." + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override {
    FaultRegistry::Global().DisarmAll();
    SetParallelThreadCount(1);
    if (!HasFailure()) {
      std::error_code ec;
      fs::remove_all(root_, ec);
    }
  }

  std::string Dir(const std::string& name) {
    fs::path dir = root_ / name;
    fs::remove_all(dir);
    return dir.string();
  }

  sim::CoordinatorParams Params(int shards) {
    sim::CoordinatorParams params;
    params.num_shards = shards;
    params.online = online_;
    return params;
  }

  /// Swaps in a denser workload (60 prosumers, ~240 offers). With a bounded
  /// ingest queue every shard then sheds on several consecutive ticks — the
  /// sustained-overload signal the controller's trigger window latches onto
  /// (the default 45-offer workload sheds only on isolated ticks).
  void UseDenseWorkload() {
    sim::WorkloadGenerator generator(&atlas_, &topology_);
    sim::WorkloadParams wp;
    wp.seed = 4242;
    wp.num_prosumers = 60;
    wp.offers_per_prosumer = 4.0;
    wp.horizon = Day();
    workload_ = *generator.Generate(wp);
  }

  /// The prosumer owning the earliest-created offer — certainly active (its
  /// offer ingested) once a few ticks have run.
  core::ProsumerId EarliestProsumer() const {
    const core::FlexOffer* earliest = &workload_.offers.front();
    for (const core::FlexOffer& offer : workload_.offers) {
      if (offer.creation_time < earliest->creation_time) earliest = &offer;
    }
    return earliest->prosumer;
  }

  /// Every offer of `prosumer` created early enough to have been consumed
  /// (ingested or dropped) after `ticks` global ticks.
  std::vector<core::FlexOfferId> IngestedOffersOf(core::ProsumerId prosumer,
                                                  int ticks) const {
    TimePoint cutoff = window_.start + (ticks - 1) * online_.tick_minutes;
    std::vector<core::FlexOfferId> ids;
    for (const core::FlexOffer& offer : workload_.offers) {
      if (offer.prosumer == prosumer && offer.creation_time <= cutoff) {
        ids.push_back(offer.id);
      }
    }
    return ids;
  }

  /// Prosumers the 2-shard hash router places on `shard`, in id order, that
  /// are active (some offer consumed) after `ticks` global ticks when
  /// `active`, or still idle (nothing consumed) when not.
  std::vector<core::ProsumerId> ProsumersOn(int shard, int ticks, bool active) const {
    sim::ShardRouter router(2, sim::ShardPolicy::kHash);
    std::set<core::ProsumerId> all;
    for (const core::FlexOffer& offer : workload_.offers) all.insert(offer.prosumer);
    std::vector<core::ProsumerId> picked;
    for (core::ProsumerId p : all) {
      if (router.ShardOfProsumer(p, core::kInvalidRegionId, core::kInvalidGridNodeId) !=
          shard) {
        continue;
      }
      if (IngestedOffersOf(p, ticks).empty() != active) picked.push_back(p);
    }
    return picked;
  }

  /// One scripted migration: after `after_ticks` global ticks (counted from
  /// Begin), move `prosumer` to `to_shard` under kAllowActive.
  struct Move {
    int after_ticks = 0;
    core::ProsumerId prosumer = core::kInvalidProsumerId;
    int to_shard = 0;
  };

  /// One run executing `moves` in order (checkpointed when `dir` is
  /// non-empty).
  Result<sim::MergedOnlineReport> RunMoves(const std::string& dir, int shards,
                                           const std::vector<Move>& moves) {
    sim::Coordinator coordinator(Params(shards));
    if (dir.empty()) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.Begin(workload_.offers, window_));
    } else {
      FLEXVIS_RETURN_IF_ERROR(coordinator.BeginCheckpointed(workload_.offers, window_, dir));
    }
    int ticks = 0;
    for (const Move& move : moves) {
      for (; ticks < move.after_ticks && !coordinator.Done(); ++ticks) {
        FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
      }
      FLEXVIS_RETURN_IF_ERROR(coordinator.MigrateProsumer(
          move.prosumer, move.to_shard, sim::MigrationMode::kAllowActive));
    }
    while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    return coordinator.Finish();
  }

  /// One run that resizes the fleet mid-flight at a tick boundary.
  Result<sim::MergedOnlineReport> RunResizing(const std::string& dir, int shards,
                                              int new_shards, int after_ticks,
                                              int64_t* plans = nullptr) {
    sim::Coordinator coordinator(Params(shards));
    if (dir.empty()) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.Begin(workload_.offers, window_));
    } else {
      FLEXVIS_RETURN_IF_ERROR(coordinator.BeginCheckpointed(workload_.offers, window_, dir));
    }
    for (int i = 0; i < after_ticks && !coordinator.Done(); ++i) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    }
    FLEXVIS_RETURN_IF_ERROR(coordinator.Resize(new_shards));
    while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    if (plans != nullptr) *plans = coordinator.plans_executed();
    return coordinator.Finish();
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_ = grid::GridTopology::MakeRadial(1, 1, 1, 1);
  sim::Workload workload_;
  TimeInterval window_;
  sim::OnlineParams online_;
  fs::path root_;
};

TEST_F(RebalanceTest, IdleOnlyMigrationErrorNamesEveryIngestedOffer) {
  const int kTicks = 8;
  core::ProsumerId prosumer = EarliestProsumer();
  std::vector<core::FlexOfferId> ingested = IngestedOffersOf(prosumer, kTicks);
  ASSERT_FALSE(ingested.empty());

  sim::Coordinator coordinator(Params(2));
  ASSERT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
  for (int i = 0; i < kTicks; ++i) ASSERT_TRUE(coordinator.Tick().ok());
  int from = coordinator.router().ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                                  core::kInvalidGridNodeId);
  Status status = coordinator.MigrateProsumer(prosumer, 1 - from);
  ASSERT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
  // The precondition failure reports EVERY already-ingested offer, not just
  // the first one found, so the operator sees the whole conflict at once.
  for (core::FlexOfferId id : ingested) {
    EXPECT_NE(status.message().find(std::to_string(id)), std::string::npos)
        << "offer " << id << " missing from: " << status.message();
  }
  EXPECT_NE(status.message().find("already ingested"), std::string::npos);
  EXPECT_EQ(coordinator.epoch(), 0);  // nothing committed
}

TEST_F(RebalanceTest, ActiveMigrationMovesAMidFlightProsumerAndConserves) {
  const int kTicks = 6;
  core::ProsumerId prosumer = EarliestProsumer();
  ASSERT_FALSE(IngestedOffersOf(prosumer, kTicks).empty()) << "prosumer is not active";
  sim::ShardRouter router(2, sim::ShardPolicy::kHash);
  int from = router.ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                    core::kInvalidGridNodeId);

  Result<sim::MergedOnlineReport> merged = RunMoves("", 2, {{kTicks, prosumer, 1 - from}});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->epoch, 1);
  ExpectConserved(*merged, workload_.offers, "active migration");

  // Ingest and acceptance depend only on each offer's own deadlines and the
  // shared tick grid — shard-invariant, so the migrated run matches a plain
  // run's global counters exactly.
  Result<sim::MergedOnlineReport> plain =
      sim::Coordinator::RunSharded(Params(2), workload_.offers, window_);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(merged->global.offers_received, plain->global.offers_received);
  EXPECT_EQ(merged->global.accepted, plain->global.accepted);
  EXPECT_EQ(merged->global.ticks, plain->global.ticks);

  // The prosumer's offers finished on the target shard.
  int on_target = 0;
  for (const core::FlexOffer& offer : merged->shard_reports[1 - from].offers) {
    if (offer.prosumer == prosumer) ++on_target;
  }
  int owned = 0;
  for (const core::FlexOffer& offer : workload_.offers) {
    if (offer.prosumer == prosumer) ++owned;
  }
  EXPECT_EQ(on_target, owned);
  for (const core::FlexOffer& offer : merged->shard_reports[from].offers) {
    EXPECT_NE(offer.prosumer, prosumer) << "offer left behind on the source shard";
  }
}

TEST_F(RebalanceTest, ActiveMigrationCheckpointedResumeIsByteIdentical) {
  // Every sequence must resume to the uninterrupted run. The multi-move ones
  // pin the router seeding: replay must start from the assignment as of the
  // epoch before the first WAL migration record, not from the final
  // overrides, or the first replayed splice builds a shard subset that
  // already lacks a later mover's offers.
  core::ProsumerId prosumer = EarliestProsumer();
  sim::ShardRouter router(2, sim::ShardPolicy::kHash);
  const int from = router.ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                          core::kInvalidGridNodeId);
  const std::vector<core::ProsumerId> active_at_4 = ProsumersOn(0, 4, true);
  const std::vector<core::ProsumerId> active_at_8 = ProsumersOn(0, 8, true);
  const std::vector<core::ProsumerId> idle_at_2 = ProsumersOn(0, 2, false);
  const std::vector<core::ProsumerId> active_at_6 = ProsumersOn(1, 6, true);
  ASSERT_FALSE(active_at_4.empty());
  ASSERT_FALSE(idle_at_2.empty());
  ASSERT_FALSE(active_at_6.empty());
  core::ProsumerId second = core::kInvalidProsumerId;
  for (core::ProsumerId p : active_at_8) {
    if (p != active_at_4.front()) {
      second = p;
      break;
    }
  }
  ASSERT_NE(second, core::kInvalidProsumerId);

  struct Case {
    const char* name;
    std::vector<Move> moves;
  };
  const std::vector<Case> cases = {
      {"one active move at tick 6", {{6, prosumer, 1 - from}}},
      {"two active moves off shard 0 at ticks 4 and 8",
       {{4, active_at_4.front(), 1}, {8, second, 1}}},
      {"0->1 at tick 4, then another prosumer 1->0 at tick 8",
       {{4, active_at_4.front(), 1}, {8, ProsumersOn(1, 8, true).front(), 0}}},
      {"0->1 at tick 4, then the same prosumer back 1->0 at tick 8",
       {{4, active_at_4.front(), 1}, {8, active_at_4.front(), 0}}},
      {"idle move at tick 2, then an active move at tick 6",
       {{2, idle_at_2.front(), 1}, {6, active_at_6.front(), 0}}},
  };
  for (const Case& c : cases) {
    std::string dir = Dir("active_resume");
    Result<sim::MergedOnlineReport> baseline = RunMoves(dir, 2, c.moves);
    ASSERT_TRUE(baseline.ok()) << c.name << ": " << baseline.status().ToString();
    EXPECT_EQ(baseline->epoch, static_cast<int64_t>(c.moves.size())) << c.name;

    sim::ShardResumeInfo info;
    Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir, &info);
    EXPECT_TRUE(resumed.ok()) << c.name << ": " << resumed.status().ToString();
    if (!resumed.ok()) continue;  // report every case, not just the first
    EXPECT_EQ(info.migrations_replayed, static_cast<int>(c.moves.size())) << c.name;
    ExpectMergedEqual(*baseline, *resumed, c.name);
  }
}

TEST_F(RebalanceTest, ResizeRejectsBadArguments) {
  sim::Coordinator coordinator(Params(2));
  EXPECT_EQ(coordinator.Resize(4).code(), StatusCode::kFailedPrecondition);  // not begun
  ASSERT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
  EXPECT_EQ(coordinator.Resize(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.Resize(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.Resize(sim::kMaxShards + 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.topology(), 0);
}

TEST_F(RebalanceTest, SplitMidRunConservesAndGrowsTheFleet) {
  Result<sim::MergedOnlineReport> merged = RunResizing("", 2, 4, 3);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->num_shards, 4);
  EXPECT_EQ(merged->topology, 1);
  ASSERT_EQ(merged->shard_reports.size(), 4u);
  ExpectConserved(*merged, workload_.offers, "split mid-run");

  Result<sim::MergedOnlineReport> plain =
      sim::Coordinator::RunSharded(Params(2), workload_.offers, window_);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(merged->global.offers_received, plain->global.offers_received);
  EXPECT_EQ(merged->global.accepted, plain->global.accepted);
  EXPECT_EQ(merged->total_offered_kwh, plain->total_offered_kwh);
}

TEST_F(RebalanceTest, MergeMidRunShrinksToOneShard) {
  Result<sim::MergedOnlineReport> merged = RunResizing("", 2, 1, 3);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->num_shards, 1);
  EXPECT_EQ(merged->topology, 1);
  ASSERT_EQ(merged->shard_reports.size(), 1u);
  ExpectConserved(*merged, workload_.offers, "merge mid-run");
  // Everything lives on the single shard now.
  EXPECT_EQ(merged->shard_reports[0].offers.size(), workload_.offers.size());
}

TEST_F(RebalanceTest, ResizeAtTickZeroEqualsBeginningAtTheNewSize) {
  // Resizing before any tick has run is pure re-partitioning: the run must
  // be byte-identical to one begun at the new size (no counters to re-home,
  // no queues to splice).
  Result<sim::MergedOnlineReport> resized = RunResizing("", 2, 4, 0);
  ASSERT_TRUE(resized.ok()) << resized.status().ToString();
  Result<sim::MergedOnlineReport> fresh =
      sim::Coordinator::RunSharded(Params(4), workload_.offers, window_);
  ASSERT_TRUE(fresh.ok());
  resized->topology = fresh->topology = 0;  // the only expected difference
  ExpectMergedEqual(*fresh, *resized, "resize at tick 0 vs fresh 4-shard run");
}

TEST_F(RebalanceTest, CheckpointedResizeResumesByteIdenticallyWithNewTopologyDirs) {
  std::string dir = Dir("resize_resume");
  Result<sim::MergedOnlineReport> baseline = RunResizing(dir, 2, 4, 3);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->topology, 1);

  // The old topology's directories are gone; the new ones carry the suffix.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "shard-0000"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "shard-0000.t1"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "shard-0003.t1"));

  sim::ShardResumeInfo info;
  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir, &info);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(info.stale_shard_dirs_swept, 0);
  EXPECT_EQ(info.plans_completed, 0);
  EXPECT_EQ(info.plans_reexecuted, 0);
  ExpectMergedEqual(*baseline, *resumed, "resize across resume");
}

TEST_F(RebalanceTest, MidRunResizeOutputMatchesGoldenCrcs) {
  // Conservation and live-vs-resume equality hold for any consistent
  // re-partition; these CRCs pin the one the resize actually produces (queue
  // order, decided-state order, counter re-homing), so a refactor of the
  // resize path that changes its output fails here.
  Result<sim::MergedOnlineReport> split = RunResizing("", 2, 4, 3);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(MergedCrc(*split), 0x843CE7DEu) << "split 2->4 at tick 3";
  Result<sim::MergedOnlineReport> merge = RunResizing("", 2, 1, 3);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  EXPECT_EQ(MergedCrc(*merge), 0x6CD4383Bu) << "merge 2->1 at tick 3";

  // The controller-driven split of ControllerSplitsTheFleetWhenEveryShardStaysHot.
  UseDenseWorkload();
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  sim::RebalanceParams rebalance;
  rebalance.window_ticks = 2;
  rebalance.cooldown_ticks = 6;
  rebalance.allow_resize = true;
  rebalance.max_shards = 4;
  params.rebalance = rebalance;
  sim::Coordinator coordinator(params);
  ASSERT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
  while (!coordinator.Done()) ASSERT_TRUE(coordinator.Tick().ok());
  ASSERT_EQ(coordinator.topology(), 1);
  Result<sim::MergedOnlineReport> controlled = coordinator.Finish();
  ASSERT_TRUE(controlled.ok()) << controlled.status().ToString();
  EXPECT_EQ(MergedCrc(*controlled), 0x353DEDF0u) << "controller-driven split";
}

TEST_F(RebalanceTest, ControllerClosedLoopExecutesPlansAndConserves) {
  // A bounded ingest queue makes every shard shed for several consecutive
  // ticks; the controller watches the shed trend and fires kMove plans
  // (hot -> cold). The loop must keep the run conservative.
  UseDenseWorkload();
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  sim::RebalanceParams rebalance;
  rebalance.window_ticks = 2;
  rebalance.cooldown_ticks = 2;
  rebalance.max_moves = 2;
  params.rebalance = rebalance;

  sim::Coordinator coordinator(params);
  ASSERT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
  while (!coordinator.Done()) ASSERT_TRUE(coordinator.Tick().ok());
  EXPECT_GE(coordinator.plans_executed(), 1);
  Result<sim::MergedOnlineReport> merged = coordinator.Finish();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectConserved(*merged, workload_.offers, "closed loop");
  EXPECT_GT(merged->global.shed_offers, 0);
}

TEST_F(RebalanceTest, ControllerSplitsTheFleetWhenEveryShardStaysHot) {
  UseDenseWorkload();
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  sim::RebalanceParams rebalance;
  rebalance.window_ticks = 2;
  rebalance.cooldown_ticks = 6;
  rebalance.allow_resize = true;
  rebalance.max_shards = 4;
  params.rebalance = rebalance;

  sim::Coordinator coordinator(params);
  ASSERT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
  while (!coordinator.Done()) ASSERT_TRUE(coordinator.Tick().ok());
  EXPECT_GE(coordinator.plans_executed(), 1);
  EXPECT_EQ(coordinator.topology(), 1);
  Result<sim::MergedOnlineReport> merged = coordinator.Finish();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->num_shards, 4);
  ExpectConserved(*merged, workload_.offers, "controller split");
}

TEST_F(RebalanceTest, ControllerClosedLoopSurvivesCheckpointResume) {
  UseDenseWorkload();
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  params.online.compact_ticks = 4;
  sim::RebalanceParams rebalance;
  rebalance.window_ticks = 2;
  rebalance.cooldown_ticks = 2;
  rebalance.max_moves = 2;
  params.rebalance = rebalance;

  std::string dir = Dir("loop_resume");
  sim::Coordinator coordinator(params);
  ASSERT_TRUE(coordinator.BeginCheckpointed(workload_.offers, window_, dir).ok());
  while (!coordinator.Done()) ASSERT_TRUE(coordinator.Tick().ok());
  ASSERT_GE(coordinator.plans_executed(), 1) << "the loop never fired a plan";
  Result<sim::MergedOnlineReport> baseline = coordinator.Finish();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  sim::ShardResumeInfo info;
  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir, &info);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // A completed run has nothing half-done: no plan finishing, no re-decides.
  EXPECT_EQ(info.plans_completed, 0);
  EXPECT_EQ(info.plans_reexecuted, 0);
  ExpectMergedEqual(*baseline, *resumed, "closed loop across resume");
}

// ---- Kill matrices ----------------------------------------------------------

TEST_F(RebalanceTest, RebalancingKillMatrixConvergesToTheUninterruptedRun) {
  // The full write surface of a controller-driven run: per-tick journal
  // appends/flushes, active-migration record flushes, plan/plan_done records
  // in the coordinator WAL, manifest rewrites, boundary compactions of both
  // the shard stores and the coordinator store. Crash at every hit of every
  // point; recovery must converge to the uninterrupted run byte for byte —
  // the controller re-derives any lost decision from the replayed history.
  UseDenseWorkload();
  sim::CoordinatorParams params = Params(2);
  params.online.tick_minutes = 240;  // 6 global ticks, keeps the matrix tractable
  params.online.ingest_queue_capacity = 1;
  params.online.compact_ticks = 4;
  sim::RebalanceParams rebalance;
  rebalance.window_ticks = 2;
  rebalance.cooldown_ticks = 2;
  rebalance.max_moves = 1;
  params.rebalance = rebalance;

  auto run = [&](const std::string& dir,
                 int64_t* plans = nullptr) -> Result<sim::MergedOnlineReport> {
    sim::Coordinator coordinator(params);
    FLEXVIS_RETURN_IF_ERROR(coordinator.BeginCheckpointed(workload_.offers, window_, dir));
    while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    if (plans != nullptr) *plans = coordinator.plans_executed();
    return coordinator.Finish();
  };
  int64_t baseline_plans = 0;
  Result<sim::MergedOnlineReport> baseline = run(Dir("rkill_base"), &baseline_plans);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GE(baseline_plans, 1) << "the matrix run never fired a plan";

  for (const char* point : {"util.journal.append", "util.journal.flush",
                            "util.fileio.write", "util.store.compact",
                            "util.store.delete"}) {
    FaultRegistry::Global().Arm(point, FaultConfig{});
    ASSERT_TRUE(run(Dir("rkill_count")).ok());
    const int64_t hits = FaultRegistry::Global().Stats(point).hits;
    FaultRegistry::Global().DisarmAll();
    ASSERT_GT(hits, 0) << point << " is not on the rebalancing write path";

    for (int64_t hit = 1; hit <= hits; ++hit) {
      const std::string label =
          std::string(point) + " hit " + std::to_string(hit) + "/" + std::to_string(hits);
      std::string dir = Dir("rkill_" + std::to_string(hit) + point);

      pid_t pid = fork();
      if (pid == 0) {
        FaultConfig config;
        config.crash_at_hit = hit;
        FaultRegistry::Global().Arm(point, config);
        Result<sim::MergedOnlineReport> report = run(dir);
        std::_Exit(report.ok() ? 0 : 1);
      }
      ASSERT_GT(pid, 0) << "fork failed";
      int wstatus = 0;
      ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      ASSERT_EQ(WEXITSTATUS(wstatus), kCrashExitCode)
          << label << ": child did not crash where told to";

      sim::ShardResumeInfo info;
      Result<sim::MergedOnlineReport> recovered =
          sim::Coordinator::ResumeSharded(dir, &info);
      if (!recovered.ok() && recovered.status().code() == StatusCode::kDataLoss) {
        // The run never committed (crash before the coordinator manifest, its
        // commit point, landed): nothing was promised; rerun from inputs. Any
        // later crash must recover.
        ASSERT_FALSE(fs::exists(fs::path(dir) / sim::kCoordinatorManifestFile))
            << label << ": " << recovered.status().ToString();
        recovered = run(dir);
        ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
        ExpectMergedEqual(*baseline, *recovered, label + " (rerun)");
        continue;
      }
      ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
      ExpectMergedEqual(*baseline, *recovered, label);

      // After recovery the directory is whole: a second resume replays
      // everything, finishes no half-done plan, and re-decides nothing.
      sim::ShardResumeInfo again;
      Result<sim::MergedOnlineReport> second =
          sim::Coordinator::ResumeSharded(dir, &again);
      ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
      EXPECT_EQ(again.plans_completed, 0) << label;
      EXPECT_EQ(again.plans_reexecuted, 0) << label;
      ExpectMergedEqual(*recovered, *second, label + " (second resume)");
    }
  }
}

TEST_F(RebalanceTest, ResizeKillMatrixConvergesToAConsistentTopology) {
  // An explicit (operator-driven, not plan-journaled) resize has exactly two
  // legitimate recovery outcomes, decided by whether the COORDINATOR.json
  // rewrite committed: the resized run (topology 1) or the untouched run
  // (topology 0, staged directories swept). Anything else is a bug.
  const int kAfterTicks = 3;
  sim::CoordinatorParams params = Params(2);
  params.online.tick_minutes = 240;  // 6 global ticks

  auto run = [&](const std::string& dir) -> Result<sim::MergedOnlineReport> {
    sim::Coordinator coordinator(params);
    FLEXVIS_RETURN_IF_ERROR(coordinator.BeginCheckpointed(workload_.offers, window_, dir));
    for (int i = 0; i < kAfterTicks && !coordinator.Done(); ++i) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    }
    FLEXVIS_RETURN_IF_ERROR(coordinator.Resize(4));
    while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    return coordinator.Finish();
  };
  auto run_plain = [&](const std::string& dir) {
    return sim::Coordinator::RunShardedCheckpointed(params, workload_.offers, window_, dir);
  };
  Result<sim::MergedOnlineReport> resized = run(Dir("zkill_base"));
  ASSERT_TRUE(resized.ok()) << resized.status().ToString();
  ASSERT_EQ(resized->topology, 1);
  Result<sim::MergedOnlineReport> plain = run_plain(Dir("zkill_plain"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  for (const char* point :
       {"util.fileio.write", "util.store.compact", "util.store.delete"}) {
    FaultRegistry::Global().Arm(point, FaultConfig{});
    ASSERT_TRUE(run(Dir("zkill_count")).ok());
    const int64_t hits = FaultRegistry::Global().Stats(point).hits;
    FaultRegistry::Global().DisarmAll();
    ASSERT_GT(hits, 0) << point << " is not on the resize write path";

    for (int64_t hit = 1; hit <= hits; ++hit) {
      const std::string label =
          std::string(point) + " hit " + std::to_string(hit) + "/" + std::to_string(hits);
      std::string dir = Dir("zkill_" + std::to_string(hit) + point);

      pid_t pid = fork();
      if (pid == 0) {
        FaultConfig config;
        config.crash_at_hit = hit;
        FaultRegistry::Global().Arm(point, config);
        Result<sim::MergedOnlineReport> report = run(dir);
        std::_Exit(report.ok() ? 0 : 1);
      }
      ASSERT_GT(pid, 0) << "fork failed";
      int wstatus = 0;
      ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      ASSERT_EQ(WEXITSTATUS(wstatus), kCrashExitCode)
          << label << ": child did not crash where told to";

      sim::ShardResumeInfo info;
      Result<sim::MergedOnlineReport> recovered =
          sim::Coordinator::ResumeSharded(dir, &info);
      if (!recovered.ok() && recovered.status().code() == StatusCode::kDataLoss) {
        // Only a run that never committed (no COORDINATOR.json, the commit
        // point) may be refused.
        ASSERT_FALSE(fs::exists(fs::path(dir) / sim::kCoordinatorManifestFile))
            << label << ": " << recovered.status().ToString();
        recovered = run(dir);  // never committed; rerun from inputs
        ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
        ExpectMergedEqual(*resized, *recovered, label + " (rerun)");
        continue;
      }
      ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();

      if (recovered->topology == 1) {
        ExpectMergedEqual(*resized, *recovered, label + " (resized baseline)");
      } else {
        EXPECT_EQ(recovered->topology, 0) << label;
        ExpectMergedEqual(*plain, *recovered, label + " (plain baseline)");
      }

      // Whatever topology recovery converged to, the directory is clean: a
      // second resume sweeps nothing and matches.
      sim::ShardResumeInfo again;
      Result<sim::MergedOnlineReport> second =
          sim::Coordinator::ResumeSharded(dir, &again);
      ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
      EXPECT_EQ(again.stale_shard_dirs_swept, 0) << label;
      ExpectMergedEqual(*recovered, *second, label + " (second resume)");
    }
  }
}

}  // namespace
}  // namespace flexvis
