// Multi-enterprise sharding tests: router determinism, 1-shard byte-identity
// with the unsharded run, shard-invariant measures of the N-shard merge,
// replay-verified prosumer migration, the coordinator-level kill matrix
// (crashes during a shard's journal flush and during the coordinator manifest
// write), typed rejection of malformed COORDINATOR.json manifests, overload
// shedding, and sharded warehouse persistence.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "dw/persistence.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "sim/alerts.h"
#include "sim/coordinator.h"
#include "sim/online.h"
#include "sim/shard.h"
#include "sim/workload.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/store.h"
#include "util/strings.h"

namespace flexvis {
namespace {

namespace fs = std::filesystem;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

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
  EXPECT_EQ(a.total_offered_kwh, b.total_offered_kwh) << label;
  ExpectReportsEqual(a.global, b.global, label + " (global)");
  ASSERT_EQ(a.shard_reports.size(), b.shard_reports.size()) << label;
  for (size_t s = 0; s < a.shard_reports.size(); ++s) {
    ExpectReportsEqual(a.shard_reports[s], b.shard_reports[s],
                       label + " (shard " + std::to_string(s) + ")");
  }
}

class ShardTest : public ::testing::Test {
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
    wp.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
    workload_ = *generator.Generate(wp);
    window_ = wp.horizon;
    online_.tick_minutes = 120;  // 12 ticks over the day

    // Suffix with the pid: ctest runs each test in its own process, possibly
    // in parallel, and a shared fixture root lets one test's SetUp sweep
    // another's live files mid-run.
    root_ = fs::path(::testing::TempDir()) /
            ("flexvis_shard." + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override {
    FaultRegistry::Global().DisarmAll();
    SetParallelThreadCount(1);
    // Keep the directory on failure so the divergent journals/manifests can
    // be inspected (and uploaded by CI); pid-suffixed roots never collide.
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

  sim::MergedOnlineReport MustRunSharded(int shards) {
    Result<sim::MergedOnlineReport> merged =
        sim::Coordinator::RunSharded(Params(shards), workload_.offers, window_);
    EXPECT_TRUE(merged.ok()) << merged.status().ToString();
    return merged.ok() ? *std::move(merged) : sim::MergedOnlineReport{};
  }

  /// A prosumer none of whose offers have been created by tick
  /// `migrate_after_ticks` — idle everywhere, so it is migration-eligible.
  core::ProsumerId FindIdleProsumer(int migrate_after_ticks) {
    // Tick i ingests offers with creation_time <= window.start + i * tick, so
    // after `migrate_after_ticks` ticks the last ingest happened at tick
    // (migrate_after_ticks - 1).
    TimePoint cutoff =
        window_.start + (migrate_after_ticks - 1) * online_.tick_minutes;
    std::set<core::ProsumerId> all;
    std::set<core::ProsumerId> early;
    for (const core::FlexOffer& offer : workload_.offers) {
      all.insert(offer.prosumer);
      if (offer.creation_time <= cutoff) early.insert(offer.prosumer);
    }
    for (core::ProsumerId p : all) {
      if (early.count(p) == 0) return p;
    }
    return core::kInvalidProsumerId;
  }

  /// One checkpointed sharded run that migrates `prosumer` to `to_shard`
  /// after `migrate_after_ticks` ticks, compacting every `compact_ticks`
  /// ticks (0: never). The shape the kill matrix exercises: per-tick journal
  /// flushes, the migration record's flush, the compactions and the
  /// coordinator manifest writes all happen on this path.
  Result<sim::MergedOnlineReport> RunMigrating(
      const std::string& dir, int shards, core::ProsumerId prosumer, int to_shard,
      int migrate_after_ticks, sim::MigrationMode mode = sim::MigrationMode::kIdleOnly,
      int compact_ticks = 0) {
    sim::CoordinatorParams params = Params(shards);
    params.online.compact_ticks = compact_ticks;
    sim::Coordinator coordinator(params);
    FLEXVIS_RETURN_IF_ERROR(
        coordinator.BeginCheckpointed(workload_.offers, window_, dir));
    for (int i = 0; i < migrate_after_ticks && !coordinator.Done(); ++i) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    }
    FLEXVIS_RETURN_IF_ERROR(coordinator.MigrateProsumer(prosumer, to_shard, mode));
    while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    return coordinator.Finish();
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_ = grid::GridTopology::MakeRadial(1, 1, 1, 1);
  sim::Workload workload_;
  TimeInterval window_;
  sim::OnlineParams online_;
  fs::path root_;
};

// ---- Router ----------------------------------------------------------------

TEST_F(ShardTest, RouterIsDeterministicAndOrderPreserving) {
  sim::ShardRouter a(4, sim::ShardPolicy::kHash);
  sim::ShardRouter b(4, sim::ShardPolicy::kHash);
  for (const core::FlexOffer& offer : workload_.offers) {
    int shard = a.ShardOf(offer);
    EXPECT_EQ(shard, b.ShardOf(offer));
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
  }
  std::vector<std::vector<size_t>> partition = a.Partition(workload_.offers);
  size_t total = 0;
  for (const std::vector<size_t>& part : partition) {
    EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
    total += part.size();
  }
  EXPECT_EQ(total, workload_.offers.size());
}

TEST_F(ShardTest, RegionPolicyKeepsARegionOnOneShard) {
  sim::ShardRouter router(3, sim::ShardPolicy::kRegion);
  std::map<core::RegionId, int> seen;
  for (const core::FlexOffer& offer : workload_.offers) {
    if (offer.region == core::kInvalidRegionId) continue;
    int shard = router.ShardOf(offer);
    auto [it, inserted] = seen.emplace(offer.region, shard);
    EXPECT_EQ(it->second, shard) << "region " << offer.region << " split across shards";
  }
}

TEST_F(ShardTest, OverrideWinsOverPolicyAndRejectsBadShard) {
  sim::ShardRouter router(2, sim::ShardPolicy::kHash);
  const core::FlexOffer& offer = workload_.offers.front();
  int base = router.ShardOf(offer);
  ASSERT_TRUE(router.Assign(offer.prosumer, 1 - base).ok());
  EXPECT_EQ(router.ShardOf(offer), 1 - base);
  EXPECT_EQ(router.Assign(offer.prosumer, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(router.Assign(offer.prosumer, -1).code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, PolicyNamesRoundTrip) {
  for (sim::ShardPolicy policy : {sim::ShardPolicy::kHash, sim::ShardPolicy::kRegion,
                                  sim::ShardPolicy::kFeeder}) {
    Result<sim::ShardPolicy> parsed =
        sim::ParseShardPolicy(sim::ShardPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_EQ(sim::ParseShardPolicy("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, ShardsFromEnvParsesAndClamps) {
  ::setenv(sim::kShardsEnvVar, "4", 1);
  Result<int> four = sim::ShardsFromEnv(1);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(*four, 4);
  // A malformed or out-of-range value is a typed error naming the variable,
  // never a silent fall back to the default fleet.
  for (const char* bad : {"abc", "4x", "0", "-2", "65", "4294967297"}) {
    ::setenv(sim::kShardsEnvVar, bad, 1);
    Result<int> shards = sim::ShardsFromEnv(3);
    EXPECT_EQ(shards.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(shards.status().message().find(sim::kShardsEnvVar), std::string::npos) << bad;
  }
  ::setenv(sim::kShardsEnvVar, "", 1);
  EXPECT_EQ(sim::ShardsFromEnv(2).value_or(-1), 2);
  ::unsetenv(sim::kShardsEnvVar);
  EXPECT_EQ(sim::ShardsFromEnv(2).value_or(-1), 2);
}

// ---- 1-shard byte-identity -------------------------------------------------

TEST_F(ShardTest, OneShardRunIsByteIdenticalToUnshardedAt1And8Threads) {
  Result<sim::OnlineReport> plain =
      sim::OnlineEnterprise(online_).Run(workload_.offers, window_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    sim::MergedOnlineReport merged = MustRunSharded(1);
    ExpectReportsEqual(*plain, merged.global,
                       "1 shard vs unsharded at " + std::to_string(threads) + "t");
    ASSERT_EQ(merged.shard_reports.size(), 1u);
    ExpectReportsEqual(*plain, merged.shard_reports[0], "shard 0 vs unsharded");
  }
  SetParallelThreadCount(1);
}

// ---- Shard-invariant measures of the N-shard merge --------------------------

TEST_F(ShardTest, MergedReportPreservesShardInvariantMeasuresAt1And8Threads) {
  sim::MergedOnlineReport one = MustRunSharded(1);
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    for (int shards : {2, 8}) {
      sim::MergedOnlineReport many = MustRunSharded(shards);
      const std::string label =
          std::to_string(shards) + " shards at " + std::to_string(threads) + "t";
      // Total offered energy is summed over the input order — bit-identical.
      EXPECT_EQ(many.total_offered_kwh, one.total_offered_kwh) << label;
      // Ingest and acceptance depend only on each offer's own deadlines and
      // the (shared) tick grid, so the merged counters are shard-invariant.
      EXPECT_EQ(many.global.offers_received, one.global.offers_received) << label;
      EXPECT_EQ(many.global.accepted, one.global.accepted) << label;
      EXPECT_EQ(many.global.rejected, one.global.rejected) << label;
      EXPECT_EQ(many.global.missed_acceptance, one.global.missed_acceptance) << label;
      EXPECT_EQ(many.global.ticks, one.global.ticks) << label;
      // The merge loses nothing: every input offer comes back exactly once,
      // in the global input order.
      ASSERT_EQ(many.global.offers.size(), workload_.offers.size()) << label;
      for (size_t i = 0; i < many.global.offers.size(); ++i) {
        EXPECT_EQ(many.global.offers[i].id, workload_.offers[i].id) << label;
      }
      // Counters merge as sums over the per-shard reports.
      int received = 0;
      for (const sim::OnlineReport& r : many.shard_reports) received += r.offers_received;
      EXPECT_EQ(received, many.global.offers_received) << label;
    }
  }
  SetParallelThreadCount(1);
}

TEST_F(ShardTest, OfflinePlanShardedMatchesUnshardedAtOneShardAndConserves) {
  sim::EnterpriseParams params;
  Result<sim::PlanningReport> plain =
      sim::Enterprise(params).PlanHorizon(workload_.offers, window_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  Result<sim::MergedPlanningReport> one = sim::PlanHorizonSharded(
      params, 1, sim::ShardPolicy::kHash, workload_.offers, window_);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->global.offers_in, plain->offers_in);
  EXPECT_EQ(one->global.aggregates_built, plain->aggregates_built);
  EXPECT_EQ(one->global.imbalance_after_kwh, plain->imbalance_after_kwh);
  EXPECT_EQ(one->global.planned_flexible_load, plain->planned_flexible_load);
  EXPECT_EQ(one->global.settlement.total_cost_eur, plain->settlement.total_cost_eur);
  ASSERT_EQ(one->global.member_offers.size(), plain->member_offers.size());
  for (size_t i = 0; i < plain->member_offers.size(); ++i) {
    EXPECT_EQ(core::EncodeFlexOffer(one->global.member_offers[i]),
              core::EncodeFlexOffer(plain->member_offers[i]));
  }

  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    Result<sim::MergedPlanningReport> many = sim::PlanHorizonSharded(
        params, 8, sim::ShardPolicy::kHash, workload_.offers, window_);
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    const std::string label = "8 shards at " + std::to_string(threads) + "t";
    // Shard-invariant total (summed over the input order).
    EXPECT_EQ(many->total_offered_kwh, one->total_offered_kwh) << label;
    // Every input offer is planned by exactly one shard.
    int offers_in = 0;
    for (const sim::PlanningReport& r : many->shard_reports) offers_in += r.offers_in;
    EXPECT_EQ(offers_in, many->global.offers_in) << label;
    EXPECT_EQ(many->global.offers_in, plain->offers_in) << label;
    // Settlement conservation: the merged totals obey the same identity every
    // per-shard settlement obeys.
    EXPECT_NEAR(many->global.settlement.total_cost_eur,
                many->global.settlement.spot_cost_eur +
                    many->global.settlement.imbalance_cost_eur,
                1e-6)
        << label;
    // Clean runs degrade nowhere, at any shard count.
    EXPECT_TRUE(many->global.degraded_stages.empty()) << label;
  }
  SetParallelThreadCount(1);
}

TEST_F(ShardTest, DegradedStageUnionIsDeduplicatedAcrossShards) {
  // Arm the forecast seam in every shard (the registries are built inside
  // PlanHorizonSharded, so the env hook is the way in): each shard degrades
  // to planning on actuals, and the merged union names the stage once.
  sim::EnterpriseParams params;
  params.plan_on_forecast = true;  // the forecast seam only fires when used
  ::setenv("FLEXVIS_FAULTS", "sim.enterprise.forecast:1.0", 1);
  Result<sim::MergedPlanningReport> many = sim::PlanHorizonSharded(
      params, 4, sim::ShardPolicy::kHash, workload_.offers, window_);
  ::unsetenv("FLEXVIS_FAULTS");
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  int degraded_shards = 0;
  for (const sim::PlanningReport& r : many->shard_reports) {
    if (!r.degraded_stages.empty()) ++degraded_shards;
  }
  EXPECT_GT(degraded_shards, 1);
  EXPECT_EQ(many->global.degraded_stages,
            std::vector<std::string>{"sim.enterprise.forecast"});
}

// ---- Migration -------------------------------------------------------------

TEST_F(ShardTest, MigrationMidRunEqualsMigrationAtBeginAt1And8Threads) {
  const int kMigrateAfter = 3;
  core::ProsumerId prosumer = FindIdleProsumer(kMigrateAfter);
  ASSERT_NE(prosumer, core::kInvalidProsumerId)
      << "workload has no prosumer idle through tick " << kMigrateAfter;

  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    const std::string label = std::to_string(threads) + " threads";

    auto run = [&](int migrate_after) -> sim::MergedOnlineReport {
      sim::Coordinator coordinator(Params(2));
      EXPECT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
      for (int i = 0; i < migrate_after; ++i) {
        EXPECT_TRUE(coordinator.Tick().ok());
      }
      int from = coordinator.router().ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                                      core::kInvalidGridNodeId);
      Status migrated = coordinator.MigrateProsumer(prosumer, 1 - from);
      EXPECT_TRUE(migrated.ok()) << migrated.ToString();
      EXPECT_EQ(coordinator.epoch(), 1);
      while (!coordinator.Done()) EXPECT_TRUE(coordinator.Tick().ok());
      Result<sim::MergedOnlineReport> merged = coordinator.Finish();
      EXPECT_TRUE(merged.ok()) << merged.status().ToString();
      return merged.ok() ? *std::move(merged) : sim::MergedOnlineReport{};
    };

    // An idle prosumer's history is empty in both shards, so moving it
    // mid-run must be indistinguishable from having moved it up front.
    sim::MergedOnlineReport at_begin = run(0);
    sim::MergedOnlineReport mid_run = run(kMigrateAfter);
    ExpectMergedEqual(at_begin, mid_run, "migrate at begin vs mid-run, " + label);
  }
  SetParallelThreadCount(1);
}

TEST_F(ShardTest, MigrationOfActiveProsumerIsFailedPrecondition) {
  sim::Coordinator coordinator(Params(2));
  ASSERT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
  // Run far enough that some offers have certainly been ingested.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(coordinator.Tick().ok());

  // The earliest-created offer's prosumer is active by now.
  const core::FlexOffer* earliest = &workload_.offers.front();
  for (const core::FlexOffer& offer : workload_.offers) {
    if (offer.creation_time < earliest->creation_time) earliest = &offer;
  }
  int from = coordinator.router().ShardOf(*earliest);
  Status status = coordinator.MigrateProsumer(earliest->prosumer, 1 - from);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
  EXPECT_EQ(coordinator.epoch(), 0);  // nothing committed

  // Bogus arguments are typed errors, not crashes.
  EXPECT_EQ(coordinator.MigrateProsumer(999999999, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(coordinator.MigrateProsumer(earliest->prosumer, 7).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.MigrateProsumer(earliest->prosumer, from).code(),
            StatusCode::kInvalidArgument);

  while (!coordinator.Done()) ASSERT_TRUE(coordinator.Tick().ok());
  Result<sim::MergedOnlineReport> merged = coordinator.Finish();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->epoch, 0);
}

TEST_F(ShardTest, ResumeOfCompletedMigratedRunReplaysTheMigration) {
  const int kMigrateAfter = 3;
  core::ProsumerId prosumer = FindIdleProsumer(kMigrateAfter);
  ASSERT_NE(prosumer, core::kInvalidProsumerId);
  sim::ShardRouter router(2, sim::ShardPolicy::kHash);
  int from = router.ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                    core::kInvalidGridNodeId);

  std::string dir = Dir("migrated_resume");
  Result<sim::MergedOnlineReport> baseline =
      RunMigrating(dir, 2, prosumer, 1 - from, kMigrateAfter);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->epoch, 1);

  sim::ShardResumeInfo info;
  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir, &info);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(info.migrations_replayed, 1);
  ASSERT_EQ(info.shards.size(), 2u);
  for (const sim::ResumeInfo& shard : info.shards) {
    EXPECT_EQ(shard.ticks_replayed, baseline->global.ticks);
    EXPECT_EQ(shard.ticks_continued, 0);
    EXPECT_FALSE(shard.torn_tail);
  }
  ExpectMergedEqual(*baseline, *resumed, "resume of completed migrated run");
}

TEST_F(ShardTest, ResumeRejectsAMigrationRecordNamingAShardOutsideTheFleet) {
  const int kMigrateAfter = 3;
  core::ProsumerId prosumer = FindIdleProsumer(kMigrateAfter);
  ASSERT_NE(prosumer, core::kInvalidProsumerId);
  sim::ShardRouter router(2, sim::ShardPolicy::kHash);
  const int to = 1 - router.ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                            core::kInvalidGridNodeId);
  const std::string base = Dir("corrupt_migration");
  ASSERT_TRUE(RunMigrating(base, 2, prosumer, to, kMigrateAfter).ok());

  // Copies the run, rewrites one store in it (`store_dir`, relative to the
  // run) with every WAL record passed through `edit`, and resumes the copy.
  const auto resume_edited = [&](const std::string& store_dir, const StoreOptions& options,
                                 const std::function<void(JsonValue*)>& edit) -> Status {
    const std::string dir = Dir("corrupt_case");
    fs::copy(base, dir, fs::copy_options::recursive);
    const std::string path = (fs::path(dir) / store_dir).string();
    Result<StoreRecovery> recovery = DurableStore::Recover(path, options);
    if (!recovery.ok()) return recovery.status();
    StoreFiles files;
    for (const std::string& name : recovery->file_order) {
      files.emplace_back(name, recovery->files.at(name));
    }
    Result<DurableStore> store = DurableStore::Create(path, options, files, recovery->meta);
    if (!store.ok()) return store.status();
    for (const std::string& text : recovery->records) {
      Result<JsonValue> json = JsonValue::Parse(text);
      if (!json.ok()) return json.status();
      edit(&*json);
      FLEXVIS_RETURN_IF_ERROR(store->Append(json->Dump()));
    }
    FLEXVIS_RETURN_IF_ERROR(store->Close());
    return sim::Coordinator::ResumeSharded(dir).status();
  };

  // The coordinator WAL's migration record, rewritten to name shard 7 —
  // outside the 2-shard fleet — as its source. Recovery must refuse it as
  // corrupt, never index a shard that does not exist.
  StoreOptions coordinator_options;
  coordinator_options.manifest_name = sim::kCoordinatorManifestFile;
  coordinator_options.journal_name = "coordinator.wal";
  int rewritten = 0;
  Status status = resume_edited(".", coordinator_options, [&rewritten](JsonValue* json) {
    if (json->Get("kind") == JsonValue::Str("migration")) {
      json->Set("from", JsonValue::Int(7));
      ++rewritten;
    }
  });
  EXPECT_EQ(rewritten, 1);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();

  // A shard journal holding a tagged record — the retired per-shard
  // migration format — is corrupt too: shard journals hold tick records only.
  bool tagged = false;
  status = resume_edited(StrFormat("%s%04d", sim::kShardDirPrefix, to),
                         sim::CheckpointStoreOptions(), [&tagged](JsonValue* json) {
                           if (!tagged) json->Set("kind", JsonValue::Str("migrate"));
                           tagged = true;
                         });
  ASSERT_TRUE(tagged);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

// ---- Coordinator kill matrix ------------------------------------------------

TEST_F(ShardTest, CoordinatorKillMatrixConvergesToAConsistentEpoch) {
  const int kShards = 2;
  const int kMigrateAfter = 3;
  core::ProsumerId prosumer = FindIdleProsumer(kMigrateAfter);
  ASSERT_NE(prosumer, core::kInvalidProsumerId);
  sim::ShardRouter router(kShards, sim::ShardPolicy::kHash);
  const int from = router.ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                          core::kInvalidGridNodeId);
  const int to = 1 - from;

  // Two legitimate recovery outcomes, decided by whether the migration
  // record reached the coordinator WAL before the crash: the migrated run
  // (epoch 1) or the untouched run (epoch 0). Anything else — a half-applied
  // migration, a shard at the wrong tick — is a bug.
  Result<sim::MergedOnlineReport> migrated =
      RunMigrating(Dir("kill_base_mig"), kShards, prosumer, to, kMigrateAfter);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  Result<sim::MergedOnlineReport> plain = sim::Coordinator::RunShardedCheckpointed(
      Params(kShards), workload_.offers, window_, Dir("kill_base_plain"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_GT(migrated->global.ticks, 0);

  // The crash points on the coordinator's write path: "util.journal.flush"
  // covers every shard's per-tick flush plus the migration record's flush;
  // "util.fileio.write" covers the shard snapshots and every COORDINATOR.json
  // manifest write. Compaction is transparent, so one pair of baselines
  // serves both cadences. At C = 3 the migration lands at the tick-3
  // boundary after that boundary's fold, and crashes between the shard folds
  // at tick 6 leave one side's snapshot past the migration and the other's
  // before it.
  for (const int compact_ticks : {0, 3}) {
    const auto run = [&](const std::string& dir) {
      return RunMigrating(dir, kShards, prosumer, to, kMigrateAfter,
                          sim::MigrationMode::kIdleOnly, compact_ticks);
    };
    for (const char* point : {"util.journal.flush", "util.fileio.write"}) {
      // Count the hits of one clean run by arming a never-failing config.
      FaultRegistry::Global().Arm(point, FaultConfig{});
      ASSERT_TRUE(run(Dir("count")).ok());
      const int64_t hits = FaultRegistry::Global().Stats(point).hits;
      FaultRegistry::Global().DisarmAll();
      ASSERT_GT(hits, 0) << point << " is not on the coordinator write path";

      for (int64_t hit = 1; hit <= hits; ++hit) {
        const std::string label = "C=" + std::to_string(compact_ticks) + " " + point + " hit " +
                                  std::to_string(hit) + "/" + std::to_string(hits);
        std::string dir = Dir("kill_" + std::to_string(hit) + point);

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
          ExpectMergedEqual(*migrated, *recovered, label + " (rerun)");
          continue;
        }
        ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();

        // All shards resumed to one consistent epoch, and the whole run matches
        // the baseline of whichever epoch recovery converged to.
        if (recovered->epoch == 1) {
          // Compaction truncates the record once every shard has folded it.
          if (compact_ticks == 0) {
            EXPECT_EQ(info.migrations_replayed, 1) << label;
          }
          ExpectMergedEqual(*migrated, *recovered, label + " (migrated baseline)");
        } else {
          EXPECT_EQ(recovered->epoch, 0) << label;
          ExpectMergedEqual(*plain, *recovered, label + " (plain baseline)");
        }

        // After recovery the journals are whole: a second resume recovers
        // every tick from snapshots and journals and re-executes nothing.
        sim::ShardResumeInfo again;
        Result<sim::MergedOnlineReport> second =
            sim::Coordinator::ResumeSharded(dir, &again);
        ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
        for (const sim::ResumeInfo& shard : again.shards) {
          EXPECT_EQ(shard.ticks_folded + shard.ticks_replayed, recovered->global.ticks) << label;
          EXPECT_EQ(shard.ticks_continued, 0) << label;
        }
        ExpectMergedEqual(*recovered, *second, label + " (second resume)");
      }
    }
  }
}

TEST_F(ShardTest, ActiveMigrationKillMatrixConvergesToAConsistentEpoch) {
  const int kShards = 2;
  const int kMigrateAfter = 6;
  // The earliest-created offer's prosumer: certainly active (mid-flight
  // state to transfer) by tick 6. Its migration record carries the moved
  // state the recovery splice rebuilds from.
  const core::FlexOffer* earliest = &workload_.offers.front();
  for (const core::FlexOffer& offer : workload_.offers) {
    if (offer.creation_time < earliest->creation_time) earliest = &offer;
  }
  const core::ProsumerId prosumer = earliest->prosumer;
  sim::ShardRouter router(kShards, sim::ShardPolicy::kHash);
  const int from = router.ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                          core::kInvalidGridNodeId);
  const int to = 1 - from;

  // Same two-outcome contract as the idle-migration matrix — the transferred
  // mid-flight state must not add a third. At C = 3 the migration lands at
  // the tick-6 boundary, after that boundary's fold.
  Result<sim::MergedOnlineReport> migrated =
      RunMigrating(Dir("akill_base_mig"), kShards, prosumer, to, kMigrateAfter,
                   sim::MigrationMode::kAllowActive);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  ASSERT_EQ(migrated->epoch, 1);
  Result<sim::MergedOnlineReport> plain = sim::Coordinator::RunShardedCheckpointed(
      Params(kShards), workload_.offers, window_, Dir("akill_base_plain"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  for (const int compact_ticks : {0, 3}) {
    const auto run = [&](const std::string& dir) {
      return RunMigrating(dir, kShards, prosumer, to, kMigrateAfter,
                          sim::MigrationMode::kAllowActive, compact_ticks);
    };
    for (const char* point : {"util.journal.flush", "util.fileio.write"}) {
      FaultRegistry::Global().Arm(point, FaultConfig{});
      ASSERT_TRUE(run(Dir("acount")).ok());
      const int64_t hits = FaultRegistry::Global().Stats(point).hits;
      FaultRegistry::Global().DisarmAll();
      ASSERT_GT(hits, 0) << point << " is not on the active-migration write path";

      for (int64_t hit = 1; hit <= hits; ++hit) {
        const std::string label = "C=" + std::to_string(compact_ticks) + " " + point + " hit " +
                                  std::to_string(hit) + "/" + std::to_string(hits);
        std::string dir = Dir("akill_" + std::to_string(hit) + point);

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
          ExpectMergedEqual(*migrated, *recovered, label + " (rerun)");
          continue;
        }
        ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();

        if (recovered->epoch == 1) {
          if (compact_ticks == 0) {
            EXPECT_EQ(info.migrations_replayed, 1) << label;
          }
          ExpectMergedEqual(*migrated, *recovered, label + " (migrated baseline)");
        } else {
          EXPECT_EQ(recovered->epoch, 0) << label;
          ExpectMergedEqual(*plain, *recovered, label + " (plain baseline)");
        }

        sim::ShardResumeInfo again;
        Result<sim::MergedOnlineReport> second =
            sim::Coordinator::ResumeSharded(dir, &again);
        ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
        for (const sim::ResumeInfo& shard : again.shards) {
          EXPECT_EQ(shard.ticks_folded + shard.ticks_replayed, recovered->global.ticks) << label;
          EXPECT_EQ(shard.ticks_continued, 0) << label;
        }
        ExpectMergedEqual(*recovered, *second, label + " (second resume)");
      }
    }
  }
}

TEST_F(ShardTest, CompactionKillMatrixConvergesAt4Shards) {
  const int kShards = 4;
  sim::CoordinatorParams params = Params(kShards);
  params.online.tick_minutes = 240;  // 6 global ticks over the day
  params.online.compact_ticks = 4;   // one compaction after tick 3, 2 ticks left in the WALs

  auto run = [&](const std::string& dir) {
    return sim::Coordinator::RunShardedCheckpointed(params, workload_.offers, window_, dir);
  };
  Result<sim::MergedOnlineReport> baseline = run(Dir("ckill_base"));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->global.ticks, 0);

  // Compaction is transparent: byte-identical to a run that never compacts.
  {
    sim::CoordinatorParams flat = params;
    flat.online.compact_ticks = 0;
    Result<sim::MergedOnlineReport> plain = sim::Coordinator::RunShardedCheckpointed(
        flat, workload_.offers, window_, Dir("ckill_flat"));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ExpectMergedEqual(*plain, *baseline, "sharded compaction transparency");
  }

  // Crash at every consulted point, including the two compaction-specific
  // ones (before each shard's fold starts, before its old generation is
  // deleted) and every atomic write inside the fold.
  for (const char* point : {"util.fileio.write", "util.journal.append",
                            "util.journal.flush", "util.store.compact",
                            "util.store.delete"}) {
    FaultRegistry::Global().Arm(point, FaultConfig{});
    ASSERT_TRUE(run(Dir("ckill_count")).ok());
    const int64_t hits = FaultRegistry::Global().Stats(point).hits;
    FaultRegistry::Global().DisarmAll();
    ASSERT_GT(hits, 0) << point << " is not on the compacting sharded write path";

    for (int64_t hit = 1; hit <= hits; ++hit) {
      const std::string label =
          std::string(point) + " hit " + std::to_string(hit) + "/" + std::to_string(hits);
      std::string dir = Dir("ckill_" + std::to_string(hit) + point);

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

      Result<sim::MergedOnlineReport> recovered = sim::Coordinator::ResumeSharded(dir);
      if (!recovered.ok() && recovered.status().code() == StatusCode::kDataLoss) {
        // Only a run that never committed (no COORDINATOR.json, the commit
        // point) may be refused.
        ASSERT_FALSE(fs::exists(fs::path(dir) / sim::kCoordinatorManifestFile))
            << label << ": " << recovered.status().ToString();
        recovered = run(dir);  // never committed; rerun from inputs
        ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
        ExpectMergedEqual(*baseline, *recovered, label + " (rerun)");
        continue;
      }
      ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
      ExpectMergedEqual(*baseline, *recovered, label);

      // The recovery finished (or re-executed) every compaction, so a second
      // resume folds everything up to the boundary and replays at most
      // compact_ticks records per shard — the bounded-replay guarantee.
      sim::ShardResumeInfo again;
      Result<sim::MergedOnlineReport> second = sim::Coordinator::ResumeSharded(dir, &again);
      ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
      for (const sim::ResumeInfo& shard : again.shards) {
        EXPECT_EQ(shard.ticks_folded + shard.ticks_replayed, baseline->global.ticks)
            << label;
        EXPECT_EQ(shard.ticks_continued, 0) << label;
        EXPECT_LE(shard.ticks_replayed, params.online.compact_ticks) << label;
        EXPECT_EQ(shard.generation, 1) << label;
      }
      ExpectMergedEqual(*baseline, *second, label + " (second resume)");
    }
  }
}

TEST_F(ShardTest, ResumeShardedWithoutManifestIsDataLoss) {
  std::string dir = Dir("no_manifest");
  fs::create_directories(dir);
  Result<sim::MergedOnlineReport> report = sim::Coordinator::ResumeSharded(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
}

TEST_F(ShardTest, MalformedCoordinatorManifestIsTypedDataLossNeverACrash) {
  // A completed 2-shard run with one committed migration, compacted after
  // it: its manifest carries an override, a non-zero epoch and every
  // optional field but the controller's. A second run with a controller adds
  // the `rebalance` params and the `controller` trend state.
  const core::ProsumerId prosumer = FindIdleProsumer(3);
  ASSERT_NE(prosumer, core::kInvalidProsumerId);
  sim::ShardRouter router(2, sim::ShardPolicy::kHash);
  const int from =
      router.ShardOfProsumer(prosumer, core::kInvalidRegionId, core::kInvalidGridNodeId);
  const std::string base = Dir("meta_base");
  Result<sim::MergedOnlineReport> baseline =
      RunMigrating(base, 2, prosumer, 1 - from, 3, sim::MigrationMode::kIdleOnly, 3);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string controlled = Dir("meta_controlled");
  sim::CoordinatorParams controller_params = Params(2);
  controller_params.rebalance = sim::RebalanceParams{};
  ASSERT_TRUE(sim::Coordinator::RunShardedCheckpointed(controller_params, workload_.offers,
                                                       window_, controlled)
                  .ok());
  StoreOptions options;
  options.manifest_name = sim::kCoordinatorManifestFile;
  options.journal_name = "coordinator.wal";
  const auto meta_of = [&options](const std::string& run) {
    Result<StoreRecovery> recovered = DurableStore::Recover(run, options);
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    return recovered.ok() ? recovered->meta : JsonValue();
  };
  const JsonValue meta = meta_of(base);
  ASSERT_TRUE(meta.is_object());
  ASSERT_EQ(meta.Get("overrides").size(), 1u);
  const JsonValue controlled_meta = meta_of(controlled);
  ASSERT_TRUE(controlled_meta.Get("rebalance").is_object());
  ASSERT_TRUE(controlled_meta.Get("controller").is_object());

  // Resumes a fresh copy of `run`, in `case_dir`, whose manifest meta is
  // `mutated`.
  const std::string case_dir = (root_ / "meta_case").string();
  const auto resume_with_meta = [&](const std::string& run, const JsonValue& mutated) -> Status {
    const std::string dir = Dir("meta_case");
    fs::copy(run, dir, fs::copy_options::recursive);
    StoreRecovery recovery;
    Result<DurableStore> store = DurableStore::Resume(dir, options, &recovery);
    if (!store.ok()) return store.status();
    FLEXVIS_RETURN_IF_ERROR(store->Recommit(mutated));
    FLEXVIS_RETURN_IF_ERROR(store->Close());
    return sim::Coordinator::ResumeSharded(dir).status();
  };
  // `object` with `key` set to `value`, or dropped when `value` is absent.
  const auto with = [](const JsonValue& object, const std::string& key,
                       std::optional<JsonValue> value) {
    JsonValue out = JsonValue::Object();
    for (const auto& [k, v] : object.items()) {
      if (k != key) out.Set(k, v);
    }
    if (value.has_value()) out.Set(key, *value);
    return out;
  };
  const auto pair = [](int64_t prosumer_id, int64_t shard) {
    JsonValue entry = JsonValue::Array();
    entry.Append(JsonValue::Int(prosumer_id));
    entry.Append(JsonValue::Int(shard));
    JsonValue list = JsonValue::Array();
    list.Append(std::move(entry));
    return list;
  };
  const auto list_of = [](JsonValue element) {
    JsonValue list = JsonValue::Array();
    list.Append(std::move(element));
    return list;
  };

  // The unmodified manifests resume. They carry the constant
  // `"scale_energy_per_shard": true` every coordinator writes; only `false`
  // is refused below.
  EXPECT_EQ(meta.Get("scale_energy_per_shard"), JsonValue::Bool(true));
  Status intact = resume_with_meta(base, meta);
  ASSERT_TRUE(intact.ok()) << intact.ToString();
  intact = resume_with_meta(controlled, controlled_meta);
  ASSERT_TRUE(intact.ok()) << intact.ToString();

  // Targeted: every out-of-range or mistyped field is DataLoss.
  const std::vector<std::pair<std::string, std::optional<JsonValue>>> bad = {
      {"num_shards", JsonValue::Int(0)},
      {"num_shards", JsonValue::Int(-1)},
      {"num_shards", JsonValue::Int(sim::kMaxShards + 1)},
      {"num_shards", JsonValue::Int(4294967297LL)},  // narrowed to 1 as an int
      {"num_shards", JsonValue::Str("2")},
      {"num_shards", JsonValue::Double(2.5)},
      {"num_shards", std::nullopt},
      {"topology", JsonValue::Int(-1)},
      {"topology", JsonValue::Int(4294967296LL)},
      {"topology", JsonValue::Str("0")},
      {"epoch", JsonValue::Int(-1)},
      {"epoch", std::nullopt},
      {"scale_energy_per_shard", JsonValue::Bool(false)},
      {"scale_energy_per_shard", JsonValue::Int(1)},
      {"policy", JsonValue::Str("bogus")},
      {"policy", std::nullopt},
      {"fault_seed", JsonValue::Str("2013")},
      {"overrides", pair(prosumer, 2)},
      {"overrides", pair(prosumer, -1)},
      {"overrides", pair(prosumer, 4294967296LL)},
      {"overrides", list_of(list_of(JsonValue::Int(prosumer)))},
      {"overrides", JsonValue::Str("")},
      {"offer_order", list_of(JsonValue::Str("1"))},
      {"offer_order", JsonValue::Object()},
      {"base_energy", JsonValue::Object()},
      {"base_energy", JsonValue::Int(1)},
      {"rebalance", JsonValue::Object()},
  };
  std::vector<std::pair<std::string, JsonValue>> bad_metas;
  for (const auto& [key, value] : bad) {
    bad_metas.emplace_back(key + "=" + (value.has_value() ? value->Dump() : "(absent)"),
                           with(meta, key, value));
  }
  // The fleet flipped from 2 shards to an in-range 1 (its override dropped):
  // shard-0001 is no longer named, but the run cannot resume without it.
  bad_metas.emplace_back("num_shards=1, no overrides",
                         with(with(meta, "num_shards", JsonValue::Int(1)), "overrides",
                              JsonValue::Array()));
  bad_metas.emplace_back("meta=7", JsonValue::Int(7));
  bad_metas.emplace_back("meta=[]", JsonValue::Array());
  // Every file under a run's shard directories, relative path -> bytes.
  const auto shard_bytes = [](const std::string& run) {
    std::map<std::string, std::string> bytes;
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(run)) {
      const std::string relative = fs::relative(entry.path(), run).string();
      if (!entry.is_regular_file() || relative.rfind(sim::kShardDirPrefix, 0) != 0) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      bytes[relative].assign(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    }
    return bytes;
  };
  const std::map<std::string, std::string> base_shards = shard_bytes(base);
  ASSERT_EQ(base_shards.count(StrFormat("%s%04d/%s", sim::kShardDirPrefix, 1,
                                        sim::kCheckpointManifestFile)),
            1u);
  for (const auto& [label, mutated] : bad_metas) {
    Status status = resume_with_meta(base, mutated);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << label << ": " << status.ToString();
    // A refused resume deletes or rewrites nothing in any shard directory.
    EXPECT_EQ(shard_bytes(case_dir), base_shards) << label;
  }
  // The controller's integers: a double, a value past an int and a
  // non-integer list entry are DataLoss, never narrowed or read as 0.
  JsonValue strings = JsonValue::Array();
  strings.Append(JsonValue::Str("x"));
  strings.Append(JsonValue::Str("y"));
  JsonValue fractions = JsonValue::Array();
  fractions.Append(JsonValue::Double(2.9));
  fractions.Append(JsonValue::Int(0));
  const std::vector<std::tuple<std::string, std::string, JsonValue>> bad_nested = {
      {"rebalance", "window_ticks", JsonValue::Int(4294967297LL)},
      {"rebalance", "window_ticks", JsonValue::Double(2.9)},
      {"rebalance", "max_shards", JsonValue::Str("4")},
      {"controller", "cooldown", JsonValue::Double(2.9)},
      {"controller", "idle_streak", JsonValue::Int(4294967297LL)},
      {"controller", "next_plan_id", JsonValue::Double(1.5)},
      {"controller", "streak", strings},
      {"controller", "streak", fractions},
      {"controller", "prev_shed", strings},
  };
  for (const auto& [key, field, value] : bad_nested) {
    const std::string label = key + "." + field + "=" + value.Dump();
    Status status = resume_with_meta(
        controlled,
        with(controlled_meta, key, with(controlled_meta.Get(key), field, value)));
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << label << ": " << status.ToString();
  }

  // Seeded, on both runs: hostile values under random keys, and byte flips
  // and truncations of the manifest file itself. A mutation may leave a
  // resumable run (a changed fault seed, an unread key); anything else must
  // be a typed persisted-state error — never a crash, an internal error or
  // a hang.
  const auto typed = [](const Status& status) {
    return status.ok() || status.code() == StatusCode::kDataLoss ||
           status.code() == StatusCode::kNotFound || status.code() == StatusCode::kInvalidArgument;
  };
  std::mt19937_64 rng(20130201);
  const std::vector<JsonValue> hostile = {
      JsonValue::Int(-1),
      JsonValue::Int(0),
      JsonValue::Int(INT64_MAX),
      JsonValue::Int(INT64_MIN),
      JsonValue::Int(4294967297LL),
      JsonValue::Double(1e300),
      JsonValue::Double(-0.5),
      JsonValue::Str(""),
      JsonValue::Bool(false),
      JsonValue(),
      JsonValue::Array(),
      JsonValue::Object(),
  };
  for (const auto& [run, run_meta] : {std::make_pair(base, meta),
                                      std::make_pair(controlled, controlled_meta)}) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : run_meta.items()) keys.push_back(key);
    for (int i = 0; i < 120; ++i) {
      const std::string& key = keys[rng() % keys.size()];
      const JsonValue& value = hostile[rng() % hostile.size()];
      Status status = resume_with_meta(run, with(run_meta, key, value));
      EXPECT_TRUE(typed(status)) << run << " " << key << "=" << value.Dump() << ": "
                                 << status.ToString();
    }
    const fs::path manifest = fs::path(run) / sim::kCoordinatorManifestFile;
    std::string bytes;
    {
      std::ifstream in(manifest, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());
    for (int i = 0; i < 120; ++i) {
      std::string mutated = bytes;
      const size_t pos = rng() % mutated.size();
      if (i % 3 == 0) {
        mutated.resize(pos);  // truncation
      } else {
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (rng() % 8)));  // bit flip
      }
      const std::string dir = Dir("meta_bytes");
      fs::copy(run, dir, fs::copy_options::recursive);
      {
        std::ofstream out(fs::path(dir) / sim::kCoordinatorManifestFile,
                          std::ios::binary | std::ios::trunc);
        out << mutated;
      }
      Status status = sim::Coordinator::ResumeSharded(dir).status();
      EXPECT_TRUE(typed(status)) << run << " mutation " << i << " at byte " << pos << ": "
                                 << status.ToString();
    }
  }
}

// ---- Overload protection ----------------------------------------------------

TEST_F(ShardTest, BoundedIngestQueueShedsAndSurfacesInMergedReportAndAlerts) {
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  Result<sim::MergedOnlineReport> merged =
      sim::Coordinator::RunSharded(params, workload_.offers, window_);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GT(merged->global.shed_offers, 0);
  EXPECT_GE(merged->global.queue_high_watermark, 1);
  int shed = 0;
  for (const sim::OnlineReport& r : merged->shard_reports) shed += r.shed_offers;
  EXPECT_EQ(shed, merged->global.shed_offers);

  std::vector<sim::Alert> alerts = sim::ScanOverload(merged->shard_reports, window_);
  ASSERT_FALSE(alerts.empty());
  for (const sim::Alert& alert : alerts) {
    EXPECT_EQ(alert.kind, sim::AlertKind::kOverload);
    EXPECT_GT(alert.magnitude_kwh, 0.0);
    EXPECT_NE(alert.message.find("overload on shard"), std::string::npos);
  }
  // Unbounded runs never shed and never alert.
  sim::MergedOnlineReport clean = MustRunSharded(2);
  EXPECT_EQ(clean.global.shed_offers, 0);
  EXPECT_TRUE(sim::ScanOverload(clean.shard_reports, window_).empty());
}

TEST_F(ShardTest, OverloadCountersSurviveCheckpointResume) {
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  std::string dir = Dir("overload_resume");
  Result<sim::MergedOnlineReport> baseline = sim::Coordinator::RunShardedCheckpointed(
      params, workload_.offers, window_, dir);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->global.shed_offers, 0);

  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectMergedEqual(*baseline, *resumed, "overload counters across resume");
}

TEST_F(ShardTest, ShedPoliciesShedEquallyButKeepDifferentOffers) {
  // Same overflow pressure under both policies: every overflow arrival sheds
  // exactly one offer — the arrival itself (reject-newest) or the queue's
  // least-valuable entry when the arrival is worth strictly more
  // (reject-least-valuable). Counts match; the surviving set must not.
  sim::CoordinatorParams newest = Params(2);
  newest.online.ingest_queue_capacity = 1;
  newest.online.shed_policy = sim::ShedPolicy::kRejectNewest;
  sim::CoordinatorParams valuable = newest;
  valuable.online.shed_policy = sim::ShedPolicy::kRejectLeastValuable;

  Result<sim::MergedOnlineReport> by_newest =
      sim::Coordinator::RunSharded(newest, workload_.offers, window_);
  Result<sim::MergedOnlineReport> by_value =
      sim::Coordinator::RunSharded(valuable, workload_.offers, window_);
  ASSERT_TRUE(by_newest.ok()) << by_newest.status().ToString();
  ASSERT_TRUE(by_value.ok()) << by_value.status().ToString();
  ASSERT_GT(by_newest->global.shed_offers, 0);
  EXPECT_EQ(by_newest->global.shed_offers, by_value->global.shed_offers);
  EXPECT_NE(by_newest->global.outbox, by_value->global.outbox)
      << "policies kept identical offers under heavy overflow";
}

TEST_F(ShardTest, LeastValuableShedPolicyIsJournaledAndSurvivesResume) {
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  params.online.shed_policy = sim::ShedPolicy::kRejectLeastValuable;
  std::string dir = Dir("shed_value_resume");
  Result<sim::MergedOnlineReport> baseline = sim::Coordinator::RunShardedCheckpointed(
      params, workload_.offers, window_, dir);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->global.shed_offers, 0);

  // Every journaled tick record carries the policy it shed under, so a
  // resumed run proves its eviction decisions against the same policy.
  Result<StoreRecovery> shard0 = DurableStore::Recover(
      dir + "/" + sim::kShardDirPrefix + "0000", sim::CheckpointStoreOptions());
  ASSERT_TRUE(shard0.ok()) << shard0.status().ToString();
  ASSERT_FALSE(shard0->records.empty());
  for (const std::string& text : shard0->records) {
    Result<sim::OnlineTickRecord> record = sim::DecodeTickRecord(text);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    EXPECT_EQ(record->shed_policy,
              static_cast<int>(sim::ShedPolicy::kRejectLeastValuable));
  }

  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectMergedEqual(*baseline, *resumed, "least-valuable shed across resume");
}

// ---- Sharded persistence ----------------------------------------------------

TEST_F(ShardTest, ShardedDatabaseSaveLoadRoundTrips) {
  dw::Database db;
  ASSERT_TRUE(atlas_.RegisterWithDatabase(db).ok());
  ASSERT_TRUE(topology_.RegisterWithDatabase(db).ok());
  for (const dw::ProsumerInfo& p : workload_.prosumers) {
    ASSERT_TRUE(db.RegisterProsumer(p).ok());
  }
  ASSERT_TRUE(db.LoadFlexOffers(workload_.offers).ok());

  sim::ShardRouter router(3, sim::ShardPolicy::kHash);
  std::string dir = Dir("dw_sharded");
  ASSERT_TRUE(dw::SaveDatabaseSharded(
                  db, dir, 3,
                  [&](const core::FlexOffer& offer) { return router.ShardOf(offer); })
                  .ok());

  Result<dw::Database> restored = dw::LoadDatabaseSharded(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Result<std::vector<core::FlexOffer>> original = db.SelectFlexOffers({});
  Result<std::vector<core::FlexOffer>> roundtrip = restored->SelectFlexOffers({});
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(roundtrip.ok());
  ASSERT_EQ(original->size(), roundtrip->size());
  for (size_t i = 0; i < original->size(); ++i) {
    EXPECT_EQ(core::EncodeFlexOffer((*original)[i]),
              core::EncodeFlexOffer((*roundtrip)[i]));
  }
  EXPECT_EQ(restored->prosumers().size(), db.prosumers().size());

  // Each shard directory is a complete, independently loadable warehouse.
  Result<dw::Database> shard0 = dw::LoadDatabase(dir + "/shard-0000");
  ASSERT_TRUE(shard0.ok()) << shard0.status().ToString();
  EXPECT_EQ(shard0->prosumers().size(), db.prosumers().size());

  // No top-level manifest (crash mid-save) means nothing was committed.
  fs::remove(fs::path(dir) / dw::kShardsManifest);
  EXPECT_EQ(dw::LoadDatabaseSharded(dir).status().code(), StatusCode::kDataLoss);

  // Bad routing is a typed error, not a silent misfile.
  EXPECT_EQ(dw::SaveDatabaseSharded(db, Dir("dw_bad"), 3,
                                    [](const core::FlexOffer&) { return 5; })
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace flexvis
