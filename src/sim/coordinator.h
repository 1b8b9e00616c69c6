#ifndef FLEXVIS_SIM_COORDINATOR_H_
#define FLEXVIS_SIM_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/enterprise.h"
#include "sim/online.h"
#include "sim/rebalance.h"
#include "sim/shard.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/store.h"

namespace flexvis::sim {

/// Multi-enterprise sharding: the prosumer population is partitioned across
/// N Enterprise instances (shards) by a ShardRouter, and a Coordinator
/// drives all shards in lockstep — one global planning tick advances every
/// shard one tick — then merges the per-shard reports into a global view
/// with deterministic ordering. Each shard owns its own FaultRegistry,
/// OnlineLoopState, checkpoint directory, and write-ahead journal; nothing
/// process-wide sits on the tick path, so shard tick *computation* runs in
/// parallel (util/parallel pool) while all journal and snapshot I/O happens
/// serially in shard order (the process-wide util.journal.* / util.fileio.*
/// crash points therefore fire at deterministic positions, which the
/// coordinator kill-matrix test relies on).
///
/// A 1-shard run is byte-identical to the unsharded OnlineEnterprise::Run:
/// the hash partition routes everything to shard 0 in input order, energy
/// scaling divides by 1.0 (exact), and the merge maps shard-local offers
/// back through the identity permutation. RunShardedCheckpointed /
/// ResumeSharded are therefore the checkpointed online loop at any shard
/// count, one included.

/// Layout of a sharded checkpoint directory:
///
///   COORDINATOR.json      the coordinator's util/store manifest (a zero-file
///                         generation whose `meta` carries num_shards, policy,
///                         epoch, migration overrides, controller state and
///                         the global offer order) — written atomically, last
///                         at Begin (the run's commit point), at every
///                         compaction and at every resize
///   coordinator.wal       the coordinator WAL: one self-contained record per
///                         committed migration (prosumer, from, to, epoch,
///                         boundary tick and the whole moved state) plus the
///                         rebalance-plan records
///   shard-0000/           one sim/checkpoint store per shard
///   shard-0001/ ...       (meta.json, offers.jsonl, state.json for compacted
///                         generations, SNAPSHOT.json whose `meta` holds the
///                         epoch the snapshot reflects, journal.wal of tick
///                         records only)
///
/// A migration commits with one WAL append and one flush. Recovery walks the
/// WAL's migration records in epoch order and splices each into every side
/// whose snapshot epoch is below the record's; a side folded after the
/// migration already reflects it. Compaction (OnlineParams::compact_ticks =
/// C > 0) runs at every global tick boundary divisible by C: it commits the
/// controller's trend state (when a controller runs), folds every shard's
/// journal into a new store generation whose offers.jsonl reflects the
/// *current* router partition and whose meta records the current epoch, and
/// only then truncates the coordinator WAL — a shard that has not folded yet
/// still needs its records.
inline constexpr const char* kCoordinatorManifestFile = "COORDINATOR.json";
inline constexpr const char* kShardDirPrefix = "shard-";

/// Name of the shard-count environment knob benches and the CLI honour.
inline constexpr const char* kShardsEnvVar = "FLEXVIS_SHARDS";

/// getenv(FLEXVIS_SHARDS) as a shard count in [1, kMaxShards]; `fallback`
/// when unset or empty, InvalidArgument naming the variable otherwise.
Result<int> ShardsFromEnv(int fallback = 1);

struct CoordinatorParams {
  int num_shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;
  /// Per-shard loop parameters. `online.faults` is ignored: every shard gets
  /// its own registry, seeded from `fault_seed` and armed from
  /// FLEXVIS_FAULTS (a no-op when the variable is unset). The energy-model
  /// means (wind/solar/demand) are divided by num_shards for every shard, so
  /// each balances its share of the market zone and shard-summed totals stay
  /// comparable to a single-enterprise run (division by 1.0 is exact,
  /// preserving 1-shard byte-identity).
  OnlineParams online;
  /// Base seed for the per-shard fault registries (shard s is seeded with a
  /// shard-distinct mix of this).
  uint64_t fault_seed = 2013;
  /// When set, a RebalanceController watches every tick's per-shard load and
  /// autonomously issues journaled RebalancePlans (prosumer moves, and —
  /// when `allow_resize` — shard split/merge). Unset: no controller, the
  /// PR-4 behaviour.
  std::optional<RebalanceParams> rebalance;
};

/// What MigrateProsumer may move. Both modes commit through the same splice;
/// the mode is only a precondition. kIdleOnly refuses a prosumer with any
/// ingested offer (FailedPrecondition naming every one of them); kAllowActive
/// also moves mid-flight state (ingested-arrival positions, pending-queue
/// entries, decided offer states with schedules), which travels inside the
/// migration record.
enum class MigrationMode {
  kIdleOnly = 0,
  kAllowActive,
};

/// Mid-flight state of a set of offers: one prosumer's, the payload a
/// migration moves between shards (journaled inside the migration record;
/// empty apart from `offers` for an idle prosumer), or a whole shard's, which
/// a resize splices into the new fleet.
struct MigratedState {
  /// The prosumer's offers, verbatim input copies in global input order
  /// (the migration record carries them so it is self-contained).
  std::vector<core::FlexOffer> offers;
  /// Offers already past the source's arrival cursor, in source arrival
  /// order (ingested or dropped at the ingest seam).
  std::vector<core::FlexOfferId> consumed;
  /// Pending-queue membership, in queue order.
  std::vector<core::FlexOfferId> pending_acceptance;
  std::vector<core::FlexOfferId> pending_assignment;
  /// Decided states (non-kOffered) with committed schedules, in source
  /// subset order.
  std::vector<OnlineStateChange> states;

  /// An idle prosumer: nothing consumed (and therefore nothing pending or
  /// decided) — the only kind kIdleOnly moves.
  bool idle() const { return consumed.empty(); }
};

/// A committed migration as the coordinator WAL holds it; the codec lives in
/// coordinator.cc.
struct MigrationRecord;

/// The coordinator's merged view of one sharded run.
struct MergedOnlineReport {
  int num_shards = 1;
  /// Assignment epoch: number of committed prosumer migrations.
  int64_t epoch = 0;
  /// Shard-layout generation: number of committed split/merge resizes (the
  /// suffix of the shard directories, 0 for the initial layout).
  int topology = 0;
  /// Global report: counters summed across shards (queue_high_watermark is
  /// the max), offers merged back into global input order, outbox
  /// concatenated in shard order.
  OnlineReport global;
  /// Per-shard reports, indexed by shard id (sim/alerts ScanOverload input).
  std::vector<OnlineReport> shard_reports;
  /// Σ total_max_energy_kwh over the input offers in global order — a
  /// shard-invariant total (bit-identical at any shard count).
  double total_offered_kwh = 0.0;
};

/// Observability of a sharded recovery.
struct ShardResumeInfo {
  std::vector<ResumeInfo> shards;
  /// Migration records walked in the coordinator WAL (those every shard had
  /// folded included; compaction truncates them).
  int migrations_replayed = 0;
  /// Rebalance plans whose journaled record had no completion marker: the
  /// resume finished their remaining steps (or re-committed the resize).
  int plans_completed = 0;
  /// Plans the controller re-decided from the replayed load history because
  /// the crash hit after the trigger but before the plan record was durable;
  /// the resume executed them from scratch.
  int plans_reexecuted = 0;
  /// Shard store directories of superseded topologies (or uncommitted resize
  /// staging) swept by the recovery.
  int stale_shard_dirs_swept = 0;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorParams params);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  const CoordinatorParams& params() const { return params_; }
  const ShardRouter& router() const { return router_; }
  int64_t epoch() const { return epoch_; }
  /// Number of committed split/merge resizes (0 for the initial layout).
  int topology() const { return topology_; }
  /// Rebalance plans executed by this coordinator instance (controller runs).
  int64_t plans_executed() const { return plans_executed_; }

  /// Per-shard fault registry (armed from FLEXVIS_FAULTS at Begin); valid
  /// after Begin. Tests arm individual shards through this.
  FaultRegistry& shard_faults(int shard);

  /// Partitions `offers` across the shards and builds every shard's loop
  /// state. In-memory mode: nothing touches disk.
  Status Begin(const std::vector<core::FlexOffer>& offers,
               const timeutil::TimeInterval& window);

  /// Begin with checkpointing under `directory` (created if needed; a
  /// previous run there is invalidated first): one snapshot sub-directory
  /// per shard, COORDINATOR.json written last as the commit point, and a
  /// per-shard journal flushed every tick.
  Status BeginCheckpointed(const std::vector<core::FlexOffer>& offers,
                           const timeutil::TimeInterval& window,
                           const std::string& directory);

  /// True when every shard has executed all ticks of the window.
  bool Done() const;

  /// Advances the run one global tick: every shard at the minimum tick index
  /// computes its tick in parallel (per-shard state and registries only),
  /// then the records are journaled serially in shard order.
  Status Tick();

  /// Moves `prosumer` to `to_shard` at the current tick boundary. Its
  /// mid-flight state is spliced out of the source shard's history fold and
  /// into the target's, and both shards are rebuilt from their new offer
  /// subsets with the consumed-arrival prefix verified (FailedPrecondition
  /// when the shards are not at a common tick, or when the new membership
  /// would reorder a shard's consumed history). Under kIdleOnly the prosumer
  /// must be idle (FailedPrecondition naming *every* already-ingested offer
  /// id otherwise). When checkpointed the migration commits with exactly one
  /// durable write: one self-contained record appended to the coordinator
  /// WAL and flushed (no shard journal or COORDINATOR.json write). NotFound
  /// when the prosumer owns no offers; InvalidArgument when already on
  /// `to_shard`.
  Status MigrateProsumer(core::ProsumerId prosumer, int to_shard,
                         MigrationMode mode = MigrationMode::kIdleOnly);

  /// Changes the fleet to `new_num_shards` at the current tick boundary
  /// (FailedPrecondition when the shards are not in lockstep or ingest
  /// backlog skew makes the consumed-history splice ambiguous). Every old
  /// shard's state is extracted, and each new shard, under a fresh router
  /// (overrides cleared), splices in its share and is verify-rebuilt as a
  /// migration target is; only the fold seed differs, re-homing cumulative
  /// counters and the outbox to new shard 0. When checkpointed, a new
  /// topology of shard stores
  /// (`shard-NNNN.t<topology>/`) is staged and committed atomically by the
  /// COORDINATOR.json rewrite, after which the old topology's directories
  /// are destroyed (a crash in between leaves debris the next resume
  /// sweeps). InvalidArgument when the count is unchanged or out of
  /// [1, kMaxShards].
  Status Resize(int new_num_shards);

  /// Finalizes every shard and merges. Call once, after Done().
  Result<MergedOnlineReport> Finish();

  // ---- One-shot drivers ----------------------------------------------------

  static Result<MergedOnlineReport> RunSharded(const CoordinatorParams& params,
                                               const std::vector<core::FlexOffer>& offers,
                                               const timeutil::TimeInterval& window);

  static Result<MergedOnlineReport> RunShardedCheckpointed(
      const CoordinatorParams& params, const std::vector<core::FlexOffer>& offers,
      const timeutil::TimeInterval& window, const std::string& directory);

  /// Recovers a sharded run from `directory`: reads COORDINATOR.json
  /// (kDataLoss when absent — the run never committed; rerun from inputs)
  /// and the coordinator WAL, loads every shard snapshot (torn journal tails
  /// truncated), walks the WAL's migration records in epoch order — each
  /// side whose snapshot predates a record replays its journal up to the
  /// record's boundary and is spliced — then replays the remaining ticks,
  /// sweeps shard directories the manifest does not name, reconciles
  /// rebalance plans, continues the remaining ticks, and returns the merged
  /// report, byte-identical to an uninterrupted run. Nothing on disk is
  /// deleted before every check has passed.
  static Result<MergedOnlineReport> ResumeSharded(const std::string& directory,
                                                  ShardResumeInfo* info = nullptr);

 private:
  struct Shard;

  std::string ShardDir(int shard) const;
  /// Shard directory name under a specific topology: plain `shard-NNNN` for
  /// topology 0, `shard-NNNN.t<T>` after T resizes.
  static std::string ShardDirName(int topology, int shard);
  /// The coordinator state persisted as the COORDINATOR.json store meta.
  JsonValue CoordinatorMeta() const;
  /// Folds every shard's journal into a new store generation (current router
  /// partition + folded tick record, the current epoch in its meta), then
  /// truncates the coordinator WAL; with a controller, its trend state is
  /// committed first. `include`, when non-null, restricts the fold to the
  /// flagged shards — the resume path's catch-up for a compaction the crash
  /// interrupted partway through the shard list.
  Status CompactShards(const std::vector<bool>* include = nullptr);
  /// The lowest next_tick across the fleet.
  int MinNextTick() const;
  /// The one shard factory: shard `s`'s fault registry (seeded from the run's
  /// fault seed, armed from FLEXVIS_FAULTS) and an enterprise running the
  /// energy-scaled `params` against it. The caller builds the loop state.
  Result<std::unique_ptr<Shard>> NewShard(int s, const OnlineParams& params) const;

  // ---- Re-partition splice: extract -> splice -> verify-rebuild -------------
  // A migration splices onto each shard's own history fold, a resize onto a
  // counters-only fold per new shard; nothing else differs.

  /// Appends to `out` the mid-flight state of shard `s`'s offers `member`
  /// selects: input copies (global input order), consumed arrivals (arrival
  /// order), queue entries (queue order) and decided states with schedules
  /// (subset order). A migration selects one prosumer, a resize each old
  /// shard whole, in shard order.
  void ExtractState(int s, const std::function<bool(const core::FlexOffer&)>& member,
                    MigratedState* out) const;
  /// Begin(subset) + Apply(fold), then verifies the consumed-arrival prefix
  /// is exactly `expect_consumed` as a set (FailedPrecondition otherwise —
  /// ingest-backlog skew would reorder consumed history). Swaps into `out`.
  /// Runs under the shard-owning `enterprise` so the energy-scaled residual
  /// target matches (a resize passes the *new* fleet's enterprises here).
  Status BuildSplicedState(const OnlineEnterprise& enterprise,
                           const std::vector<core::FlexOffer>& subset,
                           const OnlineTickRecord& fold,
                           const std::vector<core::FlexOfferId>& expect_consumed,
                           OnlineLoopState* out) const;
  /// The one migration splice: shard `s`'s history fold with `moved` taken
  /// out (`incoming` false) or grafted in (`incoming` true), rebuilt over the
  /// subset `router` assigns it and verified by BuildSplicedState. An empty
  /// moved state leaves the fold unchanged, so an idle move rebuilds the
  /// shard exactly as replaying its history would. Writes the spliced fold
  /// and state; nothing is swapped in.
  Status SpliceShard(int s, const ShardRouter& router, const MigratedState& moved,
                     bool incoming, OnlineTickRecord* fold, OnlineLoopState* state) const;
  /// Swaps a spliced state into shard `s`; its fold becomes the shard's whole
  /// applied history, as a compacted generation's state.json would.
  void Rebase(int s, OnlineTickRecord fold, OnlineLoopState state);
  /// Resume-only: re-commits a WAL migration record — assigns the override,
  /// sets the epoch, and splices the record's moved state into the sides
  /// named, each of which must have replayed to the record's tick (DataLoss
  /// otherwise). A side is left alone when its snapshot epoch covers the
  /// record: it folded the migration already.
  Status ReplayMigration(const MigrationRecord& record, bool splice_source,
                         bool splice_target);

  // ---- Rebalance controller wiring -----------------------------------------

  /// Turns a controller decision into a concrete plan (move-set picked from
  /// the hot shard's per-prosumer pending load).
  RebalancePlan BuildPlan(const RebalanceDecision& decision) const;
  /// Journals the plan record, executes it step by step (moves that fail
  /// their precondition are skipped), journals the completion marker.
  Status ExecutePlan(const RebalancePlan& plan, bool already_journaled);
  /// Controller observation for the tick just completed; may trigger and
  /// execute a plan. Sets `*resized` when the plan changed the topology.
  Status ObserveAndRebalance(int64_t tick, bool* resized);

  CoordinatorParams params_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<core::FlexOffer> offers_;  // global input order
  timeutil::TimeInterval window_;
  int64_t epoch_ = 0;
  /// Number of committed split/merge resizes; names the shard directories.
  int topology_ = 0;
  /// The energy-model means before per-shard scaling, kept so a resize can
  /// re-derive exact per-shard params for the new fleet size (re-dividing
  /// already-scaled values would not be exact in floating point).
  EnergyModelParams base_energy_;
  /// Present iff params_.rebalance is set.
  std::unique_ptr<RebalanceController> controller_;
  int64_t plans_executed_ = 0;
  bool checkpointed_ = false;
  std::string directory_;
  /// The zero-file store behind COORDINATOR.json (checkpointed runs only).
  DurableStore coord_store_;
  bool begun_ = false;
};

/// Offline counterpart: PlanHorizon across N enterprise shards, each with
/// its own FaultRegistry (seeded from CoordinatorParams' default fault seed)
/// and a 1/N-scaled energy model, run in parallel and merged
/// deterministically.
struct MergedPlanningReport {
  int num_shards = 1;
  /// Series and settlement scalars summed across shards; member_offers and
  /// aggregate_offers concatenated in shard order (identical to the
  /// unsharded report at N = 1); degraded_stages is the sorted union.
  PlanningReport global;
  std::vector<PlanningReport> shard_reports;
  /// Σ total_max_energy_kwh over the input offers in global order.
  double total_offered_kwh = 0.0;
};

Result<MergedPlanningReport> PlanHorizonSharded(const EnterpriseParams& params,
                                                int num_shards, ShardPolicy policy,
                                                const std::vector<core::FlexOffer>& offers,
                                                const timeutil::TimeInterval& window);

}  // namespace flexvis::sim

#endif  // FLEXVIS_SIM_COORDINATOR_H_
