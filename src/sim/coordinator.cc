#include "sim/coordinator.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/messages.h"
#include "sim/workload.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/store.h"
#include "util/strings.h"

namespace flexvis::sim {

namespace fs = std::filesystem;

using core::FlexOffer;
using timeutil::TimeInterval;

namespace {

/// splitmix64-style shard seed: every shard's fault registry draws from its
/// own streams, reproducibly derived from the run's base seed.
uint64_t ShardSeed(uint64_t base, int shard) {
  uint64_t x = base + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(shard + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The energy model one of `n` shards balances: the means divided by n, so
/// shard-summed totals stay comparable to a single-enterprise run (division
/// by 1.0 is exact, preserving 1-shard byte-identity).
EnergyModelParams ShardEnergy(EnergyModelParams energy, int n) {
  const double divisor = static_cast<double>(n);
  energy.wind_mean_kwh /= divisor;
  energy.solar_peak_kwh /= divisor;
  energy.demand_base_kwh /= divisor;
  return energy;
}

/// Merges one shard's cumulative counters into `acc`: the nine additive
/// counters sum, the queue watermark takes the max, and the shard's outbox
/// appends to `wires`. `acc` is Finish's global report or, in Resize, the
/// counters-only fold that re-homes the fleet's totals to new shard 0 — both
/// spell the counters alike.
template <typename Counters>
void AddCounters(const OnlineReport& shard, Counters* acc, std::vector<std::string>* wires) {
  acc->offers_received += shard.offers_received;
  acc->accepted += shard.accepted;
  acc->rejected += shard.rejected;
  acc->assigned += shard.assigned;
  acc->missed_acceptance += shard.missed_acceptance;
  acc->missed_assignment += shard.missed_assignment;
  acc->dropped_ingest += shard.dropped_ingest;
  acc->failed_sends += shard.failed_sends;
  acc->shed_offers += shard.shed_offers;
  acc->queue_high_watermark = std::max(acc->queue_high_watermark, shard.queue_high_watermark);
  wires->insert(wires->end(), shard.outbox.begin(), shard.outbox.end());
}

/// One shard's load as the rebalance controller sees it after a tick; the
/// live observation and the replayed journal reconstruct it alike.
ShardLoadSample LoadSample(const OnlineLoopState& state) {
  ShardLoadSample sample;
  sample.shed_offers = state.report.shed_offers;
  sample.queue_depth = static_cast<int>(state.pending_acceptance.size());
  sample.backlog = static_cast<int64_t>(state.arrival.size() - state.next_arrival);
  return sample;
}

/// Element-wise sum of `other` into `acc`, rebasing `acc` when `other`
/// starts earlier (TimeSeries::Add ignores slices before the receiver's
/// start). Used only when merging shard 1+ into the running global series,
/// so a 1-shard merge never touches the copied report.
void AddAligned(core::TimeSeries* acc, const core::TimeSeries& other) {
  if (other.empty()) return;
  if (acc->empty()) {
    *acc = other;
    return;
  }
  if (other.start() < acc->start()) {
    core::TimeSeries rebased(other.start(), 0);
    rebased.Add(*acc);
    *acc = std::move(rebased);
  }
  acc->Add(other);
}

}  // namespace

/// A committed prosumer migration as the coordinator WAL holds it: one
/// record, appended and flushed once, carrying everything a resume needs to
/// splice either side — the epoch it commits, the tick boundary it landed on
/// and the whole moved state (the offers included).
struct MigrationRecord {
  core::ProsumerId prosumer = core::kInvalidProsumerId;
  int from = 0;
  int to = 0;
  int64_t epoch = 0;
  /// The shards' common next tick when the migration committed.
  int tick = 0;
  MigratedState moved;
};

namespace {

std::string EncodeMigrationRecord(const MigrationRecord& record) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str("migration"));
  json.Set("prosumer", JsonValue::Int(record.prosumer));
  json.Set("from", JsonValue::Int(record.from));
  json.Set("to", JsonValue::Int(record.to));
  json.Set("epoch", JsonValue::Int(record.epoch));
  json.Set("tick", JsonValue::Int(record.tick));
  JsonValue offers = JsonValue::Array();
  for (const FlexOffer& offer : record.moved.offers) {
    offers.Append(JsonValue::Str(core::EncodeFlexOffer(offer)));
  }
  json.Set("offers", std::move(offers));
  json.Set("consumed", EncodeIdArray(record.moved.consumed));
  json.Set("pend_acc", EncodeIdArray(record.moved.pending_acceptance));
  json.Set("pend_asn", EncodeIdArray(record.moved.pending_assignment));
  JsonValue states = JsonValue::Array();
  for (const OnlineStateChange& change : record.moved.states) {
    states.Append(EncodeStateChange(change));
  }
  json.Set("states", std::move(states));
  return json.Dump();
}

/// Inverse of EncodeMigrationRecord for an `n`-shard fleet: the shards must
/// be two distinct ones of the fleet, the epoch positive.
Result<MigrationRecord> DecodeMigrationRecord(const JsonValue& json, int n) {
  Result<int64_t> prosumer = ReadStrictInt(json.Get("prosumer"), "migration prosumer");
  Result<int64_t> from = ReadStrictInt(json.Get("from"), "migration source shard", 0, n - 1);
  Result<int64_t> to = ReadStrictInt(json.Get("to"), "migration target shard", 0, n - 1);
  Result<int64_t> epoch = ReadStrictInt(json.Get("epoch"), "migration epoch", 1);
  Result<int64_t> tick = ReadStrictInt(json.Get("tick"), "migration tick", 0,
                                       std::numeric_limits<int>::max());
  for (const Status* status :
       {&prosumer.status(), &from.status(), &to.status(), &epoch.status(), &tick.status()}) {
    if (!status->ok()) return *status;
  }
  if (*from == *to) return DataLossError("migration record names one shard as both sides");
  MigrationRecord record;
  record.prosumer = *prosumer;
  record.from = static_cast<int>(*from);
  record.to = static_cast<int>(*to);
  record.epoch = *epoch;
  record.tick = static_cast<int>(*tick);
  const JsonValue& offers = json.Get("offers");
  if (!offers.is_array()) return DataLossError("migration record lacks an 'offers' array");
  for (size_t i = 0; i < offers.size(); ++i) {
    if (!offers[i].is_string()) return DataLossError("migration record holds a non-string offer");
    Result<FlexOffer> offer = core::DecodeFlexOffer(offers[i].AsString());
    if (!offer.ok()) return offer.status();
    record.moved.offers.push_back(*std::move(offer));
  }
  MigratedState& moved = record.moved;
  FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json, "consumed", &moved.consumed));
  FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json, "pend_acc", &moved.pending_acceptance));
  FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json, "pend_asn", &moved.pending_assignment));
  const JsonValue& states = json.Get("states");
  if (!states.is_array()) return DataLossError("migration record 'states' is not an array");
  for (size_t i = 0; i < states.size(); ++i) {
    Result<OnlineStateChange> change = DecodeStateChange(states[i]);
    if (!change.ok()) return change.status();
    moved.states.push_back(*std::move(change));
  }
  return record;
}

/// A shard store's manifest meta: the assignment epoch its snapshot
/// reflects. Resume splices a WAL migration record into a shard only when
/// the record's epoch is above it.
JsonValue ShardMeta(int64_t epoch) {
  JsonValue meta = JsonValue::Object();
  meta.Set("epoch", JsonValue::Int(epoch));
  return meta;
}

/// Removes the moved prosumer's footprint from the source shard's history
/// fold: its offers' state changes and queue entries drop out and the
/// arrival cursor retreats past its consumed arrivals. Counters and sent
/// wires (including sheds it caused) stay with the source — cumulative
/// history does not move.
void SpliceOut(OnlineTickRecord* fold, const MigratedState& moved) {
  std::set<core::FlexOfferId> gone;
  for (const FlexOffer& offer : moved.offers) gone.insert(offer.id);
  fold->changes.erase(std::remove_if(fold->changes.begin(), fold->changes.end(),
                                     [&gone](const OnlineStateChange& change) {
                                       return gone.count(change.offer) != 0;
                                     }),
                      fold->changes.end());
  auto drop = [&gone](std::vector<core::FlexOfferId>* ids) {
    ids->erase(std::remove_if(ids->begin(), ids->end(),
                              [&gone](core::FlexOfferId id) { return gone.count(id) != 0; }),
               ids->end());
  };
  drop(&fold->pending_acceptance);
  drop(&fold->pending_assignment);
  fold->next_arrival -= static_cast<int64_t>(moved.consumed.size());
}

/// Grafts the moved prosumer's footprint onto the target shard's history
/// fold: decided states and queue entries append after the target's own, the
/// arrival cursor advances over the moved consumed arrivals, and the
/// watermark accounts for the deeper merged queue.
void SpliceIn(OnlineTickRecord* fold, const MigratedState& moved) {
  fold->changes.insert(fold->changes.end(), moved.states.begin(), moved.states.end());
  fold->pending_acceptance.insert(fold->pending_acceptance.end(),
                                  moved.pending_acceptance.begin(),
                                  moved.pending_acceptance.end());
  fold->pending_assignment.insert(fold->pending_assignment.end(),
                                  moved.pending_assignment.begin(),
                                  moved.pending_assignment.end());
  fold->next_arrival += static_cast<int64_t>(moved.consumed.size());
  fold->queue_high_watermark = std::max(fold->queue_high_watermark,
                                        static_cast<int>(fold->pending_acceptance.size()));
}

/// The offer subset `router` assigns to shard `s`, in global input order —
/// the one place a shard's membership turns into its offers.
std::vector<FlexOffer> SubsetFor(const ShardRouter& router,
                                 const std::vector<FlexOffer>& offers, int s) {
  std::vector<FlexOffer> subset;
  for (const FlexOffer& offer : offers) {
    if (router.ShardOf(offer) == s) subset.push_back(offer);
  }
  return subset;
}

/// The member predicate of a migration: one prosumer's offers.
std::function<bool(const FlexOffer&)> OfProsumer(core::ProsumerId prosumer) {
  return [prosumer](const FlexOffer& offer) { return offer.prosumer == prosumer; };
}

/// A resize's share of the extracted fleet state for one new shard:
/// `fleet` restricted to `subset`'s members. Consumed arrivals and queue
/// entries keep the fleet order (old shard, then queue order); decided
/// states follow the subset's global input order, since their schedules
/// commit to the residual in that order and floating-point sums are
/// order-sensitive.
MigratedState RestrictTo(const MigratedState& fleet, const std::vector<FlexOffer>& subset) {
  std::unordered_map<core::FlexOfferId, size_t> position;
  for (size_t i = 0; i < subset.size(); ++i) position.emplace(subset[i].id, i);
  const auto member = [&position](core::FlexOfferId id) { return position.count(id) != 0; };
  MigratedState share;
  std::copy_if(fleet.consumed.begin(), fleet.consumed.end(), std::back_inserter(share.consumed),
               member);
  std::copy_if(fleet.pending_acceptance.begin(), fleet.pending_acceptance.end(),
               std::back_inserter(share.pending_acceptance), member);
  std::copy_if(fleet.pending_assignment.begin(), fleet.pending_assignment.end(),
               std::back_inserter(share.pending_assignment), member);
  std::copy_if(fleet.states.begin(), fleet.states.end(), std::back_inserter(share.states),
               [&member](const OnlineStateChange& change) { return member(change.offer); });
  std::sort(share.states.begin(), share.states.end(),
            [&position](const OnlineStateChange& a, const OnlineStateChange& b) {
              return position.at(a.offer) < position.at(b.offer);
            });
  return share;
}

/// COORDINATOR.json as a zero-file util/store generation: the
/// atomically-renamed manifest whose `meta` carries the coordinator state,
/// plus the coordinator WAL: one record per committed migration (kind
/// "migration") and the rebalance-plan records (kind "plan" before any step
/// executes, kind "plan_done" after the last). Compacting the store
/// truncates the WAL in the same atomic commit that rewrites the manifest.
StoreOptions CoordinatorStoreOptions() {
  StoreOptions options;
  options.manifest_name = kCoordinatorManifestFile;
  options.journal_name = "coordinator.wal";
  return options;
}

std::string EncodePlanDoneRecord(int64_t id) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str("plan_done"));
  json.Set("id", JsonValue::Int(id));
  return json.Dump();
}

}  // namespace

Result<int> ShardsFromEnv(int fallback) {
  const char* env = std::getenv(kShardsEnvVar);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || value < 1 || value > kMaxShards) {
    return InvalidArgumentError(StrFormat("$%s must be an integer in [1, %d], got '%s'",
                                          kShardsEnvVar, kMaxShards, env));
  }
  return static_cast<int>(value);
}

/// Everything one shard owns: its loop parameters (energy scaled, faults
/// pointed at the shard registry), its fault registry, its live state, the
/// records applied since Begin (after a compaction, migration splice or
/// resume the first entry is a folded record standing in for everything
/// before it; splices and compactions fold the list), and — when
/// checkpointed — its open durable store.
struct Coordinator::Shard {
  OnlineParams params;
  std::unique_ptr<FaultRegistry> registry;
  OnlineEnterprise enterprise;
  OnlineLoopState state;
  std::vector<OnlineTickRecord> applied;
  DurableStore store;
};

Coordinator::Coordinator(CoordinatorParams params)
    : params_(std::move(params)),
      router_(params_.num_shards < 1 ? 1 : params_.num_shards, params_.policy) {
  if (params_.num_shards < 1) params_.num_shards = 1;
}

Coordinator::~Coordinator() = default;

FaultRegistry& Coordinator::shard_faults(int shard) {
  return *shards_[static_cast<size_t>(shard)]->registry;
}

std::string Coordinator::ShardDirName(int topology, int shard) {
  if (topology == 0) return StrFormat("%s%04d", kShardDirPrefix, shard);
  return StrFormat("%s%04d.t%d", kShardDirPrefix, shard, topology);
}

std::string Coordinator::ShardDir(int shard) const {
  return (fs::path(directory_) / ShardDirName(topology_, shard)).string();
}

Status Coordinator::Begin(const std::vector<FlexOffer>& offers, const TimeInterval& window) {
  if (begun_) return FailedPreconditionError("coordinator already begun");
  offers_ = offers;
  window_ = window;
  // Keep the unscaled energy means: a resize re-derives exact per-shard
  // params for the new fleet size from these (re-dividing already-scaled
  // values would not be exact in floating point).
  base_energy_ = params_.online.energy;
  if (params_.rebalance.has_value() && controller_ == nullptr) {
    controller_ = std::make_unique<RebalanceController>(*params_.rebalance,
                                                        params_.num_shards, window_);
  }
  OnlineParams shard_params = params_.online;
  shard_params.energy = ShardEnergy(base_energy_, params_.num_shards);
  shards_.clear();
  for (int s = 0; s < params_.num_shards; ++s) {
    Result<std::unique_ptr<Shard>> shard = NewShard(s, shard_params);
    if (!shard.ok()) return shard.status();
    Result<OnlineLoopState> state =
        (*shard)->enterprise.Begin(SubsetFor(router_, offers_, s), window);
    if (!state.ok()) return state.status();
    (*shard)->state = *std::move(state);
    shards_.push_back(*std::move(shard));
  }
  begun_ = true;
  return OkStatus();
}

Result<std::unique_ptr<Coordinator::Shard>> Coordinator::NewShard(
    int s, const OnlineParams& params) const {
  auto shard = std::make_unique<Shard>();
  shard->registry = std::make_unique<FaultRegistry>();
  FLEXVIS_RETURN_IF_ERROR(InstallFaultsInto(*shard->registry, ShardSeed(params_.fault_seed, s)));
  shard->params = params;
  shard->params.faults = shard->registry.get();
  shard->enterprise = OnlineEnterprise(shard->params);
  return shard;
}

Status Coordinator::BeginCheckpointed(const std::vector<FlexOffer>& offers,
                                      const TimeInterval& window,
                                      const std::string& directory) {
  directory_ = directory;
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    return InternalError(StrFormat("cannot create checkpoint directory '%s': %s",
                                   directory.c_str(), ec.message().c_str()));
  }
  // Invalidate any previous run first: dropping COORDINATOR.json means a
  // crash anywhere inside this function recovers to "no committed run"
  // (rerun from inputs), never to a mix of old and new shard state.
  FLEXVIS_RETURN_IF_ERROR(DurableStore::Invalidate(directory_, CoordinatorStoreOptions()));
  for (const fs::directory_entry& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(kShardDirPrefix, 0) != 0) continue;
    (void)DurableStore::Invalidate(entry.path().string(), CheckpointStoreOptions());
  }

  FLEXVIS_RETURN_IF_ERROR(Begin(offers, window));
  checkpointed_ = true;

  // Per-shard stores (each its own commit point via SNAPSHOT.json, WAL
  // opened ready for the first tick), then the coordinator store — the run's
  // overall commit point — last.
  for (int s = 0; s < params_.num_shards; ++s) {
    Result<DurableStore> store = DurableStore::Create(
        ShardDir(s), CheckpointStoreOptions(),
        EncodeOnlineSnapshot(shards_[static_cast<size_t>(s)]->params,
                             SubsetFor(router_, offers_, s), window),
        ShardMeta(epoch_));
    if (!store.ok()) return store.status();
    shards_[static_cast<size_t>(s)]->store = *std::move(store);
  }
  Result<DurableStore> coord =
      DurableStore::Create(directory_, CoordinatorStoreOptions(), {}, CoordinatorMeta());
  if (!coord.ok()) return coord.status();
  coord_store_ = *std::move(coord);
  return OkStatus();
}

bool Coordinator::Done() const {
  if (!begun_) return false;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->enterprise.Done(shard->state)) return false;
  }
  return true;
}

Status Coordinator::Tick() {
  if (!begun_) return FailedPreconditionError("coordinator not begun");
  int64_t min_tick = -1;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->enterprise.Done(shard->state)) continue;
    if (min_tick < 0 || shard->state.next_tick < min_tick) {
      min_tick = shard->state.next_tick;
    }
  }
  if (min_tick < 0) return FailedPreconditionError("all shards are done");

  // Phase 1: compute every eligible shard's tick in parallel. The tick path
  // touches only shard-owned state and the shard's own FaultRegistry, so
  // execution order across shards cannot change any outcome.
  const size_t n = shards_.size();
  std::vector<OnlineTickRecord> records(n);
  std::vector<char> ticked(n, 0);
  ParallelFor(0, n, 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      Shard& shard = *shards_[s];
      if (shard.enterprise.Done(shard.state) || shard.state.next_tick != min_tick) continue;
      shard.enterprise.Tick(shard.state, &records[s]);
      ticked[s] = 1;
    }
  });

  // Phase 2: journal serially in shard order. All file I/O (and with it the
  // process-wide util.journal.* crash points) happens here, on one thread,
  // in a deterministic order — the property the coordinator kill-matrix
  // test depends on.
  for (size_t s = 0; s < n; ++s) {
    if (!ticked[s]) continue;
    Shard& shard = *shards_[s];
    if (checkpointed_) {
      FLEXVIS_RETURN_IF_ERROR(shard.store.Append(EncodeTickRecord(records[s])));
      FLEXVIS_RETURN_IF_ERROR(shard.store.Flush());
    }
    shard.applied.push_back(std::move(records[s]));
  }

  // Self-healing controller: once the global tick is complete on every shard
  // (a resumed run's first Tick may only be levelling a one-tick skew),
  // observe the per-shard load and, when a plan triggers, journal and
  // execute it before the boundary compaction — the compaction then bakes
  // the plan's effects into the new snapshots.
  bool resized = false;
  if (controller_ != nullptr && min_tick > controller_->last_observed_tick()) {
    bool complete = true;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard->state.next_tick != min_tick + 1) {
        complete = false;
        break;
      }
    }
    if (complete) FLEXVIS_RETURN_IF_ERROR(ObserveAndRebalance(min_tick, &resized));
  }

  // Checkpoint compaction at the global tick boundary: cadence keys off the
  // absolute tick index so a resumed run compacts at the same boundaries the
  // uninterrupted run would. A resize already committed fresh snapshots (and
  // empty WALs) this boundary, so there is nothing left to fold.
  const int compact_ticks = params_.online.compact_ticks;
  if (!resized && checkpointed_ && compact_ticks > 0 && (min_tick + 1) % compact_ticks == 0) {
    FLEXVIS_RETURN_IF_ERROR(CompactShards());
  }
  return OkStatus();
}

int Coordinator::MinNextTick() const {
  int min_next = shards_.front()->state.next_tick;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    min_next = std::min(min_next, shard->state.next_tick);
  }
  return min_next;
}

Status Coordinator::CompactShards(const std::vector<bool>* include) {
  // A resume rebuilds the controller's load samples from the per-tick
  // records, so its trend state is committed before any shard folds them.
  if (controller_ != nullptr) FLEXVIS_RETURN_IF_ERROR(coord_store_.Recommit(CoordinatorMeta()));
  for (int s = 0; s < params_.num_shards; ++s) {
    Shard& shard = *shards_[static_cast<size_t>(s)];
    if (shard.applied.empty()) continue;
    if (include != nullptr && !(*include)[static_cast<size_t>(s)]) continue;
    OnlineTickRecord fold = FoldTickRecords(shard.applied);
    StoreFiles files = EncodeOnlineSnapshot(shard.params, SubsetFor(router_, offers_, s), window_);
    files.emplace_back(kCheckpointStateFile, EncodeTickRecord(fold));
    FLEXVIS_RETURN_IF_ERROR(shard.store.Compact(files, ShardMeta(epoch_)));
    // The committed fold stands in for everything applied so far, exactly as
    // it does for a shard resumed from this generation.
    shard.applied.clear();
    shard.applied.push_back(std::move(fold));
  }
  // Every snapshot now reflects every migration and finished plan in the
  // coordinator WAL. Only now is the WAL truncated: before the last fold, a
  // shard still needed its records.
  return coord_store_.Compact({}, CoordinatorMeta());
}

Status Coordinator::MigrateProsumer(core::ProsumerId prosumer, int to_shard,
                                    MigrationMode mode) {
  if (!begun_) return FailedPreconditionError("coordinator not begun");
  if (to_shard < 0 || to_shard >= params_.num_shards) {
    return InvalidArgumentError(
        StrFormat("shard %d out of range [0, %d)", to_shard, params_.num_shards));
  }
  auto sample = std::find_if(offers_.begin(), offers_.end(), OfProsumer(prosumer));
  if (sample == offers_.end()) {
    return NotFoundError(
        StrFormat("prosumer %lld owns no offers", static_cast<long long>(prosumer)));
  }
  const int from = router_.ShardOf(*sample);
  if (from == to_shard) {
    return InvalidArgumentError(StrFormat("prosumer %lld is already on shard %d",
                                          static_cast<long long>(prosumer), to_shard));
  }

  // The preconditions are validated BEFORE anything is spliced or journaled:
  // under kIdleOnly an active prosumer cannot move, and the error names
  // every already-ingested offer so the operator sees the whole conflict,
  // not just the first.
  MigratedState moved;
  ExtractState(from, OfProsumer(prosumer), &moved);
  if (!moved.idle() && mode == MigrationMode::kIdleOnly) {
    std::string ids;
    for (core::FlexOfferId id : moved.consumed) {
      if (!ids.empty()) ids += ", ";
      ids += StrFormat("%lld", static_cast<long long>(id));
    }
    return FailedPreconditionError(StrFormat(
        "prosumer %lld is active on shard %d (offers %s already ingested); migration "
        "requires an idle prosumer",
        static_cast<long long>(prosumer), from, ids.c_str()));
  }
  Shard& source = *shards_[static_cast<size_t>(from)];
  Shard& target = *shards_[static_cast<size_t>(to_shard)];
  if (source.state.next_tick != target.state.next_tick) {
    return FailedPreconditionError(
        StrFormat("shards %d and %d are not at a common tick boundary (%d vs %d)", from,
                  to_shard, source.state.next_tick, target.state.next_tick));
  }

  // Speculative splice of both shards BEFORE anything becomes durable: a
  // failed verification leaves the run (and journals) untouched.
  ShardRouter new_router = router_;
  FLEXVIS_RETURN_IF_ERROR(new_router.Assign(prosumer, to_shard));
  OnlineTickRecord source_fold;
  OnlineTickRecord target_fold;
  OnlineLoopState source_state;
  OnlineLoopState target_state;
  FLEXVIS_RETURN_IF_ERROR(SpliceShard(from, new_router, moved, /*incoming=*/false,
                                      &source_fold, &source_state));
  FLEXVIS_RETURN_IF_ERROR(SpliceShard(to_shard, new_router, moved, /*incoming=*/true,
                                      &target_fold, &target_state));

  // One record, one flush: the coordinator WAL commits the migration whole.
  // It carries the moved state, so a resume can splice either side from it;
  // neither shard journal nor COORDINATOR.json is written.
  const int64_t new_epoch = epoch_ + 1;
  if (checkpointed_) {
    const MigrationRecord record{prosumer, from, to_shard, new_epoch, source.state.next_tick,
                                 std::move(moved)};
    FLEXVIS_RETURN_IF_ERROR(coord_store_.Append(EncodeMigrationRecord(record)));
    FLEXVIS_RETURN_IF_ERROR(coord_store_.Flush());
  }

  router_ = std::move(new_router);
  epoch_ = new_epoch;
  Rebase(from, std::move(source_fold), std::move(source_state));
  Rebase(to_shard, std::move(target_fold), std::move(target_state));
  return OkStatus();
}

void Coordinator::ExtractState(int s, const std::function<bool(const FlexOffer&)>& member,
                               MigratedState* out) const {
  const OnlineLoopState& state = shards_[static_cast<size_t>(s)]->state;
  for (const FlexOffer& offer : offers_) {
    if (member(offer)) out->offers.push_back(offer);
  }
  for (size_t pos = 0; pos < state.next_arrival; ++pos) {
    const FlexOffer& offer = state.report.offers[state.arrival[pos]];
    if (member(offer)) out->consumed.push_back(offer.id);
  }
  for (size_t idx : state.pending_acceptance) {
    const FlexOffer& offer = state.report.offers[idx];
    if (member(offer)) out->pending_acceptance.push_back(offer.id);
  }
  for (size_t idx : state.pending_assignment) {
    const FlexOffer& offer = state.report.offers[idx];
    if (member(offer)) out->pending_assignment.push_back(offer.id);
  }
  for (const FlexOffer& offer : state.report.offers) {
    if (offer.state == core::FlexOfferState::kOffered || !member(offer)) continue;
    OnlineStateChange change;
    change.offer = offer.id;
    change.state = offer.state;
    if (offer.state == core::FlexOfferState::kAssigned) change.schedule = offer.schedule;
    out->states.push_back(std::move(change));
  }
}

Status Coordinator::BuildSplicedState(const OnlineEnterprise& enterprise,
                                      const std::vector<FlexOffer>& subset,
                                      const OnlineTickRecord& fold,
                                      const std::vector<core::FlexOfferId>& expect_consumed,
                                      OnlineLoopState* out) const {
  Result<OnlineLoopState> rebuilt = enterprise.Begin(subset, window_);
  if (!rebuilt.ok()) return rebuilt.status();
  FLEXVIS_RETURN_IF_ERROR(enterprise.Apply(*rebuilt, fold));
  if (rebuilt->next_arrival != expect_consumed.size()) {
    return FailedPreconditionError(
        StrFormat("spliced arrival cursor %zu does not cover the %zu consumed arrivals; "
                  "ingest-backlog skew would rewrite consumed history",
                  rebuilt->next_arrival, expect_consumed.size()));
  }
  // Set equality over the prefix: stable arrival ordering makes membership
  // the only degree of freedom — an unconsumed offer sorting into the prefix
  // (or a consumed one sorting out) is exactly the backlog-skew reorder the
  // migration must refuse.
  std::set<core::FlexOfferId> expect(expect_consumed.begin(), expect_consumed.end());
  for (size_t pos = 0; pos < rebuilt->next_arrival; ++pos) {
    const core::FlexOfferId id = rebuilt->report.offers[rebuilt->arrival[pos]].id;
    if (expect.erase(id) == 0) {
      return FailedPreconditionError(StrFormat(
          "offer %lld lands inside the spliced consumed-arrival prefix but was never "
          "consumed; ingest-backlog skew would reorder consumed history",
          static_cast<long long>(id)));
    }
  }
  *out = *std::move(rebuilt);
  return OkStatus();
}

Status Coordinator::SpliceShard(int s, const ShardRouter& router, const MigratedState& moved,
                                bool incoming, OnlineTickRecord* fold,
                                OnlineLoopState* state) const {
  const Shard& shard = *shards_[static_cast<size_t>(s)];
  const OnlineLoopState& live = shard.state;
  // The history fold: applied onto a fresh Begin state it reproduces the live
  // state byte for byte, residual commits in their original order (before
  // the first tick it is empty, covering ticks 0..-1).
  OnlineTickRecord history;
  history.folded = true;
  history.tick = live.next_tick - 1;
  history.shed_policy = static_cast<int>(shard.params.shed_policy);
  for (const OnlineTickRecord& record : shard.applied) FoldTickRecordInto(&history, record);
  const std::set<core::FlexOfferId> moved_consumed(moved.consumed.begin(),
                                                   moved.consumed.end());
  std::vector<core::FlexOfferId> expect;
  for (size_t pos = 0; pos < live.next_arrival; ++pos) {
    const core::FlexOfferId id = live.report.offers[live.arrival[pos]].id;
    if (moved_consumed.count(id) == 0) expect.push_back(id);
  }
  if (incoming) {
    SpliceIn(&history, moved);
    expect.insert(expect.end(), moved.consumed.begin(), moved.consumed.end());
  } else {
    SpliceOut(&history, moved);
  }
  FLEXVIS_RETURN_IF_ERROR(BuildSplicedState(shard.enterprise, SubsetFor(router, offers_, s),
                                            history, expect, state));
  // Cumulative history never moves: counters and the outbox stay with the
  // shard that produced them, so a splice that changes them has diverged.
  const OnlineReport& a = state->report;
  const OnlineReport& b = live.report;
  if (a.outbox != b.outbox || a.offers_received != b.offers_received ||
      a.accepted != b.accepted || a.rejected != b.rejected || a.assigned != b.assigned) {
    return InternalError(
        StrFormat("shard %d splice diverged from its live counters and outbox", s));
  }
  *fold = std::move(history);
  return OkStatus();
}

void Coordinator::Rebase(int s, OnlineTickRecord fold, OnlineLoopState state) {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  shard.state = std::move(state);
  shard.applied.clear();
  shard.applied.push_back(std::move(fold));
}

Status Coordinator::ReplayMigration(const MigrationRecord& record, bool splice_source,
                                    bool splice_target) {
  FLEXVIS_RETURN_IF_ERROR(router_.Assign(record.prosumer, record.to));
  epoch_ = record.epoch;
  const auto splice = [&](int s, bool incoming) -> Status {
    if (shards_[static_cast<size_t>(s)]->state.next_tick != record.tick) {
      return DataLossError(StrFormat(
          "migration of prosumer %lld at tick %d finds shard %d replayed to tick %d",
          static_cast<long long>(record.prosumer), record.tick, s,
          shards_[static_cast<size_t>(s)]->state.next_tick));
    }
    OnlineTickRecord fold;
    OnlineLoopState state;
    FLEXVIS_RETURN_IF_ERROR(SpliceShard(s, router_, record.moved, incoming, &fold, &state));
    Rebase(s, std::move(fold), std::move(state));
    return OkStatus();
  };
  if (splice_source) FLEXVIS_RETURN_IF_ERROR(splice(record.from, /*incoming=*/false));
  if (splice_target) FLEXVIS_RETURN_IF_ERROR(splice(record.to, /*incoming=*/true));
  return OkStatus();
}

Status Coordinator::Resize(int new_num_shards) {
  if (!begun_) return FailedPreconditionError("coordinator not begun");
  if (new_num_shards < 1 || new_num_shards > kMaxShards) {
    return InvalidArgumentError(
        StrFormat("num_shards %d out of range [1, %d]", new_num_shards, kMaxShards));
  }
  if (new_num_shards == params_.num_shards) {
    return InvalidArgumentError(StrFormat("fleet already has %d shards", new_num_shards));
  }
  const int next_tick = shards_[0]->state.next_tick;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->state.next_tick != next_tick) {
      return FailedPreconditionError(
          "shards are not at a common tick boundary; resize only between global ticks");
    }
  }

  // Extract the whole fleet's mid-flight state, every old shard in turn, so
  // the queues land in old-shard order, then queue order — the deterministic
  // global ordering both live and resumed resizes derive. Per-offer counter
  // attribution is impossible from journaled state (e.g. a scheduler
  // demotion does not mark the offer), so the counters-only fold every new
  // shard is spliced onto carries the fleet's cumulative counters and outbox
  // on new shard 0 and nothing on the others.
  OnlineTickRecord empty;
  empty.folded = true;
  empty.tick = next_tick - 1;
  empty.shed_policy = static_cast<int>(params_.online.shed_policy);
  OnlineTickRecord totals = empty;
  MigratedState fleet;
  for (int s = 0; s < params_.num_shards; ++s) {
    ExtractState(s, [&](const FlexOffer& offer) { return router_.ShardOf(offer) == s; }, &fleet);
    AddCounters(shards_[static_cast<size_t>(s)]->state.report, &totals, &totals.sent);
  }

  // Build the new fleet speculatively: fresh router (a resize drops all
  // overrides — the new hash partition IS the rebalance), per-shard params
  // re-derived from the unscaled base energy, and each shard's share of the
  // fleet state spliced in and verify-rebuilt exactly as a migration target.
  const int new_n = new_num_shards;
  const int new_topology = topology_ + 1;
  ShardRouter new_router(new_n, params_.policy);
  OnlineParams shard_params = params_.online;
  shard_params.energy = ShardEnergy(base_energy_, new_n);
  std::vector<std::unique_ptr<Shard>> new_shards;
  std::vector<std::vector<FlexOffer>> subsets;
  for (int s = 0; s < new_n; ++s) {
    Result<std::unique_ptr<Shard>> shard = NewShard(s, shard_params);
    if (!shard.ok()) return shard.status();
    subsets.push_back(SubsetFor(new_router, offers_, s));
    const MigratedState share = RestrictTo(fleet, subsets.back());
    OnlineTickRecord fold = s == 0 ? totals : empty;
    SpliceIn(&fold, share);
    FLEXVIS_RETURN_IF_ERROR(BuildSplicedState((*shard)->enterprise, subsets.back(), fold,
                                              share.consumed, &(*shard)->state));
    (*shard)->applied.push_back(std::move(fold));
    new_shards.push_back(*std::move(shard));
  }

  // Stage the new topology's stores next to the old ones (distinct directory
  // names), then commit everything at once by compacting the coordinator
  // store — its manifest rewrite both flips the topology and truncates the
  // plan WAL. A crash before that commit recovers under the OLD manifest
  // (old directories intact, staged ones swept as stale); after it, under
  // the new (old directories swept).
  std::vector<std::string> old_dirs;
  if (checkpointed_) {
    for (int s = 0; s < params_.num_shards; ++s) old_dirs.push_back(ShardDir(s));
    for (int s = 0; s < new_n; ++s) {
      const size_t si = static_cast<size_t>(s);
      StoreFiles files = EncodeOnlineSnapshot(new_shards[si]->params, subsets[si], window_);
      // Before the first tick the fold is empty and the store is laid out
      // exactly as Begin lays it out, without a state.json.
      if (next_tick > 0) {
        files.emplace_back(kCheckpointStateFile,
                           EncodeTickRecord(new_shards[si]->applied.front()));
      }
      Result<DurableStore> store = DurableStore::Create(
          (fs::path(directory_) / ShardDirName(new_topology, s)).string(),
          CheckpointStoreOptions(), std::move(files), ShardMeta(epoch_));
      if (!store.ok()) return store.status();
      new_shards[si]->store = *std::move(store);
    }
    for (std::unique_ptr<Shard>& shard : shards_) {
      if (shard->store.is_open()) FLEXVIS_RETURN_IF_ERROR(shard->store.Close());
    }
  }

  params_.num_shards = new_n;
  router_ = std::move(new_router);
  shards_ = std::move(new_shards);
  topology_ = new_topology;
  if (controller_ != nullptr) {
    // All cumulative counters re-homed to new shard 0; seed its shed
    // baseline with the global total so the first post-resize observation
    // does not read the re-homing as one giant shed burst.
    std::vector<int64_t> seed(static_cast<size_t>(new_n), 0);
    seed[0] = totals.shed_offers;
    controller_->ResetShards(new_n, seed);
  }
  if (checkpointed_) {
    FLEXVIS_RETURN_IF_ERROR(coord_store_.Compact({}, CoordinatorMeta()));
    for (const std::string& dir : old_dirs) {
      FLEXVIS_RETURN_IF_ERROR(DurableStore::Destroy(dir, CheckpointStoreOptions()));
    }
  }
  return OkStatus();
}

RebalancePlan Coordinator::BuildPlan(const RebalanceDecision& decision) const {
  RebalancePlan plan;
  plan.id = decision.plan_id;
  plan.tick = decision.tick;
  plan.action = decision.action;
  plan.new_num_shards = decision.new_num_shards;
  if (decision.action != RebalancePlan::Action::kMove) return plan;
  // Per-prosumer load on the hot shard: offers it has not answered yet
  // (un-ingested arrivals plus both pending queues). std::map iteration
  // gives the id-sorted candidate order PickMoveSet's tie-break expects.
  const OnlineLoopState& hot = shards_[static_cast<size_t>(decision.hot_shard)]->state;
  std::map<core::ProsumerId, int64_t> load;
  for (size_t pos = hot.next_arrival; pos < hot.arrival.size(); ++pos) {
    ++load[hot.report.offers[hot.arrival[pos]].prosumer];
  }
  for (size_t idx : hot.pending_acceptance) ++load[hot.report.offers[idx].prosumer];
  for (size_t idx : hot.pending_assignment) ++load[hot.report.offers[idx].prosumer];
  int64_t total = 0;
  std::vector<ProsumerLoad> candidates;
  candidates.reserve(load.size());
  for (const auto& [prosumer, pending] : load) {
    candidates.push_back({prosumer, pending});
    total += pending;
  }
  std::vector<core::ProsumerId> picked =
      PickMoveSet(std::move(candidates), params_.rebalance->max_moves, (total + 1) / 2);
  for (core::ProsumerId prosumer : picked) {
    plan.moves.push_back({prosumer, decision.hot_shard, decision.cold_shard});
  }
  return plan;
}

Status Coordinator::ExecutePlan(const RebalancePlan& plan, bool already_journaled) {
  const bool journaled = checkpointed_ && coord_store_.is_open();
  if (journaled && !already_journaled) {
    FLEXVIS_RETURN_IF_ERROR(coord_store_.Append(EncodeRebalancePlan(plan).Dump()));
    FLEXVIS_RETURN_IF_ERROR(coord_store_.Flush());
  }
  if (plan.action == RebalancePlan::Action::kMove) {
    for (const RebalanceMove& move : plan.moves) {
      const std::map<core::ProsumerId, int>& overrides = router_.overrides();
      auto it = overrides.find(move.prosumer);
      if (it != overrides.end() && it->second == move.to) {
        continue;  // already committed (a resumed plan replays its moves)
      }
      Status status = MigrateProsumer(move.prosumer, move.to, MigrationMode::kAllowActive);
      if (status.code() == StatusCode::kFailedPrecondition ||
          status.code() == StatusCode::kInvalidArgument) {
        // Verification refused the move (ingest-backlog skew, or the offers
        // already route there). The plan stays best-effort; the controller
        // re-triggers after cooldown if the imbalance persists.
        continue;
      }
      FLEXVIS_RETURN_IF_ERROR(status);
    }
    if (journaled) {
      FLEXVIS_RETURN_IF_ERROR(coord_store_.Append(EncodePlanDoneRecord(plan.id)));
      FLEXVIS_RETURN_IF_ERROR(coord_store_.Flush());
    }
  } else {
    // No plan_done record: Resize's manifest commit truncates the
    // coordinator WAL atomically, which retires the plan record with it.
    FLEXVIS_RETURN_IF_ERROR(Resize(plan.new_num_shards));
  }
  ++plans_executed_;
  return OkStatus();
}

Status Coordinator::ObserveAndRebalance(int64_t tick, bool* resized) {
  std::vector<ShardLoadSample> samples;
  for (const std::unique_ptr<Shard>& shard : shards_) samples.push_back(LoadSample(shard->state));
  std::optional<RebalanceDecision> decision = controller_->Observe(tick, samples);
  if (!decision.has_value()) return OkStatus();
  RebalancePlan plan = BuildPlan(*decision);
  if (plan.action == RebalancePlan::Action::kMove && plan.moves.empty()) {
    // Nothing movable: journal nothing. The trigger still consumed a plan id
    // and started the cooldown, and a resumed run re-derives the identical
    // empty decision from the replayed load history.
    return OkStatus();
  }
  FLEXVIS_RETURN_IF_ERROR(ExecutePlan(plan, /*already_journaled=*/false));
  if (plan.action != RebalancePlan::Action::kMove) *resized = true;
  return OkStatus();
}

JsonValue Coordinator::CoordinatorMeta() const {
  JsonValue meta = JsonValue::Object();
  meta.Set("schema_version", JsonValue::Int(2));
  meta.Set("num_shards", JsonValue::Int(params_.num_shards));
  meta.Set("policy", JsonValue::Str(std::string(ShardPolicyName(params_.policy))));
  // Per-shard energy scaling is unconditional; the key stays, always true,
  // so the manifest keeps the layout every earlier coordinator wrote and read.
  meta.Set("scale_energy_per_shard", JsonValue::Bool(true));
  meta.Set("fault_seed", JsonValue::Int(static_cast<int64_t>(params_.fault_seed)));
  meta.Set("epoch", JsonValue::Int(epoch_));
  meta.Set("topology", JsonValue::Int(topology_));
  // Pinned strategy identity (also pinned per shard in each meta.json):
  // surfaced in the manifest so operators and ResumeSharded see the names a
  // sharded run settles under without opening shard stores.
  meta.Set("forecaster", JsonValue::Str(params_.online.forecaster));
  meta.Set("bidding", JsonValue::Str(params_.online.bidding));
  JsonValue energy = JsonValue::Object();
  energy.Set("wind_mean_kwh", JsonValue::Double(base_energy_.wind_mean_kwh));
  energy.Set("solar_peak_kwh", JsonValue::Double(base_energy_.solar_peak_kwh));
  energy.Set("demand_base_kwh", JsonValue::Double(base_energy_.demand_base_kwh));
  meta.Set("base_energy", std::move(energy));
  if (params_.rebalance.has_value()) {
    meta.Set("rebalance", EncodeRebalanceParams(*params_.rebalance));
  }
  if (controller_ != nullptr) meta.Set("controller", controller_->EncodeState());
  JsonValue overrides = JsonValue::Array();
  for (const auto& [prosumer, shard] : router_.overrides()) {
    JsonValue pair = JsonValue::Array();
    pair.Append(JsonValue::Int(prosumer));
    pair.Append(JsonValue::Int(shard));
    overrides.Append(std::move(pair));
  }
  meta.Set("overrides", std::move(overrides));
  JsonValue order = JsonValue::Array();
  for (const FlexOffer& offer : offers_) order.Append(JsonValue::Int(offer.id));
  meta.Set("offer_order", std::move(order));
  return meta;
}

namespace {

/// COORDINATOR.json's meta, decoded and range-checked.
struct DecodedCoordinatorMeta {
  CoordinatorParams params;  // num_shards, policy, fault_seed, rebalance
  /// The epoch as of the last manifest commit; the coordinator WAL's
  /// migration records carry it further.
  int64_t epoch = 0;
  int topology = 0;
  std::map<core::ProsumerId, int> overrides;
  std::vector<core::FlexOfferId> offer_order;
  /// The unscaled wind/solar/demand means; absent from schema-1 manifests.
  std::optional<EnergyModelParams> base_energy;
  JsonValue controller;  // the controller's trend state, null when absent
};

/// Inverse of Coordinator::CoordinatorMeta. A missing, malformed or
/// out-of-range field is DataLoss: num_shards outside [1, kMaxShards], a
/// negative epoch or topology, an override naming a shard outside the
/// fleet, or per-shard energy scaling turned off. topology and base_energy
/// may be absent (older manifests).
Result<DecodedCoordinatorMeta> DecodeCoordinatorMeta(const JsonValue& meta) {
  Result<int64_t> num_shards =
      ReadStrictInt(meta.Get("num_shards"), "COORDINATOR.json num_shards", 1, kMaxShards);
  Result<int64_t> fault_seed = ReadStrictInt(meta.Get("fault_seed"), "COORDINATOR.json fault_seed");
  Result<int64_t> epoch = ReadStrictInt(meta.Get("epoch"), "COORDINATOR.json epoch", 0);
  Result<int64_t> topology =
      meta.Has("topology") ? ReadStrictInt(meta.Get("topology"), "COORDINATOR.json topology", 0,
                                           std::numeric_limits<int>::max())
                           : Result<int64_t>(0);
  for (const Status* status :
       {&num_shards.status(), &fault_seed.status(), &epoch.status(), &topology.status()}) {
    if (!status->ok()) return *status;
  }
  Result<std::string> policy_name = meta.GetString("policy");
  Result<bool> scale = meta.GetBool("scale_energy_per_shard");
  const JsonValue& order = meta.Get("offer_order");
  const JsonValue& overrides = meta.Get("overrides");
  if (!policy_name.ok() || !scale.ok() || !order.is_array() || !overrides.is_array()) {
    return DataLossError("COORDINATOR.json is incomplete or malformed");
  }
  if (!*scale) return DataLossError("COORDINATOR.json turns off per-shard energy scaling");
  Result<ShardPolicy> policy = ParseShardPolicy(*policy_name);
  if (!policy.ok()) return DataLossError("COORDINATOR.json names an unknown policy");
  DecodedCoordinatorMeta out;
  const int n = static_cast<int>(*num_shards);
  out.params.num_shards = n;
  out.params.policy = *policy;
  out.params.fault_seed = static_cast<uint64_t>(*fault_seed);
  out.epoch = *epoch;
  out.topology = static_cast<int>(*topology);
  for (size_t i = 0; i < overrides.size(); ++i) {
    const JsonValue& pair = overrides[i];
    if (!pair.is_array() || pair.size() != 2 || !pair[0].is_int() || !pair[1].is_int() ||
        pair[1].AsInt() < 0 || pair[1].AsInt() >= n) {
      return DataLossError(StrFormat(
          "COORDINATOR.json override entry %zu is malformed or leaves the %d-shard fleet", i, n));
    }
    out.overrides[pair[0].AsInt()] = static_cast<int>(pair[1].AsInt());
  }
  for (size_t i = 0; i < order.size(); ++i) {
    if (!order[i].is_int()) return DataLossError("offer_order holds a non-integer id");
    out.offer_order.push_back(order[i].AsInt());
  }
  if (meta.Has("rebalance")) {
    Result<RebalanceParams> rebalance = DecodeRebalanceParams(meta.Get("rebalance"));
    if (!rebalance.ok()) return rebalance.status();
    out.params.rebalance = *rebalance;
  }
  if (meta.Has("base_energy")) {
    const JsonValue& energy = meta.Get("base_energy");
    Result<double> wind = energy.GetDouble("wind_mean_kwh");
    Result<double> solar = energy.GetDouble("solar_peak_kwh");
    Result<double> demand = energy.GetDouble("demand_base_kwh");
    if (!wind.ok() || !solar.ok() || !demand.ok()) {
      return DataLossError("COORDINATOR.json base_energy is incomplete");
    }
    out.base_energy = EnergyModelParams{};
    out.base_energy->wind_mean_kwh = *wind;
    out.base_energy->solar_peak_kwh = *solar;
    out.base_energy->demand_base_kwh = *demand;
  }
  out.controller = meta.Get("controller");
  return out;
}

}  // namespace

Result<MergedOnlineReport> Coordinator::Finish() {
  if (!begun_) return FailedPreconditionError("coordinator not begun");
  MergedOnlineReport merged;
  merged.num_shards = params_.num_shards;
  merged.epoch = epoch_;
  merged.topology = topology_;
  std::vector<std::vector<size_t>> partition = router_.Partition(offers_);
  merged.global.offers.resize(offers_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (checkpointed_ && shard.store.is_open()) {
      FLEXVIS_RETURN_IF_ERROR(shard.store.Close());
    }
    OnlineReport report = shard.enterprise.Finish(std::move(shard.state));
    if (report.offers.size() != partition[s].size()) {
      return InternalError(StrFormat(
          "shard %zu finished with %zu offers but owns %zu (partition drift)", s,
          report.offers.size(), partition[s].size()));
    }
    for (size_t i = 0; i < partition[s].size(); ++i) {
      merged.global.offers[partition[s][i]] = report.offers[i];
    }
    AddCounters(report, &merged.global, &merged.global.outbox);
    merged.global.imbalance_kwh += report.imbalance_kwh;
    merged.global.ticks = std::max(merged.global.ticks, report.ticks);
    merged.shard_reports.push_back(std::move(report));
  }
  for (const FlexOffer& offer : merged.global.offers) {
    merged.total_offered_kwh += offer.total_max_energy_kwh();
  }
  if (checkpointed_ && coord_store_.is_open()) FLEXVIS_RETURN_IF_ERROR(coord_store_.Close());
  begun_ = false;
  return merged;
}

Result<MergedOnlineReport> Coordinator::RunSharded(const CoordinatorParams& params,
                                                   const std::vector<FlexOffer>& offers,
                                                   const TimeInterval& window) {
  Coordinator coordinator(params);
  FLEXVIS_RETURN_IF_ERROR(coordinator.Begin(offers, window));
  while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
  return coordinator.Finish();
}

Result<MergedOnlineReport> Coordinator::RunShardedCheckpointed(
    const CoordinatorParams& params, const std::vector<FlexOffer>& offers,
    const TimeInterval& window, const std::string& directory) {
  Coordinator coordinator(params);
  FLEXVIS_RETURN_IF_ERROR(coordinator.BeginCheckpointed(offers, window, directory));
  while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
  return coordinator.Finish();
}

Result<MergedOnlineReport> Coordinator::ResumeSharded(const std::string& directory,
                                                      ShardResumeInfo* info) {
  if (info != nullptr) *info = ShardResumeInfo{};

  // The coordinator store manifest is the run's commit point: without it
  // nothing was promised (the crash predates Begin's completion) and the
  // caller reruns from its inputs. Resume also garbage-collects any staging
  // debris a crash left next to it.
  StoreRecovery coord_recovery;
  Result<DurableStore> coord_store =
      DurableStore::Resume(directory, CoordinatorStoreOptions(), &coord_recovery);
  if (!coord_store.ok()) return coord_store.status();
  Result<DecodedCoordinatorMeta> manifest = DecodeCoordinatorMeta(coord_recovery.meta);
  if (!manifest.ok()) return manifest.status();
  const int n = manifest->params.num_shards;

  // The coordinator WAL: committed migrations, epoch after epoch, and the
  // rebalance-plan records. Every WAL truncation commits the manifest, so the
  // manifest epoch lies within the span the migration records cover.
  std::vector<MigrationRecord> migrations;
  std::vector<RebalancePlan> wal_plans;
  std::set<int64_t> done_ids;
  for (const std::string& payload : coord_recovery.records) {
    Result<JsonValue> json = JsonValue::Parse(payload);
    if (!json.ok() || !json->is_object()) {
      return DataLossError("coordinator WAL record is not a JSON object");
    }
    Result<std::string> kind = json->GetString("kind");
    if (!kind.ok()) return DataLossError("coordinator WAL record lacks a kind");
    if (*kind == "migration") {
      Result<MigrationRecord> migration = DecodeMigrationRecord(*json, n);
      if (!migration.ok()) return migration.status();
      if (!migrations.empty() && migration->epoch != migrations.back().epoch + 1) {
        return DataLossError("coordinator WAL migration epochs are not consecutive");
      }
      migrations.push_back(*std::move(migration));
    } else if (*kind == "plan") {
      Result<RebalancePlan> plan = DecodeRebalancePlan(*json);
      if (!plan.ok()) return plan.status();
      wal_plans.push_back(*std::move(plan));
    } else if (*kind == "plan_done") {
      Result<int64_t> id = ReadStrictInt(json->Get("id"), "plan_done id");
      if (!id.ok()) return id.status();
      done_ids.insert(*id);
    } else {
      return DataLossError(
          StrFormat("coordinator WAL record of unknown kind '%s'", kind->c_str()));
    }
  }
  const int64_t wal_base = migrations.empty() ? manifest->epoch : migrations.front().epoch - 1;
  const int64_t final_epoch = migrations.empty() ? manifest->epoch : migrations.back().epoch;
  if (wal_base > manifest->epoch || final_epoch < manifest->epoch) {
    return DataLossError(StrFormat(
        "coordinator WAL covers epochs %lld..%lld, missing the manifest epoch %lld",
        static_cast<long long>(wal_base + 1), static_cast<long long>(final_epoch),
        static_cast<long long>(manifest->epoch)));
  }

  // Resume every shard store: each verifies its own SNAPSHOT.json, repairs a
  // torn WAL tail, garbage-collects other-generation debris, and reopens the
  // committed generation's WAL for the continuation. Shards recover to
  // *independent* generations — a crash mid-compaction leaves some folded
  // and some not, and the replay below reconciles them. Each is rebuilt from
  // its snapshot subset, then fast-forwarded through the folded state.json of
  // a compacted generation (no decision logic re-runs; the folded record is
  // kept as applied[0] so migration splices and compactions fold it).
  Coordinator coordinator(manifest->params);
  coordinator.directory_ = directory;
  coordinator.coord_store_ = *std::move(coord_store);
  coordinator.topology_ = manifest->topology;
  std::vector<int64_t> snapshot_epoch(static_cast<size_t>(n), 0);
  std::vector<std::deque<OnlineTickRecord>> queues(static_cast<size_t>(n));
  std::vector<std::vector<FlexOffer>> shard_offers(static_cast<size_t>(n));
  TimeInterval window;
  if (info != nullptr) info->shards.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    const size_t si = static_cast<size_t>(s);
    StoreRecovery recovery;
    Result<DurableStore> store =
        DurableStore::Resume(coordinator.ShardDir(s), CheckpointStoreOptions(), &recovery);
    if (!store.ok()) return store.status();
    // WAL truncation waits for every shard to fold, so each snapshot's epoch
    // (an absent key reads as 0) lies within the WAL's span.
    const JsonValue& meta = recovery.meta;
    if (!meta.is_null() && !meta.is_object()) {
      return DataLossError(StrFormat("shard %d manifest meta is not an object", s));
    }
    Result<int64_t> epoch =
        ReadStrictInt(meta.Has("epoch") ? meta.Get("epoch") : JsonValue::Int(0),
                      StrFormat("shard %d snapshot epoch", s), wal_base, final_epoch);
    if (!epoch.ok()) return epoch.status();
    snapshot_epoch[si] = *epoch;
    OnlineParams shard_params;
    FLEXVIS_RETURN_IF_ERROR(
        DecodeOnlineSnapshot(recovery, &shard_params, &shard_offers[si], &window));
    Result<std::unique_ptr<Shard>> made = coordinator.NewShard(s, shard_params);
    if (!made.ok()) return made.status();
    std::unique_ptr<Shard> shard = *std::move(made);
    Result<OnlineLoopState> state = shard->enterprise.Begin(shard_offers[si], window);
    if (!state.ok()) return state.status();
    shard->state = *std::move(state);
    auto folded = recovery.files.find(kCheckpointStateFile);
    if (folded != recovery.files.end()) {
      Result<OnlineTickRecord> fold = DecodeTickRecord(folded->second);
      if (!fold.ok()) return fold.status();
      if (!fold->folded) {
        return DataLossError(StrFormat("shard %d state.json is not a folded tick record", s));
      }
      FLEXVIS_RETURN_IF_ERROR(shard->enterprise.Apply(shard->state, *fold));
      if (info != nullptr) {
        info->shards[si].ticks_folded = static_cast<int>(fold->tick) + 1;
      }
      shard->applied.push_back(*std::move(fold));
    }
    for (const std::string& payload : recovery.records) {
      Result<OnlineTickRecord> record = DecodeTickRecord(payload);
      if (!record.ok()) return record.status();
      queues[si].push_back(*std::move(record));
    }
    if (info != nullptr) {
      info->shards[si].torn_tail = recovery.torn_tail;
      info->shards[si].torn_bytes = recovery.torn_bytes;
      info->shards[si].generation = recovery.generation;
    }
    shard->store = *std::move(store);
    coordinator.shards_.push_back(std::move(shard));
  }

  // Rebuild the global offer list in its original input order. Shards on
  // different generations may both carry a migrated prosumer's offers (the
  // source's pre-migration snapshot and the target's compacted one); that is
  // benign exactly when the copies are byte-identical. Offers missing from
  // every snapshot (migrated into a shard whose fold never committed) are
  // recovered from the migration records.
  std::map<core::FlexOfferId, FlexOffer> by_id;
  const auto collect = [&by_id](const FlexOffer& offer, const char* source) -> Status {
    auto [it, inserted] = by_id.emplace(offer.id, offer);
    if (inserted || core::EncodeFlexOffer(it->second) == core::EncodeFlexOffer(offer)) {
      return OkStatus();
    }
    return DataLossError(StrFormat("flex-offer %lld in %s differs from another copy",
                                   static_cast<long long>(offer.id), source));
  };
  for (const std::vector<FlexOffer>& subset : shard_offers) {
    for (const FlexOffer& offer : subset) {
      FLEXVIS_RETURN_IF_ERROR(collect(offer, "a shard snapshot"));
    }
  }
  for (const MigrationRecord& record : migrations) {
    for (const FlexOffer& offer : record.moved.offers) {
      FLEXVIS_RETURN_IF_ERROR(collect(offer, "a migration record"));
    }
  }
  // The snapshots already carry per-shard (scaled) parameters; nothing below
  // rescales them.
  coordinator.params_.online = coordinator.shards_[0]->params;
  coordinator.params_.online.faults = nullptr;
  coordinator.window_ = window;
  coordinator.base_energy_ = coordinator.params_.online.energy;
  if (manifest->base_energy.has_value()) {
    coordinator.base_energy_.wind_mean_kwh = manifest->base_energy->wind_mean_kwh;
    coordinator.base_energy_.solar_peak_kwh = manifest->base_energy->solar_peak_kwh;
    coordinator.base_energy_.demand_base_kwh = manifest->base_energy->demand_base_kwh;
  } else {
    // Schema-1 manifest: multiply shard 0's scaled means back out. Exact only
    // when the division was (floats), but schema-1 runs cannot resize anyway.
    const double factor = static_cast<double>(n);
    coordinator.base_energy_.wind_mean_kwh *= factor;
    coordinator.base_energy_.solar_peak_kwh *= factor;
    coordinator.base_energy_.demand_base_kwh *= factor;
  }
  if (coordinator.params_.rebalance.has_value()) {
    coordinator.controller_ = std::make_unique<RebalanceController>(
        *coordinator.params_.rebalance, n, window);
    if (!manifest->controller.is_null()) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.controller_->DecodeState(manifest->controller));
    }
  }
  for (core::FlexOfferId id : manifest->offer_order) {
    auto it = by_id.find(id);
    if (it == by_id.end()) {
      return DataLossError(StrFormat("offer_order names flex-offer %lld absent from every "
                                     "shard snapshot and migration record",
                                     static_cast<long long>(id)));
    }
    coordinator.offers_.push_back(it->second);
  }
  if (coordinator.offers_.size() != by_id.size()) {
    return DataLossError("shard snapshots hold offers missing from offer_order");
  }

  // Seed the router and the epoch as of the epoch before the first WAL
  // migration record: the manifest's overrides, except that a prosumer the
  // WAL moves starts on the `from` shard of its first record. The replay
  // then re-assigns it move by move, so every splice sees the partition of
  // its own epoch.
  for (const auto& [prosumer, shard] : manifest->overrides) {
    FLEXVIS_RETURN_IF_ERROR(coordinator.router_.Assign(prosumer, shard));
  }
  std::set<core::ProsumerId> seeded;
  for (const MigrationRecord& record : migrations) {
    if (seeded.insert(record.prosumer).second) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.router_.Assign(record.prosumer, record.from));
    }
  }
  coordinator.epoch_ = wal_base;
  coordinator.begun_ = true;
  coordinator.checkpointed_ = true;

  // Replay. Per-tick load samples are reconstructed on the way: ticks at or
  // below the manifest's controller state were already observed live, and
  // everything after is fed to the controller once replay settles, so its
  // trend state crosses the crash byte-identically.
  std::map<int64_t, std::vector<std::optional<ShardLoadSample>>> samples;
  std::vector<bool> missed_compaction(static_cast<size_t>(n), false);
  const auto advance = [&](int s, int64_t below_tick) -> Status {
    const size_t si = static_cast<size_t>(s);
    Shard& shard = *coordinator.shards_[si];
    for (; !queues[si].empty() && queues[si].front().tick < below_tick; queues[si].pop_front()) {
      OnlineTickRecord& record = queues[si].front();
      FLEXVIS_RETURN_IF_ERROR(shard.enterprise.Apply(shard.state, record));
      if (coordinator.controller_ != nullptr) {
        std::vector<std::optional<ShardLoadSample>>& row = samples[record.tick];
        row.resize(static_cast<size_t>(n));
        row[si] = LoadSample(shard.state);
      }
      // A boundary tick surviving in the WAL means this shard's fold at that
      // boundary never committed — remembered for the catch-up compaction.
      if (const int compact_ticks = coordinator.params_.online.compact_ticks;
          compact_ticks > 0 && (record.tick + 1) % compact_ticks == 0) {
        missed_compaction[si] = true;
      }
      shard.applied.push_back(std::move(record));
      if (info != nullptr) ++info->shards[si].ticks_replayed;
    }
    return OkStatus();
  };
  // Migrations in epoch order. A record is spliced into each side whose
  // snapshot predates it, after that side has replayed its journal ticks
  // below the record's boundary; a side whose snapshot epoch covers the
  // record folded it already and only the router and epoch move.
  for (const MigrationRecord& record : migrations) {
    const bool source = record.epoch > snapshot_epoch[static_cast<size_t>(record.from)];
    const bool target = record.epoch > snapshot_epoch[static_cast<size_t>(record.to)];
    if (source) FLEXVIS_RETURN_IF_ERROR(advance(record.from, record.tick));
    if (target) FLEXVIS_RETURN_IF_ERROR(advance(record.to, record.tick));
    FLEXVIS_RETURN_IF_ERROR(coordinator.ReplayMigration(record, source, target));
    if (info != nullptr) ++info->migrations_replayed;
  }
  // Each shard now holds exactly what the replayed partition assigns it; a
  // manifest whose overrides disagree with the snapshots is corrupt.
  for (int s = 0; s < n; ++s) {
    FLEXVIS_RETURN_IF_ERROR(advance(s, std::numeric_limits<int64_t>::max()));
    const std::vector<FlexOffer>& held =
        coordinator.shards_[static_cast<size_t>(s)]->state.report.offers;
    const std::vector<FlexOffer> assigned = SubsetFor(coordinator.router_, coordinator.offers_, s);
    if (!std::equal(held.begin(), held.end(), assigned.begin(), assigned.end(),
                    [](const FlexOffer& a, const FlexOffer& b) { return a.id == b.id; })) {
      return DataLossError(
          StrFormat("shard %d holds offers its manifest partition does not assign it", s));
    }
  }

  // Every named store, the coordinator WAL and the replay have passed their
  // checks; only now are shard directories the manifest does not name swept.
  // A crash mid-resize leaves either staged new-topology directories (the
  // manifest flip never happened) or the old topology's directories (the
  // flip happened but the destroy did not finish). Either way, only the
  // manifest's topology is live — and the sweep precedes plan
  // reconciliation, which may stage the next topology itself.
  {
    std::set<std::string> expected;
    for (int s = 0; s < n; ++s) expected.insert(ShardDirName(coordinator.topology_, s));
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(directory, ec)) {
      if (!entry.is_directory()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind(kShardDirPrefix, 0) != 0 || expected.count(name) != 0) continue;
      FLEXVIS_RETURN_IF_ERROR(
          DurableStore::Destroy(entry.path().string(), CheckpointStoreOptions()));
      if (info != nullptr) ++info->stale_shard_dirs_swept;
    }
  }

  // Re-feed the controller the replayed ticks (its manifest state stops at
  // the last manifest write), then reconcile the plan WAL: a plan record
  // without its done marker means the crash hit mid-plan — its remaining
  // steps complete now. A decision the controller re-derives for the final
  // replayed tick that never even reached the WAL is re-planned whole. Both
  // paths are deterministic re-runs of what the live process was doing.
  const int topology_before_reconcile = coordinator.topology_;
  std::optional<RebalanceDecision> pending_decision;
  if (coordinator.controller_ != nullptr) {
    const int64_t min_last = coordinator.MinNextTick() - 1;
    for (int64_t t = coordinator.controller_->last_observed_tick() + 1; t <= min_last;
         ++t) {
      auto row = samples.find(t);
      if (row == samples.end() || row->second.size() != static_cast<size_t>(n)) {
        return DataLossError(StrFormat(
            "no replayed load samples for observed tick %lld", static_cast<long long>(t)));
      }
      std::vector<ShardLoadSample> tick_samples;
      tick_samples.reserve(row->second.size());
      for (const std::optional<ShardLoadSample>& sample : row->second) {
        if (!sample.has_value()) {
          return DataLossError(
              StrFormat("a shard is missing its load sample for observed tick %lld",
                        static_cast<long long>(t)));
        }
        tick_samples.push_back(*sample);
      }
      std::optional<RebalanceDecision> decision =
          coordinator.controller_->Observe(t, tick_samples);
      if (decision.has_value() && t == min_last) pending_decision = decision;
    }
  }
  for (const RebalancePlan& plan : wal_plans) {
    if (done_ids.count(plan.id) != 0) continue;
    FLEXVIS_RETURN_IF_ERROR(coordinator.ExecutePlan(plan, /*already_journaled=*/true));
    if (info != nullptr) ++info->plans_completed;
    if (pending_decision.has_value() && pending_decision->plan_id == plan.id) {
      pending_decision.reset();
    }
  }
  if (pending_decision.has_value() && done_ids.count(pending_decision->plan_id) != 0) {
    // The plan ran to completion live (done marker present); nothing to redo.
    pending_decision.reset();
  }
  if (pending_decision.has_value()) {
    RebalancePlan plan = coordinator.BuildPlan(*pending_decision);
    // An empty kMove plan was never journaled live either; both sides agree
    // by re-deriving it from the same replayed history.
    if (plan.action != RebalancePlan::Action::kMove || !plan.moves.empty()) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.ExecutePlan(plan, /*already_journaled=*/false));
      if (info != nullptr) ++info->plans_reexecuted;
    }
  }

  // A global compaction the crash interrupted: every shard applied through
  // the boundary tick yet some shard's WAL still holds the boundary record —
  // an uninterrupted CompactShards folds it away before the next global tick
  // starts. Re-run the compaction for exactly those shards so the directory
  // converges to the uninterrupted layout and replay stays bounded by the
  // interval on the next recovery. When the crash hit mid-way through the
  // boundary tick's own journaling instead (some shard never got the
  // record), min_next sits below the boundary and the continuation re-runs
  // the global tick and its compaction itself.
  if (const int compact_ticks = coordinator.params_.online.compact_ticks;
      compact_ticks > 0 && coordinator.topology_ == topology_before_reconcile &&
      std::find(missed_compaction.begin(), missed_compaction.end(), true) !=
          missed_compaction.end()) {
    const int min_next = coordinator.MinNextTick();
    if (min_next > 0 && min_next % compact_ticks == 0) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.CompactShards(&missed_compaction));
    }
  }

  // A reconcile-time resize may have changed the shard count; the tail
  // accounting runs over whatever fleet the continuation actually ticks.
  const size_t live_shards = coordinator.shards_.size();
  std::vector<int> replayed_ticks(live_shards, 0);
  for (size_t s = 0; s < live_shards; ++s) {
    replayed_ticks[s] = coordinator.shards_[s]->state.report.ticks;
  }
  while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
  if (info != nullptr) {
    if (info->shards.size() < live_shards) info->shards.resize(live_shards);
    for (size_t s = 0; s < live_shards; ++s) {
      info->shards[s].ticks_continued =
          coordinator.shards_[s]->state.report.ticks - replayed_ticks[s];
    }
  }
  return coordinator.Finish();
}

// ---- Offline sharded planning -----------------------------------------------

Result<MergedPlanningReport> PlanHorizonSharded(const EnterpriseParams& params,
                                                int num_shards, ShardPolicy policy,
                                                const std::vector<FlexOffer>& offers,
                                                const TimeInterval& window) {
  const int n = num_shards < 1 ? 1 : num_shards;
  ShardRouter router(n, policy);
  // The offline fleet seeds its registries like a default online fleet.
  const uint64_t fault_seed = CoordinatorParams().fault_seed;
  EnterpriseParams shard_params = params;
  shard_params.energy = ShardEnergy(params.energy, n);

  // Shard planning runs in parallel; each shard touches only its own params,
  // registry, and report slot. Nested parallel sections inside PlanHorizon
  // degrade to serial inline execution (util/parallel), so this composes.
  std::vector<Status> statuses(static_cast<size_t>(n), OkStatus());
  std::vector<PlanningReport> reports(static_cast<size_t>(n));
  ParallelFor(0, static_cast<size_t>(n), 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      const int shard = static_cast<int>(s);
      FaultRegistry registry;
      statuses[s] = InstallFaultsInto(registry, ShardSeed(fault_seed, shard));
      if (!statuses[s].ok()) continue;
      EnterpriseParams own = shard_params;
      own.faults = &registry;
      own.market.faults = &registry;
      Result<PlanningReport> report =
          Enterprise(own).PlanHorizon(SubsetFor(router, offers, shard), window);
      if (report.ok()) {
        reports[s] = *std::move(report);
      } else {
        statuses[s] = report.status();
      }
    }
  });
  for (const Status& status : statuses) FLEXVIS_RETURN_IF_ERROR(status);

  MergedPlanningReport merged;
  merged.num_shards = n;
  // Shard 0 seeds the global report (so a 1-shard merge is the unsharded
  // report verbatim); shards 1+ fold in. Prices stay shard 0's curve — a
  // merged price is not meaningful; per-shard curves live in shard_reports.
  merged.global = reports[0];
  for (int s = 1; s < n; ++s) {
    PlanningReport& r = reports[static_cast<size_t>(s)];
    AddAligned(&merged.global.res_production, r.res_production);
    AddAligned(&merged.global.inflexible_demand, r.inflexible_demand);
    AddAligned(&merged.global.planned_against_demand, r.planned_against_demand);
    AddAligned(&merged.global.target, r.target);
    AddAligned(&merged.global.planned_flexible_load, r.planned_flexible_load);
    AddAligned(&merged.global.realized_flexible_load, r.realized_flexible_load);
    AddAligned(&merged.global.deviation, r.deviation);
    merged.global.offers_in += r.offers_in;
    merged.global.aggregates_built += r.aggregates_built;
    merged.global.aggregates_assigned += r.aggregates_assigned;
    merged.global.aggregates_rejected += r.aggregates_rejected;
    merged.global.imbalance_before_kwh += r.imbalance_before_kwh;
    merged.global.imbalance_after_kwh += r.imbalance_after_kwh;
    for (FlexOffer& o : r.member_offers) merged.global.member_offers.push_back(o);
    for (FlexOffer& o : r.aggregate_offers) merged.global.aggregate_offers.push_back(o);
    for (const std::string& stage : r.degraded_stages) {
      merged.global.degraded_stages.push_back(stage);
    }
    AddAligned(&merged.global.settlement.traded_kwh, r.settlement.traded_kwh);
    merged.global.settlement.spot_cost_eur += r.settlement.spot_cost_eur;
    merged.global.settlement.imbalance_kwh += r.settlement.imbalance_kwh;
    merged.global.settlement.imbalance_cost_eur += r.settlement.imbalance_cost_eur;
    merged.global.settlement.total_cost_eur += r.settlement.total_cost_eur;
  }
  if (n > 1) {
    std::sort(merged.global.degraded_stages.begin(), merged.global.degraded_stages.end());
    merged.global.degraded_stages.erase(std::unique(merged.global.degraded_stages.begin(),
                                                    merged.global.degraded_stages.end()),
                                        merged.global.degraded_stages.end());
  }
  // Shard-invariant total: summed over the *input* offers in global order,
  // so the floating-point fold is bit-identical at every shard count.
  for (const FlexOffer& offer : offers) {
    merged.total_offered_kwh += offer.total_max_energy_kwh();
  }
  merged.shard_reports = std::move(reports);
  return merged;
}

}  // namespace flexvis::sim
