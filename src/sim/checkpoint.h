#ifndef FLEXVIS_SIM_CHECKPOINT_H_
#define FLEXVIS_SIM_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/online.h"
#include "util/json.h"
#include "util/status.h"
#include "util/store.h"

namespace flexvis::sim {

/// The checkpoint store of one online planning loop, built on the
/// generational util/store engine. The sharded Coordinator (sim/coordinator)
/// keeps one such store per shard — its RunShardedCheckpointed /
/// ResumeSharded are the checkpointed online loop, at any shard count
/// including 1 — and this header holds the store's layout and codecs. A
/// checkpoint store directory is one DurableStore whose generation holds
///
///   meta.json       window + OnlineParams (the run's immutable inputs)
///   offers.jsonl    the input flex-offers, one message-format offer per line
///   state.json      (generations > 0 only) the folded tick record carrying
///                   every tick compacted so far
///   SNAPSHOT.json   the store manifest (generation + size/CRC over the
///                   files above), written last — the commit point; its
///                   `meta` holds {"epoch": E}, the coordinator assignment
///                   epoch the snapshot reflects (absent reads as 0)
///   journal.wal     write-ahead journal of OnlineTickRecords only, one
///                   frame per tick, flushed after every append
///
/// Recovery applies snapshot + folded state + journal — recorded decisions,
/// never re-run — so a resumed run is byte-identical to an uninterrupted one.
/// Compaction: with OnlineParams::compact_ticks = C > 0 the journal is folded
/// into a new store generation after every C-th tick — the folded record
/// becomes state.json, the manifest commit supersedes the old generation,
/// and the WAL restarts empty — so a resume replays at most C tick records
/// no matter how long the run is. Generation > 0 files carry a ".g<G>"
/// suffix; recovery lands on exactly one committed generation and
/// garbage-collects the debris of the other.

inline constexpr const char* kCheckpointMetaFile = "meta.json";
inline constexpr const char* kCheckpointOffersFile = "offers.jsonl";
inline constexpr const char* kCheckpointStateFile = "state.json";
inline constexpr const char* kCheckpointManifestFile = "SNAPSHOT.json";
inline constexpr const char* kCheckpointJournalFile = "journal.wal";

/// Environment knob for the compaction cadence. Unset or empty = off;
/// anything else must parse as a strictly positive integer (ticks between
/// folds).
inline constexpr const char* kCompactTicksEnvVar = "FLEXVIS_COMPACT_TICKS";

/// Parses $FLEXVIS_COMPACT_TICKS into an OnlineParams::compact_ticks value.
/// Unset/empty yields 0 (off); a set value that is unparsable, zero, or
/// negative is an InvalidArgument error naming the variable — a cadence of
/// zero is meaningless and silently ignoring it hid misconfigurations. The
/// benches and CLI wire it through explicitly — library code never reads the
/// environment behind a caller's back.
Result<int> CompactTicksFromEnv();

/// The store layout above as StoreOptions (manifest SNAPSHOT.json, WAL
/// journal.wal). The sharded coordinator opens one such store per shard.
StoreOptions CheckpointStoreOptions();

/// Observability of one checkpoint store's recovery (per shard in
/// ShardResumeInfo): how much state came back from disk.
struct ResumeInfo {
  /// Ticks recovered from the folded state.json of a compacted generation
  /// (no decision logic re-run, no per-tick records read).
  int ticks_folded = 0;
  /// Ticks reconstructed from the journal (no decision logic re-run).
  int ticks_replayed = 0;
  /// Ticks executed live after the replay to finish the window.
  int ticks_continued = 0;
  /// Store generation the recovery landed on (0 = never compacted).
  int64_t generation = 0;
  /// True when the journal ended in a torn frame (crash mid-append); the
  /// debris was truncated before continuing.
  bool torn_tail = false;
  /// Bytes of journal debris discarded.
  uint64_t torn_bytes = 0;
};

/// Serialization of one tick record (exposed for tests and the recovery
/// bench): compact JSON via EncodeTickRecord, strict decode via
/// DecodeTickRecord (missing fields or type mismatches error; the overload /
/// compaction fields added later are optional-with-default so older journals
/// still replay; a record carrying a "kind" key is no tick record and is
/// DataLoss, since shard journals hold tick records only).
std::string EncodeTickRecord(const OnlineTickRecord& record);
Result<OnlineTickRecord> DecodeTickRecord(std::string_view text);

/// The element formats of a tick record, exposed for the coordinator's
/// migration records, which carry the moved offers' queue entries and
/// decided states alike: an id list as a JSON integer array (decoded from
/// `parent[key]`, DataLoss unless an array of integers), and one offer-state
/// change as a JSON object ({"offer","state"} plus {"start_min","kwh"} when a
/// schedule is attached).
JsonValue EncodeIdArray(const std::vector<core::FlexOfferId>& ids);
Status DecodeIdArray(const JsonValue& parent, std::string_view key,
                     std::vector<core::FlexOfferId>* out);
JsonValue EncodeStateChange(const OnlineStateChange& change);
Result<OnlineStateChange> DecodeStateChange(const JsonValue& value);

/// Merges `record` (the next tick) into the running fold `*fold`: deltas
/// (changes, sent wires) concatenate in order, absolute fields (counters,
/// cursor, queues) come from `record`, and the result is marked folded.
/// Applying the fold of ticks 0..K onto a fresh Begin state reproduces the
/// live post-tick-K state byte for byte — the invariant compaction rests on.
void FoldTickRecordInto(OnlineTickRecord* fold, const OnlineTickRecord& record);

/// FoldTickRecordInto over a whole sequence. Precondition: non-empty.
OnlineTickRecord FoldTickRecords(const std::vector<OnlineTickRecord>& records);

// ---- Snapshot codec ------------------------------------------------------------
//
// The sharded coordinator namespaces one checkpoint store per shard
// (shard-0000/, shard-0001/, ...) under its run directory.

/// The immutable snapshot content (meta.json, offers.jsonl) for
/// DurableStore::Create/Compact. Never includes state.json — compaction
/// appends that itself.
StoreFiles EncodeOnlineSnapshot(const OnlineParams& params,
                                const std::vector<core::FlexOffer>& offers,
                                const timeutil::TimeInterval& window);

/// Decodes the run's immutable inputs out of a recovered checkpoint store.
/// `params->faults` is always left null — fault wiring is runtime state,
/// never persisted.
Status DecodeOnlineSnapshot(const StoreRecovery& recovery, OnlineParams* params,
                            std::vector<core::FlexOffer>* offers,
                            timeutil::TimeInterval* window);

}  // namespace flexvis::sim

#endif  // FLEXVIS_SIM_CHECKPOINT_H_
