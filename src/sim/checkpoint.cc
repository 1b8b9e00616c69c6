#include "sim/checkpoint.h"

#include <cstdlib>
#include <limits>
#include <utility>

#include "core/messages.h"
#include "sim/forecaster.h"
#include "sim/market.h"
#include "util/json.h"
#include "util/store.h"
#include "util/strings.h"

namespace flexvis::sim {

namespace {

/// Optional-with-default integer: pre-overload / pre-compaction checkpoints
/// lack the newer keys and must keep resuming with the historical behaviour.
int64_t GetIntOr(const JsonValue& json, std::string_view key, int64_t fallback) {
  if (!json.Has(key)) return fallback;
  Result<int64_t> value = json.GetInt(key);
  return value.ok() ? *value : fallback;
}

/// Optional-with-default string, same contract as GetIntOr: pre-strategy
/// checkpoints lack the pinned-strategy keys and resume under the defaults.
std::string GetStringOr(const JsonValue& json, std::string_view key, std::string fallback) {
  if (!json.Has(key)) return fallback;
  Result<std::string> value = json.GetString(key);
  return value.ok() ? *std::move(value) : std::move(fallback);
}

/// meta.json <-> (window, params). Every field the loop's decisions depend
/// on must round-trip exactly; doubles serialize as %.17g so they do.
std::string EncodeMeta(const OnlineParams& params, const timeutil::TimeInterval& window) {
  JsonValue meta = JsonValue::Object();
  meta.Set("schema_version", JsonValue::Int(1));
  meta.Set("window_start_min", JsonValue::Int(window.start.minutes()));
  meta.Set("window_end_min", JsonValue::Int(window.end.minutes()));
  meta.Set("tick_minutes", JsonValue::Int(params.tick_minutes));
  meta.Set("rejection_threshold", JsonValue::Double(params.scheduler.rejection_threshold));
  meta.Set("scheduler_order", JsonValue::Int(static_cast<int64_t>(params.scheduler.order)));
  meta.Set("energy_seed", JsonValue::Int(static_cast<int64_t>(params.energy.seed)));
  meta.Set("wind_mean_kwh", JsonValue::Double(params.energy.wind_mean_kwh));
  meta.Set("solar_peak_kwh", JsonValue::Double(params.energy.solar_peak_kwh));
  meta.Set("demand_base_kwh", JsonValue::Double(params.energy.demand_base_kwh));
  meta.Set("energy_noise", JsonValue::Double(params.energy.noise));
  meta.Set("max_ingest_per_tick", JsonValue::Int(params.max_ingest_per_tick));
  meta.Set("ingest_queue_capacity", JsonValue::Int(params.ingest_queue_capacity));
  meta.Set("shed_policy", JsonValue::Int(static_cast<int64_t>(params.shed_policy)));
  meta.Set("compact_ticks", JsonValue::Int(params.compact_ticks));
  meta.Set("forecaster", JsonValue::Str(params.forecaster));
  meta.Set("bidding", JsonValue::Str(params.bidding));
  return meta.Dump();
}

Status DecodeMeta(std::string_view text, OnlineParams* params,
                  timeutil::TimeInterval* window) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok() || !parsed->is_object()) {
    return DataLossError("checkpoint meta.json is unparsable");
  }
  const JsonValue& meta = *parsed;
  Result<int64_t> start = meta.GetInt("window_start_min");
  Result<int64_t> end = meta.GetInt("window_end_min");
  Result<int64_t> tick = meta.GetInt("tick_minutes");
  Result<double> threshold = meta.GetDouble("rejection_threshold");
  Result<int64_t> order = meta.GetInt("scheduler_order");
  Result<int64_t> seed = meta.GetInt("energy_seed");
  Result<double> wind = meta.GetDouble("wind_mean_kwh");
  Result<double> solar = meta.GetDouble("solar_peak_kwh");
  Result<double> demand = meta.GetDouble("demand_base_kwh");
  Result<double> noise = meta.GetDouble("energy_noise");
  for (const Status* status :
       {&start.status(), &end.status(), &tick.status(), &threshold.status(),
        &order.status(), &seed.status(), &wind.status(), &solar.status(),
        &demand.status(), &noise.status()}) {
    if (!status->ok()) {
      return DataLossError(StrFormat("checkpoint meta.json is incomplete: %s",
                                     status->message().c_str()));
    }
  }
  *window = timeutil::TimeInterval(timeutil::TimePoint::FromMinutes(*start),
                                   timeutil::TimePoint::FromMinutes(*end));
  params->tick_minutes = *tick;
  params->scheduler.rejection_threshold = *threshold;
  params->scheduler.order = static_cast<core::SchedulerParams::Order>(*order);
  params->energy.seed = static_cast<uint64_t>(*seed);
  params->energy.wind_mean_kwh = *wind;
  params->energy.solar_peak_kwh = *solar;
  params->energy.demand_base_kwh = *demand;
  params->energy.noise = *noise;
  params->max_ingest_per_tick = static_cast<int>(GetIntOr(meta, "max_ingest_per_tick", 0));
  params->ingest_queue_capacity =
      static_cast<int>(GetIntOr(meta, "ingest_queue_capacity", 0));
  params->shed_policy = static_cast<ShedPolicy>(GetIntOr(meta, "shed_policy", 0));
  params->compact_ticks = static_cast<int>(GetIntOr(meta, "compact_ticks", 0));
  // Runs from before the byte-size compaction trigger was retired also
  // wrote its budget here; the key is ignored.
  // Pinned strategy identity. Absent keys (pre-strategy checkpoints) resume
  // under the defaults; a *present* unknown name is a configuration error
  // surfaced before any replay, naming the registered options.
  params->forecaster = GetStringOr(meta, "forecaster", "");
  params->bidding = GetStringOr(meta, "bidding", "");
  if (!params->forecaster.empty()) {
    Result<std::unique_ptr<Forecaster>> forecaster =
        ForecasterRegistry::Global().Make(params->forecaster);
    if (!forecaster.ok()) return forecaster.status();
  }
  if (!params->bidding.empty()) {
    Result<std::unique_ptr<BiddingStrategy>> bidding =
        BiddingRegistry::Global().Make(params->bidding);
    if (!bidding.ok()) return bidding.status();
  }
  params->faults = nullptr;
  return OkStatus();
}

std::string EncodeOffers(const std::vector<core::FlexOffer>& offers) {
  // Input order preserved: the report's offers vector mirrors it, and
  // byte-identical recovery depends on the exact order coming back.
  std::string lines;
  for (const core::FlexOffer& offer : offers) {
    lines += core::EncodeFlexOffer(offer);
    lines += '\n';
  }
  return lines;
}

Status DecodeOffers(std::string_view lines, std::vector<core::FlexOffer>* offers) {
  offers->clear();
  size_t start = 0;
  while (start < lines.size()) {
    size_t end = lines.find('\n', start);
    if (end == std::string_view::npos) end = lines.size();
    std::string_view line = lines.substr(start, end - start);
    if (!StripWhitespace(line).empty()) {
      Result<core::FlexOffer> offer = core::DecodeFlexOffer(line);
      if (!offer.ok()) {
        return DataLossError(StrFormat("checkpoint offers.jsonl: bad record near byte %zu: %s",
                                       start, offer.status().message().c_str()));
      }
      offers->push_back(*std::move(offer));
    }
    start = end + 1;
  }
  return OkStatus();
}

}  // namespace

Result<int> CompactTicksFromEnv() {
  const char* env = std::getenv(kCompactTicksEnvVar);
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long long value = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0') {
    return InvalidArgumentError(
        StrFormat("$%s is not an integer: '%s'", kCompactTicksEnvVar, env));
  }
  if (value <= 0 || value > std::numeric_limits<int>::max()) {
    return InvalidArgumentError(StrFormat(
        "$%s must be a positive integer (unset it to disable compaction), got '%s'",
        kCompactTicksEnvVar, env));
  }
  return static_cast<int>(value);
}

StoreOptions CheckpointStoreOptions() {
  StoreOptions options;
  options.manifest_name = kCheckpointManifestFile;
  options.journal_name = kCheckpointJournalFile;
  return options;
}

void FoldTickRecordInto(OnlineTickRecord* fold, const OnlineTickRecord& record) {
  fold->folded = true;
  fold->tick = record.tick;
  fold->shed_policy = record.shed_policy;
  fold->changes.insert(fold->changes.end(), record.changes.begin(), record.changes.end());
  fold->sent.insert(fold->sent.end(), record.sent.begin(), record.sent.end());
  fold->offers_received = record.offers_received;
  fold->accepted = record.accepted;
  fold->rejected = record.rejected;
  fold->assigned = record.assigned;
  fold->missed_acceptance = record.missed_acceptance;
  fold->missed_assignment = record.missed_assignment;
  fold->dropped_ingest = record.dropped_ingest;
  fold->failed_sends = record.failed_sends;
  fold->shed_offers = record.shed_offers;
  fold->queue_high_watermark = record.queue_high_watermark;
  fold->next_arrival = record.next_arrival;
  fold->pending_acceptance = record.pending_acceptance;
  fold->pending_assignment = record.pending_assignment;
}

OnlineTickRecord FoldTickRecords(const std::vector<OnlineTickRecord>& records) {
  OnlineTickRecord fold;
  for (const OnlineTickRecord& record : records) FoldTickRecordInto(&fold, record);
  return fold;
}

StoreFiles EncodeOnlineSnapshot(const OnlineParams& params,
                                const std::vector<core::FlexOffer>& offers,
                                const timeutil::TimeInterval& window) {
  StoreFiles files;
  files.emplace_back(kCheckpointMetaFile, EncodeMeta(params, window));
  files.emplace_back(kCheckpointOffersFile, EncodeOffers(offers));
  return files;
}

Status DecodeOnlineSnapshot(const StoreRecovery& recovery, OnlineParams* params,
                            std::vector<core::FlexOffer>* offers,
                            timeutil::TimeInterval* window) {
  auto meta = recovery.files.find(kCheckpointMetaFile);
  if (meta == recovery.files.end()) {
    return DataLossError("checkpoint store has no meta.json");
  }
  FLEXVIS_RETURN_IF_ERROR(DecodeMeta(meta->second, params, window));
  auto offer_lines = recovery.files.find(kCheckpointOffersFile);
  if (offer_lines == recovery.files.end()) {
    return DataLossError("checkpoint store has no offers.jsonl");
  }
  return DecodeOffers(offer_lines->second, offers);
}

JsonValue EncodeIdArray(const std::vector<core::FlexOfferId>& ids) {
  JsonValue out = JsonValue::Array();
  for (core::FlexOfferId id : ids) out.Append(JsonValue::Int(id));
  return out;
}

Status DecodeIdArray(const JsonValue& parent, std::string_view key,
                     std::vector<core::FlexOfferId>* out) {
  const JsonValue& array = parent.Get(key);
  if (!array.is_array()) {
    return DataLossError(StrFormat("record field '%.*s' is not an array",
                                   static_cast<int>(key.size()), key.data()));
  }
  out->clear();
  for (size_t i = 0; i < array.size(); ++i) {
    if (!array[i].is_int()) {
      return DataLossError(StrFormat("record field '%.*s' holds a non-integer id",
                                     static_cast<int>(key.size()), key.data()));
    }
    out->push_back(array[i].AsInt());
  }
  return OkStatus();
}

JsonValue EncodeStateChange(const OnlineStateChange& change) {
  JsonValue c = JsonValue::Object();
  c.Set("offer", JsonValue::Int(change.offer));
  c.Set("state", JsonValue::Int(static_cast<int64_t>(change.state)));
  if (change.schedule.has_value()) {
    c.Set("start_min", JsonValue::Int(change.schedule->start.minutes()));
    JsonValue kwh = JsonValue::Array();
    for (double e : change.schedule->energy_kwh) kwh.Append(JsonValue::Double(e));
    c.Set("kwh", std::move(kwh));
  }
  return c;
}

Result<OnlineStateChange> DecodeStateChange(const JsonValue& c) {
  Result<int64_t> offer = c.GetInt("offer");
  Result<int64_t> state = c.GetInt("state");
  if (!offer.ok() || !state.ok()) {
    return DataLossError("offer-state change is malformed");
  }
  OnlineStateChange change;
  change.offer = *offer;
  change.state = static_cast<core::FlexOfferState>(*state);
  if (c.Has("start_min")) {
    Result<int64_t> start = c.GetInt("start_min");
    const JsonValue& kwh = c.Get("kwh");
    if (!start.ok() || !kwh.is_array()) {
      return DataLossError("offer-state change has a bad schedule");
    }
    core::Schedule schedule;
    schedule.start = timeutil::TimePoint::FromMinutes(*start);
    for (size_t k = 0; k < kwh.size(); ++k) {
      if (!kwh[k].is_number()) {
        return DataLossError("offer-state change has a bad schedule");
      }
      schedule.energy_kwh.push_back(kwh[k].AsDouble());
    }
    change.schedule = std::move(schedule);
  }
  return change;
}

std::string EncodeTickRecord(const OnlineTickRecord& record) {
  JsonValue json = JsonValue::Object();
  json.Set("tick", JsonValue::Int(record.tick));
  if (record.folded) json.Set("folded", JsonValue::Bool(true));
  json.Set("shed_policy", JsonValue::Int(record.shed_policy));
  JsonValue changes = JsonValue::Array();
  for (const OnlineStateChange& change : record.changes) {
    changes.Append(EncodeStateChange(change));
  }
  json.Set("changes", std::move(changes));
  JsonValue sent = JsonValue::Array();
  for (const std::string& wire : record.sent) sent.Append(JsonValue::Str(wire));
  json.Set("sent", std::move(sent));
  json.Set("received", JsonValue::Int(record.offers_received));
  json.Set("accepted", JsonValue::Int(record.accepted));
  json.Set("rejected", JsonValue::Int(record.rejected));
  json.Set("assigned", JsonValue::Int(record.assigned));
  json.Set("missed_acc", JsonValue::Int(record.missed_acceptance));
  json.Set("missed_asn", JsonValue::Int(record.missed_assignment));
  json.Set("dropped", JsonValue::Int(record.dropped_ingest));
  json.Set("failed_sends", JsonValue::Int(record.failed_sends));
  json.Set("shed", JsonValue::Int(record.shed_offers));
  json.Set("qhw", JsonValue::Int(record.queue_high_watermark));
  json.Set("next_arrival", JsonValue::Int(record.next_arrival));
  json.Set("pend_acc", EncodeIdArray(record.pending_acceptance));
  json.Set("pend_asn", EncodeIdArray(record.pending_assignment));
  return json.Dump();
}

Result<OnlineTickRecord> DecodeTickRecord(std::string_view text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok() || !parsed->is_object()) {
    return DataLossError("journal record is not a JSON object");
  }
  const JsonValue& json = *parsed;
  // Shard journals hold tick records only; a tagged record is the retired
  // per-shard migration format, never a tick.
  if (json.Has("kind")) return DataLossError("shard journal holds a tagged, non-tick record");
  OnlineTickRecord record;
  Result<int64_t> tick = json.GetInt("tick");
  Result<int64_t> received = json.GetInt("received");
  Result<int64_t> accepted = json.GetInt("accepted");
  Result<int64_t> rejected = json.GetInt("rejected");
  Result<int64_t> assigned = json.GetInt("assigned");
  Result<int64_t> missed_acc = json.GetInt("missed_acc");
  Result<int64_t> missed_asn = json.GetInt("missed_asn");
  Result<int64_t> dropped = json.GetInt("dropped");
  Result<int64_t> failed_sends = json.GetInt("failed_sends");
  Result<int64_t> next_arrival = json.GetInt("next_arrival");
  for (const Status* status :
       {&tick.status(), &received.status(), &accepted.status(), &rejected.status(),
        &assigned.status(), &missed_acc.status(), &missed_asn.status(), &dropped.status(),
        &failed_sends.status(), &next_arrival.status()}) {
    if (!status->ok()) {
      return DataLossError(
          StrFormat("journal record is incomplete: %s", status->message().c_str()));
    }
  }
  record.tick = static_cast<int>(*tick);
  record.folded = json.Get("folded").is_bool() && json.Get("folded").AsBool();
  record.shed_policy = static_cast<int>(GetIntOr(json, "shed_policy", 0));
  record.offers_received = static_cast<int>(*received);
  record.accepted = static_cast<int>(*accepted);
  record.rejected = static_cast<int>(*rejected);
  record.assigned = static_cast<int>(*assigned);
  record.missed_acceptance = static_cast<int>(*missed_acc);
  record.missed_assignment = static_cast<int>(*missed_asn);
  record.dropped_ingest = static_cast<int>(*dropped);
  record.failed_sends = static_cast<int>(*failed_sends);
  record.shed_offers = static_cast<int>(GetIntOr(json, "shed", 0));
  record.queue_high_watermark = static_cast<int>(GetIntOr(json, "qhw", 0));
  record.next_arrival = *next_arrival;

  const JsonValue& changes = json.Get("changes");
  if (!changes.is_array()) return DataLossError("journal record lacks a 'changes' array");
  for (size_t i = 0; i < changes.size(); ++i) {
    Result<OnlineStateChange> change = DecodeStateChange(changes[i]);
    if (!change.ok()) {
      return DataLossError(StrFormat("journal record change %zu: %s", i,
                                     change.status().message().c_str()));
    }
    record.changes.push_back(*std::move(change));
  }

  const JsonValue& sent = json.Get("sent");
  if (!sent.is_array()) return DataLossError("journal record lacks a 'sent' array");
  for (size_t i = 0; i < sent.size(); ++i) {
    if (!sent[i].is_string()) {
      return DataLossError(StrFormat("journal record sent[%zu] is not a string", i));
    }
    record.sent.push_back(sent[i].AsString());
  }
  FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json, "pend_acc", &record.pending_acceptance));
  FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json, "pend_asn", &record.pending_assignment));
  return record;
}

}  // namespace flexvis::sim
