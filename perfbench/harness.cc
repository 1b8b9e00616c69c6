#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "util/fileio.h"
#include "util/json.h"
#include "util/strings.h"

namespace flexbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The module a span belongs to: the text before the first '.'.
std::string LayerOf(const std::string& name) { return name.substr(0, name.find('.')); }

/// Every src/ module, plus the harness itself.
const char* const kLayers[] = {"core", "sim", "util", "dw", "olap",
                               "serve", "render", "viz", "bench"};

}  // namespace

// ---- Tracing ----------------------------------------------------------------

Tracer::ThreadLog& Tracer::Log() {
  thread_local ThreadLog* log = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (log == nullptr || owner != this) {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<int32_t>(logs_.size() - 1);
    owner = this;
  }
  return *log;
}

std::vector<const Tracer::ThreadLog*> Tracer::Logs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const ThreadLog*> out;
  for (const auto& log : logs_) out.push_back(log.get());
  return out;
}

Span::Span(Tracer& tracer, const char* name, int64_t request) {
  if (!tracer.enabled()) return;
  log_ = &tracer.Log();
  SpanRecord record;
  record.name = name;
  record.parent = log_->open.empty() ? -1 : log_->open.back();
  record.thread = log_->thread;
  record.request = request;
  index_ = static_cast<int32_t>(log_->spans.size());
  log_->open.push_back(index_);
  record.start_ns = NowNs();
  log_->spans.push_back(record);
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  log_->open.pop_back();
}

SpanSummary SummarizeSpans(const Tracer& tracer) {
  SpanSummary totals;
  for (const Tracer::ThreadLog* log : tracer.Logs()) {
    std::vector<double> child_s(log->spans.size(), 0.0);
    for (const SpanRecord& span : log->spans) {
      if (span.parent >= 0) {
        child_s[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& span = log->spans[i];
      const double total = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      SpanTotals& t = totals[span.name];
      ++t.calls;
      t.self_s += total - child_s[i];
      t.self_samples_s.push_back(total - child_s[i]);
    }
  }
  return totals;
}

double MeanSelf(const SpanSummary& spans, const char* name) {
  auto it = spans.find(name);
  return it == spans.end() || it->second.calls == 0
             ? 0.0
             : it->second.self_s / static_cast<double>(it->second.calls);
}

// ---- Statistics -------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid] : (sorted[mid - 1] + sorted[mid]) / 2.0;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  Samples samples;
  for (double v : values) samples.Add(v);
  return samples.Median();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t DirectoryBytes(const std::string& dir, const std::string& suffix) {
  int64_t bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    bytes += static_cast<int64_t>(it->file_size(ec));
  }
  return bytes;
}

// ---- Result -----------------------------------------------------------------

Result<MetricSpec> LoadMetricSpec(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  Result<JsonValue> doc = JsonValue::Parse(*text);
  if (!doc.ok()) return doc.status();
  MetricSpec spec;
  for (const auto& [key, names] : {std::pair{"end_to_end", &spec.end_to_end},
                                   std::pair{"per_layer", &spec.per_layer}}) {
    const JsonValue& list = doc->Get(key);
    if (!list.is_array()) return InvalidArgumentError(path + ": no " + key + " list");
    for (size_t i = 0; i < list.size(); ++i) {
      Result<std::string> name = list[i].GetString("name");
      Result<std::string> unit = list[i].GetString("unit");
      if (!name.ok()) return name.status();
      if (!unit.ok()) return unit.status();
      (*names)[*name] = *unit;
    }
  }
  return spec;
}

void RunResult::EndToEnd(const std::string& name, double value, const std::string& unit) {
  Check(std::isfinite(value), "metric " + name + " is finite");
  end_to_end_[name] = Metric{value, unit};
}

void RunResult::Layer(const std::string& name, double value, const std::string& unit) {
  Check(std::isfinite(value), "metric " + name + " is finite");
  layer_[name] = Metric{value, unit};
}

void RunResult::Detail(const std::string& name, double value) { details_[name] = value; }

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  failed_checks_.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void RunResult::MatchSpec(const MetricSpec& spec, bool trace) {
  if (trace) {
    for (const auto& [name, unit] : spec.per_layer) layer_.try_emplace(name, Metric{0.0, unit});
  }
  const std::map<std::string, std::string>& declared = trace ? spec.per_layer : spec.end_to_end;
  std::map<std::string, std::string> printed;
  for (const auto& [name, metric] : trace ? layer_ : end_to_end_) printed[name] = metric.unit;
  Check(printed == declared, "the metrics printed are the ones BENCHMARK.json declares");
}

void RunResult::Print(bool trace) const {
  JsonValue details = JsonValue::Object();
  for (const auto& [name, value] : details_) details.Set(name, JsonValue::Double(value));
  JsonValue failed_checks = JsonValue::Array();
  for (const std::string& what : failed_checks_) failed_checks.Append(JsonValue::Str(what));
  JsonValue details_line = JsonValue::Object();
  details_line.Set("details", std::move(details));
  details_line.Set("failed_checks", std::move(failed_checks));
  std::printf("%s\n", details_line.Dump().c_str());

  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, metric] : trace ? layer_ : end_to_end_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Double(metric.value));
    entry.Set("unit", JsonValue::Str(metric.unit));
    metrics.Set(name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(correct_));
  out.Set("attempted", JsonValue::Int(attempted_));
  out.Set("failed", JsonValue::Int(failed_));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
}

void ReportLayerSelfTimes(const Tracer& tracer, RunResult& result) {
  std::map<std::string, double> self_by_layer;
  int64_t spans = 0;
  for (const auto& [name, totals] : SummarizeSpans(tracer)) {
    self_by_layer[LayerOf(name)] += totals.self_s;
    spans += totals.calls;
    result.Detail("span." + name + ".calls", static_cast<double>(totals.calls));
    result.Detail("span." + name + ".self_s", totals.self_s);
  }
  for (const char* layer : kLayers) {
    result.Layer(std::string(layer) + ".self_s", self_by_layer[layer], "s");
  }
  result.Layer("trace.spans", static_cast<double>(spans), "count");
}

void ReportOverhead(double reference_throughput, double traced_throughput,
                    double reference_p50_s, double traced_p50_s, RunResult& result) {
  result.Layer("trace.overhead_throughput_pct",
               traced_throughput > 0.0 ? (reference_throughput / traced_throughput - 1.0) * 100.0
                                       : 0.0,
               "%");
  result.Layer("trace.overhead_p50_pct",
               reference_p50_s > 0.0 ? (traced_p50_s / reference_p50_s - 1.0) * 100.0 : 0.0, "%");
}

void ReportQueryKinds(const std::map<serve::RequestKind, Samples>& by_kind, RunResult& result) {
  for (serve::RequestKind kind : {serve::RequestKind::kHover, serve::RequestKind::kSelect,
                                  serve::RequestKind::kPivot, serve::RequestKind::kRollup}) {
    auto it = by_kind.find(kind);
    result.Layer(std::string(QueryKindName(kind)) + "_p50_us",
                 it == by_kind.end() ? 0.0 : it->second.Median() * 1e6, "us");
  }
}

void ReportCache(const serve::CacheStats& cache, RunResult& result) {
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  result.Layer("serve.cache_hits", static_cast<double>(cache.hits), "count");
  result.Layer("serve.cache_misses", static_cast<double>(cache.misses), "count");
  result.Layer("serve.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0, "ratio");
  result.Layer("serve.cache_evictions", static_cast<double>(cache.evictions), "count");
}

// ---- The synthetic world ------------------------------------------------------

std::unique_ptr<Week> MakeWeek(uint64_t seed, int prosumers) {
  auto week = std::make_unique<Week>();
  week->atlas = geo::Atlas::MakeDenmark();
  week->topology = grid::GridTopology::MakeRadial(2, 2, 2, 4);
  const timeutil::TimePoint start = timeutil::TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0);
  week->window = timeutil::TimeInterval(start, start + 7 * timeutil::kMinutesPerDay);
  sim::WorkloadParams params;
  params.seed = seed;
  params.num_prosumers = prosumers;
  params.offers_per_prosumer = 5.0 * 7.0;
  params.horizon = week->window;
  Result<sim::Workload> workload =
      sim::WorkloadGenerator(&week->atlas, &week->topology).Generate(params);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    std::exit(2);
  }
  week->workload = *std::move(workload);
  Status registered = week->atlas.RegisterWithDatabase(week->dimensions);
  if (registered.ok()) registered = week->topology.RegisterWithDatabase(week->dimensions);
  for (const dw::ProsumerInfo& p : week->workload.prosumers) {
    if (registered.ok()) registered = week->dimensions.RegisterProsumer(p);
  }
  if (!registered.ok()) {
    std::fprintf(stderr, "dimension registration failed: %s\n", registered.ToString().c_str());
    std::exit(2);
  }
  return week;
}

Status BuildWarehouse(const Week& week, const std::vector<core::FlexOffer>& offers,
                      std::shared_ptr<const dw::Database>* out) {
  auto db = std::make_shared<dw::Database>(week.dimensions);
  FLEXVIS_RETURN_IF_ERROR(db->LoadFlexOffers(offers));
  *out = std::move(db);
  return OkStatus();
}

// ---- Dashboard requests ----------------------------------------------------------

const char* QueryKindName(serve::RequestKind kind) {
  switch (kind) {
    case serve::RequestKind::kHover: return "serve.hover";
    case serve::RequestKind::kSelect: return "serve.select";
    case serve::RequestKind::kPivot: return "serve.pivot";
    case serve::RequestKind::kRollup: return "serve.rollup";
  }
  return "serve.query";
}

QueryMix::QueryMix(const Week& week, uint64_t seed) {
  Rng rng(seed);
  // Hover ranks: every offer id, shuffled so popular ranks scatter over ids.
  hover_by_rank_.reserve(week.workload.offers.size());
  for (const core::FlexOffer& offer : week.workload.offers) hover_by_rank_.push_back(offer.id);
  for (size_t i = hover_by_rank_.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(hover_by_rank_[i - 1], hover_by_rank_[j]);
  }

  const auto& prosumers = week.workload.prosumers;
  const core::FlexOfferState states[] = {core::FlexOfferState::kAccepted,
                                         core::FlexOfferState::kAssigned};
  for (int i = 0; i < 50; ++i) {
    serve::ServeRequest request;
    request.kind = serve::RequestKind::kSelect;
    request.filter.prosumer =
        prosumers[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(prosumers.size()) - 1))]
            .id;
    if (i % 2 == 1) request.filter.states = {states[(i / 2) % 2]};
    selects_.push_back(request);
  }
  const core::ApplianceType appliances[] = {
      core::ApplianceType::kElectricVehicle, core::ApplianceType::kHeatPump,
      core::ApplianceType::kDishwasher, core::ApplianceType::kWashingMachine};
  const int64_t hours = week.window.duration_minutes() / 60;
  for (int i = 0; i < 50; ++i) {
    serve::ServeRequest request;
    request.kind = serve::RequestKind::kSelect;
    const timeutil::TimePoint start = week.window.start + rng.UniformInt(0, hours - 1) * 60;
    request.filter.window = timeutil::TimeInterval(start, start + 60);
    request.filter.appliance_types = {appliances[i % 4]};
    selects_.push_back(request);
  }

  const char* measures[] = {"Count", "EnergyFlexibility", "ScheduledEnergy", "SumMaxEnergy",
                            "AvgTimeFlexibility"};
  const char* rows[] = {"State.Members", "Prosumer.Type.Members", "Appliance.Members",
                        "Geography.Region.Members", "EnergyType.Class.Members"};
  int day = 0;
  for (const char* measure : measures) {
    for (const char* row : rows) {
      const std::string base = StrFormat(
          "SELECT { Measures.%s } ON COLUMNS, { %s } ON ROWS FROM [FlexOffers]", measure, row);
      mdx_.push_back(base);
      const timeutil::TimePoint from = week.window.start + (day % 6) * timeutil::kMinutesPerDay;
      ++day;
      mdx_.push_back(base + StrFormat(" WHERE ( Time.[%s : %s] )",
                                      from.ToString().substr(0, 10).c_str(),
                                      (from + timeutil::kMinutesPerDay).ToString().substr(0, 10).c_str()));
    }
  }
}

serve::ServeRequest QueryMix::Make(int slot, Rng& rng) const {
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  serve::ServeRequest request;
  if (slot < 4) {
    const double n = static_cast<double>(hover_by_rank_.size());
    const size_t rank = static_cast<size_t>(std::exp(rng.NextDouble() * std::log(n)));
    request.kind = serve::RequestKind::kHover;
    request.offer = hover_by_rank_[std::min(rank, hover_by_rank_.size()) - 1];
  } else if (slot == 4) {
    request = selects_[pick(selects_.size())];
  } else {
    request.kind = slot == 5 ? serve::RequestKind::kPivot : serve::RequestKind::kRollup;
    request.mdx = mdx_[pick(mdx_.size())];
  }
  return request;
}

}  // namespace flexbench
