// Shared pieces of the flexvis end-to-end benchmark: command-line options,
// the span tracer, latency statistics, the result record every workload
// fills, and the synthetic week the workloads are generated from.
#ifndef FLEXVIS_PERFBENCH_HARNESS_H_
#define FLEXVIS_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/flex_offer.h"
#include "dw/database.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "serve/engine.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/status.h"

namespace flexbench {

using namespace flexvis;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The benchmark definition whose metric names and units the run prints.
  std::string spec = "BENCHMARK.json";
  /// Scratch directory inside the checkout for checkpoint stores.
  std::string work_dir = ".bench_run";
  std::string git_sha = "unknown";
};

// ---- Tracing ----------------------------------------------------------------

/// One timed call from the harness into a layer. `name` is
/// "<layer>.<call>", where the layer is a src/ module (core, sim, util, dw,
/// olap, serve, render, viz) or "bench" for the harness's own work.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index of the enclosing span in the same thread log
  int32_t thread = 0;
  int64_t request = -1;  // spans of one request share this id
};

/// Collects spans in memory, one log per thread, until the process exits.
/// Disabled tracers record nothing and read no clock.
class Tracer {
 public:
  struct ThreadLog {
    int32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<int32_t> open;  // stack of open span indices
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Switch only while no other thread records spans.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  /// The calling thread's log, created on first use.
  ThreadLog& Log();

  /// Every span recorded so far, one vector per thread (call after the
  /// recording threads have joined).
  std::vector<const ThreadLog*> Logs() const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span around one harness call into a layer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadLog* log_ = nullptr;
  int32_t index_ = -1;
};

/// Per span name: number of calls and self time (duration minus the part
/// covered by child spans), in total and per call.
struct SpanTotals {
  int64_t calls = 0;
  double self_s = 0.0;
  std::vector<double> self_samples_s;
};
using SpanSummary = std::map<std::string, SpanTotals>;
SpanSummary SummarizeSpans(const Tracer& tracer);

/// Mean self time of one `name` span, 0 when there is none.
double MeanSelf(const SpanSummary& spans, const char* name);

// ---- Statistics -------------------------------------------------------------

/// Latency samples in seconds.
class Samples {
 public:
  void Add(double seconds) { values_.push_back(seconds); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// The middle sample, or the mean of the two middle samples.
  double Median() const;
  /// Nearest-rank quantile, q in [0, 1].
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

double Median(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Total size in bytes of the regular files under `dir` whose name ends in
/// `suffix` (every file when empty).
int64_t DirectoryBytes(const std::string& dir, const std::string& suffix = "");

// ---- Result -----------------------------------------------------------------

/// The metric names and units BENCHMARK.json declares.
struct MetricSpec {
  std::map<std::string, std::string> end_to_end;  // name -> unit
  std::map<std::string, std::string> per_layer;
};
Result<MetricSpec> LoadMetricSpec(const std::string& path);

/// What a run reports: end-to-end metrics (untraced), per-layer metrics
/// (traced), output checks, and operation counts.
class RunResult {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Human-facing extra figure, printed on the details line only.
  void Detail(const std::string& name, double value);
  /// Records an output check; a failed check fails the run.
  void Check(bool ok, const std::string& what);
  void Attempted(int64_t n = 1) { attempted_ += n; }
  void Failed(int64_t n = 1) { failed_ += n; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Sets the declared per-layer metrics the workload did not touch to 0,
  /// so every traced run prints the same names, and checks that the metrics
  /// to be printed are exactly the declared ones, with the declared units.
  void MatchSpec(const MetricSpec& spec, bool trace);

  /// Prints the details line, then the result line (last line of stdout).
  void Print(bool trace) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layer_;
  std::map<std::string, double> details_;
  std::vector<std::string> failed_checks_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Fills the `<layer>.self_s` metrics (self time per timed phase, summed
/// over threads) and the `trace.*` figures from the tracer.
void ReportLayerSelfTimes(const Tracer& tracer, RunResult& result);

/// Reports tracing overhead: how much slower the traced timed phase ran
/// than the untraced reference phase of the same run, in percent.
void ReportOverhead(double reference_throughput, double traced_throughput,
                    double reference_p50_s, double traced_p50_s, RunResult& result);

/// The `serve.<kind>_p50_us` metrics from per-kind query latencies.
void ReportQueryKinds(const std::map<serve::RequestKind, Samples>& by_kind, RunResult& result);

/// The `serve.cache_*` metrics from result-cache counters.
void ReportCache(const serve::CacheStats& cache, RunResult& result);

// ---- The synthetic world ------------------------------------------------------

/// A week of flex-offers from the paper's prosumer mix, generated from a
/// seed, plus the dimension-only warehouse every generation is built on.
struct Week {
  geo::Atlas atlas;
  grid::GridTopology topology = grid::GridTopology::MakeRadial(1, 1, 1, 1);
  timeutil::TimeInterval window;
  sim::Workload workload;
  /// Atlas, grid and prosumer dimensions, no facts.
  dw::Database dimensions;
};

/// Generates `prosumers` prosumers with 5 offers a day each over the week
/// starting 2013-02-01. Aborts on an internal error.
std::unique_ptr<Week> MakeWeek(uint64_t seed, int prosumers);

/// A warehouse generation: the week's dimensions plus `offers` as facts.
Status BuildWarehouse(const Week& week, const std::vector<core::FlexOffer>& offers,
                      std::shared_ptr<const dw::Database>* out);

// ---- Dashboard requests ----------------------------------------------------------

/// The serve span name of a request kind ("serve.hover", ...).
const char* QueryKindName(serve::RequestKind kind);

/// The dashboard query mix: one cycle is 4 hovers, a select, a pivot and a
/// roll-up, the 4:1:1:1 mix of MixedWorkload in bench/micro_serve.cc. Hover
/// ids are drawn Zipf-like (log-uniform rank) over every offer of the week;
/// selects from about 100 filters (one prosumer's offers, optionally by
/// state, and one-hour windows narrowed by appliance); pivots and roll-ups
/// from 50 MDX texts (5 measures x 5 row axes x with/without a one-day
/// slicer).
class QueryMix {
 public:
  /// Requests in one cycle of the mix.
  static constexpr int kCycle = 7;

  QueryMix(const Week& week, uint64_t seed);
  /// The request at position `slot` (0 <= slot < kCycle) of a cycle, with
  /// its target drawn from `rng`.
  serve::ServeRequest Make(int slot, Rng& rng) const;

 private:
  std::vector<core::FlexOfferId> hover_by_rank_;
  std::vector<serve::ServeRequest> selects_;
  std::vector<std::string> mdx_;
};

// ---- Workloads ------------------------------------------------------------------

void RunIngestWeek(const Options& options, Tracer& tracer, RunResult& result);
void RunDashboardExplore(const Options& options, Tracer& tracer, RunResult& result);
void RunPlanDayAhead(const Options& options, Tracer& tracer, RunResult& result);

}  // namespace flexbench

#endif  // FLEXVIS_PERFBENCH_HARNESS_H_
