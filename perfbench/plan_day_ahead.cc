// plan_day_ahead: the enterprise's batch planning. Enterprise::PlanHorizon
// with default parameters runs again and again on one large week of
// flex-offers: aggregation, scheduling against the RES surplus,
// disaggregation, realization and settlement. The offline planner is the
// only workload where core aggregation and scheduling dominate.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "core/aggregation.h"
#include "core/measures.h"
#include "core/scheduler.h"
#include "harness.h"
#include "sim/energy_models.h"
#include "sim/enterprise.h"
#include "util/crc32.h"
#include "util/strings.h"

namespace flexbench {

namespace {

constexpr int kProsumers = 8000;
constexpr int kSetups = 3;
constexpr int kReplays = 3;

template <typename T>
uint32_t CrcValue(uint32_t crc, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  return Crc32(bytes, sizeof(T), crc);
}

/// Fingerprint of a planning report: every member's decided state and
/// schedule, the aggregate counts, the realized load, and the settlement.
uint32_t Digest(const sim::PlanningReport& report) {
  uint32_t crc = 0;
  for (const core::FlexOffer& m : report.member_offers) {
    crc = CrcValue(crc, m.id);
    crc = CrcValue(crc, static_cast<int>(m.state));
    if (m.schedule.has_value()) {
      crc = CrcValue(crc, m.schedule->start.minutes());
      for (double e : m.schedule->energy_kwh) crc = CrcValue(crc, e);
    }
  }
  crc = CrcValue(crc, report.aggregates_built);
  crc = CrcValue(crc, report.aggregates_assigned);
  crc = CrcValue(crc, report.imbalance_before_kwh);
  crc = CrcValue(crc, report.imbalance_after_kwh);
  for (double v : report.realized_flexible_load.values()) crc = CrcValue(crc, v);
  crc = CrcValue(crc, report.settlement.spot_cost_eur);
  crc = CrcValue(crc, report.settlement.imbalance_kwh);
  crc = CrcValue(crc, report.settlement.imbalance_cost_eur);
  crc = CrcValue(crc, report.settlement.total_cost_eur);
  return crc;
}

/// Whether the planned flexible load, which PlanHorizon sums from the
/// member schedules, equals the load the assigned aggregates' schedules
/// plan, slice by slice.
bool DisaggregationConserves(const sim::PlanningReport& report) {
  std::vector<core::FlexOffer> assigned;
  for (const core::FlexOffer& aggregate : report.aggregate_offers) {
    if (aggregate.state == core::FlexOfferState::kAssigned && aggregate.schedule.has_value()) {
      assigned.push_back(aggregate);
    }
  }
  const core::TimeSeries from_aggregates = core::PlannedLoad(assigned);
  const core::TimeSeries& from_members = report.planned_flexible_load;
  double worst = 0.0;
  double scale = 1.0;
  for (const core::TimeSeries* series : {&from_aggregates, &from_members}) {
    for (size_t i = 0; i < series->size(); ++i) {
      const timeutil::TimePoint t =
          series->start() + static_cast<int64_t>(i) * timeutil::kMinutesPerSlice;
      worst = std::max(worst, std::abs(from_aggregates.At(t) - from_members.At(t)));
      scale = std::max(scale, std::abs(series->values()[i]));
    }
  }
  return !assigned.empty() && worst <= 1e-9 * scale;
}

/// One PlanHorizon call with its output checks.
double PlanOnce(const std::vector<core::FlexOffer>& offers, const timeutil::TimeInterval& window,
                int64_t call, Tracer& tracer, RunResult& result, uint32_t* digest,
                sim::PlanningReport* kept = nullptr) {
  const sim::Enterprise enterprise{sim::EnterpriseParams{}};
  const Clock::time_point start = Clock::now();
  Result<sim::PlanningReport> report = [&] {
    Span span(tracer, "sim.plan", call);
    return enterprise.PlanHorizon(offers, window);
  }();
  const double seconds = SecondsSince(start);
  result.Attempted();
  if (!report.ok()) {
    std::fprintf(stderr, "PlanHorizon: %s\n", report.status().ToString().c_str());
    result.Failed();
    result.Check(false, "PlanHorizon succeeds");
    return seconds;
  }
  result.Check(DisaggregationConserves(*report),
               "disaggregation conserves energy: the member schedules' planned load equals "
               "the assigned aggregates' planned load in every slice");
  result.Check(report->degraded_stages.empty(), "no planning stage degraded");
  const uint32_t d = Digest(*report);
  if (*digest == 0) *digest = d;
  result.Check(d == *digest, StrFormat("plan call %lld reproduces the warm-up's report digest",
                                       static_cast<long long>(call)));
  if (kept != nullptr) *kept = *std::move(report);
  return seconds;
}

/// Replays PlanHorizon's aggregation, scheduling and disaggregation steps
/// from outside on the same inputs, each under its own span.
void ReplayStages(const std::vector<core::FlexOffer>& offers,
                  const timeutil::TimeInterval& window, Tracer& tracer, RunResult& result) {
  const sim::EnterpriseParams params;
  std::vector<core::FlexOffer> fresh = offers;
  core::FlexOfferId next_id = 0;
  for (core::FlexOffer& o : fresh) {
    o.state = core::FlexOfferState::kOffered;
    o.schedule.reset();
    next_id = std::max(next_id, o.id);
  }
  ++next_id;
  const core::TimeSeries target = sim::MakeFlexibilityTarget(
      sim::MakeResProduction(window, params.energy), sim::MakeInflexibleDemand(window, params.energy));
  std::unordered_map<core::FlexOfferId, const core::FlexOffer*> by_id;
  for (const core::FlexOffer& o : fresh) by_id[o.id] = &o;
  for (int replay = 0; replay < kReplays; ++replay) {
    core::FlexOfferId id = next_id;
    core::AggregationResult aggregated;
    {
      Span span(tracer, "core.aggregate", replay);
      aggregated = core::Aggregator(params.aggregation).Aggregate(fresh, &id);
    }
    core::ScheduleResult plan;
    {
      Span span(tracer, "core.schedule", replay);
      plan = core::Scheduler(params.scheduler).Plan(aggregated.aggregates, target);
    }
    int64_t failures = 0;
    {
      Span span(tracer, "core.disaggregate", replay);
      for (const core::FlexOffer& aggregate : plan.offers) {
        if (aggregate.state != core::FlexOfferState::kAssigned || !aggregate.schedule) continue;
        std::vector<core::FlexOffer> members;
        members.reserve(aggregate.aggregated_from.size());
        for (core::FlexOfferId member : aggregate.aggregated_from) {
          members.push_back(*by_id.at(member));
        }
        if (!core::Disaggregate(aggregate, members).ok()) ++failures;
      }
    }
    result.Check(failures == 0, "replayed disaggregation succeeds");
  }
}

}  // namespace

void RunPlanDayAhead(const Options& options, Tracer& tracer, RunResult& result) {
  const std::unique_ptr<Week> week = MakeWeek(options.seed, kProsumers);
  const std::vector<core::FlexOffer>& offers = week->workload.offers;
  const double n = static_cast<double>(offers.size());

  // Set-up: warm-up plans; the first fixes the digest every later call
  // must reproduce.
  uint32_t digest = 0;
  std::vector<double> setup_s;
  sim::PlanningReport warm;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(PlanOnce(offers, week->window, -1 - i, tracer, result, &digest,
                               i == 0 ? &warm : nullptr));
  }

  auto timed_phase = [&](double seconds, int64_t first_call) {
    Samples plans;
    const Clock::time_point start = Clock::now();
    for (int64_t call = first_call; plans.size() < 3 || SecondsSince(start) < seconds; ++call) {
      plans.Add(PlanOnce(offers, week->window, call, tracer, result, &digest));
    }
    return plans;
  };
  const bool traced = tracer.enabled();
  Samples reference;
  if (traced) {
    tracer.set_enabled(false);
    reference = timed_phase(options.seconds, 1000);
    tracer.set_enabled(true);
  }
  const Samples plans = timed_phase(options.seconds, 0);
  result.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");

  result.EndToEnd("setup_s", Median(setup_s), "s");
  result.EndToEnd("throughput_per_s", n / plans.Median(), "1/s");
  result.EndToEnd("latency_p50_ms", plans.Median() * 1e3, "ms");
  result.Detail("offers", n);
  result.Detail("plan_s", plans.Median());
  result.Detail("plans", static_cast<double>(plans.size()));
  result.Detail("plan_max_s", plans.Quantile(1.0));
  result.Detail("aggregates_built", warm.aggregates_built);
  result.Detail("aggregates_assigned", warm.aggregates_assigned);

  if (traced) {
    ReplayStages(offers, week->window, tracer, result);
    const std::map<std::string, SpanTotals> spans = SummarizeSpans(tracer);
    auto median_of = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : Median(it->second.self_samples_s);
    };
    const double aggregate = median_of("core.aggregate");
    const double schedule = median_of("core.schedule");
    const double disaggregate = median_of("core.disaggregate");
    result.Layer("core.aggregate_s", aggregate, "s");
    result.Layer("core.schedule_s", schedule, "s");
    result.Layer("core.disaggregate_s", disaggregate, "s");
    result.Layer("core.aggregates_built", warm.aggregates_built, "count");
    result.Layer("core.aggregates_assigned", warm.aggregates_assigned, "count");
    result.Layer("sim.plan_unattributed_s", plans.Median() - aggregate - schedule - disaggregate,
                 "s");
    ReportOverhead(n / reference.Median(), n / plans.Median(), reference.Median(),
                   plans.Median(), result);
  }
}

}  // namespace flexbench
