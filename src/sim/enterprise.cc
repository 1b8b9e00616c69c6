#include "sim/enterprise.h"

#include <algorithm>
#include <cstdint>

#include "core/local_search.h"
#include "core/measures.h"
#include "sim/forecaster.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flexvis::sim {

using core::FlexOffer;
using core::TimeSeries;
using timeutil::kMinutesPerSlice;
using timeutil::TimeInterval;
using timeutil::TimePoint;

namespace {

/// Whether two aggregate sets list the same aggregates with the same members
/// in the same order: step 5 gathers a plan's members by their positions in
/// this run's aggregation, so a cached plan is reusable only then.
bool SameAggregates(const std::vector<FlexOffer>& a, const std::vector<FlexOffer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].id != b[k].id || a[k].aggregated_from != b[k].aggregated_from) return false;
  }
  return true;
}

}  // namespace

Result<PlanningReport> Enterprise::PlanHorizon(const std::vector<FlexOffer>& offers,
                                               const TimeInterval& window) const {
  if (window.empty()) {
    return InvalidArgumentError("planning window is empty");
  }
  PlanningReport report;
  report.window = window;
  report.offers_in = static_cast<int>(offers.size());
  FaultRegistry& faults =
      params_.faults != nullptr ? *params_.faults : FaultRegistry::Global();

  // 0. Resolve both strategy identities up front so a misconfigured name is
  //    a typed error before any planning work, never a degraded run.
  report.forecaster = EffectiveForecasterName(params_.forecaster);
  Result<std::unique_ptr<Forecaster>> forecaster =
      ForecasterRegistry::Global().Make(report.forecaster);
  if (!forecaster.ok()) return forecaster.status();
  report.bidding = EffectiveBiddingName(params_.market.bidding);
  {
    Result<std::unique_ptr<BiddingStrategy>> bidding =
        BiddingRegistry::Global().Make(report.bidding);
    if (!bidding.ok()) return bidding.status();
  }

  // 1. Forecast the uncontrollable sides. In forecast mode the plan targets
  //    the registry-selected forecaster's prediction of the inflexible
  //    demand built from synthetic history; otherwise it targets the actual
  //    curves directly. If the forecasting service is down
  //    (sim.enterprise.forecast), the plan degrades to targeting the actual
  //    demand curve — a worse plan on a real day-ahead horizon, never a
  //    failed one.
  report.res_production = MakeResProduction(window, params_.energy);
  report.inflexible_demand = MakeInflexibleDemand(window, params_.energy);
  report.planned_against_demand = report.inflexible_demand;
  if (params_.plan_on_forecast) {
    Status forecast_up =
        RetryFaultPointIn(faults, "sim.enterprise.forecast", DefaultRetryPolicy(),
                          []() -> Status { return OkStatus(); });
    if (forecast_up.ok()) {
      TimeInterval history_window(
          window.start - params_.forecast_history_days * timeutil::kMinutesPerDay,
          window.start);
      TimeSeries history = MakeInflexibleDemand(history_window, params_.energy);
      report.planned_against_demand = (*forecaster)->Forecast(
          history, static_cast<size_t>(window.duration_minutes() / kMinutesPerSlice));
      report.forecast_error =
          EvaluateForecast(report.planned_against_demand, report.inflexible_demand);
    } else {
      report.degraded_stages.push_back("sim.enterprise.forecast");
    }
  }
  report.target = MakeFlexibilityTarget(report.res_production, report.planned_against_demand);

  // 2. Reset lifecycle state; planning decides it anew.
  std::vector<FlexOffer> fresh = offers;
  for (FlexOffer& o : fresh) {
    o.state = core::FlexOfferState::kOffered;
    o.schedule.reset();
  }

  // 3. Aggregate. An aggregation-service outage (sim.enterprise.aggregate)
  //    degrades to scheduling the raw offers individually — more work for
  //    the scheduler and a worse reduction ratio, but the horizon still
  //    plans.
  core::FlexOfferId next_id = 0;
  for (const FlexOffer& o : fresh) next_id = std::max(next_id, o.id);
  ++next_id;
  core::AggregationResult agg;
  Status aggregate_up =
      RetryFaultPointIn(faults, "sim.enterprise.aggregate", DefaultRetryPolicy(),
                        []() -> Status { return OkStatus(); });
  if (aggregate_up.ok()) {
    core::Aggregator aggregator(params_.aggregation);
    agg = aggregator.Aggregate(fresh, &next_id);
  } else {
    agg.aggregates = fresh;  // every offer schedules as its own unit
    agg.member_begin.assign(fresh.size() + 1, 0);
    report.degraded_stages.push_back("sim.enterprise.aggregate");
  }
  report.aggregates_built = static_cast<int>(agg.aggregates.size());

  // 4. Schedule the aggregates against the RES surplus. A scheduler outage
  //    (sim.enterprise.schedule) falls back to the last accepted plan when
  //    one exists for this exact window and aggregate set, and to the empty
  //    plan otherwise; either way the unserved imbalance is settled at the
  //    penalty fee in step 8 instead of crashing the horizon.
  core::ScheduleResult plan;
  Status scheduler_up =
      RetryFaultPointIn(faults, "sim.enterprise.schedule", DefaultRetryPolicy(),
                        []() -> Status { return OkStatus(); });
  if (scheduler_up.ok()) {
    core::Scheduler scheduler(params_.scheduler);
    plan = scheduler.Plan(agg.aggregates, report.target);
    std::lock_guard<std::mutex> lock(plan_mutex_);
    last_accepted_plan_ = CachedPlan{window, plan};
  } else {
    report.degraded_stages.push_back("sim.enterprise.schedule");
    bool reused = false;
    {
      std::lock_guard<std::mutex> lock(plan_mutex_);
      if (last_accepted_plan_.has_value() && last_accepted_plan_->window == window &&
          SameAggregates(last_accepted_plan_->plan.offers, agg.aggregates)) {
        plan = last_accepted_plan_->plan;
        reused = true;
      }
    }
    if (!reused) {
      // Empty plan: reject everything, use no flexibility. The full target
      // imbalance remains and is booked as the paper's imbalance fee.
      plan.offers = agg.aggregates;
      for (FlexOffer& o : plan.offers) {
        o.state = core::FlexOfferState::kRejected;
        o.schedule.reset();
      }
      plan.planned_load = TimeSeries(window.start,
                                     static_cast<size_t>(window.duration_minutes() /
                                                         kMinutesPerSlice));
      plan.imbalance_before_kwh = report.target.AbsTotal();
      plan.imbalance_after_kwh = plan.imbalance_before_kwh;
    }
  }
  report.imbalance_before_kwh = plan.imbalance_before_kwh;
  report.imbalance_after_kwh = plan.imbalance_after_kwh;
  report.aggregate_offers = std::move(plan.offers);

  // 4b. Optional local-search refinement of the aggregate plan.
  if (params_.local_search_iterations > 0) {
    core::LocalSearchParams ls;
    ls.iterations = params_.local_search_iterations;
    ls.seed = params_.seed ^ 0xA5A5A5A5ULL;
    core::LocalSearchResult refined =
        core::LocalSearchImprover(ls).Improve(report.aggregate_offers, report.target);
    report.aggregate_offers = std::move(refined.offers);
    report.imbalance_after_kwh = refined.imbalance_after_kwh;
  }

  // 5. Disaggregate each assigned aggregate back onto its members. A
  //    disaggregation fault (sim.enterprise.disaggregate) demotes only the
  //    affected aggregate to rejected — its members run nothing, the lost
  //    flexibility surfaces as imbalance — rather than failing the horizon.
  //    One serial pass in aggregate order draws the faults and moves each
  //    member once, by its aggregation position, from `fresh` into its output
  //    slot; the kernel then schedules the disjoint per-aggregate slot runs in
  //    parallel.
  const size_t num_aggregates = report.aggregate_offers.size();
  report.member_offers.reserve(fresh.size());  // at most one slot per offer
  std::vector<size_t> slot_begin(num_aggregates + 1, 0);
  std::vector<uint8_t> schedule_members(num_aggregates, 0);
  bool disaggregate_degraded = false;
  for (size_t k = 0; k < num_aggregates; ++k) {
    const FlexOffer& aggregate = report.aggregate_offers[k];
    const std::vector<core::FlexOfferId>& listed = aggregate.aggregated_from;
    const uint32_t* positions = agg.member_index.data() + agg.member_begin[k];
    const size_t count = agg.member_begin[k + 1] - agg.member_begin[k];
    for (size_t j = 0; j < listed.size(); ++j) {
      if (j >= count || fresh[positions[j]].id != listed[j]) {
        return InternalError(StrFormat("aggregate member %lld not found",
                                       static_cast<long long>(listed[j])));
      }
    }
    bool assigned = aggregate.state == core::FlexOfferState::kAssigned &&
                    aggregate.schedule.has_value();
    if (assigned) {
      Status disaggregate_up = RetryFaultPointIn(
          faults, "sim.enterprise.disaggregate", DefaultRetryPolicy(),
          []() -> Status { return OkStatus(); });
      if (!disaggregate_up.ok()) {
        assigned = false;
        disaggregate_degraded = true;
      }
    }
    if (assigned) {
      ++report.aggregates_assigned;
    } else {
      ++report.aggregates_rejected;
    }
    slot_begin[k] = report.member_offers.size();
    if (listed.empty()) {
      // Raw pass-through unit (aggregation degraded): it is its own member.
      report.member_offers.push_back(aggregate);
    } else {
      for (size_t j = 0; j < listed.size(); ++j) {
        report.member_offers.push_back(std::move(fresh[positions[j]]));
      }
      schedule_members[k] = assigned;
    }
    if (!assigned) {
      for (size_t m = slot_begin[k]; m < report.member_offers.size(); ++m) {
        report.member_offers[m].state = core::FlexOfferState::kRejected;
        report.member_offers[m].schedule.reset();
      }
    }
  }
  slot_begin[num_aggregates] = report.member_offers.size();
  if (disaggregate_degraded) {
    report.degraded_stages.push_back("sim.enterprise.disaggregate");
  }
  std::vector<Status> disaggregated(num_aggregates);
  ParallelFor(0, num_aggregates, 16, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      if (!schedule_members[k]) continue;
      disaggregated[k] = core::DisaggregateInPlace(report.aggregate_offers[k],
                                                   report.member_offers.data() + slot_begin[k],
                                                   slot_begin[k + 1] - slot_begin[k]);
    }
  });
  for (const Status& status : disaggregated) {
    if (!status.ok()) return status;
  }

  // 6. Planned flexible load from member schedules (must equal the
  //    aggregate-level plan by the disaggregation invariant).
  report.planned_flexible_load = core::PlannedLoad(report.member_offers);

  // 7. Simulate the physical realization.
  Rng rng(params_.seed);
  TimeSeries realized(report.planned_flexible_load.start(),
                      report.planned_flexible_load.size());
  for (const FlexOffer& m : report.member_offers) {
    if (!m.schedule.has_value()) continue;
    const double sign = m.direction == core::Direction::kConsumption ? 1.0 : -1.0;
    // A non-compliant prosumer ignores the assigned start and runs at its
    // earliest start (with the assigned energies); everyone else executes
    // the schedule with multiplicative metering/behaviour noise.
    const bool compliant = !rng.Bernoulli(params_.non_compliance);
    TimePoint start = compliant ? m.schedule->start : m.earliest_start;
    for (size_t i = 0; i < m.schedule->energy_kwh.size(); ++i) {
      double e = m.schedule->energy_kwh[i] *
                 std::max(0.0, 1.0 + rng.Normal(0.0, params_.execution_noise));
      realized.AddAt(start + static_cast<int64_t>(i) * kMinutesPerSlice, sign * e);
    }
  }
  report.realized_flexible_load = realized;

  // 8. Deviation and settlement. The enterprise trades the slice-wise
  //    residual (inflexible + planned flexible - RES) on the spot market and
  //    pays the imbalance fee on deviations.
  report.deviation = realized;
  report.deviation.Subtract(report.planned_flexible_load);

  TimeSeries residual = report.inflexible_demand;
  residual.Add(report.planned_flexible_load.Slice(window));
  residual.Subtract(report.res_production);

  MarketParams market_params = params_.market;
  if (market_params.faults == nullptr) market_params.faults = params_.faults;
  Market market(market_params);
  TimeSeries scarcity = residual;
  scarcity.Clamp(0.0, 1e18);
  TimeSeries prices = market.MakePrices(window, scarcity);
  Result<Settlement> settled = market.TrySettle(residual, report.deviation, prices);
  if (settled.ok()) {
    report.settlement = *std::move(settled);
  } else {
    // Spot market unreachable: nothing trades, and the whole residual is
    // settled at the imbalance penalty — the fee the paper warns about.
    report.settlement = market.SettleAllAsImbalance(residual, report.deviation, prices);
    report.degraded_stages.push_back("sim.market.bid");
  }
  return report;
}

Result<PlanningReport> Enterprise::RunDayAhead(dw::Database& db,
                                               const TimeInterval& window) const {
  dw::FlexOfferFilter filter;
  filter.window = window;
  filter.aggregates = dw::FlexOfferFilter::AggregateFilter::kOnlyRaw;
  // Collection is the pipeline's entry: without offers there is nothing to
  // degrade to, so an exhausted sim.enterprise.collect surfaces typed.
  FaultRegistry& faults =
      params_.faults != nullptr ? *params_.faults : FaultRegistry::Global();
  std::vector<FlexOffer> collected;
  FLEXVIS_RETURN_IF_ERROR(RetryFaultPointIn(
      faults, "sim.enterprise.collect", DefaultRetryPolicy(), [&]() -> Status {
        Result<std::vector<FlexOffer>> offers = db.SelectFlexOffers(filter);
        if (!offers.ok()) return offers.status();
        collected = *std::move(offers);
        return OkStatus();
      }));
  Result<std::vector<FlexOffer>> offers(std::move(collected));

  Result<PlanningReport> report = PlanHorizon(*offers, window);
  if (!report.ok()) return report.status();

  for (const FlexOffer& m : report->member_offers) {
    FLEXVIS_RETURN_IF_ERROR(db.UpdateFlexOffer(m));
  }
  FLEXVIS_RETURN_IF_ERROR(db.LoadFlexOffers(report->aggregate_offers));
  return report;
}

}  // namespace flexvis::sim
