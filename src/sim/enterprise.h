#ifndef FLEXVIS_SIM_ENTERPRISE_H_
#define FLEXVIS_SIM_ENTERPRISE_H_

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/scheduler.h"
#include "dw/database.h"
#include "sim/energy_models.h"
#include "sim/forecaster.h"
#include "sim/market.h"
#include "util/status.h"

namespace flexvis {
class FaultRegistry;
}

namespace flexvis::sim {

/// Configuration of the MIRABEL enterprise planning loop (Section 2 of the
/// paper: collect -> forecast -> aggregate -> schedule -> trade ->
/// disaggregate -> settle).
struct EnterpriseParams {
  core::AggregationParams aggregation;
  core::SchedulerParams scheduler;
  MarketParams market;
  EnergyModelParams energy;
  /// Relative noise applied to executed energies when simulating the
  /// physical realization (prosumers not following the plan exactly).
  double execution_noise = 0.05;
  /// Probability that a prosumer ignores its assignment and runs at its
  /// earliest start instead.
  double non_compliance = 0.03;
  /// When true, the plan targets a *forecast* of the inflexible demand
  /// (built from `forecast_history_days` of synthetic history) rather than
  /// the actual curve; settlement still uses the actual demand, so the
  /// forecast error surfaces as extra imbalance — the real operating mode of
  /// a day-ahead enterprise.
  bool plan_on_forecast = false;
  int forecast_history_days = 14;
  /// Named forecaster from ForecasterRegistry used when plan_on_forecast is
  /// set; empty selects kDefaultForecasterName ("holt-winters", the
  /// pre-registry hardwired model, byte-identical). $FLEXVIS_FORECASTER
  /// overrides at resolution time; an unknown name is a typed
  /// kInvalidArgument from PlanHorizon naming the registered options.
  std::string forecaster;
  /// Local-search refinement iterations applied to the aggregate plan after
  /// the greedy pass (0 = off); stands in for the evolutionary scheduler of
  /// Tušar et al. the paper cites.
  int local_search_iterations = 0;
  uint64_t seed = 2013;
  /// Fault registry the pipeline's sim.enterprise.* seams consult; nullptr
  /// means FaultRegistry::Global() (the historical behaviour). Also forwarded
  /// to the market's sim.market.bid seam unless `market.faults` is set
  /// explicitly. The sharded coordinator points each shard's enterprise at
  /// its own registry so no process-wide singleton sits on the planning
  /// path. Runtime wiring only: never serialized.
  FaultRegistry* faults = nullptr;
};

/// Everything one planning run produces; the dashboards and Fig. 1 feed on
/// these series.
struct PlanningReport {
  timeutil::TimeInterval window;

  core::TimeSeries res_production;
  core::TimeSeries inflexible_demand;
  /// The demand curve the plan targeted: equals inflexible_demand unless
  /// plan_on_forecast is set, in which case it is the forecast.
  core::TimeSeries planned_against_demand;
  /// RES surplus the flexible portfolio should absorb (signed).
  core::TimeSeries target;
  /// Signed planned flexible load (consumption positive).
  core::TimeSeries planned_flexible_load;
  /// Simulated physical realization of the flexible load.
  core::TimeSeries realized_flexible_load;
  /// realized - planned per slice.
  core::TimeSeries deviation;

  int offers_in = 0;
  int aggregates_built = 0;
  int aggregates_assigned = 0;
  int aggregates_rejected = 0;
  double imbalance_before_kwh = 0.0;
  double imbalance_after_kwh = 0.0;

  /// Member-level offers with their disaggregated schedules (and rejected
  /// members of rejected aggregates).
  std::vector<core::FlexOffer> member_offers;
  /// The aggregates as scheduled.
  std::vector<core::FlexOffer> aggregate_offers;

  Settlement settlement;

  /// Resolved strategy identities this run used (after the environment
  /// overrides): the ForecasterRegistry name (recorded even when
  /// plan_on_forecast is off — it names what *would* forecast) and the
  /// BiddingRegistry name the settlement dispatched to.
  std::string forecaster;
  std::string bidding;
  /// Accuracy of the demand forecast against the realized inflexible demand
  /// over the window. slices == 0 (all-zero errors) when the run did not
  /// plan on a forecast or the forecasting stage degraded.
  ForecastError forecast_error;

  /// Injection points whose faults this run absorbed by degrading instead of
  /// failing (e.g. "sim.enterprise.forecast" fell back to planning on the
  /// actual demand curve, "sim.market.bid" settled everything at the
  /// imbalance fee). Empty on a clean run. Dashboards and the fault-matrix
  /// test read this to distinguish degraded from nominal output.
  std::vector<std::string> degraded_stages;
};

/// The planning and control engine of a MIRABEL enterprise.
class Enterprise {
 public:
  explicit Enterprise(EnterpriseParams params) : params_(params) {}
  Enterprise() : Enterprise(EnterpriseParams{}) {}

  const EnterpriseParams& params() const { return params_; }

  /// Plans `offers` for `window`: builds the RES/demand curves, aggregates,
  /// schedules aggregates against the RES surplus, disaggregates schedules
  /// to members, simulates execution, and settles on the market. Offers'
  /// prior states are ignored (a planning run decides them anew).
  Result<PlanningReport> PlanHorizon(const std::vector<core::FlexOffer>& offers,
                                     const timeutil::TimeInterval& window) const;

  /// Convenience: selects raw offers overlapping `window` from `db`, runs
  /// PlanHorizon, writes member states/schedules back, and loads the
  /// produced aggregates into the DW.
  Result<PlanningReport> RunDayAhead(dw::Database& db,
                                     const timeutil::TimeInterval& window) const;

 private:
  /// The last accepted aggregate plan, kept so a scheduler outage can fall
  /// back to it (the paper's enterprise keeps trading yesterday's plan and
  /// books the imbalance fee rather than going dark). Reused only when the
  /// outage run targets the same window and the same aggregate set (ids and
  /// member lists); otherwise the fallback is the empty plan (every aggregate
  /// rejected).
  struct CachedPlan {
    timeutil::TimeInterval window;
    core::ScheduleResult plan;
  };

  EnterpriseParams params_;
  /// Guarded by plan_mutex_; mutable because PlanHorizon is logically const
  /// (the cache only changes which *fallback* a degraded run uses).
  mutable std::mutex plan_mutex_;
  mutable std::optional<CachedPlan> last_accepted_plan_;
};

}  // namespace flexvis::sim

#endif  // FLEXVIS_SIM_ENTERPRISE_H_
