// flexvis — command-line front end over the library, composing the full
// stack through the persisted warehouse format (dw::SaveDatabase /
// LoadDatabase):
//
//   flexvis generate --out DIR [--prosumers N] [--offers-per-prosumer X]
//                    [--seed S] [--day YYYY-MM-DD]
//       build a synthetic world and write the warehouse directory
//
//   flexvis plan --db DIR [--day YYYY-MM-DD] [--forecast] [--local-search N]
//       run the day-ahead enterprise loop, write schedules back, print the
//       report, and save the updated warehouse. With FLEXVIS_SHARDS=N (N>1)
//       the horizon is planned across N enterprise shards instead and the
//       merged report printed; sharded plans are not written back.
//
//   flexvis render --db DIR --view basic|profile|map|schematic|dashboard
//                  --out FILE.svg|.png|.ppm [--day YYYY-MM-DD]
//       render a view of the warehouse's offers to a file
//
//   flexvis mdx --db DIR "SELECT ... FROM [FlexOffers] ..."
//       evaluate an MDX query and print the pivot table
//
//   flexvis alerts --db DIR [--day YYYY-MM-DD]
//       plan (without write-back) and print shortage/over-capacity alerts
//       with drill-downs
//
//   flexvis stats --db DIR
//       print warehouse summary statistics
//
// Every command exits 0 on success and prints errors to stderr otherwise.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "dw/persistence.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "olap/cube.h"
#include "olap/mdx.h"
#include "render/png.h"
#include "render/raster_canvas.h"
#include "render/svg_canvas.h"
#include "sim/alerts.h"
#include "sim/coordinator.h"
#include "sim/enterprise.h"
#include "sim/workload.h"
#include "util/strings.h"
#include "viz/basic_view.h"
#include "viz/dashboard_view.h"
#include "viz/map_view.h"
#include "viz/profile_view.h"
#include "viz/schematic_view.h"

using namespace flexvis;
using timeutil::TimeInterval;
using timeutil::TimePoint;

namespace {

// ---- Tiny flag parser ----------------------------------------------------------

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;  // --key value or --key (="")

  bool Has(const std::string& key) const { return flags.count(key) != 0; }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return std::atoll(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return std::atof(it->second.c_str());
  }
};

Args ParseArgs(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    std::string token = argv[i];
    if (StartsWith(token, "--")) {
      std::string key = token.substr(2);
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "";
      }
    } else {
      args.positional.push_back(std::move(token));
    }
  }
  return args;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: flexvis <command> [flags]\n"
               "commands: generate, plan, render, mdx, alerts, stats\n"
               "see the header of tools/flexvis_cli.cc for details\n");
  return 2;
}

Result<TimePoint> ParseDay(const std::string& text) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
    return InvalidArgumentError(StrFormat("cannot parse day '%s'", text.c_str()));
  }
  return TimePoint::FromCalendar(y, m, d, 0, 0);
}

TimeInterval DayWindow(const Args& args) {
  TimePoint day = TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0);
  if (args.Has("day")) {
    Result<TimePoint> parsed = ParseDay(args.Get("day"));
    if (parsed.ok()) day = *parsed;
  }
  return TimeInterval(day, day + timeutil::kMinutesPerDay);
}

// ---- Commands ----------------------------------------------------------------

int CmdGenerate(const Args& args) {
  std::string out = args.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out DIR is required\n");
    return 2;
  }
  geo::Atlas atlas = geo::Atlas::MakeDenmark();
  grid::GridTopology topology = grid::GridTopology::MakeRadial(3, 2, 2, 4);
  dw::Database db;
  Status status = atlas.RegisterWithDatabase(db);
  if (status.ok()) status = topology.RegisterWithDatabase(db);
  if (!status.ok()) return Fail(status);

  sim::WorkloadGenerator generator(&atlas, &topology);
  sim::WorkloadParams params;
  params.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  params.num_prosumers = static_cast<int>(args.GetInt("prosumers", 200));
  params.offers_per_prosumer = args.GetDouble("offers-per-prosumer", 5.0);
  params.horizon = DayWindow(args);
  Result<sim::Workload> generated = generator.Generate(params);
  if (!generated.ok()) return Fail(generated.status());
  sim::Workload workload = *std::move(generated);
  status = sim::WorkloadGenerator::LoadIntoDatabase(workload, db);
  if (!status.ok()) return Fail(status);
  status = dw::SaveDatabase(db, out);
  if (!status.ok()) return Fail(status);
  std::printf("generated %zu prosumers, %zu flex-offers for %s -> %s\n",
              workload.prosumers.size(), workload.offers.size(),
              params.horizon.start.ToString().c_str(), out.c_str());
  return 0;
}

int CmdPlan(const Args& args) {
  std::string dir = args.Get("db");
  if (dir.empty()) {
    std::fprintf(stderr, "plan: --db DIR is required\n");
    return 2;
  }
  Result<dw::Database> db = dw::LoadDatabase(dir);
  if (!db.ok()) return Fail(db.status());

  sim::EnterpriseParams params;
  params.plan_on_forecast = args.Has("forecast");
  params.local_search_iterations = static_cast<int>(args.GetInt("local-search", 0));
  // Named strategies (README "Strategies & scenarios"): empty falls back to
  // the defaults; unknown names fail typed from PlanHorizon.
  params.forecaster = args.Get("forecaster");
  params.market.bidding = args.Get("bidding");

  // FLEXVIS_SHARDS=N partitions the prosumer population across N enterprise
  // shards (README "Multi-enterprise sharding"). The merged plan is printed
  // but not written back: per-shard schedules belong to per-shard
  // warehouses (dw::SaveDatabaseSharded), not this single one.
  Result<int> shards = sim::ShardsFromEnv(1);
  if (!shards.ok()) return Fail(shards.status());
  if (*shards > 1) {
    Result<std::vector<core::FlexOffer>> offers =
        db->SelectFlexOffers(dw::FlexOfferFilter{});
    if (!offers.ok()) return Fail(offers.status());
    Result<sim::MergedPlanningReport> merged = sim::PlanHorizonSharded(
        params, *shards, sim::ShardPolicy::kHash, *offers, DayWindow(args));
    if (!merged.ok()) return Fail(merged.status());
    std::printf("enterprise shards     %d\n", merged->num_shards);
    std::printf("offers planned        %d\n", merged->global.offers_in);
    std::printf("aggregates            %d (assigned %d, rejected %d)\n",
                merged->global.aggregates_built, merged->global.aggregates_assigned,
                merged->global.aggregates_rejected);
    std::printf("surplus imbalance     %.0f -> %.0f kWh\n",
                merged->global.imbalance_before_kwh, merged->global.imbalance_after_kwh);
    std::printf("settlement            %.2f EUR (imbalance fee %.2f EUR)\n",
                merged->global.settlement.total_cost_eur,
                merged->global.settlement.imbalance_cost_eur);
    std::printf("warehouse unchanged   sharded plans are not written back\n");
    return 0;
  }

  sim::Enterprise enterprise(params);
  Result<sim::PlanningReport> report = enterprise.RunDayAhead(*db, DayWindow(args));
  if (!report.ok()) return Fail(report.status());

  std::printf("offers planned        %d\n", report->offers_in);
  std::printf("aggregates            %d (assigned %d, rejected %d)\n",
              report->aggregates_built, report->aggregates_assigned,
              report->aggregates_rejected);
  std::printf("planned on            %s demand\n",
              params.plan_on_forecast ? "forecast" : "actual");
  std::printf("strategies            forecaster=%s bidding=%s\n",
              report->forecaster.c_str(), report->bidding.c_str());
  std::printf("surplus imbalance     %.0f -> %.0f kWh\n", report->imbalance_before_kwh,
              report->imbalance_after_kwh);
  std::printf("plan deviation        %.0f kWh\n", report->deviation.AbsTotal());
  std::printf("settlement            %.2f EUR (imbalance fee %.2f EUR)\n",
              report->settlement.total_cost_eur, report->settlement.imbalance_cost_eur);
  Status status = dw::SaveDatabase(*db, dir);
  if (!status.ok()) return Fail(status);
  std::printf("warehouse updated     %s\n", dir.c_str());
  return 0;
}

int CmdRender(const Args& args) {
  std::string dir = args.Get("db");
  std::string view = args.Get("view", "basic");
  std::string out = args.Get("out");
  if (dir.empty() || out.empty()) {
    std::fprintf(stderr, "render: --db DIR and --out FILE are required\n");
    return 2;
  }
  Result<dw::Database> db = dw::LoadDatabase(dir);
  if (!db.ok()) return Fail(db.status());
  Result<std::vector<core::FlexOffer>> offers = db->SelectFlexOffers(dw::FlexOfferFilter{});
  if (!offers.ok()) return Fail(offers.status());

  std::unique_ptr<render::DisplayList> scene;
  if (view == "basic") {
    scene = std::move(viz::RenderBasicView(*offers, viz::BasicViewOptions{}).scene);
  } else if (view == "profile") {
    scene = std::move(viz::RenderProfileView(*offers, viz::ProfileViewOptions{}).scene);
  } else if (view == "map") {
    geo::Atlas atlas = geo::Atlas::MakeDenmark();
    scene = std::move(viz::RenderMapView(*offers, atlas, viz::MapViewOptions{}).scene);
  } else if (view == "schematic") {
    grid::GridTopology topology = grid::GridTopology::MakeRadial(3, 2, 2, 4);
    scene = std::move(
        viz::RenderSchematicView(*offers, topology, viz::SchematicViewOptions{}).scene);
  } else if (view == "dashboard") {
    scene = std::move(viz::RenderDashboardView(*offers, viz::DashboardOptions{}).scene);
  } else {
    std::fprintf(stderr, "render: unknown view '%s'\n", view.c_str());
    return 2;
  }

  Status status;
  if (EndsWith(out, ".svg")) {
    render::SvgCanvas svg(scene->width(), scene->height());
    scene->ReplayAll(svg);
    status = svg.WriteToFile(out);
  } else if (EndsWith(out, ".png") || EndsWith(out, ".ppm")) {
    render::RasterCanvas raster(static_cast<int>(scene->width()),
                                static_cast<int>(scene->height()));
    scene->ReplayAll(raster);
    status = EndsWith(out, ".png") ? render::WritePngFile(raster, out)
                                   : raster.WriteToFile(out);
  } else {
    std::fprintf(stderr, "render: --out must end in .svg, .png, or .ppm\n");
    return 2;
  }
  if (!status.ok()) return Fail(status);
  std::printf("rendered %s view of %zu offers -> %s\n", view.c_str(), offers->size(),
              out.c_str());
  return 0;
}

int CmdMdx(const Args& args) {
  std::string dir = args.Get("db");
  if (dir.empty() || args.positional.empty()) {
    std::fprintf(stderr, "mdx: --db DIR and a query string are required\n");
    return 2;
  }
  Result<dw::Database> db = dw::LoadDatabase(dir);
  if (!db.ok()) return Fail(db.status());
  olap::Cube cube(&*db);
  Status status = cube.AddStandardDimensions();
  if (!status.ok()) return Fail(status);
  Result<olap::CubeQuery> query = olap::ParseMdx(args.positional[0], cube);
  if (!query.ok()) return Fail(query.status());
  Result<olap::PivotResult> pivot = cube.Evaluate(*query);
  if (!pivot.ok()) return Fail(pivot.status());
  std::printf("%s", pivot->ToText().c_str());
  return 0;
}

int CmdAlerts(const Args& args) {
  std::string dir = args.Get("db");
  if (dir.empty()) {
    std::fprintf(stderr, "alerts: --db DIR is required\n");
    return 2;
  }
  Result<dw::Database> db = dw::LoadDatabase(dir);
  if (!db.ok()) return Fail(db.status());
  dw::FlexOfferFilter raw_only;
  raw_only.aggregates = dw::FlexOfferFilter::AggregateFilter::kOnlyRaw;
  Result<std::vector<core::FlexOffer>> offers = db->SelectFlexOffers(raw_only);
  if (!offers.ok()) return Fail(offers.status());

  sim::Enterprise enterprise;
  Result<sim::PlanningReport> report = enterprise.PlanHorizon(*offers, DayWindow(args));
  if (!report.ok()) return Fail(report.status());

  sim::AlertParams params;
  params.shortage_threshold_kwh = args.GetDouble("threshold", 40.0);
  params.overcapacity_threshold_kwh = params.shortage_threshold_kwh;
  std::vector<sim::Alert> alerts = sim::AlertEngine(params).Scan(*report);
  std::printf("%zu alert(s)\n", alerts.size());
  for (const sim::Alert& alert : alerts) {
    std::printf("[%-14s] sev %.2f  %s\n", std::string(sim::AlertKindName(alert.kind)).c_str(),
                alert.severity, alert.message.c_str());
    Result<sim::AlertDrillDown> drill = sim::DrillDownAlert(alert, *db, 3);
    if (drill.ok()) {
      for (core::FlexOfferId id : drill->top_contributors) {
        std::printf("    contributor: offer %lld\n", static_cast<long long>(id));
      }
    }
  }
  return 0;
}

int CmdStats(const Args& args) {
  std::string dir = args.Get("db");
  if (dir.empty()) {
    std::fprintf(stderr, "stats: --db DIR is required\n");
    return 2;
  }
  Result<dw::Database> db = dw::LoadDatabase(dir);
  if (!db.ok()) return Fail(db.status());
  Result<std::vector<core::FlexOffer>> offers = db->SelectFlexOffers(dw::FlexOfferFilter{});
  if (!offers.ok()) return Fail(offers.status());
  core::StateCounts counts = core::CountByState(*offers);
  core::BalancingPotential bp = core::ComputeBalancingPotential(*offers);
  std::printf("prosumers            %zu\n", db->prosumers().size());
  std::printf("regions              %zu\n", db->regions().size());
  std::printf("grid nodes           %zu\n", db->grid_nodes().size());
  std::printf("flex-offers          %zu\n", offers->size());
  std::printf("  offered            %lld\n",
              static_cast<long long>(counts[core::FlexOfferState::kOffered]));
  std::printf("  accepted           %lld\n",
              static_cast<long long>(counts[core::FlexOfferState::kAccepted]));
  std::printf("  assigned           %lld\n",
              static_cast<long long>(counts[core::FlexOfferState::kAssigned]));
  std::printf("  rejected           %lld\n",
              static_cast<long long>(counts[core::FlexOfferState::kRejected]));
  std::printf("scheduled energy     %.0f kWh\n", core::TotalScheduledEnergyKwh(*offers));
  std::printf("balancing potential  %.3f\n", bp.potential);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (Status faults = sim::InstallFaultsFromEnv(); !faults.ok()) {
    std::fprintf(stderr, "%s\n", faults.ToString().c_str());
    return 1;
  }
  std::string command = argv[1];
  Args args = ParseArgs(argc, argv, 2);
  if (command == "generate") return CmdGenerate(args);
  if (command == "plan") return CmdPlan(args);
  if (command == "render") return CmdRender(args);
  if (command == "mdx") return CmdMdx(args);
  if (command == "alerts") return CmdAlerts(args);
  if (command == "stats") return CmdStats(args);
  return Usage();
}
