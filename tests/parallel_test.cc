// Tests for the parallel execution subsystem (util/parallel.h) and for the
// determinism contract of its hot-path clients: aggregation, the planning
// run's disaggregation and raster replay must produce byte-identical output
// at FLEXVIS_THREADS=1 and FLEXVIS_THREADS=8.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregation.h"
#include "core/messages.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "render/display_list.h"
#include "render/incremental.h"
#include "render/raster_canvas.h"
#include "sim/enterprise.h"
#include "sim/workload.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flexvis {
namespace {

// Restores the environment-resolved thread count when a test exits.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { SetParallelThreadCount(0); }
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    SetParallelThreadCount(threads);
    std::vector<int> touched(10000, 0);
    ParallelFor(0, touched.size(), 64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++touched[i];
    });
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0),
              static_cast<int>(touched.size()))
        << "threads=" << threads;
  }
}

TEST(ParallelForTest, EmptyAndSingleChunkRanges) {
  ThreadCountGuard guard;
  SetParallelThreadCount(4);
  int calls = 0;
  ParallelFor(5, 5, 16, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  ParallelFor(0, 3, 100, [&](size_t begin, size_t end) {
    sum += static_cast<int>(end - begin);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelForTest, PoolStartupShutdownAndResize) {
  ThreadCountGuard guard;
  // Exercise repeated pool teardown/rebuild across different sizes.
  for (int threads : {2, 8, 2, 1, 4}) {
    SetParallelThreadCount(threads);
    EXPECT_EQ(ParallelThreadCount(), threads);
    std::atomic<size_t> count{0};
    ParallelFor(0, 1000, 10, [&](size_t begin, size_t end) { count += end - begin; });
    EXPECT_EQ(count.load(), 1000u) << "threads=" << threads;
  }
}

TEST(ParallelForTest, PropagatesExceptionsToCaller) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    EXPECT_THROW(
        ParallelFor(0, 1000, 8,
                    [](size_t begin, size_t) {
                      if (begin >= 504) throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error)
        << "threads=" << threads;
    // The pool must survive a throwing section and stay usable.
    std::atomic<int> ok{0};
    ParallelFor(0, 100, 10, [&](size_t, size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 10);
  }
}

TEST(ParallelForTest, SerialFallbackRunsInOrderOnCallerThread) {
  ThreadCountGuard guard;
  SetParallelThreadCount(1);
  EXPECT_EQ(ParallelThreadCount(), 1);
  std::vector<size_t> order;  // safe unguarded: serial path is single-threaded
  ParallelFor(0, 100, 30, [&](size_t begin, size_t) { order.push_back(begin); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 30, 60, 90}));
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard;
  SetParallelThreadCount(4);
  std::atomic<size_t> inner_total{0};
  ParallelFor(0, 16, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Workers report InParallelWorker(); their nested sections run inline.
      ParallelFor(0, 50, 7, [&](size_t b, size_t e) { inner_total += e - b; });
    }
  });
  EXPECT_EQ(inner_total.load(), 16u * 50u);
  EXPECT_FALSE(InParallelWorker());  // the caller itself is not a worker
}

TEST(ParallelReduceTest, FloatingPointFoldIsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(99);
  std::vector<double> values(100000);
  for (double& v : values) v = rng.Uniform(-1000.0, 1000.0);

  auto sum_with = [&](int threads) {
    SetParallelThreadCount(threads);
    return ParallelReduce<double>(
        0, values.size(), 1024, 0.0,
        [&](size_t begin, size_t end) {
          double s = 0.0;
          for (size_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](double acc, double chunk) { return acc + chunk; });
  };
  double serial = sum_with(1);
  double threaded = sum_with(8);
  // Bit equality, not tolerance: same chunks folded in the same order.
  EXPECT_EQ(serial, threaded);
}

// ---- Determinism of the parallelized hot paths --------------------------

std::vector<core::FlexOffer> MakeOffers(size_t count) {
  timeutil::TimePoint day = timeutil::TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0);
  Rng rng(4242);
  std::vector<core::FlexOffer> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    core::FlexOffer o;
    o.id = static_cast<core::FlexOfferId>(i + 1);
    o.prosumer = static_cast<core::ProsumerId>(i % 100 + 1);
    o.earliest_start = day + rng.UniformInt(0, 191) * timeutil::kMinutesPerSlice;
    o.latest_start = o.earliest_start + rng.UniformInt(0, 24) * timeutil::kMinutesPerSlice;
    o.creation_time = o.earliest_start - rng.UniformInt(4, 24) * 60;
    o.acceptance_deadline = o.creation_time + 60;
    o.assignment_deadline = o.creation_time + 120;
    int slices = static_cast<int>(rng.UniformInt(1, 8));
    for (int s = 0; s < slices; ++s) {
      double min = rng.Uniform(0.1, 1.5);
      o.profile.push_back(core::ProfileSlice{1, min, min + rng.Uniform(0.0, 1.5)});
    }
    out.push_back(std::move(o));
  }
  return out;
}

bool SameOffer(const core::FlexOffer& a, const core::FlexOffer& b) {
  if (a.id != b.id || !(a.earliest_start == b.earliest_start) ||
      !(a.latest_start == b.latest_start) || a.aggregated_from != b.aggregated_from ||
      a.profile.size() != b.profile.size()) {
    return false;
  }
  for (size_t i = 0; i < a.profile.size(); ++i) {
    if (a.profile[i].duration_slices != b.profile[i].duration_slices ||
        a.profile[i].min_energy_kwh != b.profile[i].min_energy_kwh ||
        a.profile[i].max_energy_kwh != b.profile[i].max_energy_kwh) {
      return false;
    }
  }
  return true;
}

TEST(ParallelDeterminismTest, AggregationIsIdenticalAtOneAndEightThreads) {
  ThreadCountGuard guard;
  std::vector<core::FlexOffer> offers = MakeOffers(5000);
  core::AggregationParams params;
  params.est_tolerance_minutes = 120;
  params.tft_tolerance_minutes = 120;
  params.max_group_size = 7;  // exercise the capped-group split too
  core::Aggregator aggregator(params);

  SetParallelThreadCount(1);
  core::FlexOfferId id1 = 1'000'000;
  core::AggregationResult serial = aggregator.Aggregate(offers, &id1);

  SetParallelThreadCount(8);
  core::FlexOfferId id8 = 1'000'000;
  core::AggregationResult threaded = aggregator.Aggregate(offers, &id8);

  EXPECT_EQ(id1, id8);
  ASSERT_EQ(serial.aggregates.size(), threaded.aggregates.size());
  ASSERT_EQ(serial.passthrough.size(), threaded.passthrough.size());
  for (size_t i = 0; i < serial.aggregates.size(); ++i) {
    EXPECT_TRUE(SameOffer(serial.aggregates[i], threaded.aggregates[i])) << "aggregate " << i;
  }
}

// Every byte of a planning report as comparable lines: each member's and
// aggregate's full wire form (state, schedule, doubles at %.17g), every
// series value, the counters, the settlement and the degraded stages.
std::vector<std::string> ReportLines(const sim::PlanningReport& report) {
  std::vector<std::string> lines;
  for (const core::FlexOffer& m : report.member_offers) {
    lines.push_back("member " + core::FlexOfferToJson(m).Dump());
  }
  for (const core::FlexOffer& a : report.aggregate_offers) {
    lines.push_back("aggregate " + core::FlexOfferToJson(a).Dump());
  }
  const std::pair<const char*, const core::TimeSeries*> series[] = {
      {"planned", &report.planned_flexible_load},
      {"realized", &report.realized_flexible_load},
      {"deviation", &report.deviation},
      {"traded", &report.settlement.traded_kwh},
      {"prices", &report.settlement.prices}};
  for (const auto& [name, ts] : series) {
    std::string line = StrFormat("%s %lld", name, static_cast<long long>(ts->start().minutes()));
    for (double v : ts->values()) line += StrFormat(" %.17g", v);
    lines.push_back(std::move(line));
  }
  lines.push_back(StrFormat("counts %d %d %d %d %zu", report.offers_in, report.aggregates_built,
                            report.aggregates_assigned, report.aggregates_rejected,
                            report.member_offers.size()));
  lines.push_back(StrFormat("imbalance %.17g %.17g", report.imbalance_before_kwh,
                            report.imbalance_after_kwh));
  const sim::Settlement& s = report.settlement;
  lines.push_back(StrFormat("settlement %.17g %.17g %.17g %.17g", s.spot_cost_eur,
                            s.imbalance_kwh, s.imbalance_cost_eur, s.total_cost_eur));
  for (const std::string& stage : report.degraded_stages) lines.push_back("degraded " + stage);
  return lines;
}

// PlanHorizon on a ~5k-offer week at 1 and at 8 threads; `arm` arms the
// run's private fault registry (seeded identically for both runs).
class ParallelPlanHorizonTest : public ::testing::Test {
 protected:
  ParallelPlanHorizonTest()
      : atlas_(geo::Atlas::MakeDenmark()), topology_(grid::GridTopology::MakeRadial(2, 2, 2, 3)) {
    const timeutil::TimePoint start = timeutil::TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0);
    sim::WorkloadParams params;
    params.seed = 2718;
    params.num_prosumers = 150;
    params.offers_per_prosumer = 35.0;
    params.horizon = timeutil::TimeInterval(start, start + 7 * timeutil::kMinutesPerDay);
    window_ = params.horizon;
    Result<sim::Workload> workload = sim::WorkloadGenerator(&atlas_, &topology_).Generate(params);
    EXPECT_TRUE(workload.ok()) << workload.status().ToString();
    if (workload.ok()) offers_ = std::move(workload->offers);
  }

  sim::PlanningReport Plan(int threads, const std::function<void(FaultRegistry&)>& arm) {
    SetParallelThreadCount(threads);
    FaultRegistry faults;
    faults.Seed(31337);
    arm(faults);
    sim::EnterpriseParams params;
    params.faults = &faults;
    Result<sim::PlanningReport> report = sim::Enterprise(params).PlanHorizon(offers_, window_);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *std::move(report) : sim::PlanningReport{};
  }

  void ExpectIdentical(const sim::PlanningReport& serial, const sim::PlanningReport& threaded) {
    const std::vector<std::string> a = ReportLines(serial);
    const std::vector<std::string> b = ReportLines(threaded);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "report line " << i;
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_;
  timeutil::TimeInterval window_;
  std::vector<core::FlexOffer> offers_;
};

TEST_F(ParallelPlanHorizonTest, PlainRunIsByteIdenticalAtOneAndEightThreads) {
  ThreadCountGuard guard;
  ASSERT_GT(offers_.size(), 3000u);
  auto clean = [](FaultRegistry&) {};
  const sim::PlanningReport serial = Plan(1, clean);
  const sim::PlanningReport threaded = Plan(8, clean);
  EXPECT_TRUE(serial.degraded_stages.empty());
  EXPECT_GT(serial.aggregates_assigned, 0);
  ExpectIdentical(serial, threaded);
}

TEST_F(ParallelPlanHorizonTest, DisaggregationFaultsAreByteIdenticalAtOneAndEightThreads) {
  ThreadCountGuard guard;
  auto flaky = [](FaultRegistry& faults) {
    FaultConfig config;
    config.probability = 0.5;
    faults.Arm("sim.enterprise.disaggregate", config);
  };
  const sim::PlanningReport serial = Plan(1, flaky);
  const sim::PlanningReport threaded = Plan(8, flaky);
  const sim::PlanningReport clean = Plan(1, [](FaultRegistry&) {});
  ASSERT_EQ(serial.degraded_stages.size(), 1u);
  EXPECT_EQ(serial.degraded_stages[0], "sim.enterprise.disaggregate");
  // Some aggregates were demoted, and some still disaggregated.
  EXPECT_LT(serial.aggregates_assigned, clean.aggregates_assigned);
  EXPECT_GT(serial.aggregates_assigned, 0);
  ExpectIdentical(serial, threaded);
}

TEST_F(ParallelPlanHorizonTest, DegradedAggregationIsByteIdenticalAtOneAndEightThreads) {
  ThreadCountGuard guard;
  auto down = [](FaultRegistry& faults) {
    FaultConfig config;
    config.always_fail = true;
    faults.Arm("sim.enterprise.aggregate", config);
  };
  const sim::PlanningReport serial = Plan(1, down);
  const sim::PlanningReport threaded = Plan(8, down);
  ASSERT_EQ(serial.degraded_stages.size(), 1u);
  EXPECT_EQ(serial.degraded_stages[0], "sim.enterprise.aggregate");
  // Every offer planned as its own unit.
  EXPECT_EQ(serial.aggregates_built, static_cast<int>(offers_.size()));
  EXPECT_EQ(serial.member_offers.size(), offers_.size());
  ExpectIdentical(serial, threaded);
}

render::DisplayList MakeScene() {
  using render::Color;
  using render::Point;
  using render::Rect;
  using render::Style;
  render::DisplayList list(400, 300);
  list.Clear(Color(250, 250, 250));
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    double x = rng.Uniform(0, 400), y = rng.Uniform(0, 300);
    switch (i % 5) {
      case 0:
        list.DrawRect(Rect{x, y, rng.Uniform(2, 40), rng.Uniform(2, 30)},
                      Style::FillStroke(Color(200, 30, 30), Color(0, 0, 0), 2.0));
        break;
      case 1:
        list.DrawLine(Point{x, y}, Point{x + rng.Uniform(-80, 80), y + rng.Uniform(-80, 80)},
                      Style::Stroke(Color(30, 30, 200), 3.0).WithDash({4.0, 2.0}));
        break;
      case 2:
        list.DrawCircle(Point{x, y}, rng.Uniform(2, 20), Style::Fill(Color(30, 160, 30)));
        break;
      case 3:
        list.DrawPolygon({Point{x, y}, Point{x + 20, y + 5}, Point{x + 8, y + 25}},
                         Style::FillStroke(Color(180, 120, 0), Color(40, 40, 40)));
        break;
      case 4:
        list.DrawPieSlice(Point{x, y}, 15.0, rng.Uniform(0, 360), rng.Uniform(10, 270),
                          Style::Fill(Color(90, 60, 150)));
        break;
    }
  }
  render::TextStyle text;
  text.size = 11.0;
  list.DrawText(Point{30, 40}, "flex-offers", text);
  render::TextStyle rotated = text;
  rotated.rotate_degrees = -90.0;
  list.DrawText(Point{200, 200}, "rotated label", rotated);
  list.PushClip(Rect{50, 50, 200, 120});
  list.DrawRect(Rect{0, 0, 400, 300}, render::Style::Fill(Color(0, 120, 200, 120)));
  list.PopClip();
  return list;
}

TEST(ParallelDeterminismTest, RasterReplayIsByteIdenticalAtOneAndEightThreads) {
  ThreadCountGuard guard;
  render::DisplayList scene = MakeScene();

  SetParallelThreadCount(1);
  render::RasterCanvas serial(400, 300);
  scene.ReplayAll(serial);

  SetParallelThreadCount(8);
  render::RasterCanvas threaded(400, 300);
  threaded.ReplayParallelAll(scene);

  EXPECT_EQ(serial.ToPpm(), threaded.ToPpm());
}

TEST(ParallelDeterminismTest, IncrementalStepsMatchSerialReplay) {
  ThreadCountGuard guard;
  render::DisplayList scene = MakeScene();

  SetParallelThreadCount(1);
  render::RasterCanvas serial(400, 300);
  scene.ReplayAll(serial);

  SetParallelThreadCount(8);
  render::RasterCanvas threaded(400, 300);
  render::IncrementalRenderer renderer(&scene, &threaded);
  size_t total = 0;
  while (!renderer.done()) total += renderer.Step(37);  // odd budget on purpose
  EXPECT_EQ(total, scene.size());
  EXPECT_EQ(serial.ToPpm(), threaded.ToPpm());
}

}  // namespace
}  // namespace flexvis
