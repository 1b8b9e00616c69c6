// Byte-identity of the single-pass text formatting against snprintf.
//
// StrFormat formats into a stack buffer and falls back to the heap only for
// long outputs; FormatDouble, TimePoint::ToString, JSON numbers and
// core::Describe append digits with std::to_chars. Each is compared here
// with the printf formulation it replaced, on the edges where the two could
// differ: buffer boundaries, signed zeros, NaN and infinities, huge values,
// and calendar years outside 1000..9999.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/flex_offer.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "sim/workload.h"
#include "time/time_point.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flexvis {
namespace {

using timeutil::TimePoint;

template <typename... Args>
std::string Snprintf(const char* format, Args... args) {
  std::vector<char> buffer(8192);
  const int n = std::snprintf(buffer.data(), buffer.size(), format, args...);
  return std::string(buffer.data(), static_cast<size_t>(n));
}

std::string ReferenceFormatDouble(double value, int digits) {
  std::string out = Snprintf("%.*f", digits, value);
  if (out.find('.') == std::string::npos) return out;
  size_t last = out.find_last_not_of('0');
  if (out[last] == '.') --last;
  out.erase(last + 1);
  return out;
}

std::string ReferenceToString(TimePoint t) {
  timeutil::CalendarTime c = t.ToCalendar();
  return Snprintf("%04d-%02d-%02d %02d:%02d", c.year, c.month, c.day, c.hour, c.minute);
}

std::string ReferenceDescribe(const core::FlexOffer& offer) {
  std::string out = Snprintf(
      "FlexOffer %lld [%s, %s] %s %s: profile %d slices, E=[%s, %s] kWh, "
      "time flex %lld min, start in [%s, %s]",
      static_cast<long long>(offer.id), std::string(core::DirectionName(offer.direction)).c_str(),
      std::string(core::FlexOfferStateName(offer.state)).c_str(),
      std::string(core::ProsumerTypeName(offer.prosumer_type)).c_str(),
      std::string(core::ApplianceTypeName(offer.appliance_type)).c_str(),
      offer.profile_duration_slices(),
      ReferenceFormatDouble(offer.total_min_energy_kwh(), 2).c_str(),
      ReferenceFormatDouble(offer.total_max_energy_kwh(), 2).c_str(),
      static_cast<long long>(offer.time_flexibility_minutes()),
      ReferenceToString(offer.earliest_start).c_str(),
      ReferenceToString(offer.latest_start).c_str());
  if (offer.schedule.has_value()) {
    out += Snprintf("; scheduled %s kWh from %s",
                    ReferenceFormatDouble(offer.total_scheduled_energy_kwh(), 2).c_str(),
                    ReferenceToString(offer.schedule->start).c_str());
  }
  if (offer.is_aggregate()) {
    out += Snprintf("; aggregate of %zu offers", offer.aggregated_from.size());
  }
  return out;
}

TEST(FormatIdentityTest, StrFormatAroundTheStackBuffer) {
  // Every output length from empty to well past the stack buffer, so the
  // lengths just below, at and above its size are all covered.
  for (size_t length = 0; length <= 1200; ++length) {
    const std::string fill(length, 'x');
    ASSERT_EQ(StrFormat("%s", fill.c_str()), fill) << length;
    if (length >= 3) {
      const std::string tail = fill.substr(3);
      ASSERT_EQ(StrFormat("%d:%s", 42, tail.c_str()), Snprintf("%d:%s", 42, tail.c_str()))
          << length;
    }
  }
  EXPECT_EQ(StrFormat("%s", ""), "");
  EXPECT_EQ(StrFormat("%05.1f|%-6s|%lld", -2.25, "ab", -7LL),
            Snprintf("%05.1f|%-6s|%lld", -2.25, "ab", -7LL));
  EXPECT_EQ(StrFormat("%.300f", 1e300), Snprintf("%.300f", 1e300));
}

TEST(FormatIdentityTest, FormatDoubleEdges) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double edges[] = {0.0,    -0.0,    -0.004, 0.004,  0.005,   -0.005,  0.125,
                          2.675,  1e300,   -1e300, 1e-300, 1e22,    123.456, -1.5,
                          nan,    -nan,    inf,    -inf,   4503599627370497.0,
                          std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::denorm_min()};
  for (double v : edges) {
    for (int digits : {-1, 0, 1, 2, 4, 6, 17, 40, 100}) {
      ASSERT_EQ(FormatDouble(v, digits), ReferenceFormatDouble(v, digits))
          << v << " at " << digits;
    }
  }
  EXPECT_EQ(FormatDouble(-0.0, 2), "-0");
  EXPECT_EQ(FormatDouble(-0.004, 2), "-0");
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.UniformInt(-8, 20));
    const int digits = static_cast<int>(rng.UniformInt(0, 8));
    ASSERT_EQ(FormatDouble(v, digits), ReferenceFormatDouble(v, digits)) << v;
  }
  std::string appended = "E=";
  StrAppendDouble(&appended, 12.50, 2);
  EXPECT_EQ(appended, "E=12.5");
}

TEST(FormatIdentityTest, StrAppendIntPadsLikePrintf) {
  const long long values[] = {0, 5, -5, 42, -42, 999, 1000, -1000, 123456,
                              std::numeric_limits<long long>::max(),
                              std::numeric_limits<long long>::min()};
  for (long long v : values) {
    for (int width : {0, 1, 2, 4, 8, 25}) {
      std::string out = "|";
      StrAppendInt(&out, v, width);
      ASSERT_EQ(out, "|" + Snprintf("%0*lld", width, v)) << v << " width " << width;
    }
  }
}

TEST(FormatIdentityTest, TimePointToStringOutsideFourDigitYears) {
  const int64_t kMinutesPerYear = 525960;
  std::vector<int64_t> minutes = {0, -1, -60, -1439, -1440, -525600, 1, 59, 1440};
  // Years below 1000 (and below 0) and above 9999.
  for (int64_t years : {-2100, -2000, -1999, -1001, -1000, -999, -500, 8000, 7999, 8001, 10000,
                        100000}) {
    minutes.push_back(years * kMinutesPerYear);
    minutes.push_back(years * kMinutesPerYear + 777);
  }
  Rng rng(2000);
  for (int i = 0; i < 20000; ++i) {
    minutes.push_back(rng.UniformInt(-20000 * kMinutesPerYear, 20000 * kMinutesPerYear));
  }
  for (int64_t m : minutes) {
    const TimePoint t = TimePoint::FromMinutes(m);
    ASSERT_EQ(t.ToString(), ReferenceToString(t)) << m;
  }
  EXPECT_EQ(TimePoint::FromCalendarOrDie(1999, 12, 31, 23, 59).ToString(), "1999-12-31 23:59");
}

TEST(FormatIdentityTest, JsonNumbersMatchPrintf) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {0.0, -0.0, 0.1, 1.0 / 3.0, 1e21, 1e-7, 123456789012345678.0,
                            -2.5e-300, std::numeric_limits<double>::max(), 5e-324};
  for (double v : doubles) {
    ASSERT_EQ(JsonValue::Double(v).Dump(), Snprintf("%.17g", v)) << v;
  }
  EXPECT_EQ(JsonValue::Double(nan).Dump(), "null");
  for (long long v : {0LL, -1LL, 9007199254740993LL, std::numeric_limits<long long>::min()}) {
    ASSERT_EQ(JsonValue::Int(v).Dump(), Snprintf("%lld", v));
  }
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Normal(0.0, 1.0) * std::pow(10.0, rng.UniformInt(-30, 30));
    ASSERT_EQ(JsonValue::Double(v).Dump(), Snprintf("%.17g", v)) << v;
  }
}

TEST(FormatIdentityTest, DescribeEveryOfferOfAGeneratedWorld) {
  geo::Atlas atlas = geo::Atlas::MakeDenmark();
  grid::GridTopology topology = grid::GridTopology::MakeRadial(2, 2, 2, 3);
  sim::WorkloadGenerator generator(&atlas, &topology);
  sim::WorkloadParams params;
  params.seed = 4242;
  params.num_prosumers = 150;
  const TimePoint t0 = TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0);
  params.horizon = timeutil::TimeInterval(t0, t0 + timeutil::kMinutesPerDay);
  Result<sim::Workload> workload = generator.Generate(params);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  std::vector<core::FlexOffer> offers = workload->offers;
  // Aggregates, half of them with a schedule at their earliest start.
  core::FlexOfferId next_id = 1000000;
  core::AggregationResult aggregated =
      core::Aggregator(core::AggregationParams{}).Aggregate(workload->offers, &next_id);
  for (size_t i = 0; i < aggregated.aggregates.size(); ++i) {
    core::FlexOffer aggregate = aggregated.aggregates[i];
    if (i % 2 == 0) {
      core::Schedule schedule;
      schedule.start = aggregate.earliest_start;
      for (const core::ProfileSlice& unit : aggregate.UnitProfile()) {
        schedule.energy_kwh.push_back(0.5 * (unit.min_energy_kwh + unit.max_energy_kwh));
      }
      aggregate.schedule = std::move(schedule);
    }
    offers.push_back(std::move(aggregate));
  }
  size_t scheduled = 0, aggregates = 0;
  for (const core::FlexOffer& offer : offers) {
    scheduled += offer.schedule.has_value() ? 1 : 0;
    aggregates += offer.is_aggregate() ? 1 : 0;
    ASSERT_EQ(core::Describe(offer), ReferenceDescribe(offer)) << offer.id;
  }
  EXPECT_GT(scheduled, 0u);
  EXPECT_GT(aggregates, 0u);
}

}  // namespace
}  // namespace flexvis
