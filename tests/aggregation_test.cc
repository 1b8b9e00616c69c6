#include <gtest/gtest.h>

#include <map>

#include "core/aggregation.h"
#include "core/time_series.h"
#include "util/rng.h"

namespace flexvis::core {
namespace {

using timeutil::kMinutesPerSlice;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

FlexOffer MakeOffer(FlexOfferId id, int64_t est_offset_slices, int64_t flex_slices,
                    std::vector<ProfileSlice> profile) {
  FlexOffer o;
  o.id = id;
  o.prosumer = id;
  o.earliest_start = T0() + est_offset_slices * kMinutesPerSlice;
  o.latest_start = o.earliest_start + flex_slices * kMinutesPerSlice;
  o.creation_time = o.earliest_start - 12 * 60;
  o.acceptance_deadline = o.creation_time + 60;
  o.assignment_deadline = o.creation_time + 120;
  o.profile = std::move(profile);
  return o;
}

// Deterministic random offer for property tests.
FlexOffer RandomOffer(Rng& rng, FlexOfferId id) {
  int64_t est = rng.UniformInt(0, 96);
  int64_t flex = rng.UniformInt(0, 16);
  std::vector<ProfileSlice> profile;
  int slices = static_cast<int>(rng.UniformInt(1, 8));
  for (int i = 0; i < slices; ++i) {
    double min = rng.Uniform(0.0, 2.0);
    double max = min + rng.Uniform(0.0, 2.0);
    profile.push_back(ProfileSlice{1, min, max});
  }
  FlexOffer o = MakeOffer(id, est, flex, std::move(profile));
  if (rng.Bernoulli(0.3)) o.direction = Direction::kProduction;
  return o;
}

TEST(CompressProfileTest, MergesEqualNeighbors) {
  std::vector<ProfileSlice> units = {{1, 1.0, 2.0}, {1, 1.0, 2.0}, {1, 0.5, 0.5}, {2, 1.0, 2.0}};
  std::vector<ProfileSlice> out = CompressProfile(units);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].duration_slices, 2);
  EXPECT_EQ(out[1].duration_slices, 1);
  EXPECT_EQ(out[2].duration_slices, 2);
}

TEST(AggregatorTest, SingleOfferYieldsSingletonAggregate) {
  std::vector<FlexOffer> offers = {MakeOffer(1, 0, 4, {{2, 1.0, 2.0}})};
  FlexOfferId next_id = 100;
  Aggregator agg(AggregationParams{});
  AggregationResult result = agg.Aggregate(offers, &next_id);
  ASSERT_EQ(result.aggregates.size(), 1u);
  const FlexOffer& a = result.aggregates[0];
  EXPECT_EQ(a.id, 100);
  EXPECT_EQ(next_id, 101);
  EXPECT_TRUE(a.is_aggregate());
  EXPECT_EQ(a.aggregated_from, std::vector<FlexOfferId>{1});
  EXPECT_EQ(a.earliest_start, offers[0].earliest_start);
  EXPECT_EQ(a.time_flexibility_minutes(), offers[0].time_flexibility_minutes());
  EXPECT_DOUBLE_EQ(a.total_min_energy_kwh(), offers[0].total_min_energy_kwh());
  EXPECT_DOUBLE_EQ(a.total_max_energy_kwh(), offers[0].total_max_energy_kwh());
  EXPECT_TRUE(Validate(a).ok());
}

TEST(AggregatorTest, SameCellOffersSumProfiles) {
  // Two offers with identical EST and flexibility: profiles sum per slice.
  std::vector<FlexOffer> offers = {MakeOffer(1, 0, 4, {{2, 1.0, 2.0}}),
                                   MakeOffer(2, 0, 4, {{2, 0.5, 1.0}})};
  FlexOfferId next_id = 100;
  Aggregator agg(AggregationParams{});
  AggregationResult result = agg.Aggregate(offers, &next_id);
  ASSERT_EQ(result.aggregates.size(), 1u);
  const FlexOffer& a = result.aggregates[0];
  EXPECT_EQ(a.aggregated_from.size(), 2u);
  EXPECT_EQ(a.profile_duration_slices(), 2);
  std::vector<ProfileSlice> units = a.UnitProfile();
  EXPECT_DOUBLE_EQ(units[0].min_energy_kwh, 1.5);
  EXPECT_DOUBLE_EQ(units[0].max_energy_kwh, 3.0);
}

TEST(AggregatorTest, StartAlignmentOffsetsProfiles) {
  // ESTs differ by one slice but land in one 60-minute bucket.
  std::vector<FlexOffer> offers = {MakeOffer(1, 0, 4, {{2, 1.0, 1.0}}),
                                   MakeOffer(2, 1, 4, {{2, 1.0, 1.0}})};
  FlexOfferId next_id = 100;
  AggregationParams params;
  params.est_tolerance_minutes = 60;
  params.tft_tolerance_minutes = 60;
  Aggregator agg(params);
  AggregationResult result = agg.Aggregate(offers, &next_id);
  ASSERT_EQ(result.aggregates.size(), 1u);
  const FlexOffer& a = result.aggregates[0];
  // Aggregate profile spans 3 slices: [o1, o1+o2, o2].
  std::vector<ProfileSlice> units = a.UnitProfile();
  ASSERT_EQ(units.size(), 3u);
  EXPECT_DOUBLE_EQ(units[0].min_energy_kwh, 1.0);
  EXPECT_DOUBLE_EQ(units[1].min_energy_kwh, 2.0);
  EXPECT_DOUBLE_EQ(units[2].min_energy_kwh, 1.0);
  // Total energy is conserved.
  EXPECT_DOUBLE_EQ(a.total_min_energy_kwh(),
                   offers[0].total_min_energy_kwh() + offers[1].total_min_energy_kwh());
}

TEST(AggregatorTest, ZeroTolerancesRequireExactMatch) {
  std::vector<FlexOffer> offers = {MakeOffer(1, 0, 4, {{1, 1.0, 1.0}}),
                                   MakeOffer(2, 1, 4, {{1, 1.0, 1.0}}),
                                   MakeOffer(3, 0, 5, {{1, 1.0, 1.0}})};
  FlexOfferId next_id = 100;
  AggregationParams params;
  params.est_tolerance_minutes = 0;
  params.tft_tolerance_minutes = 0;
  AggregationResult result = Aggregator(params).Aggregate(offers, &next_id);
  EXPECT_EQ(result.aggregates.size(), 3u);  // no two offers share a cell
}

TEST(AggregatorTest, WiderTolerancesReduceCount) {
  Rng rng(404);
  std::vector<FlexOffer> offers;
  for (int i = 0; i < 200; ++i) offers.push_back(RandomOffer(rng, i + 1));

  size_t last_count = offers.size() + 1;
  for (int64_t tol : {15, 60, 240, 1440}) {
    AggregationParams params;
    params.est_tolerance_minutes = tol;
    params.tft_tolerance_minutes = tol;
    FlexOfferId next_id = 10000;
    AggregationResult result = Aggregator(params).Aggregate(offers, &next_id);
    size_t count = result.aggregates.size();
    EXPECT_LE(count, last_count) << "tolerance " << tol;
    last_count = count;
  }
}

TEST(AggregatorTest, DirectionNeverMixes) {
  FlexOffer consume = MakeOffer(1, 0, 4, {{1, 1.0, 1.0}});
  FlexOffer produce = MakeOffer(2, 0, 4, {{1, 1.0, 1.0}});
  produce.direction = Direction::kProduction;
  FlexOfferId next_id = 100;
  AggregationResult result =
      Aggregator(AggregationParams{}).Aggregate({consume, produce}, &next_id);
  EXPECT_EQ(result.aggregates.size(), 2u);
}

TEST(AggregatorTest, MaxGroupSizeSplitsCells) {
  std::vector<FlexOffer> offers;
  for (int i = 0; i < 10; ++i) offers.push_back(MakeOffer(i + 1, 0, 4, {{1, 1.0, 1.0}}));
  AggregationParams params;
  params.max_group_size = 3;
  FlexOfferId next_id = 100;
  AggregationResult result = Aggregator(params).Aggregate(offers, &next_id);
  EXPECT_EQ(result.aggregates.size(), 4u);  // 3+3+3+1
  for (const FlexOffer& a : result.aggregates) {
    EXPECT_LE(a.aggregated_from.size(), 3u);
  }
}

TEST(AggregatorTest, PartitionFlagsSeparateAttributes) {
  FlexOffer a = MakeOffer(1, 0, 4, {{1, 1.0, 1.0}});
  a.region = 1;
  FlexOffer b = MakeOffer(2, 0, 4, {{1, 1.0, 1.0}});
  b.region = 2;
  FlexOfferId next_id = 100;
  AggregationParams merged;
  EXPECT_EQ(Aggregator(merged).Aggregate({a, b}, &next_id).aggregates.size(), 1u);
  AggregationParams split;
  split.partition_by_region = true;
  EXPECT_EQ(Aggregator(split).Aggregate({a, b}, &next_id).aggregates.size(), 2u);
}

TEST(AggregatorTest, InvalidOffersPassThrough) {
  FlexOffer bad = MakeOffer(1, 0, 4, {{1, 1.0, 1.0}});
  bad.profile.clear();
  FlexOfferId next_id = 100;
  AggregationResult result = Aggregator(AggregationParams{}).Aggregate({bad}, &next_id);
  EXPECT_TRUE(result.aggregates.empty());
  ASSERT_EQ(result.passthrough.size(), 1u);
  EXPECT_EQ(result.passthrough[0].id, 1);
}

TEST(AggregatorTest, AggregateFlexibilityIsMinOfMembers) {
  std::vector<FlexOffer> offers = {MakeOffer(1, 0, 2, {{1, 1.0, 1.0}}),
                                   MakeOffer(2, 0, 3, {{1, 1.0, 1.0}})};
  AggregationParams params;
  params.tft_tolerance_minutes = 600;  // both in one flexibility bucket
  FlexOfferId next_id = 100;
  AggregationResult result = Aggregator(params).Aggregate(offers, &next_id);
  ASSERT_EQ(result.aggregates.size(), 1u);
  EXPECT_EQ(result.aggregates[0].time_flexibility_minutes(), 2 * kMinutesPerSlice);
}

// ---- Disaggregation -----------------------------------------------------------

TEST(DisaggregateTest, RequiresScheduledAggregate) {
  std::vector<FlexOffer> offers = {MakeOffer(1, 0, 4, {{1, 1.0, 2.0}})};
  FlexOfferId next_id = 100;
  AggregationResult result = Aggregator(AggregationParams{}).Aggregate(offers, &next_id);
  FlexOffer agg = result.aggregates[0];
  EXPECT_EQ(Disaggregate(agg, offers).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Disaggregate(offers[0], offers).status().code(), StatusCode::kInvalidArgument);
}

TEST(DisaggregateTest, MemberListMustMatch) {
  std::vector<FlexOffer> offers = {MakeOffer(1, 0, 4, {{1, 1.0, 2.0}}),
                                   MakeOffer(2, 0, 4, {{1, 1.0, 2.0}})};
  FlexOfferId next_id = 100;
  FlexOffer agg = Aggregator(AggregationParams{}).Aggregate(offers, &next_id).aggregates[0];
  Schedule sched;
  sched.start = agg.earliest_start;
  for (const ProfileSlice& u : agg.UnitProfile()) sched.energy_kwh.push_back(u.min_energy_kwh);
  agg.schedule = sched;
  // Too few members supplied.
  EXPECT_FALSE(Disaggregate(agg, {offers[0]}).ok());
  // Wrong member supplied.
  std::vector<FlexOffer> wrong = {offers[0], MakeOffer(99, 0, 4, {{1, 1.0, 2.0}})};
  EXPECT_FALSE(Disaggregate(agg, wrong).ok());
}

// A three-member aggregate with a mid-flexibility schedule, for the kernel
// cases below: members at different offsets, multi-unit RLE slices.
struct ScheduledAggregate {
  std::vector<FlexOffer> members;
  FlexOffer aggregate;
};

ScheduledAggregate MakeScheduledAggregate() {
  ScheduledAggregate s;
  s.members = {MakeOffer(1, 0, 4, {{2, 1.0, 2.0}, {1, 0.5, 0.5}}),
               MakeOffer(2, 1, 4, {{3, 0.0, 3.0}}),
               MakeOffer(3, 2, 4, {{1, 2.0, 2.5}, {2, 1.0, 4.0}})};
  FlexOfferId next_id = 100;
  s.aggregate = Aggregator(AggregationParams{}).Aggregate(s.members, &next_id).aggregates[0];
  Schedule sched;
  sched.start = s.aggregate.earliest_start + 2 * kMinutesPerSlice;
  for (const ProfileSlice& u : s.aggregate.UnitProfile()) {
    sched.energy_kwh.push_back(0.3 * u.min_energy_kwh + 0.7 * u.max_energy_kwh);
  }
  s.aggregate.schedule = sched;
  s.aggregate.state = FlexOfferState::kAssigned;
  return s;
}

TEST(AggregatorTest, MemberPositionsFollowAggregatedFrom) {
  Rng rng(17);
  std::vector<FlexOffer> offers;
  for (int i = 0; i < 200; ++i) offers.push_back(RandomOffer(rng, 1000 + i));
  offers[7].profile.clear();  // fails validation: passed through, no position
  AggregationParams params;
  params.max_group_size = 5;
  FlexOfferId next_id = 1;
  AggregationResult result = Aggregator(params).Aggregate(offers, &next_id);
  ASSERT_EQ(result.member_begin.size(), result.aggregates.size() + 1);
  EXPECT_EQ(result.member_begin.front(), 0u);
  EXPECT_EQ(result.member_begin.back(), result.member_index.size());
  EXPECT_EQ(result.member_index.size(), offers.size() - result.passthrough.size());
  for (size_t g = 0; g < result.aggregates.size(); ++g) {
    const std::vector<FlexOfferId>& listed = result.aggregates[g].aggregated_from;
    ASSERT_EQ(result.member_begin[g + 1] - result.member_begin[g], listed.size());
    for (size_t j = 0; j < listed.size(); ++j) {
      EXPECT_EQ(offers[result.member_index[result.member_begin[g] + j]].id, listed[j]);
    }
  }
}

TEST(DisaggregateTest, MemberOrderDoesNotMatter) {
  ScheduledAggregate s = MakeScheduledAggregate();
  Result<std::vector<FlexOffer>> in_order = Disaggregate(s.aggregate, s.members);
  ASSERT_TRUE(in_order.ok()) << in_order.status().ToString();
  std::vector<FlexOffer> reversed(s.members.rbegin(), s.members.rend());
  Result<std::vector<FlexOffer>> out_of_order = Disaggregate(s.aggregate, reversed);
  ASSERT_TRUE(out_of_order.ok()) << out_of_order.status().ToString();
  ASSERT_EQ(out_of_order->size(), in_order->size());
  for (size_t i = 0; i < in_order->size(); ++i) {
    const FlexOffer& a = (*in_order)[i];
    const FlexOffer& b = (*out_of_order)[in_order->size() - 1 - i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.state, FlexOfferState::kAssigned);
    ASSERT_TRUE(a.schedule.has_value() && b.schedule.has_value());
    EXPECT_EQ(*a.schedule, *b.schedule);
    EXPECT_EQ(a.schedule->energy_kwh.size(),
              static_cast<size_t>(a.profile_duration_slices()));
  }
  // The in-place kernel on the same members gives the same bits.
  std::vector<FlexOffer> in_place = s.members;
  ASSERT_TRUE(DisaggregateInPlace(s.aggregate, in_place.data(), in_place.size()).ok());
  for (size_t i = 0; i < in_place.size(); ++i) {
    EXPECT_EQ(in_place[i].state, FlexOfferState::kAssigned);
    EXPECT_EQ(*in_place[i].schedule, *(*in_order)[i].schedule);
  }
}

TEST(DisaggregateTest, MembershipAndAlignmentErrorsKeepTheirCodes) {
  ScheduledAggregate s = MakeScheduledAggregate();
  // A non-member id among the right number of members.
  std::vector<FlexOffer> stranger = s.members;
  stranger[1].id = 99;
  EXPECT_EQ(Disaggregate(s.aggregate, stranger).status().code(), StatusCode::kInvalidArgument);
  // One member too many or too few.
  std::vector<FlexOffer> extra = s.members;
  extra.push_back(s.members[0]);
  EXPECT_EQ(Disaggregate(s.aggregate, extra).status().code(), StatusCode::kInvalidArgument);
  std::vector<FlexOffer> missing(s.members.begin(), s.members.end() - 1);
  EXPECT_EQ(Disaggregate(s.aggregate, missing).status().code(), StatusCode::kInvalidArgument);
  // A member starting before the aggregate, or off the slice grid.
  for (int64_t delta : {-kMinutesPerSlice, int64_t{5}}) {
    std::vector<FlexOffer> misaligned = s.members;
    misaligned[0].earliest_start = misaligned[0].earliest_start + delta;
    EXPECT_EQ(Disaggregate(s.aggregate, misaligned).status().code(), StatusCode::kInternal);
    EXPECT_EQ(DisaggregateInPlace(s.aggregate, misaligned.data(), misaligned.size()).code(),
              StatusCode::kInternal);
  }
  // A member reaching past the aggregate's profile.
  std::vector<FlexOffer> overlong = s.members;
  overlong[2].profile.push_back(ProfileSlice{4, 1.0, 1.0});
  EXPECT_EQ(Disaggregate(s.aggregate, overlong).status().code(), StatusCode::kInternal);
  // Schedule start outside the aggregate's flexibility, and a schedule whose
  // size disagrees with the profile.
  FlexOffer late = s.aggregate;
  late.schedule->start = late.latest_start + kMinutesPerSlice;
  EXPECT_EQ(Disaggregate(late, s.members).status().code(), StatusCode::kInvalidArgument);
  FlexOffer short_schedule = s.aggregate;
  short_schedule.schedule->energy_kwh.pop_back();
  EXPECT_EQ(Disaggregate(short_schedule, s.members).status().code(),
            StatusCode::kInvalidArgument);
}

// Property suite: for random workloads, aggregation + scheduling the
// aggregate + disaggregation yields valid member schedules that reproduce
// the aggregate schedule exactly over absolute time.
class DisaggregationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DisaggregationPropertyTest, ExactAndFeasible) {
  Rng rng(GetParam());
  std::vector<FlexOffer> offers;
  int n = static_cast<int>(rng.UniformInt(5, 60));
  for (int i = 0; i < n; ++i) offers.push_back(RandomOffer(rng, i + 1));

  AggregationParams params;
  params.est_tolerance_minutes = rng.UniformInt(0, 4) * 60;
  params.tft_tolerance_minutes = rng.UniformInt(0, 4) * 60;
  FlexOfferId next_id = 10000;
  AggregationResult result = Aggregator(params).Aggregate(offers, &next_id);
  ASSERT_TRUE(result.passthrough.empty());

  std::map<FlexOfferId, const FlexOffer*> by_id;
  for (const FlexOffer& o : offers) by_id[o.id] = &o;

  for (FlexOffer agg : result.aggregates) {
    ASSERT_TRUE(Validate(agg).ok()) << Describe(agg);

    // Give the aggregate a random feasible schedule.
    int64_t steps = agg.time_flexibility_minutes() / kMinutesPerSlice;
    int64_t shift = steps > 0 ? rng.UniformInt(0, steps) : 0;
    Schedule sched;
    sched.start = agg.earliest_start + shift * kMinutesPerSlice;
    for (const ProfileSlice& u : agg.UnitProfile()) {
      sched.energy_kwh.push_back(rng.Uniform(u.min_energy_kwh, u.max_energy_kwh));
    }
    agg.schedule = sched;
    agg.state = FlexOfferState::kAssigned;
    ASSERT_TRUE(Validate(agg).ok());

    std::vector<FlexOffer> members;
    for (FlexOfferId id : agg.aggregated_from) members.push_back(*by_id.at(id));
    Result<std::vector<FlexOffer>> scheduled = Disaggregate(agg, members);
    ASSERT_TRUE(scheduled.ok()) << scheduled.status().ToString();

    // (1) Every member schedule is feasible.
    core::TimeSeries member_sum(agg.schedule->start, agg.UnitProfile().size());
    for (const FlexOffer& m : *scheduled) {
      EXPECT_TRUE(Validate(m).ok()) << Describe(m);
      ASSERT_TRUE(m.schedule.has_value());
      // (2) Member start preserves the aggregate's shift.
      EXPECT_EQ(m.schedule->start - m.earliest_start, shift * kMinutesPerSlice);
      for (size_t i = 0; i < m.schedule->energy_kwh.size(); ++i) {
        member_sum.AddAt(m.schedule->start + static_cast<int64_t>(i) * kMinutesPerSlice,
                         m.schedule->energy_kwh[i]);
      }
    }
    // (3) Summed member schedules reproduce the aggregate schedule.
    for (size_t i = 0; i < agg.schedule->energy_kwh.size(); ++i) {
      EXPECT_NEAR(member_sum.AtIndex(static_cast<int64_t>(i)), agg.schedule->energy_kwh[i],
                  1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisaggregationPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace flexvis::core
