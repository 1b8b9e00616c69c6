#include <gtest/gtest.h>

#include <map>

#include "core/messages.h"
#include "dw/csv.h"
#include "sim/online.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace flexvis {
namespace {

using core::AcceptanceMessage;
using core::AssignmentMessage;
using core::FlexOffer;
using core::Message;
using core::ProfileSlice;
using timeutil::kMinutesPerSlice;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

FlexOffer MakeOffer(core::FlexOfferId id) {
  FlexOffer o;
  o.id = id;
  o.prosumer = id * 10;
  o.region = 100;
  o.grid_node = 7;
  o.energy_type = core::EnergyType::kWind;
  o.prosumer_type = core::ProsumerType::kCommercial;
  o.appliance_type = core::ApplianceType::kBatteryStorage;
  o.direction = core::Direction::kProduction;
  o.state = core::FlexOfferState::kAccepted;
  o.earliest_start = T0();
  o.latest_start = T0() + 4 * kMinutesPerSlice;
  o.creation_time = T0() - 600;
  o.acceptance_deadline = o.creation_time + 60;
  o.assignment_deadline = o.creation_time + 120;
  o.profile = {ProfileSlice{2, 1.0, 2.0}, ProfileSlice{1, 0.25, 0.75}};
  return o;
}

// ---- Flex-offer JSON codec ---------------------------------------------------------

TEST(FlexOfferJsonTest, RoundTripsAllFields) {
  FlexOffer original = MakeOffer(7);
  original.schedule = core::Schedule{T0() + kMinutesPerSlice, {1.5, 1.5, 0.5}};
  original.aggregated_from = {3, 4, 5};

  Result<FlexOffer> decoded = core::DecodeFlexOffer(core::EncodeFlexOffer(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, original.id);
  EXPECT_EQ(decoded->prosumer, original.prosumer);
  EXPECT_EQ(decoded->region, original.region);
  EXPECT_EQ(decoded->grid_node, original.grid_node);
  EXPECT_EQ(decoded->energy_type, original.energy_type);
  EXPECT_EQ(decoded->prosumer_type, original.prosumer_type);
  EXPECT_EQ(decoded->appliance_type, original.appliance_type);
  EXPECT_EQ(decoded->direction, original.direction);
  EXPECT_EQ(decoded->state, original.state);
  EXPECT_EQ(decoded->creation_time, original.creation_time);
  EXPECT_EQ(decoded->acceptance_deadline, original.acceptance_deadline);
  EXPECT_EQ(decoded->assignment_deadline, original.assignment_deadline);
  EXPECT_EQ(decoded->earliest_start, original.earliest_start);
  EXPECT_EQ(decoded->latest_start, original.latest_start);
  EXPECT_EQ(decoded->profile, original.profile);
  ASSERT_TRUE(decoded->schedule.has_value());
  EXPECT_EQ(*decoded->schedule, *original.schedule);
  EXPECT_EQ(decoded->aggregated_from, original.aggregated_from);
}

TEST(FlexOfferJsonTest, OmitsOptionalFieldsWhenAbsent) {
  FlexOffer plain = MakeOffer(1);
  JsonValue json = core::FlexOfferToJson(plain);
  EXPECT_FALSE(json.Has("schedule"));
  EXPECT_FALSE(json.Has("aggregated_from"));
  Result<FlexOffer> decoded = core::FlexOfferFromJson(json);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->schedule.has_value());
  EXPECT_TRUE(decoded->aggregated_from.empty());
}

TEST(FlexOfferJsonTest, DecodingErrors) {
  EXPECT_FALSE(core::DecodeFlexOffer("not json").ok());
  EXPECT_FALSE(core::DecodeFlexOffer("[]").ok());
  EXPECT_FALSE(core::DecodeFlexOffer("{}").ok());  // missing fields
  // Corrupt a single field.
  JsonValue json = core::FlexOfferToJson(MakeOffer(1));
  json.Set("energy_type", JsonValue::Str("Antimatter"));
  EXPECT_FALSE(core::FlexOfferFromJson(json).ok());
  json = core::FlexOfferToJson(MakeOffer(1));
  json.Set("profile", JsonValue::Int(5));
  EXPECT_FALSE(core::FlexOfferFromJson(json).ok());
}

// ---- Message envelopes --------------------------------------------------------------

// region and grid_node are optional integers: absent keeps the invalid id, an
// integer decodes exactly, and any other value (a fraction, a double out of
// int64 range, a string) is a typed InvalidArgument on the wire path.
TEST(MessageTest, LocationIdsMustBeIntegers) {
  for (const char* key : {"region", "grid_node"}) {
    JsonValue json = core::FlexOfferToJson(MakeOffer(5));
    json.Set(key, JsonValue::Int(123456789012LL));
    Result<FlexOffer> exact = core::FlexOfferFromJson(json);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(std::string(key) == "region" ? exact->region : exact->grid_node, 123456789012LL);

    for (JsonValue bad : {JsonValue::Double(2.9), JsonValue::Double(1e300),
                          JsonValue::Double(-1e300), JsonValue::Str("7")}) {
      json.Set(key, bad);
      EXPECT_EQ(core::FlexOfferFromJson(json).status().code(), StatusCode::kInvalidArgument)
          << key << " = " << bad.Dump();
      JsonValue envelope = JsonValue::Object();
      envelope.Set("type", JsonValue::Str("flex_offer"));
      envelope.Set("payload", json);
      EXPECT_EQ(core::DecodeMessage(envelope.Dump()).status().code(),
                StatusCode::kInvalidArgument)
          << key << " = " << bad.Dump();
    }
  }
  JsonValue json = core::FlexOfferToJson(MakeOffer(6));
  JsonValue absent = JsonValue::Object();
  for (const auto& [key, value] : json.items()) {
    if (key != "region" && key != "grid_node") absent.Set(key, value);
  }
  Result<FlexOffer> decoded = core::FlexOfferFromJson(absent);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->region, core::kInvalidRegionId);
  EXPECT_EQ(decoded->grid_node, core::kInvalidGridNodeId);
}

TEST(MessageTest, FlexOfferEnvelopeRoundTrips) {
  FlexOffer offer = MakeOffer(9);
  std::string wire = core::EncodeMessage(Message(offer));
  Result<Message> decoded = core::DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(std::holds_alternative<FlexOffer>(*decoded));
  EXPECT_EQ(std::get<FlexOffer>(*decoded).id, 9);
}

TEST(MessageTest, AcceptanceRoundTrips) {
  AcceptanceMessage msg{42, true, T0()};
  Result<Message> decoded = core::DecodeMessage(core::EncodeMessage(Message(msg)));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(std::holds_alternative<AcceptanceMessage>(*decoded));
  EXPECT_EQ(std::get<AcceptanceMessage>(*decoded), msg);
}

TEST(MessageTest, AssignmentRoundTrips) {
  AssignmentMessage msg;
  msg.offer = 43;
  msg.schedule = core::Schedule{T0(), {1.0, 2.0, 3.0}};
  msg.sent_at = T0() - 30;
  Result<Message> decoded = core::DecodeMessage(core::EncodeMessage(Message(msg)));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(std::holds_alternative<AssignmentMessage>(*decoded));
  EXPECT_EQ(std::get<AssignmentMessage>(*decoded), msg);
}

TEST(MessageTest, RejectsInvalidEnvelopes) {
  EXPECT_FALSE(core::DecodeMessage("{}").ok());
  EXPECT_FALSE(core::DecodeMessage(R"({"type":"mystery","payload":{}})").ok());
  EXPECT_FALSE(core::DecodeMessage(R"({"type":"acceptance","payload":{"offer":1}})").ok());
  // A flex-offer envelope whose payload fails core validation is rejected.
  FlexOffer bad = MakeOffer(1);
  bad.latest_start = bad.earliest_start - kMinutesPerSlice;
  EXPECT_FALSE(core::DecodeMessage(core::EncodeMessage(Message(bad))).ok());
}

TEST(MessageTest, DeeplyNestedEnvelopesAreRejectedNotACrash) {
  // A 200k-deep value inside a flex-offer message, as an array and as an
  // object, and a 200k-deep envelope: each is a typed error.
  const int depth = 200000;
  std::string deep_array = std::string(depth, '[') + std::string(depth, ']');
  std::string deep_object;
  for (int i = 0; i < depth; ++i) deep_object += "{\"k\":";
  deep_object += "0" + std::string(depth, '}');
  for (const std::string& deep : {deep_array, deep_object}) {
    const std::string wire = R"({"type":"flex_offer","payload":{"id":1,"profile":)" + deep + "}}";
    EXPECT_EQ(core::DecodeMessage(wire).status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(core::DecodeMessage(deep).status().code(), StatusCode::kInvalidArgument);
  }
}

// Property: the codec round-trips every generated workload offer.
class MessageCodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessageCodecPropertyTest, WorkloadOffersRoundTrip) {
  geo::Atlas atlas = geo::Atlas::MakeDenmark();
  grid::GridTopology topology = grid::GridTopology::MakeRadial(2, 1, 2, 2);
  sim::WorkloadGenerator generator(&atlas, &topology);
  sim::WorkloadParams params;
  params.seed = GetParam();
  params.num_prosumers = 20;
  params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
  sim::Workload workload = *generator.Generate(params);
  for (const FlexOffer& offer : workload.offers) {
    Result<Message> decoded = core::DecodeMessage(core::EncodeMessage(Message(offer)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const FlexOffer& back = std::get<FlexOffer>(*decoded);
    EXPECT_EQ(back.id, offer.id);
    EXPECT_EQ(back.UnitProfile(), offer.UnitProfile());
    ASSERT_EQ(back.schedule.has_value(), offer.schedule.has_value());
    if (offer.schedule.has_value()) {
      EXPECT_EQ(back.schedule->start, offer.schedule->start);
      for (size_t i = 0; i < offer.schedule->energy_kwh.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.schedule->energy_kwh[i], offer.schedule->energy_kwh[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageCodecPropertyTest, ::testing::Values(3, 14, 159));

// ---- CSV interchange ------------------------------------------------------------------

TEST(CsvTest, ParseBasics) {
  Result<std::vector<std::vector<std::string>>> parsed = dw::ParseCsv("a,b\n1,2\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{"1", "2"}));
  // No trailing newline.
  EXPECT_EQ(dw::ParseCsv("x,y")->size(), 1u);
  // Empty fields survive.
  EXPECT_EQ((*dw::ParseCsv("a,,c\n"))[0][1], "");
}

TEST(CsvTest, QuotingRules) {
  Result<std::vector<std::vector<std::string>>> parsed =
      dw::ParseCsv("\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0][0], "a,b");
  EXPECT_EQ((*parsed)[0][1], "say \"hi\"");
  EXPECT_EQ((*parsed)[0][2], "multi\nline");
  EXPECT_FALSE(dw::ParseCsv("\"unterminated\n").ok());
  EXPECT_FALSE(dw::ParseCsv("ab\"cd\n").ok());
}

TEST(CsvTest, TableRoundTrip) {
  dw::Table table("t", {{"id", dw::ColumnType::kInt64},
                        {"score", dw::ColumnType::kDouble},
                        {"name", dw::ColumnType::kString}});
  ASSERT_TRUE(table.AppendRow({dw::Value(int64_t{1}), dw::Value(1.25),
                               dw::Value(std::string("plain"))}).ok());
  ASSERT_TRUE(table.AppendRow({dw::Value(int64_t{-2}), dw::Value::Null(),
                               dw::Value(std::string("has,comma and \"quote\""))}).ok());

  std::string csv = dw::TableToCsv(table);
  Result<dw::Table> back = dw::TableFromCsv("t", table.schema(), csv);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumRows(), 2u);
  EXPECT_EQ(back->FindColumn("id")->GetInt64(1), -2);
  EXPECT_TRUE(back->FindColumn("score")->IsNull(1));
  EXPECT_DOUBLE_EQ(back->FindColumn("score")->GetDouble(0), 1.25);
  EXPECT_EQ(back->FindColumn("name")->GetString(1), "has,comma and \"quote\"");
}

TEST(CsvTest, SchemaMismatchErrors) {
  std::vector<dw::ColumnSpec> schema = {{"a", dw::ColumnType::kInt64}};
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "wrong\n1\n").ok());       // header name
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "a,b\n1,2\n").ok());       // header arity
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "a\nxyz\n").ok());         // bad int
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "a\n1,2\n").ok());         // record arity
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "").ok());                 // missing header
  // Headerless mode skips the header check.
  Result<dw::Table> ok = dw::TableFromCsv("t", schema, "5\n", /*has_header=*/false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->FindColumn("a")->GetInt64(0), 5);
}

TEST(CsvTest, WarehouseFactsSurviveCsvRoundTrip) {
  geo::Atlas atlas = geo::Atlas::MakeDenmark();
  grid::GridTopology topology = grid::GridTopology::MakeRadial(2, 1, 2, 2);
  dw::Database db;
  ASSERT_TRUE(atlas.RegisterWithDatabase(db).ok());
  ASSERT_TRUE(topology.RegisterWithDatabase(db).ok());
  sim::WorkloadGenerator generator(&atlas, &topology);
  sim::WorkloadParams params;
  params.num_prosumers = 20;
  params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
  ASSERT_TRUE(
      sim::WorkloadGenerator::LoadIntoDatabase(*generator.Generate(params), db).ok());

  std::string csv = dw::TableToCsv(db.fact_flexoffer());
  Result<dw::Table> back = dw::TableFromCsv("fact_flexoffer",
                                            db.fact_flexoffer().schema(), csv);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumRows(), db.fact_flexoffer().NumRows());
  // Spot-check a few cells including the nullable schedule column.
  const dw::Column* orig = db.fact_flexoffer().FindColumn("scheduled_start_min");
  const dw::Column* copy = back->FindColumn("scheduled_start_min");
  for (size_t r = 0; r < back->NumRows(); ++r) {
    EXPECT_EQ(orig->IsNull(r), copy->IsNull(r));
    if (!orig->IsNull(r)) {
      EXPECT_EQ(orig->GetInt64(r), copy->GetInt64(r));
    }
  }
}

// ---- Online enterprise ------------------------------------------------------------------

class OnlineTest : public ::testing::Test {
 protected:
  OnlineTest()
      : atlas_(geo::Atlas::MakeDenmark()),
        topology_(grid::GridTopology::MakeRadial(2, 2, 2, 3)),
        generator_(&atlas_, &topology_) {
    sim::WorkloadParams params;
    params.seed = 606;
    params.num_prosumers = 60;
    params.offers_per_prosumer = 3.0;
    params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
    workload_ = *generator_.Generate(params);
    window_ = TimeInterval(T0() - 2 * timeutil::kMinutesPerDay,
                           T0() + 2 * timeutil::kMinutesPerDay);
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_;
  sim::WorkloadGenerator generator_;
  sim::Workload workload_;
  TimeInterval window_;
};

TEST_F(OnlineTest, MeetsEveryDeadlineWithFineTick) {
  sim::OnlineParams params;
  params.tick_minutes = 15;
  sim::OnlineEnterprise enterprise(params);
  Result<sim::OnlineReport> report = enterprise.Run(workload_.offers, window_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->offers_received, static_cast<int>(workload_.offers.size()));
  EXPECT_EQ(report->missed_acceptance, 0);
  EXPECT_EQ(report->missed_assignment, 0);
  EXPECT_EQ(report->accepted + report->rejected, report->offers_received);
  EXPECT_GT(report->assigned, 0);
  // Every assignment message was sent at or before its offer's deadline, and
  // every committed schedule validates.
  for (const core::FlexOffer& o : report->offers) {
    if (o.state == core::FlexOfferState::kAssigned) {
      EXPECT_TRUE(core::Validate(o).ok()) << core::Describe(o);
    }
  }
  // The outbox is a decodable protocol stream.
  int assignments = 0;
  for (const std::string& wire : report->outbox) {
    Result<Message> decoded = core::DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok());
    if (std::holds_alternative<AssignmentMessage>(*decoded)) ++assignments;
  }
  EXPECT_EQ(assignments, report->assigned);
}

TEST_F(OnlineTest, OutboxMessagesRespectDeadlines) {
  sim::OnlineParams params;
  params.tick_minutes = 30;
  Result<sim::OnlineReport> report =
      sim::OnlineEnterprise(params).Run(workload_.offers, window_);
  ASSERT_TRUE(report.ok());
  std::map<core::FlexOfferId, const core::FlexOffer*> by_id;
  for (const core::FlexOffer& o : report->offers) by_id[o.id] = &o;
  for (const std::string& wire : report->outbox) {
    Result<Message> decoded = core::DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok());
    if (const auto* acc = std::get_if<AcceptanceMessage>(&*decoded)) {
      EXPECT_LE(acc->sent_at, by_id.at(acc->offer)->acceptance_deadline);
    } else if (const auto* assign = std::get_if<AssignmentMessage>(&*decoded)) {
      EXPECT_LE(assign->sent_at, by_id.at(assign->offer)->assignment_deadline);
    }
  }
}

TEST_F(OnlineTest, OnlineIsNoBetterThanOffline) {
  // The online loop commits irrevocably with partial knowledge; the offline
  // scheduler sees everything. Same scheduler, same target scale.
  sim::OnlineParams online_params;
  online_params.tick_minutes = 60;
  Result<sim::OnlineReport> online =
      sim::OnlineEnterprise(online_params).Run(workload_.offers, window_);
  ASSERT_TRUE(online.ok());

  core::TimeSeries target = sim::MakeFlexibilityTarget(
      sim::MakeResProduction(window_, online_params.energy),
      sim::MakeInflexibleDemand(window_, online_params.energy));
  core::ScheduleResult offline = core::Scheduler().Plan(workload_.offers, target);
  // Allow a whisker of slack for ordering noise at equal quality.
  EXPECT_GE(online->imbalance_kwh, offline.imbalance_after_kwh * 0.999);
}

TEST_F(OnlineTest, InvalidConfigurations) {
  sim::OnlineEnterprise enterprise;
  EXPECT_FALSE(enterprise.Run(workload_.offers, TimeInterval()).ok());
  sim::OnlineParams params;
  params.tick_minutes = 0;
  EXPECT_FALSE(sim::OnlineEnterprise(params).Run(workload_.offers, window_).ok());
}

}  // namespace
}  // namespace flexvis
