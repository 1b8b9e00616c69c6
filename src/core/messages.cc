#include "core/messages.h"

#include "util/fault.h"
#include "util/strings.h"

namespace flexvis::core {

using timeutil::TimePoint;

JsonValue FlexOfferToJson(const FlexOffer& offer) {
  JsonValue json = JsonValue::Object();
  json.Set("id", JsonValue::Int(offer.id));
  json.Set("prosumer", JsonValue::Int(offer.prosumer));
  json.Set("region", JsonValue::Int(offer.region));
  json.Set("grid_node", JsonValue::Int(offer.grid_node));
  json.Set("energy_type", JsonValue::Str(std::string(EnergyTypeName(offer.energy_type))));
  json.Set("prosumer_type",
           JsonValue::Str(std::string(ProsumerTypeName(offer.prosumer_type))));
  json.Set("appliance_type",
           JsonValue::Str(std::string(ApplianceTypeName(offer.appliance_type))));
  json.Set("direction", JsonValue::Str(std::string(DirectionName(offer.direction))));
  json.Set("state", JsonValue::Str(std::string(FlexOfferStateName(offer.state))));
  json.Set("creation_min", JsonValue::Int(offer.creation_time.minutes()));
  json.Set("acceptance_min", JsonValue::Int(offer.acceptance_deadline.minutes()));
  json.Set("assignment_min", JsonValue::Int(offer.assignment_deadline.minutes()));
  json.Set("earliest_start_min", JsonValue::Int(offer.earliest_start.minutes()));
  json.Set("latest_start_min", JsonValue::Int(offer.latest_start.minutes()));

  JsonValue profile = JsonValue::Array();
  for (const ProfileSlice& s : offer.profile) {
    JsonValue slice = JsonValue::Object();
    slice.Set("slices", JsonValue::Int(s.duration_slices));
    slice.Set("min_kwh", JsonValue::Double(s.min_energy_kwh));
    slice.Set("max_kwh", JsonValue::Double(s.max_energy_kwh));
    profile.Append(std::move(slice));
  }
  json.Set("profile", std::move(profile));

  if (offer.schedule.has_value()) {
    JsonValue sched = JsonValue::Object();
    sched.Set("start_min", JsonValue::Int(offer.schedule->start.minutes()));
    JsonValue energies = JsonValue::Array();
    for (double e : offer.schedule->energy_kwh) energies.Append(JsonValue::Double(e));
    sched.Set("energy_kwh", std::move(energies));
    json.Set("schedule", std::move(sched));
  }
  if (!offer.aggregated_from.empty()) {
    JsonValue members = JsonValue::Array();
    for (FlexOfferId id : offer.aggregated_from) members.Append(JsonValue::Int(id));
    json.Set("aggregated_from", std::move(members));
  }
  return json;
}

Result<FlexOffer> FlexOfferFromJson(const JsonValue& json) {
  if (!json.is_object()) return InvalidArgumentError("flex-offer JSON must be an object");
  FlexOffer offer;
  {
    Result<int64_t> v = json.GetInt("id");
    if (!v.ok()) return v.status();
    offer.id = *v;
  }
  {
    Result<int64_t> v = json.GetInt("prosumer");
    if (!v.ok()) return v.status();
    offer.prosumer = *v;
  }
  // Optional location ids: absent (or null) keeps the invalid id, and a
  // present value must be a JSON integer. The check is on the value's kind,
  // so 2.9 or 1e300 is an error, never a truncating or out-of-range cast.
  struct IdField {
    const char* key;
    int64_t* target;
  };
  for (const IdField& f :
       {IdField{"region", &offer.region}, IdField{"grid_node", &offer.grid_node}}) {
    const JsonValue& v = json.Get(f.key);
    if (v.is_null()) continue;
    if (!v.is_int()) {
      return InvalidArgumentError(StrFormat("flex-offer JSON: '%s' must be an integer, got %s",
                                            f.key, v.Dump().c_str()));
    }
    *f.target = v.AsInt();
  }
  {
    Result<std::string> s = json.GetString("energy_type");
    if (!s.ok()) return s.status();
    Result<EnergyType> parsed = ParseEnergyType(*s);
    if (!parsed.ok()) return parsed.status();
    offer.energy_type = *parsed;
  }
  {
    Result<std::string> s = json.GetString("prosumer_type");
    if (!s.ok()) return s.status();
    Result<ProsumerType> parsed = ParseProsumerType(*s);
    if (!parsed.ok()) return parsed.status();
    offer.prosumer_type = *parsed;
  }
  {
    Result<std::string> s = json.GetString("appliance_type");
    if (!s.ok()) return s.status();
    Result<ApplianceType> parsed = ParseApplianceType(*s);
    if (!parsed.ok()) return parsed.status();
    offer.appliance_type = *parsed;
  }
  {
    Result<std::string> s = json.GetString("direction");
    if (!s.ok()) return s.status();
    offer.direction = EqualsIgnoreCase(*s, "Production") ? Direction::kProduction
                                                         : Direction::kConsumption;
  }
  {
    Result<std::string> s = json.GetString("state");
    if (!s.ok()) return s.status();
    Result<FlexOfferState> parsed = ParseFlexOfferState(*s);
    if (!parsed.ok()) return parsed.status();
    offer.state = *parsed;
  }
  struct TimeField {
    const char* key;
    TimePoint* target;
  };
  TimeField fields[] = {
      {"creation_min", &offer.creation_time},
      {"acceptance_min", &offer.acceptance_deadline},
      {"assignment_min", &offer.assignment_deadline},
      {"earliest_start_min", &offer.earliest_start},
      {"latest_start_min", &offer.latest_start},
  };
  for (const TimeField& f : fields) {
    Result<int64_t> v = json.GetInt(f.key);
    if (!v.ok()) return v.status();
    *f.target = TimePoint::FromMinutes(*v);
  }

  const JsonValue& profile = json.Get("profile");
  if (!profile.is_array()) return InvalidArgumentError("flex-offer JSON: missing profile");
  for (size_t i = 0; i < profile.size(); ++i) {
    const JsonValue& slice = profile[i];
    Result<int64_t> slices = slice.GetInt("slices");
    Result<double> min_kwh = slice.GetDouble("min_kwh");
    Result<double> max_kwh = slice.GetDouble("max_kwh");
    if (!slices.ok()) return slices.status();
    if (!min_kwh.ok()) return min_kwh.status();
    if (!max_kwh.ok()) return max_kwh.status();
    offer.profile.push_back(
        ProfileSlice{static_cast<int>(*slices), *min_kwh, *max_kwh});
  }

  if (json.Has("schedule")) {
    const JsonValue& sched = json.Get("schedule");
    Result<int64_t> start = sched.GetInt("start_min");
    if (!start.ok()) return start.status();
    Schedule schedule;
    schedule.start = TimePoint::FromMinutes(*start);
    const JsonValue& energies = sched.Get("energy_kwh");
    if (!energies.is_array()) {
      return InvalidArgumentError("flex-offer JSON: schedule without energy_kwh");
    }
    for (size_t i = 0; i < energies.size(); ++i) {
      if (!energies[i].is_number()) {
        return InvalidArgumentError("flex-offer JSON: non-numeric scheduled energy");
      }
      schedule.energy_kwh.push_back(energies[i].AsDouble());
    }
    offer.schedule = std::move(schedule);
  }
  if (json.Has("aggregated_from")) {
    const JsonValue& members = json.Get("aggregated_from");
    if (!members.is_array()) {
      return InvalidArgumentError("flex-offer JSON: aggregated_from must be an array");
    }
    for (size_t i = 0; i < members.size(); ++i) {
      if (!members[i].is_number()) {
        return InvalidArgumentError("flex-offer JSON: non-numeric member id");
      }
      offer.aggregated_from.push_back(members[i].AsInt());
    }
  }
  return offer;
}

namespace {

constexpr const char* kTypeFlexOffer = "flex_offer";
constexpr const char* kTypeAcceptance = "acceptance";
constexpr const char* kTypeAssignment = "assignment";

}  // namespace

std::string EncodeMessage(const Message& message) {
  JsonValue envelope = JsonValue::Object();
  if (const FlexOffer* offer = std::get_if<FlexOffer>(&message)) {
    envelope.Set("type", JsonValue::Str(kTypeFlexOffer));
    envelope.Set("payload", FlexOfferToJson(*offer));
  } else if (const AcceptanceMessage* acc = std::get_if<AcceptanceMessage>(&message)) {
    envelope.Set("type", JsonValue::Str(kTypeAcceptance));
    JsonValue payload = JsonValue::Object();
    payload.Set("offer", JsonValue::Int(acc->offer));
    payload.Set("accepted", JsonValue::Bool(acc->accepted));
    payload.Set("sent_at_min", JsonValue::Int(acc->sent_at.minutes()));
    envelope.Set("payload", std::move(payload));
  } else if (const AssignmentMessage* assign = std::get_if<AssignmentMessage>(&message)) {
    envelope.Set("type", JsonValue::Str(kTypeAssignment));
    JsonValue payload = JsonValue::Object();
    payload.Set("offer", JsonValue::Int(assign->offer));
    payload.Set("start_min", JsonValue::Int(assign->schedule.start.minutes()));
    JsonValue energies = JsonValue::Array();
    for (double e : assign->schedule.energy_kwh) energies.Append(JsonValue::Double(e));
    payload.Set("energy_kwh", std::move(energies));
    payload.Set("sent_at_min", JsonValue::Int(assign->sent_at.minutes()));
    envelope.Set("payload", std::move(payload));
  }
  return envelope.Dump();
}

Result<Message> DecodeMessage(std::string_view text) {
  // A lossy gateway link: an armed fault here models an envelope lost or
  // garbled in transit. Typed, not retried — redelivery is the sender's job.
  FLEXVIS_FAULT_CHECK("core.messages.decode");
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  Result<std::string> type = parsed->GetString("type");
  if (!type.ok()) return type.status();
  const JsonValue& payload = parsed->Get("payload");
  if (!payload.is_object()) return InvalidArgumentError("message: missing payload");

  if (*type == kTypeFlexOffer) {
    Result<FlexOffer> offer = FlexOfferFromJson(payload);
    if (!offer.ok()) return offer.status();
    FLEXVIS_RETURN_IF_ERROR(Validate(*offer));
    return Message(*std::move(offer));
  }
  if (*type == kTypeAcceptance) {
    AcceptanceMessage msg;
    Result<int64_t> offer = payload.GetInt("offer");
    if (!offer.ok()) return offer.status();
    msg.offer = *offer;
    Result<bool> accepted = payload.GetBool("accepted");
    if (!accepted.ok()) return accepted.status();
    msg.accepted = *accepted;
    Result<int64_t> sent = payload.GetInt("sent_at_min");
    if (!sent.ok()) return sent.status();
    msg.sent_at = TimePoint::FromMinutes(*sent);
    return Message(std::move(msg));
  }
  if (*type == kTypeAssignment) {
    AssignmentMessage msg;
    Result<int64_t> offer = payload.GetInt("offer");
    if (!offer.ok()) return offer.status();
    msg.offer = *offer;
    Result<int64_t> start = payload.GetInt("start_min");
    if (!start.ok()) return start.status();
    msg.schedule.start = TimePoint::FromMinutes(*start);
    const JsonValue& energies = payload.Get("energy_kwh");
    if (!energies.is_array()) return InvalidArgumentError("assignment: missing energy_kwh");
    for (size_t i = 0; i < energies.size(); ++i) {
      if (!energies[i].is_number()) {
        return InvalidArgumentError("assignment: non-numeric energy");
      }
      msg.schedule.energy_kwh.push_back(energies[i].AsDouble());
    }
    Result<int64_t> sent = payload.GetInt("sent_at_min");
    if (!sent.ok()) return sent.status();
    msg.sent_at = TimePoint::FromMinutes(*sent);
    return Message(std::move(msg));
  }
  return InvalidArgumentError(StrFormat("message: unknown type '%s'", type->c_str()));
}

std::string EncodeFlexOffer(const FlexOffer& offer) { return FlexOfferToJson(offer).Dump(); }

Result<FlexOffer> DecodeFlexOffer(std::string_view text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return FlexOfferFromJson(*parsed);
}

}  // namespace flexvis::core
