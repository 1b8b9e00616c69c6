#include "dw/database.h"

#include <algorithm>

#include "core/aggregation.h"
#include "util/strings.h"

namespace flexvis::dw {

using core::FlexOffer;
using core::FlexOfferId;
using timeutil::TimePoint;

namespace {

// Column positions of fact_flexoffer, in FactFlexOfferSchema() order. Loads
// and reconstruction address cells through these, never by name.
enum FactColumn : size_t {
  kOfferId,
  kProsumerId,
  kRegionId,
  kGridNodeId,
  kEnergyType,
  kProsumerType,
  kApplianceType,
  kDirection,
  kState,
  kCreationMin,
  kAcceptanceMin,
  kAssignmentMin,
  kEarliestStartMin,
  kLatestStartMin,
  kLatestEndMin,
  kProfileSlices,
  kTotalMinKwh,
  kTotalMaxKwh,
  kTimeFlexMin,
  kScheduledStartMin,  // nullable
  kScheduledKwh,
  kIsAggregate,
};

std::vector<ColumnSpec> FactFlexOfferSchema() {
  return {
      {"offer_id", ColumnType::kInt64},
      {"prosumer_id", ColumnType::kInt64},
      {"region_id", ColumnType::kInt64},
      {"grid_node_id", ColumnType::kInt64},
      {"energy_type", ColumnType::kInt64},
      {"prosumer_type", ColumnType::kInt64},
      {"appliance_type", ColumnType::kInt64},
      {"direction", ColumnType::kInt64},
      {"state", ColumnType::kInt64},
      {"creation_min", ColumnType::kInt64},
      {"acceptance_min", ColumnType::kInt64},
      {"assignment_min", ColumnType::kInt64},
      {"earliest_start_min", ColumnType::kInt64},
      {"latest_start_min", ColumnType::kInt64},
      {"latest_end_min", ColumnType::kInt64},
      {"profile_slices", ColumnType::kInt64},
      {"total_min_kwh", ColumnType::kDouble},
      {"total_max_kwh", ColumnType::kDouble},
      {"time_flex_min", ColumnType::kInt64},
      {"scheduled_start_min", ColumnType::kInt64},  // nullable
      {"scheduled_kwh", ColumnType::kDouble},
      {"is_aggregate", ColumnType::kInt64},
  };
}

// Column positions of fact_profile_slice (one row per unit slice).
enum SliceColumn : size_t { kSliceOfferId, kUnitIndex, kMinKwh, kMaxKwh, kSliceScheduledKwh };

/// Appends a sorted integer list (or "*" when unconstrained) to `out`.
template <typename T>
void AppendSortedList(std::string* out, const char* tag, const std::vector<T>& values) {
  *out += tag;
  *out += '=';
  if (values.empty()) {
    *out += "*;";
    return;
  }
  std::vector<long long> sorted;
  sorted.reserve(values.size());
  for (const T& v : values) sorted.push_back(static_cast<long long>(v));
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) *out += ',';
    *out += StrFormat("%lld", sorted[i]);
  }
  *out += ';';
}

}  // namespace

std::string CanonicalFilterKey(const FlexOfferFilter& filter) {
  std::string key;
  key += filter.prosumer.has_value()
             ? StrFormat("p=%lld;", static_cast<long long>(*filter.prosumer))
             : std::string("p=*;");
  key += filter.window.empty()
             ? std::string("w=*;")
             : StrFormat("w=%lld..%lld;",
                         static_cast<long long>(filter.window.start.minutes()),
                         static_cast<long long>(filter.window.end.minutes()));
  AppendSortedList(&key, "s", filter.states);
  AppendSortedList(&key, "r", filter.regions);
  AppendSortedList(&key, "g", filter.grid_nodes);
  AppendSortedList(&key, "e", filter.energy_types);
  AppendSortedList(&key, "pt", filter.prosumer_types);
  AppendSortedList(&key, "a", filter.appliance_types);
  key += filter.direction.has_value()
             ? StrFormat("d=%d;", static_cast<int>(*filter.direction))
             : std::string("d=*;");
  key += StrFormat("agg=%d", static_cast<int>(filter.aggregates));
  return key;
}

Database::Database()
    : fact_flexoffer_("fact_flexoffer", FactFlexOfferSchema()),
      fact_profile_slice_("fact_profile_slice",
                          {{"offer_id", ColumnType::kInt64},
                           {"unit_index", ColumnType::kInt64},
                           {"min_kwh", ColumnType::kDouble},
                           {"max_kwh", ColumnType::kDouble},
                           {"scheduled_kwh", ColumnType::kDouble}}),  // nullable
      bridge_aggregation_("bridge_aggregation",
                          {{"aggregate_id", ColumnType::kInt64},
                           {"member_id", ColumnType::kInt64}}),
      dim_prosumer_("dim_prosumer",
                    {{"prosumer_id", ColumnType::kInt64},
                     {"name", ColumnType::kString},
                     {"prosumer_type", ColumnType::kInt64},
                     {"region_id", ColumnType::kInt64},
                     {"grid_node_id", ColumnType::kInt64}}),
      dim_region_("dim_region",
                  {{"region_id", ColumnType::kInt64},
                   {"name", ColumnType::kString},
                   {"parent_id", ColumnType::kInt64},
                   {"level", ColumnType::kString}}),
      dim_grid_node_("dim_grid_node",
                     {{"grid_node_id", ColumnType::kInt64},
                      {"name", ColumnType::kString},
                      {"kind", ColumnType::kString},
                      {"parent_id", ColumnType::kInt64}}) {}

Status Database::RegisterProsumer(const ProsumerInfo& prosumer) {
  for (const ProsumerInfo& p : prosumers_) {
    if (p.id == prosumer.id) {
      return AlreadyExistsError(StrFormat("prosumer %lld already registered",
                                          static_cast<long long>(prosumer.id)));
    }
  }
  FLEXVIS_RETURN_IF_ERROR(dim_prosumer_.AppendRow(
      {Value(prosumer.id), Value(prosumer.name), Value(int64_t{static_cast<int64_t>(prosumer.type)}),
       Value(prosumer.region), Value(prosumer.grid_node)}));
  prosumers_.push_back(prosumer);
  return OkStatus();
}

Status Database::RegisterRegion(const RegionInfo& region) {
  for (const RegionInfo& r : regions_) {
    if (r.id == region.id) {
      return AlreadyExistsError(StrFormat("region %lld already registered",
                                          static_cast<long long>(region.id)));
    }
  }
  FLEXVIS_RETURN_IF_ERROR(dim_region_.AppendRow(
      {Value(region.id), Value(region.name), Value(region.parent), Value(region.level)}));
  regions_.push_back(region);
  return OkStatus();
}

Status Database::RegisterGridNode(const GridNodeInfo& node) {
  for (const GridNodeInfo& n : grid_nodes_) {
    if (n.id == node.id) {
      return AlreadyExistsError(StrFormat("grid node %lld already registered",
                                          static_cast<long long>(node.id)));
    }
  }
  FLEXVIS_RETURN_IF_ERROR(dim_grid_node_.AppendRow(
      {Value(node.id), Value(node.name), Value(node.kind), Value(node.parent)}));
  grid_nodes_.push_back(node);
  return OkStatus();
}

Result<ProsumerInfo> Database::FindProsumer(core::ProsumerId id) const {
  for (const ProsumerInfo& p : prosumers_) {
    if (p.id == id) return p;
  }
  return NotFoundError(StrFormat("prosumer %lld not found", static_cast<long long>(id)));
}

Result<RegionInfo> Database::FindRegion(core::RegionId id) const {
  for (const RegionInfo& r : regions_) {
    if (r.id == id) return r;
  }
  return NotFoundError(StrFormat("region %lld not found", static_cast<long long>(id)));
}

Result<GridNodeInfo> Database::FindGridNode(core::GridNodeId id) const {
  for (const GridNodeInfo& n : grid_nodes_) {
    if (n.id == id) return n;
  }
  return NotFoundError(StrFormat("grid node %lld not found", static_cast<long long>(id)));
}

std::vector<core::RegionId> Database::RegionSubtree(core::RegionId root) const {
  std::vector<core::RegionId> out{root};
  // BFS over the parent pointers (regions_ is small; quadratic is fine).
  for (size_t cursor = 0; cursor < out.size(); ++cursor) {
    for (const RegionInfo& r : regions_) {
      if (r.parent == out[cursor]) out.push_back(r.id);
    }
  }
  return out;
}

std::vector<core::GridNodeId> Database::GridSubtree(core::GridNodeId root) const {
  std::vector<core::GridNodeId> out{root};
  for (size_t cursor = 0; cursor < out.size(); ++cursor) {
    for (const GridNodeInfo& n : grid_nodes_) {
      if (n.parent == out[cursor]) out.push_back(n.id);
    }
  }
  return out;
}

void Database::AppendFactRow(const FlexOffer& offer) {
  auto set_int = [&](FactColumn c, int64_t v) { fact_flexoffer_.column(c).AppendInt64(v); };
  auto set_double = [&](FactColumn c, double v) { fact_flexoffer_.column(c).AppendDouble(v); };
  set_int(kOfferId, offer.id);
  set_int(kProsumerId, offer.prosumer);
  set_int(kRegionId, offer.region);
  set_int(kGridNodeId, offer.grid_node);
  set_int(kEnergyType, static_cast<int64_t>(offer.energy_type));
  set_int(kProsumerType, static_cast<int64_t>(offer.prosumer_type));
  set_int(kApplianceType, static_cast<int64_t>(offer.appliance_type));
  set_int(kDirection, static_cast<int64_t>(offer.direction));
  set_int(kState, static_cast<int64_t>(offer.state));
  set_int(kCreationMin, offer.creation_time.minutes());
  set_int(kAcceptanceMin, offer.acceptance_deadline.minutes());
  set_int(kAssignmentMin, offer.assignment_deadline.minutes());
  set_int(kEarliestStartMin, offer.earliest_start.minutes());
  set_int(kLatestStartMin, offer.latest_start.minutes());
  set_int(kLatestEndMin, offer.latest_end().minutes());
  set_int(kProfileSlices, offer.profile_duration_slices());
  set_double(kTotalMinKwh, offer.total_min_energy_kwh());
  set_double(kTotalMaxKwh, offer.total_max_energy_kwh());
  set_int(kTimeFlexMin, offer.time_flexibility_minutes());
  if (offer.schedule.has_value()) {
    set_int(kScheduledStartMin, offer.schedule->start.minutes());
    set_double(kScheduledKwh, offer.total_scheduled_energy_kwh());
  } else {
    fact_flexoffer_.column(kScheduledStartMin).AppendNull();
    set_double(kScheduledKwh, 0.0);
  }
  set_int(kIsAggregate, offer.is_aggregate() ? 1 : 0);

  const std::vector<core::ProfileSlice> units = offer.UnitProfile();
  for (size_t i = 0; i < units.size(); ++i) {
    fact_profile_slice_.column(kSliceOfferId).AppendInt64(offer.id);
    fact_profile_slice_.column(kUnitIndex).AppendInt64(static_cast<int64_t>(i));
    fact_profile_slice_.column(kMinKwh).AppendDouble(units[i].min_energy_kwh);
    fact_profile_slice_.column(kMaxKwh).AppendDouble(units[i].max_energy_kwh);
    Column& scheduled = fact_profile_slice_.column(kSliceScheduledKwh);
    if (offer.schedule.has_value() && i < offer.schedule->energy_kwh.size()) {
      scheduled.AppendDouble(offer.schedule->energy_kwh[i]);
    } else {
      scheduled.AppendNull();
    }
  }
  slice_begin_.push_back(slice_begin_.back() + units.size());
}

Status Database::LoadFlexOffers(const std::vector<FlexOffer>& offers) {
  // Every offer is validated and its id claimed before the first append. An
  // invalid offer or an id already loaded (earlier or within this batch)
  // releases the batch's claims, so a rejected batch leaves no trace.
  const size_t first_row = slice_begin_.size() - 1;
  offer_row_.reserve(offer_row_.size() + offers.size());
  for (size_t i = 0; i < offers.size(); ++i) {
    Status status = core::Validate(offers[i]);
    if (status.ok() && !offer_row_.emplace(offers[i].id, first_row + i).second) {
      status = AlreadyExistsError(StrFormat("flex-offer %lld already loaded",
                                            static_cast<long long>(offers[i].id)));
    }
    if (!status.ok()) {
      for (size_t j = 0; j < i; ++j) offer_row_.erase(offers[j].id);
      return status;
    }
  }
  for (const FlexOffer& offer : offers) {
    AppendFactRow(offer);
    if (offer.is_aggregate()) {
      for (FlexOfferId member : offer.aggregated_from) {
        bridge_aggregation_.column(0).AppendInt64(offer.id);  // aggregate_id, member_id
        bridge_aggregation_.column(1).AppendInt64(member);
      }
      aggregate_members_[offer.id] = offer.aggregated_from;
    }
  }
  FLEXVIS_RETURN_IF_ERROR(fact_flexoffer_.CommitAppendedRows());
  FLEXVIS_RETURN_IF_ERROR(fact_profile_slice_.CommitAppendedRows());
  return bridge_aggregation_.CommitAppendedRows();
}

Status Database::UpdateFlexOffer(const FlexOffer& offer) {
  FLEXVIS_RETURN_IF_ERROR(core::Validate(offer));
  auto it = offer_row_.find(offer.id);
  if (it == offer_row_.end()) {
    return NotFoundError(StrFormat("flex-offer %lld not loaded",
                                   static_cast<long long>(offer.id)));
  }
  const size_t row = it->second;
  // Only the mutable planning outputs are updated; identity and profile are
  // immutable once loaded.
  Table& f = fact_flexoffer_;
  FLEXVIS_RETURN_IF_ERROR(
      f.column(kState).Set(row, Value(static_cast<int64_t>(offer.state))));
  if (offer.schedule.has_value()) {
    FLEXVIS_RETURN_IF_ERROR(
        f.column(kScheduledStartMin).Set(row, Value(offer.schedule->start.minutes())));
    FLEXVIS_RETURN_IF_ERROR(
        f.column(kScheduledKwh).Set(row, Value(offer.total_scheduled_energy_kwh())));
  } else {
    FLEXVIS_RETURN_IF_ERROR(f.column(kScheduledStartMin).Set(row, Value::Null()));
    FLEXVIS_RETURN_IF_ERROR(f.column(kScheduledKwh).Set(row, Value(0.0)));
  }
  // Per-slice scheduled energies.
  Column& scheduled = fact_profile_slice_.column(kSliceScheduledKwh);
  for (size_t r = slice_begin_[row]; r < slice_begin_[row + 1]; ++r) {
    const size_t i = r - slice_begin_[row];
    Value v = Value::Null();
    if (offer.schedule.has_value() && i < offer.schedule->energy_kwh.size()) {
      v = Value(offer.schedule->energy_kwh[i]);
    }
    FLEXVIS_RETURN_IF_ERROR(scheduled.Set(r, v));
  }
  return OkStatus();
}

core::FlexOffer Database::ReconstructOffer(size_t fact_row) const {
  auto get = [&](FactColumn c) { return fact_flexoffer_.column(c).GetInt64(fact_row); };
  FlexOffer offer;
  offer.id = get(kOfferId);
  offer.prosumer = get(kProsumerId);
  offer.region = get(kRegionId);
  offer.grid_node = get(kGridNodeId);
  offer.energy_type = static_cast<core::EnergyType>(get(kEnergyType));
  offer.prosumer_type = static_cast<core::ProsumerType>(get(kProsumerType));
  offer.appliance_type = static_cast<core::ApplianceType>(get(kApplianceType));
  offer.direction = static_cast<core::Direction>(get(kDirection));
  offer.state = static_cast<core::FlexOfferState>(get(kState));
  offer.creation_time = TimePoint::FromMinutes(get(kCreationMin));
  offer.acceptance_deadline = TimePoint::FromMinutes(get(kAcceptanceMin));
  offer.assignment_deadline = TimePoint::FromMinutes(get(kAssignmentMin));
  offer.earliest_start = TimePoint::FromMinutes(get(kEarliestStartMin));
  offer.latest_start = TimePoint::FromMinutes(get(kLatestStartMin));

  // Profile from the offer's run of rows in the slice fact table.
  const size_t begin = slice_begin_[fact_row];
  const size_t end = slice_begin_[fact_row + 1];
  const Column& min_col = fact_profile_slice_.column(kMinKwh);
  const Column& max_col = fact_profile_slice_.column(kMaxKwh);
  const Column& sch_col = fact_profile_slice_.column(kSliceScheduledKwh);
  std::vector<core::ProfileSlice> units;
  std::vector<double> scheduled;
  units.reserve(end - begin);
  scheduled.reserve(end - begin);
  bool any_scheduled = false;
  for (size_t r = begin; r < end; ++r) {
    units.push_back(core::ProfileSlice{1, min_col.GetDouble(r), max_col.GetDouble(r)});
    const bool has_schedule = !sch_col.IsNull(r);
    any_scheduled = any_scheduled || has_schedule;
    scheduled.push_back(has_schedule ? sch_col.GetDouble(r) : 0.0);
  }
  offer.profile = core::CompressProfile(units);

  const Column& sched_start = fact_flexoffer_.column(kScheduledStartMin);
  if (!sched_start.IsNull(fact_row) && any_scheduled) {
    core::Schedule sched;
    sched.start = TimePoint::FromMinutes(sched_start.GetInt64(fact_row));
    sched.energy_kwh = std::move(scheduled);
    offer.schedule = std::move(sched);
  }

  auto agg_it = aggregate_members_.find(offer.id);
  if (agg_it != aggregate_members_.end()) offer.aggregated_from = agg_it->second;
  return offer;
}

Result<std::vector<FlexOffer>> Database::SelectFlexOffers(const FlexOfferFilter& filter) const {
  std::vector<Predicate> where;
  if (filter.prosumer.has_value()) {
    where.push_back(Predicate::Eq("prosumer_id", Value(*filter.prosumer)));
  }
  if (!filter.window.empty()) {
    // Overlap test: extent.start < window.end AND extent.end > window.start.
    where.push_back(Predicate::Lt("earliest_start_min", Value(filter.window.end.minutes())));
    where.push_back(Predicate::Gt("latest_end_min", Value(filter.window.start.minutes())));
  }
  auto in_list = [](auto items) {
    std::vector<Value> vs;
    vs.reserve(items.size());
    for (auto item : items) vs.push_back(Value(static_cast<int64_t>(item)));
    return vs;
  };
  if (!filter.states.empty()) {
    where.push_back(Predicate::In("state", in_list(filter.states)));
  }
  if (!filter.regions.empty()) {
    where.push_back(Predicate::In("region_id", in_list(filter.regions)));
  }
  if (!filter.grid_nodes.empty()) {
    where.push_back(Predicate::In("grid_node_id", in_list(filter.grid_nodes)));
  }
  if (!filter.energy_types.empty()) {
    where.push_back(Predicate::In("energy_type", in_list(filter.energy_types)));
  }
  if (!filter.prosumer_types.empty()) {
    where.push_back(Predicate::In("prosumer_type", in_list(filter.prosumer_types)));
  }
  if (!filter.appliance_types.empty()) {
    where.push_back(Predicate::In("appliance_type", in_list(filter.appliance_types)));
  }
  if (filter.direction.has_value()) {
    where.push_back(
        Predicate::Eq("direction", Value(static_cast<int64_t>(*filter.direction))));
  }
  if (filter.aggregates == FlexOfferFilter::AggregateFilter::kOnlyAggregates) {
    where.push_back(Predicate::Eq("is_aggregate", Value(int64_t{1})));
  } else if (filter.aggregates == FlexOfferFilter::AggregateFilter::kOnlyRaw) {
    where.push_back(Predicate::Eq("is_aggregate", Value(int64_t{0})));
  }

  Result<std::vector<size_t>> rows = FilterRows(fact_flexoffer_, where);
  if (!rows.ok()) return rows.status();

  std::vector<FlexOffer> out;
  out.reserve(rows->size());
  for (size_t r : *rows) out.push_back(ReconstructOffer(r));
  std::sort(out.begin(), out.end(),
            [](const FlexOffer& a, const FlexOffer& b) { return a.id < b.id; });
  return out;
}

Result<FlexOfferFilter> MakeRegionFilter(const Database& db, core::RegionId region) {
  Result<RegionInfo> found = db.FindRegion(region);
  if (!found.ok()) return found.status();
  FlexOfferFilter filter;
  filter.regions = db.RegionSubtree(region);
  return filter;
}

Result<FlexOfferFilter> MakeGridFilter(const Database& db, core::GridNodeId node) {
  Result<GridNodeInfo> found = db.FindGridNode(node);
  if (!found.ok()) return found.status();
  FlexOfferFilter filter;
  filter.grid_nodes = db.GridSubtree(node);
  return filter;
}

Result<core::FlexOffer> Database::GetFlexOffer(core::FlexOfferId id) const {
  auto it = offer_row_.find(id);
  if (it == offer_row_.end()) {
    return NotFoundError(StrFormat("flex-offer %lld not loaded", static_cast<long long>(id)));
  }
  return ReconstructOffer(it->second);
}

}  // namespace flexvis::dw
