#include "core/aggregation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "core/profile_columns.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/strings.h"

namespace flexvis::core {

using timeutil::kMinutesPerSlice;
using timeutil::TimePoint;

namespace {

// Exact floor division by a positive call-constant divisor without the
// hardware divide (which dominates the key sweep): a double estimate is
// corrected to the true floor quotient, so the result is exact for every
// |a| < 2^52.
int64_t FastFloorDiv(int64_t a, int64_t b, double inv_b) {
  int64_t q = static_cast<int64_t>(std::floor(static_cast<double>(a) * inv_b));
  int64_t r = a - q * b;
  while (r < 0) {
    --q;
    r += b;
  }
  while (r >= b) {
    ++q;
    r -= b;
  }
  return q;
}

// Grid-cell key; offers sharing a key may be aggregated together.
struct CellKey {
  int direction;
  int64_t est_bucket;
  int64_t tft_bucket;
  int64_t region;
  int energy;
  int prosumer;
  int appliance;
  int64_t grid_node;

  auto Tie() const {
    return std::tie(direction, est_bucket, tft_bucket, region, energy, prosumer, appliance,
                    grid_node);
  }
  friend bool operator<(const CellKey& a, const CellKey& b) { return a.Tie() < b.Tie(); }
  friend bool operator==(const CellKey& a, const CellKey& b) { return a.Tie() == b.Tie(); }
};

// Field-wise odd-constant multiplies folded by a splitmix64 finisher. The
// eight multiplies are independent (no xor-multiply dependency chain like
// FNV), so the hash pipelines well in the grouping sweep; the final groups
// are re-sorted by the full CellKey ordering, so hash quality only affects
// probe lengths, never the output.
struct CellKeyHash {
  size_t operator()(const CellKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.direction) * 0x9E3779B97F4A7C15ull ^
                 static_cast<uint64_t>(k.est_bucket) * 0xC2B2AE3D27D4EB4Full ^
                 static_cast<uint64_t>(k.tft_bucket) * 0x165667B19E3779F9ull ^
                 static_cast<uint64_t>(k.region) * 0x27D4EB2F165667C5ull ^
                 static_cast<uint64_t>(k.energy) * 0x85EBCA77C2B2AE63ull ^
                 static_cast<uint64_t>(k.prosumer) * 0xFF51AFD7ED558CCDull ^
                 static_cast<uint64_t>(k.appliance) * 0xC4CEB9FE1A85EC53ull ^
                 static_cast<uint64_t>(k.grid_node) * 0x2545F4914F6CDD1Dull;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
    return static_cast<size_t>(h);
  }
};

// Grid key from the scalar columns; the AoS record is only touched for the
// partition attributes, and only when the corresponding flag is on (they all
// default to off, so the common sweep reads columns alone).
CellKey MakeKey(const ProfileColumns& cols, size_t i, const FlexOffer& offer,
                const AggregationParams& p, double inv_est_tol, double inv_tft_tol) {
  const int64_t est = cols.earliest_start_min()[i];
  const int64_t tft = cols.time_flex_min()[i];
  CellKey key{};
  key.direction = static_cast<int>(cols.direction()[i]);
  key.est_bucket = p.est_tolerance_minutes > 0
                       ? FastFloorDiv(est, p.est_tolerance_minutes, inv_est_tol)
                       : est;
  key.tft_bucket = p.tft_tolerance_minutes > 0
                       ? FastFloorDiv(tft, p.tft_tolerance_minutes, inv_tft_tol)
                       : tft;
  key.region = p.partition_by_region ? offer.region : 0;
  key.energy = p.partition_by_energy_type ? static_cast<int>(offer.energy_type) : 0;
  key.prosumer = p.partition_by_prosumer_type ? static_cast<int>(offer.prosumer_type) : 0;
  key.appliance = p.partition_by_appliance_type ? static_cast<int>(offer.appliance_type) : 0;
  key.grid_node = p.partition_by_grid_node ? offer.grid_node : 0;
  return key;
}

// Insertion-ordered open-addressed cell-key interner: keys in first-seen
// order plus a power-of-two probe array mapping hash slots to entry index + 1
// (0 = empty). Compared to an unordered_map, find-or-insert touches no heap
// nodes; memberships are kept out of the table entirely (the grouping pass
// records a flat entry id per offer and builds CSR ranges from counts).
struct GroupTable {
  std::vector<CellKey> keys;
  std::vector<uint32_t> slots;
  size_t mask = 0;

  int32_t FindOrInsert(const CellKey& k) {
    if ((keys.size() + 1) * 2 > slots.size()) Grow();
    size_t s = CellKeyHash{}(k) & mask;
    while (true) {
      const uint32_t v = slots[s];
      if (v == 0) {
        slots[s] = static_cast<uint32_t>(keys.size()) + 1;
        keys.push_back(k);
        return static_cast<int32_t>(keys.size()) - 1;
      }
      if (keys[v - 1] == k) return static_cast<int32_t>(v) - 1;
      s = (s + 1) & mask;
    }
  }

  // Lookup of a key known to be present (read-only, safe to call from
  // multiple threads once the table is built).
  int32_t Find(const CellKey& k) const {
    size_t s = CellKeyHash{}(k) & mask;
    while (true) {
      const uint32_t v = slots[s];
      if (v != 0 && keys[v - 1] == k) return static_cast<int32_t>(v) - 1;
      s = (s + 1) & mask;
    }
  }

  void Grow() {
    const size_t cap = slots.empty() ? 64 : slots.size() * 4;
    slots.assign(cap, 0);
    mask = cap - 1;
    for (size_t e = 0; e < keys.size(); ++e) {
      size_t s = CellKeyHash{}(keys[e]) & mask;
      while (slots[s] != 0) s = (s + 1) & mask;
      slots[s] = static_cast<uint32_t>(e) + 1;
    }
  }
};

// Per-group scalar minima over the compact int64 columns; TimePoint ordering
// is its minute value, so these match the AoS TimePoint minima. Min is
// order-independent, so a single sequential sweep over the offer columns
// produces exactly what a per-group gather would.
struct GroupMins {
  int64_t est = INT64_MAX;
  int64_t tft = INT64_MAX;
  int64_t acceptance = INT64_MAX;
  int64_t assignment = INT64_MAX;
  int64_t creation = INT64_MAX;
  // Latest minute any member's profile reaches; the group's unit extent is
  // (end_max - est) / kMinutesPerSlice (members are slice-aligned, so the
  // difference divides exactly).
  int64_t end_max = INT64_MIN;
};

// Assembles one aggregate offer from its precomputed minima and summed
// envelope. `members` points at `num_members` indexes into `offers`/`cols`.
FlexOffer FinishAggregate(const uint32_t* members, size_t num_members, FlexOfferId id,
                          const std::vector<FlexOffer>& offers, const ProfileColumns& cols,
                          const GroupMins& m, const double* sum_min, const double* sum_max,
                          size_t total_units) {
  FlexOffer agg;
  agg.id = id;
  agg.prosumer = kInvalidProsumerId;  // an aggregate spans prosumers
  // Attribute values are taken from the first member; when the corresponding
  // partition flag is on they are uniform across the cell by construction.
  const FlexOffer& head = offers[members[0]];
  agg.region = head.region;
  agg.grid_node = head.grid_node;
  agg.energy_type = head.energy_type;
  agg.prosumer_type = head.prosumer_type;
  agg.appliance_type = head.appliance_type;
  agg.direction = head.direction;
  agg.state = FlexOfferState::kOffered;
  agg.earliest_start = TimePoint::FromMinutes(m.est);
  agg.latest_start = TimePoint::FromMinutes(m.est + m.tft);
  // The most restrictive member deadlines, clamped into validity.
  agg.assignment_deadline = TimePoint::FromMinutes(std::min(m.assignment, m.est + m.tft));
  agg.acceptance_deadline =
      TimePoint::FromMinutes(std::min(m.acceptance, agg.assignment_deadline.minutes()));
  agg.creation_time =
      TimePoint::FromMinutes(std::min(m.creation, agg.acceptance_deadline.minutes()));
  agg.profile = CompressColumns(sum_min, sum_max, total_units);
  const int64_t* FLEXVIS_RESTRICT ids = cols.offer_id();
  agg.aggregated_from.reserve(num_members);
  for (size_t k = 0; k < num_members; ++k) {
    agg.aggregated_from.push_back(static_cast<FlexOfferId>(ids[members[k]]));
  }
  return agg;
}

// Unit slices of an RLE profile as UnitProfile() expands it: a slice with a
// non-positive duration expands to none.
size_t UnitCount(const FlexOffer& offer) {
  size_t units = 0;
  for (const ProfileSlice& slice : offer.profile) {
    units += static_cast<size_t>(std::max(slice.duration_slices, 0));
  }
  return units;
}

}  // namespace

std::vector<ProfileSlice> CompressProfile(const std::vector<ProfileSlice>& units) {
  std::vector<ProfileSlice> out;
  for (const ProfileSlice& u : units) {
    for (int i = 0; i < u.duration_slices; ++i) {
      if (!out.empty() && out.back().min_energy_kwh == u.min_energy_kwh &&
          out.back().max_energy_kwh == u.max_energy_kwh) {
        ++out.back().duration_slices;
      } else {
        out.push_back(ProfileSlice{1, u.min_energy_kwh, u.max_energy_kwh});
      }
    }
  }
  return out;
}

std::vector<ProfileSlice> CompressColumns(const double* unit_min_kwh,
                                          const double* unit_max_kwh, size_t n) {
  std::vector<ProfileSlice> out;
  for (size_t i = 0; i < n; ++i) {
    if (!out.empty() && out.back().min_energy_kwh == unit_min_kwh[i] &&
        out.back().max_energy_kwh == unit_max_kwh[i]) {
      ++out.back().duration_slices;
    } else {
      out.push_back(ProfileSlice{1, unit_min_kwh[i], unit_max_kwh[i]});
    }
  }
  return out;
}

AggregationResult Aggregator::Aggregate(const std::vector<FlexOffer>& offers,
                                        FlexOfferId* next_id) const {
  // Fixed chunk width for validation and grouping; chunk boundaries must not
  // depend on the thread count or the grouped order (and hence the output)
  // would change between serial and threaded runs.
  constexpr size_t kGrain = 2048;

  AggregationResult result;

  // One SoA build for the whole call: the grid build reads the per-offer
  // scalar columns and the envelope summation streams the unit columns, so
  // the hot loops below never chase per-offer profile vectors.
  const ProfileColumns cols = ProfileColumns::FromOffers(offers);

  // Validity was accumulated by the column build itself.
  const uint8_t* FLEXVIS_RESTRICT valid = cols.valid();

  // Grid keys are computed and interned in one pass, producing a flat
  // entry-id column; memberships then materialize as CSR ranges over one
  // flat index array (counts -> prefix -> ascending scatter), so within a
  // cell the members are in arrival order exactly as a serial single-pass
  // insert would produce. Hash interning leaves the cells unordered, so the
  // ranges are laid out in sorted full-CellKey order — the resulting group
  // sequence is identical to the ordered-map build this replaces.
  const double inv_est_tol =
      params_.est_tolerance_minutes > 0 ? 1.0 / params_.est_tolerance_minutes : 0.0;
  const double inv_tft_tol =
      params_.tft_tolerance_minutes > 0 ? 1.0 / params_.tft_tolerance_minutes : 0.0;
  std::vector<int32_t> entry(offers.size(), -1);
  GroupTable cells;
  if (ParallelThreadCount() <= 1) {
    for (size_t i = 0; i < offers.size(); ++i) {
      if (valid[i]) {
        entry[i] = cells.FindOrInsert(
            MakeKey(cols, i, offers[i], params_, inv_est_tol, inv_tft_tol));
      }
    }
  } else {
    // Threaded: intern the keys chunk-wise (merged in chunk order), then
    // resolve every offer's entry id against the final table. Entry ids only
    // feed the sorted layout below, so the merge order cannot leak into the
    // output.
    cells = ParallelReduce<GroupTable>(
        0, offers.size(), kGrain, GroupTable{},
        [&](size_t begin, size_t end) {
          GroupTable local;
          for (size_t i = begin; i < end; ++i) {
            if (valid[i]) {
              local.FindOrInsert(MakeKey(cols, i, offers[i], params_, inv_est_tol, inv_tft_tol));
            }
          }
          return local;
        },
        [](GroupTable acc, GroupTable chunk) {
          if (acc.keys.empty()) return chunk;
          for (const CellKey& k : chunk.keys) acc.FindOrInsert(k);
          return acc;
        });
    ParallelFor(0, offers.size(), kGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (valid[i]) {
          entry[i] = cells.Find(MakeKey(cols, i, offers[i], params_, inv_est_tol, inv_tft_tol));
        }
      }
    });
  }

  for (size_t i = 0; i < offers.size(); ++i) {
    if (!valid[i]) result.passthrough.push_back(offers[i]);
  }

  // CSR layout: per-cell counts, cell ranges in sorted key order, then one
  // ascending scatter of the member indexes — arrival order within each cell.
  const size_t num_cells = cells.keys.size();
  std::vector<uint32_t> cell_count(num_cells, 0);
  for (size_t i = 0; i < offers.size(); ++i) {
    if (entry[i] >= 0) ++cell_count[entry[i]];
  }
  std::vector<uint32_t> ordered(num_cells);
  for (size_t e = 0; e < num_cells; ++e) ordered[e] = static_cast<uint32_t>(e);
  std::sort(ordered.begin(), ordered.end(),
            [&](uint32_t a, uint32_t b) { return cells.keys[a] < cells.keys[b]; });
  std::vector<uint32_t> cell_begin(num_cells, 0);  // indexed by entry id
  uint32_t at = 0;
  for (const uint32_t e : ordered) {
    cell_begin[e] = at;
    at += cell_count[e];
  }
  std::vector<uint32_t> flat(at);
  std::vector<uint32_t> cursor = cell_begin;
  for (size_t i = 0; i < offers.size(); ++i) {
    if (entry[i] >= 0) flat[cursor[entry[i]]++] = static_cast<uint32_t>(i);
  }

  // Split each cell range into capped groups in (cell key, arrival) order.
  // The cell ranges tile `flat` in that order, so the group boundaries are
  // the result's member CSR as they stand. Ids are assigned by group index up
  // front so numbering matches the serial order no matter which worker runs
  // a group.
  std::vector<uint32_t>& group_begin = result.member_begin;
  group_begin.reserve(num_cells + 1);
  for (const uint32_t e : ordered) {
    const uint32_t begin = cell_begin[e];
    const uint32_t end = begin + cell_count[e];
    uint32_t cap = params_.max_group_size > 0 ? static_cast<uint32_t>(params_.max_group_size)
                                              : cell_count[e];
    if (cap == 0) cap = 1;
    for (uint32_t b = begin; b < end; b += cap) group_begin.push_back(b);
  }
  group_begin.push_back(at);
  const size_t num_groups = group_begin.size() - 1;
  const FlexOfferId base_id = *next_id;
  *next_id += static_cast<FlexOfferId>(num_groups);
  result.aggregates.resize(num_groups);

  // Envelope summation runs over the offer columns instead of per-group
  // gathers: group_of[] inverts the grouping, the minima and unit extents
  // fold in flat sweeps, and the per-unit sums land in one packed buffer.
  // Members of every group are visited in ascending offer index on both the
  // serial and the threaded path, so the floating-point add order — and hence
  // the output bits — cannot depend on the thread count.
  const int64_t* FLEXVIS_RESTRICT est = cols.earliest_start_min();
  const int64_t* FLEXVIS_RESTRICT tft = cols.time_flex_min();
  const int64_t* FLEXVIS_RESTRICT acceptance = cols.acceptance_min();
  const int64_t* FLEXVIS_RESTRICT assignment = cols.assignment_min();
  const int64_t* FLEXVIS_RESTRICT creation = cols.creation_min();
  const size_t* FLEXVIS_RESTRICT unit_offset = cols.unit_offset();
  std::vector<int32_t> group_of(offers.size(), -1);
  for (size_t g = 0; g < num_groups; ++g) {
    for (uint32_t k = group_begin[g]; k < group_begin[g + 1]; ++k) {
      group_of[flat[k]] = static_cast<int32_t>(g);
    }
  }
  // Scalar minima/maxima are int64 folds (order-independent), so one sweep
  // over the compact columns matches the per-group reduction exactly.
  std::vector<GroupMins> mins(num_groups);
  for (size_t i = 0; i < offers.size(); ++i) {
    const int32_t g = group_of[i];
    if (g < 0) continue;
    GroupMins& m = mins[g];
    m.est = std::min(m.est, est[i]);
    m.tft = std::min(m.tft, tft[i]);
    m.acceptance = std::min(m.acceptance, acceptance[i]);
    m.assignment = std::min(m.assignment, assignment[i]);
    m.creation = std::min(m.creation, creation[i]);
    m.end_max = std::max(
        m.end_max,
        est[i] + kMinutesPerSlice * static_cast<int64_t>(unit_offset[i + 1] - unit_offset[i]));
  }
  std::vector<size_t> total_units(num_groups, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    total_units[g] = static_cast<size_t>((mins[g].end_max - mins[g].est) / kMinutesPerSlice);
  }
  std::vector<size_t> buf_off(num_groups + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) buf_off[g + 1] = buf_off[g] + total_units[g];
  std::vector<double> sum_min(buf_off.back(), 0.0);
  std::vector<double> sum_max(buf_off.back(), 0.0);
  auto accumulate_member = [&](size_t i, int32_t g) {
    const size_t offset = static_cast<size_t>((est[i] - mins[g].est) / kMinutesPerSlice);
    const size_t n = unit_offset[i + 1] - unit_offset[i];
    const double* FLEXVIS_RESTRICT src_min = cols.unit_min_kwh() + unit_offset[i];
    const double* FLEXVIS_RESTRICT src_max = cols.unit_max_kwh() + unit_offset[i];
    double* FLEXVIS_RESTRICT dst_min = sum_min.data() + buf_off[g] + offset;
    double* FLEXVIS_RESTRICT dst_max = sum_max.data() + buf_off[g] + offset;
    for (size_t u = 0; u < n; ++u) dst_min[u] += src_min[u];
    for (size_t u = 0; u < n; ++u) dst_max[u] += src_max[u];
  };
  if (ParallelThreadCount() <= 1) {
    // Serial: one ascending scatter sweep — the unit columns are streamed
    // front to back exactly once.
    for (size_t i = 0; i < offers.size(); ++i) {
      if (group_of[i] >= 0) accumulate_member(i, group_of[i]);
    }
  } else {
    // Threaded: groups are independent work items, each visiting its members
    // in ascending index — the same per-group add order as the serial sweep.
    ParallelFor(0, num_groups, 1, [&](size_t begin, size_t end) {
      for (size_t g = begin; g < end; ++g) {
        for (uint32_t k = group_begin[g]; k < group_begin[g + 1]; ++k) {
          accumulate_member(flat[k], static_cast<int32_t>(g));
        }
      }
    });
  }
  // Grain 1: group counts are small (tens) while compressing and assembling
  // an aggregate is comparatively heavy. Ids were preassigned above, so the
  // schedule cannot affect the output.
  ParallelFor(0, num_groups, 1, [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      result.aggregates[g] =
          FinishAggregate(flat.data() + group_begin[g], group_begin[g + 1] - group_begin[g],
                          base_id + static_cast<FlexOfferId>(g), offers, cols, mins[g],
                          sum_min.data() + buf_off[g], sum_max.data() + buf_off[g],
                          total_units[g]);
    }
  });
  result.member_index = std::move(flat);
  return result;
}

Result<std::vector<FlexOffer>> Disaggregate(const FlexOffer& aggregate,
                                            const std::vector<FlexOffer>& members) {
  if (!aggregate.is_aggregate()) {
    return InvalidArgumentError(StrFormat("flex-offer %lld is not an aggregate",
                                          static_cast<long long>(aggregate.id)));
  }
  if (!aggregate.schedule.has_value()) {
    return FailedPreconditionError(StrFormat("aggregate %lld has no schedule to disaggregate",
                                             static_cast<long long>(aggregate.id)));
  }
  if (members.size() != aggregate.aggregated_from.size()) {
    return InvalidArgumentError(
        StrFormat("aggregate %lld lists %zu members but %zu were supplied",
                  static_cast<long long>(aggregate.id), aggregate.aggregated_from.size(),
                  members.size()));
  }
  // Membership in one pass: each supplied id is searched in a sorted copy of
  // the listed ids.
  std::vector<FlexOfferId> listed = aggregate.aggregated_from;
  std::sort(listed.begin(), listed.end());
  for (const FlexOffer& m : members) {
    if (!std::binary_search(listed.begin(), listed.end(), m.id)) {
      return InvalidArgumentError(StrFormat("offer %lld is not a member of aggregate %lld",
                                            static_cast<long long>(m.id),
                                            static_cast<long long>(aggregate.id)));
    }
  }
  std::vector<FlexOffer> out = members;
  FLEXVIS_RETURN_IF_ERROR(DisaggregateInPlace(aggregate, out.data(), out.size()));
  return out;
}

Status DisaggregateInPlace(const FlexOffer& aggregate, FlexOffer* members, size_t n) {
  const int64_t shift = aggregate.schedule->start - aggregate.earliest_start;
  if (shift < 0 || shift > aggregate.time_flexibility_minutes()) {
    return InvalidArgumentError(StrFormat("aggregate %lld schedule start outside flexibility",
                                          static_cast<long long>(aggregate.id)));
  }
  const std::vector<double>& agg_energy = aggregate.schedule->energy_kwh;
  const size_t agg_units = UnitCount(aggregate);
  if (agg_energy.size() != agg_units) {
    return InvalidArgumentError(StrFormat("aggregate %lld schedule/profile size mismatch",
                                          static_cast<long long>(aggregate.id)));
  }

  // The share of each aggregate unit slice's energy flexibility its schedule
  // uses; every member takes the same share of its own flexibility there.
  std::vector<double> fraction;
  fraction.reserve(agg_units);
  for (const ProfileSlice& slice : aggregate.profile) {
    const double slack = slice.max_energy_kwh - slice.min_energy_kwh;
    for (int i = 0; i < slice.duration_slices; ++i) {
      double f = 0.0;
      if (slack > 0.0) {
        f = (agg_energy[fraction.size()] - slice.min_energy_kwh) / slack;
        f = std::clamp(f, 0.0, 1.0);
      }
      fraction.push_back(f);
    }
  }

  for (size_t k = 0; k < n; ++k) {
    FlexOffer& member = members[k];
    const int64_t offset_minutes = member.earliest_start - aggregate.earliest_start;
    if (offset_minutes < 0 || offset_minutes % kMinutesPerSlice != 0) {
      return InternalError(StrFormat("member %lld misaligned with aggregate %lld",
                                     static_cast<long long>(member.id),
                                     static_cast<long long>(aggregate.id)));
    }
    const size_t offset = static_cast<size_t>(offset_minutes / kMinutesPerSlice);
    const size_t units = UnitCount(member);
    if (units > 0 && offset + units > agg_units) {
      return InternalError(StrFormat("member %lld extends past aggregate %lld profile",
                                     static_cast<long long>(member.id),
                                     static_cast<long long>(aggregate.id)));
    }
    Schedule sched;
    sched.start = member.earliest_start + shift;
    sched.energy_kwh.resize(units);
    double* FLEXVIS_RESTRICT out = sched.energy_kwh.data();
    const double* FLEXVIS_RESTRICT f = fraction.data() + offset;
    for (const ProfileSlice& slice : member.profile) {
      const double range = slice.max_energy_kwh - slice.min_energy_kwh;
      for (int i = 0; i < slice.duration_slices; ++i) *out++ = slice.min_energy_kwh + *f++ * range;
    }
    member.schedule = std::move(sched);
    member.state = FlexOfferState::kAssigned;
  }
  return OkStatus();
}

}  // namespace flexvis::core
