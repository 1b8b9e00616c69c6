#ifndef FLEXVIS_CORE_AGGREGATION_H_
#define FLEXVIS_CORE_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "core/flex_offer.h"
#include "util/status.h"

namespace flexvis::core {

/// Parameters of the grid-based flex-offer aggregation of Šikšnys et al.
/// (SSDBM 2012), the algorithm integrated into the visualization tool
/// (Fig. 11: "interactive tuning values of the aggregation parameters").
///
/// Offers are partitioned into grid cells; one aggregate is built per cell.
/// Two offers land in the same cell only when their earliest start times lie
/// in the same `est_tolerance_minutes`-wide bucket and their time
/// flexibilities lie in the same `tft_tolerance_minutes`-wide bucket, so the
/// time flexibility lost by a member is bounded by the two tolerances.
struct AggregationParams {
  /// Width of the earliest-start-time grid (minutes). 0 means members must
  /// share the exact earliest start.
  int64_t est_tolerance_minutes = 60;

  /// Width of the time-flexibility grid (minutes). 0 means members must have
  /// identical time flexibility.
  int64_t tft_tolerance_minutes = 60;

  /// Maximum members per aggregate; 0 = unlimited. Groups larger than the
  /// cap are split in arrival order.
  int max_group_size = 0;

  /// When set, offers with different values of the attribute never share an
  /// aggregate. Direction is always a hard partition (consumption and
  /// production cannot be summed into one profile).
  bool partition_by_region = false;
  bool partition_by_energy_type = false;
  bool partition_by_prosumer_type = false;
  bool partition_by_appliance_type = false;
  bool partition_by_grid_node = false;
};

/// Result of one aggregation run.
struct AggregationResult {
  /// The aggregated offers. Singleton cells still yield an aggregate (with
  /// one constituent) so downstream code can treat the result uniformly.
  std::vector<FlexOffer> aggregates;

  /// Offers that could not be aggregated (failed validation); passed through
  /// untouched so no data silently disappears from a view.
  std::vector<FlexOffer> passthrough;

  /// Member positions in the aggregated input, as CSR: the members of
  /// aggregates[g] are offers[member_index[k]] for k in
  /// [member_begin[g], member_begin[g + 1]), listed in aggregated_from order.
  /// Filled by Aggregator::Aggregate (member_begin then has
  /// aggregates.size() + 1 entries), so callers can gather members by
  /// position instead of looking their ids up.
  std::vector<uint32_t> member_begin;
  std::vector<uint32_t> member_index;
};

/// Grid-based start-alignment aggregator. Stateless apart from the id
/// counter used to number produced aggregates.
class Aggregator {
 public:
  explicit Aggregator(AggregationParams params) : params_(params) {}

  const AggregationParams& params() const { return params_; }

  /// Aggregates `offers`. `next_id` numbers the produced aggregates and is
  /// advanced past the ids consumed (in/out so repeated calls keep ids
  /// unique).
  ///
  /// Aggregate construction per cell (start alignment):
  ///  - aggregate earliest start = min of member earliest starts;
  ///  - member profiles are placed at their own earliest-start offsets and
  ///    min/max energies are summed per 15-minute unit slice;
  ///  - aggregate time flexibility = min of member time flexibilities, so any
  ///    start shift of the aggregate is feasible for every member;
  ///  - deadlines are the most restrictive member deadlines (clamped so the
  ///    aggregate still validates).
  AggregationResult Aggregate(const std::vector<FlexOffer>& offers, FlexOfferId* next_id) const;

 private:
  AggregationParams params_;
};

/// Reverses aggregation for one scheduled aggregate: distributes its start
/// shift and per-unit-slice energies onto copies of the member offers.
///
/// `members` must be exactly the offers listed in `aggregate.aggregated_from`
/// (same order not required). Each returned member carries a schedule with
///  - start = member earliest start + (aggregate scheduled start - aggregate
///    earliest start), and
///  - per-unit energies that distribute each aggregate slice's scheduled
///    energy proportionally to the member's share of the slice's energy
///    flexibility.
/// The distribution is exact: summing member schedules over absolute time
/// reproduces the aggregate schedule (up to floating-point rounding).
Result<std::vector<FlexOffer>> Disaggregate(const FlexOffer& aggregate,
                                            const std::vector<FlexOffer>& members);

/// The in-place kernel behind Disaggregate: schedules `members[0, n)` from
/// `aggregate`'s schedule and marks them assigned. The caller guarantees that
/// the run holds exactly the aggregate's members (any order) and that the
/// aggregate carries a schedule; the start-shift, schedule-size and member
/// alignment checks are the kernel's, with Disaggregate's error codes. On
/// error the members may be left partially scheduled.
Status DisaggregateInPlace(const FlexOffer& aggregate, FlexOffer* members, size_t n);

/// Compresses consecutive unit slices with identical bounds back into
/// run-length-encoded profile slices.
std::vector<ProfileSlice> CompressProfile(const std::vector<ProfileSlice>& units);

/// Column form of CompressProfile: compresses parallel per-unit min/max
/// energy arrays of length `n` into run-length-encoded profile slices.
/// Byte-identical to CompressProfile over the equivalent unit slices.
std::vector<ProfileSlice> CompressColumns(const double* unit_min_kwh,
                                          const double* unit_max_kwh, size_t n);

}  // namespace flexvis::core

#endif  // FLEXVIS_CORE_AGGREGATION_H_
