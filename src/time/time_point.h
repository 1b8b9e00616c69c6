#ifndef FLEXVIS_TIME_TIME_POINT_H_
#define FLEXVIS_TIME_TIME_POINT_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace flexvis::timeutil {

/// Civil calendar decomposition of a TimePoint (proleptic Gregorian, no time
/// zones: MIRABEL plans in a single market zone).
struct CalendarTime {
  int year = 2000;
  int month = 1;    // 1..12
  int day = 1;      // 1..31
  int hour = 0;     // 0..23
  int minute = 0;   // 0..59
  int day_of_week = 6;  // 0 = Monday .. 6 = Sunday (2000-01-01 was a Saturday)
};

/// A point in planning time, stored as whole minutes since the epoch
/// 2000-01-01 00:00. Flex-offer profiles are defined on a 15-minute grid
/// (the Nordic market's settlement resolution), but TimePoint itself is
/// minute-granular so acceptance/assignment deadlines can be exact.
class TimePoint {
 public:
  /// The epoch (2000-01-01 00:00).
  constexpr TimePoint() : minutes_(0) {}

  /// Constructs from minutes since the epoch. Negative values (pre-2000) are
  /// valid.
  static constexpr TimePoint FromMinutes(int64_t minutes) { return TimePoint(minutes); }

  /// Constructs from a civil date-time. Returns InvalidArgument for
  /// out-of-range fields (month 13, Feb 30, hour 24, ...).
  static Result<TimePoint> FromCalendar(int year, int month, int day, int hour, int minute);

  /// Like FromCalendar but aborts on invalid input; for literals in tests and
  /// generators where the fields are compile-time constants.
  static TimePoint FromCalendarOrDie(int year, int month, int day, int hour, int minute);

  /// Minutes since the epoch.
  constexpr int64_t minutes() const { return minutes_; }

  /// Civil decomposition.
  CalendarTime ToCalendar() const;

  /// "YYYY-MM-DD HH:MM".
  std::string ToString() const;

  /// Appends ToString() to `out`.
  void AppendTo(std::string* out) const;

  /// "HH:MM" (used for axis tick labels inside a single day).
  std::string TimeOfDayString() const;

  friend constexpr bool operator==(TimePoint a, TimePoint b) { return a.minutes_ == b.minutes_; }
  friend constexpr bool operator!=(TimePoint a, TimePoint b) { return a.minutes_ != b.minutes_; }
  friend constexpr bool operator<(TimePoint a, TimePoint b) { return a.minutes_ < b.minutes_; }
  friend constexpr bool operator<=(TimePoint a, TimePoint b) { return a.minutes_ <= b.minutes_; }
  friend constexpr bool operator>(TimePoint a, TimePoint b) { return a.minutes_ > b.minutes_; }
  friend constexpr bool operator>=(TimePoint a, TimePoint b) { return a.minutes_ >= b.minutes_; }

  /// Shifts by a signed number of minutes.
  constexpr TimePoint operator+(int64_t minutes) const { return TimePoint(minutes_ + minutes); }
  constexpr TimePoint operator-(int64_t minutes) const { return TimePoint(minutes_ - minutes); }

  /// Difference in minutes (a - b).
  friend constexpr int64_t operator-(TimePoint a, TimePoint b) { return a.minutes_ - b.minutes_; }

 private:
  explicit constexpr TimePoint(int64_t minutes) : minutes_(minutes) {}

  int64_t minutes_;
};

/// Convenience durations, all in minutes.
inline constexpr int64_t kMinutesPerSlice = 15;  // market settlement slice
inline constexpr int64_t kMinutesPerHour = 60;
inline constexpr int64_t kMinutesPerDay = 24 * 60;
inline constexpr int64_t kMinutesPerWeek = 7 * kMinutesPerDay;

/// Half-open time interval [start, end). An empty interval has start == end.
struct TimeInterval {
  TimePoint start;
  TimePoint end;

  constexpr TimeInterval() = default;
  constexpr TimeInterval(TimePoint s, TimePoint e) : start(s), end(e) {}

  constexpr bool empty() const { return !(start < end); }
  constexpr int64_t duration_minutes() const { return empty() ? 0 : end - start; }

  /// True iff `t` lies inside [start, end).
  constexpr bool Contains(TimePoint t) const { return start <= t && t < end; }

  /// True iff the half-open intervals share at least one minute.
  constexpr bool Overlaps(const TimeInterval& other) const {
    return start < other.end && other.start < end;
  }

  /// Intersection; empty if disjoint.
  TimeInterval Intersect(const TimeInterval& other) const;

  /// Smallest interval covering both (the gap in between is included).
  TimeInterval Span(const TimeInterval& other) const;

  friend bool operator==(const TimeInterval& a, const TimeInterval& b) {
    return a.start == b.start && a.end == b.end;
  }

  std::string ToString() const;
};

/// True for leap years in the proleptic Gregorian calendar.
bool IsLeapYear(int year);

/// Number of days in `month` of `year`; 0 for invalid months.
int DaysInMonth(int year, int month);

}  // namespace flexvis::timeutil

#endif  // FLEXVIS_TIME_TIME_POINT_H_
