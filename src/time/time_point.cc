#include "time/time_point.h"

#include <cstdlib>

#include "util/strings.h"

namespace flexvis::timeutil {

namespace {

// Days from 2000-01-01 to year-month-day using Howard Hinnant's
// days_from_civil algorithm, rebased from the 1970 epoch.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);                    // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;         // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;                   // [0, 146096]
  const int64_t days_from_1970 = era * 146097 + static_cast<int64_t>(doe) - 719468;
  return days_from_1970 - 10957;  // 10957 days between 1970-01-01 and 2000-01-01
}

// Inverse of DaysFromCivil (civil_from_days, rebased).
void CivilFromDays(int64_t z, int& y, int& m, int& d) {
  z += 10957 + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);                 // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;   // [0, 399]
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);                 // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                      // [0, 11]
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  y = static_cast<int>(yy + (m <= 2));
}

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t FloorMod(int64_t a, int64_t b) { return a - FloorDiv(a, b) * b; }

}  // namespace

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  switch (month) {
    case 1: case 3: case 5: case 7: case 8: case 10: case 12:
      return 31;
    case 4: case 6: case 9: case 11:
      return 30;
    case 2:
      return IsLeapYear(year) ? 29 : 28;
    default:
      return 0;
  }
}

Result<TimePoint> TimePoint::FromCalendar(int year, int month, int day, int hour, int minute) {
  if (month < 1 || month > 12) {
    return InvalidArgumentError(StrFormat("month out of range: %d", month));
  }
  if (day < 1 || day > DaysInMonth(year, month)) {
    return InvalidArgumentError(StrFormat("day out of range: %d-%02d-%02d", year, month, day));
  }
  if (hour < 0 || hour > 23) {
    return InvalidArgumentError(StrFormat("hour out of range: %d", hour));
  }
  if (minute < 0 || minute > 59) {
    return InvalidArgumentError(StrFormat("minute out of range: %d", minute));
  }
  int64_t days = DaysFromCivil(year, month, day);
  return TimePoint::FromMinutes(days * kMinutesPerDay + hour * 60 + minute);
}

TimePoint TimePoint::FromCalendarOrDie(int year, int month, int day, int hour, int minute) {
  Result<TimePoint> r = FromCalendar(year, month, day, hour, minute);
  if (!r.ok()) std::abort();
  return *r;
}

CalendarTime TimePoint::ToCalendar() const {
  CalendarTime c;
  int64_t days = FloorDiv(minutes_, kMinutesPerDay);
  int64_t mod = FloorMod(minutes_, kMinutesPerDay);
  CivilFromDays(days, c.year, c.month, c.day);
  c.hour = static_cast<int>(mod / 60);
  c.minute = static_cast<int>(mod % 60);
  // 2000-01-01 was a Saturday => day index 5 with Monday = 0.
  c.day_of_week = static_cast<int>(FloorMod(days + 5, 7));
  return c;
}

std::string TimePoint::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void TimePoint::AppendTo(std::string* out) const {
  // The fields of "%04d-%02d-%02d %02d:%02d", one at a time.
  CalendarTime c = ToCalendar();
  StrAppendInt(out, c.year, 4);
  out->push_back('-');
  StrAppendInt(out, c.month, 2);
  out->push_back('-');
  StrAppendInt(out, c.day, 2);
  out->push_back(' ');
  StrAppendInt(out, c.hour, 2);
  out->push_back(':');
  StrAppendInt(out, c.minute, 2);
}

std::string TimePoint::TimeOfDayString() const {
  CalendarTime c = ToCalendar();
  return StrFormat("%02d:%02d", c.hour, c.minute);
}

TimeInterval TimeInterval::Intersect(const TimeInterval& other) const {
  TimePoint s = start < other.start ? other.start : start;
  TimePoint e = end < other.end ? end : other.end;
  if (e < s) return TimeInterval(s, s);
  return TimeInterval(s, e);
}

TimeInterval TimeInterval::Span(const TimeInterval& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  TimePoint s = start < other.start ? start : other.start;
  TimePoint e = end < other.end ? other.end : end;
  return TimeInterval(s, e);
}

std::string TimeInterval::ToString() const {
  return StrFormat("[%s, %s)", start.ToString().c_str(), end.ToString().c_str());
}

}  // namespace flexvis::timeutil
