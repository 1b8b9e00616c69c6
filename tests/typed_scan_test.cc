// Oracle test for the typed predicate scans behind dw::FilterRows.
//
// FilterRows compiles every predicate against its column's type and scans
// the raw column storage. The reference below is the per-row evaluation it
// replaced: box each cell into a Value and test it with Value::Compare. On
// seeded random tables (int64, double and string columns; nulls, including
// a first null after non-null rows; NaN, signed zeros and infinities) and
// random conjunctions of every operator, with cross-type constants and
// mixed, duplicated IN lists, both must select exactly the same rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "dw/query.h"
#include "dw/table.h"
#include "util/rng.h"

namespace flexvis::dw {
namespace {

bool ReferenceMatches(const Value& cell, const Predicate& p) {
  switch (p.op) {
    case Predicate::Op::kEq: return cell == p.value;
    case Predicate::Op::kNe: return cell != p.value;
    case Predicate::Op::kLt: return cell < p.value;
    case Predicate::Op::kLe: return cell <= p.value;
    case Predicate::Op::kGt: return cell > p.value;
    case Predicate::Op::kGe: return cell >= p.value;
    case Predicate::Op::kIn:
      return std::find(p.values.begin(), p.values.end(), cell) != p.values.end();
  }
  return false;
}

std::vector<size_t> ReferenceFilter(const Table& table, const std::vector<Predicate>& where) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    bool keep = true;
    for (const Predicate& p : where) {
      keep = keep && ReferenceMatches(table.FindColumn(p.column)->Get(r), p);
    }
    if (keep) rows.push_back(r);
  }
  return rows;
}

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

// Small value pools so equalities hit; a few far-apart ints push IN lists
// off the dense lookup table onto the sorted-search path.
int64_t RandomInt(Rng& rng) {
  if (rng.Bernoulli(0.05)) return rng.Bernoulli(0.5) ? int64_t{1} << 40 : -(int64_t{1} << 40);
  return rng.UniformInt(-4, 4);
}

double RandomDouble(Rng& rng) {
  const double pool[] = {-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.25, kNaN, kInf, -kInf};
  return pool[rng.UniformInt(0, std::size(pool) - 1)];
}

std::string RandomString(Rng& rng) {
  const char* pool[] = {"", "a", "ab", "b", "ba", "z"};
  return pool[rng.UniformInt(0, std::size(pool) - 1)];
}

Value RandomConstant(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0: return Value::Null();
    case 1: return Value(RandomInt(rng));
    case 2: return Value(RandomDouble(rng));
    default: return Value(RandomString(rng));
  }
}

// Columns: i = int64 with nulls, d = double with nulls, s = string with
// nulls, late = int64 whose first null comes after `first_null` non-null
// rows, dense = int64 without nulls (no validity vector at all).
Table RandomTable(Rng& rng, size_t rows, size_t first_null) {
  Table table("t", {{"i", ColumnType::kInt64},
                    {"d", ColumnType::kDouble},
                    {"s", ColumnType::kString},
                    {"late", ColumnType::kInt64},
                    {"dense", ColumnType::kInt64}});
  const double null_rate = rng.Uniform(0.0, 0.3);
  auto maybe_null = [&](Value v) { return rng.Bernoulli(null_rate) ? Value::Null() : v; };
  for (size_t r = 0; r < rows; ++r) {
    Value late = r < first_null ? Value(RandomInt(rng)) : maybe_null(Value(RandomInt(rng)));
    EXPECT_TRUE(table
                    .AppendRow({maybe_null(Value(RandomInt(rng))),
                                maybe_null(Value(RandomDouble(rng))),
                                maybe_null(Value(RandomString(rng))), late,
                                Value(RandomInt(rng))})
                    .ok());
  }
  return table;
}

Predicate RandomPredicate(Rng& rng) {
  const char* columns[] = {"i", "d", "s", "late", "dense"};
  Predicate p;
  p.column = columns[rng.UniformInt(0, std::size(columns) - 1)];
  p.op = static_cast<Predicate::Op>(rng.UniformInt(0, 6));
  if (p.op == Predicate::Op::kIn) {
    // Mixed kinds and duplicates; sometimes empty.
    const int64_t members = rng.UniformInt(0, 6);
    for (int64_t m = 0; m < members; ++m) {
      p.values.push_back(RandomConstant(rng));
      if (rng.Bernoulli(0.2)) p.values.push_back(p.values.back());
    }
  } else {
    p.value = RandomConstant(rng);
  }
  return p;
}

std::string Describe(const std::vector<Predicate>& where) {
  std::string out;
  for (const Predicate& p : where) {
    out += p.column + " op" + std::to_string(static_cast<int>(p.op)) + " " +
           (p.op == Predicate::Op::kIn ? "[" + std::to_string(p.values.size()) + " members]"
                                       : "'" + p.value.ToDisplayString() + "'") +
           "; ";
  }
  return out;
}

TEST(TypedScanOracleTest, RandomTablesMatchTheValueCompareReference) {
  Rng rng(20130201);
  // Sizes straddle the scan's block boundaries (4096 rows) and include the
  // empty table.
  const size_t sizes[] = {0, 1, 7, 300, 4095, 4096, 4097, 9000};
  for (size_t rows : sizes) {
    for (int trial = 0; trial < 6; ++trial) {
      const size_t first_null = rows == 0 ? 0 : static_cast<size_t>(rng.UniformInt(0, rows));
      const Table table = RandomTable(rng, rows, first_null);
      for (int q = 0; q < 60; ++q) {
        std::vector<Predicate> where;
        const int64_t n = rng.UniformInt(0, 3);
        for (int64_t k = 0; k < n; ++k) where.push_back(RandomPredicate(rng));
        Result<std::vector<size_t>> typed = FilterRows(table, where);
        ASSERT_TRUE(typed.ok()) << typed.status().ToString();
        ASSERT_EQ(*typed, ReferenceFilter(table, where))
            << rows << " rows, first null after " << first_null << ": " << Describe(where);
      }
    }
  }
}

TEST(TypedScanOracleTest, EveryOperatorAgainstEveryConstantKind) {
  Rng rng(7);
  const Table table = RandomTable(rng, 5000, 2500);
  const Value constants[] = {Value::Null(),         Value(int64_t{0}), Value(int64_t{2}),
                             Value(int64_t{1} << 40), Value(-0.0),     Value(2.0),
                             Value(0.5),            Value(kNaN),       Value(kInf),
                             Value(-kInf),          Value(std::string("ab")),
                             Value(std::string(""))};
  for (const char* column : {"i", "d", "s", "late", "dense"}) {
    for (int op = 0; op < 6; ++op) {
      for (const Value& c : constants) {
        const std::vector<Predicate> where = {
            Predicate{column, static_cast<Predicate::Op>(op), c, {}}};
        ASSERT_EQ(*FilterRows(table, where), ReferenceFilter(table, where)) << Describe(where);
      }
    }
    // IN lists: cross-type members, duplicates, NaN, null, and a far-apart
    // pair that does not fit the dense table.
    const std::vector<std::vector<Value>> lists = {
        {},
        {Value::Null()},
        {Value(int64_t{2}), Value(int64_t{2}), Value(2.0)},
        {Value(2.0), Value(std::string("a")), Value::Null()},
        {Value(kNaN)},
        {Value(int64_t{-4}), Value(int64_t{1} << 40), Value(-2.5), Value(std::string("z"))},
        {Value(std::string("ab")), Value(std::string("ab")), Value(std::string(""))},
        {Value(-0.0), Value(kInf), Value(int64_t{3})},
    };
    for (const std::vector<Value>& list : lists) {
      const std::vector<Predicate> where = {Predicate::In(column, list)};
      ASSERT_EQ(*FilterRows(table, where), ReferenceFilter(table, where)) << Describe(where);
    }
  }
}

TEST(TypedScanOracleTest, EmptyTableAndUnknownColumn) {
  Table empty("e", {{"x", ColumnType::kInt64}});
  EXPECT_TRUE(FilterRows(empty, {})->empty());
  EXPECT_TRUE(FilterRows(empty, {Predicate::Ge("x", Value(int64_t{0}))})->empty());
  EXPECT_EQ(FilterRows(empty, {Predicate::Eq("nope", Value(int64_t{0}))}).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace flexvis::dw
