#include "dw/query.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "util/strings.h"

namespace flexvis::dw {

Predicate Predicate::Eq(std::string column, Value v) {
  return Predicate{std::move(column), Op::kEq, std::move(v), {}};
}
Predicate Predicate::Ne(std::string column, Value v) {
  return Predicate{std::move(column), Op::kNe, std::move(v), {}};
}
Predicate Predicate::Lt(std::string column, Value v) {
  return Predicate{std::move(column), Op::kLt, std::move(v), {}};
}
Predicate Predicate::Le(std::string column, Value v) {
  return Predicate{std::move(column), Op::kLe, std::move(v), {}};
}
Predicate Predicate::Gt(std::string column, Value v) {
  return Predicate{std::move(column), Op::kGt, std::move(v), {}};
}
Predicate Predicate::Ge(std::string column, Value v) {
  return Predicate{std::move(column), Op::kGe, std::move(v), {}};
}
Predicate Predicate::In(std::string column, std::vector<Value> vs) {
  return Predicate{std::move(column), Op::kIn, Value::Null(), std::move(vs)};
}

namespace {

std::string DefaultName(const AggregateSpec& spec) {
  const char* fn = "count";
  switch (spec.fn) {
    case AggregateSpec::Fn::kCount: fn = "count"; break;
    case AggregateSpec::Fn::kSum: fn = "sum"; break;
    case AggregateSpec::Fn::kMin: fn = "min"; break;
    case AggregateSpec::Fn::kMax: fn = "max"; break;
    case AggregateSpec::Fn::kAvg: fn = "avg"; break;
  }
  if (spec.fn == AggregateSpec::Fn::kCount) return fn;
  return StrFormat("%s(%s)", fn, spec.column.c_str());
}

// ---- Typed predicate scans -------------------------------------------------
//
// FilterRows compiles each predicate once against its column's type into a
// Scan: a tight loop over the raw column storage that refines a selection
// mask. The result equals testing Value::Compare(cell, constant) row by row:
// null < number < string, ints and doubles compare numerically (as doubles
// unless both are ints), and a NaN compares equal to every number.

// Rows per block: a block's mask stays in L1, and the predicates after the
// one that empties a block skip it.
constexpr size_t kBlockRows = 4096;

// One compiled predicate. Refines mask[0, end - begin) with the rows
// [begin, end) and returns how many of them are still selected.
using Scan = std::function<size_t(size_t begin, size_t end, uint8_t* mask)>;

bool OpHolds(Predicate::Op op, int cmp) {
  switch (op) {
    case Predicate::Op::kEq: return cmp == 0;
    case Predicate::Op::kNe: return cmp != 0;
    case Predicate::Op::kLt: return cmp < 0;
    case Predicate::Op::kLe: return cmp <= 0;
    case Predicate::Op::kGt: return cmp > 0;
    case Predicate::Op::kGe: return cmp >= 0;
    case Predicate::Op::kIn: break;
  }
  return false;
}

// A Scan keeping the rows where (row is null ? null_hit : hit(row)). The
// loop is branch-free: hit(row) also runs on a null cell's placeholder, and
// its answer is discarded.
template <typename Hit>
Scan MakeScan(const Column& col, bool null_hit, Hit hit) {
  const uint8_t* valid = col.ValidityData();
  const uint8_t on_null = null_hit ? 1 : 0;
  return [=](size_t begin, size_t end, uint8_t* mask) {
    size_t selected = 0;
    if (valid == nullptr) {
      for (size_t r = begin; r < end; ++r) {
        mask[r - begin] &= static_cast<uint8_t>(hit(r));
        selected += mask[r - begin];
      }
    } else {
      for (size_t r = begin; r < end; ++r) {
        const uint8_t on_valid = static_cast<uint8_t>(hit(r));
        mask[r - begin] &= static_cast<uint8_t>((valid[r] & on_valid) | ((valid[r] ^ 1) & on_null));
        selected += mask[r - begin];
      }
    }
    return selected;
  };
}

// `op` over every cell of `data` against `constant`. Each op is a function
// of (cell < constant, constant < cell), which matches Value::Compare for
// NaN too: neither holds, so NaN "equals" every number.
template <typename T, typename K>
Scan CompareScan(const Column& col, bool null_hit, Predicate::Op op, const T* data, K constant) {
  auto scan = [&](auto holds) {
    return MakeScan(col, null_hit, [=](size_t r) {
      const K& cell = data[r];  // an int cell widens against a double constant
      return holds(cell < constant, constant < cell);
    });
  };
  switch (op) {
    case Predicate::Op::kEq: return scan([](bool lt, bool gt) { return !lt && !gt; });
    case Predicate::Op::kNe: return scan([](bool lt, bool gt) { return lt || gt; });
    case Predicate::Op::kLt: return scan([](bool lt, bool) { return lt; });
    case Predicate::Op::kLe: return scan([](bool, bool gt) { return !gt; });
    case Predicate::Op::kGt: return scan([](bool, bool gt) { return gt; });
    case Predicate::Op::kGe: return scan([](bool lt, bool) { return !lt; });
    case Predicate::Op::kIn: break;  // MembershipScan
  }
  return Scan();
}

// A comparison predicate (every op but kIn).
Scan ComparisonScan(const Column& col, const Predicate& p) {
  const bool null_hit = OpHolds(p.op, Value::Compare(Value::Null(), p.value));
  const bool string_column = col.type() == ColumnType::kString;
  if (p.value.is_null() || p.value.is_string() != string_column) {
    // A constant of another kind (null < number < string): every non-null
    // cell sits on the same side of it.
    const Value any_cell = string_column ? Value(std::string()) : Value(int64_t{0});
    const bool hit = OpHolds(p.op, Value::Compare(any_cell, p.value));
    return MakeScan(col, null_hit, [hit](size_t) { return hit; });
  }
  switch (col.type()) {
    case ColumnType::kString:
      return CompareScan(col, null_hit, p.op, col.StringData(), p.value.AsString());
    case ColumnType::kInt64:
      if (p.value.is_int()) {
        return CompareScan(col, null_hit, p.op, col.Int64Data(), p.value.AsInt());
      }
      return CompareScan(col, null_hit, p.op, col.Int64Data(), p.value.AsDouble());
    case ColumnType::kDouble:
      return CompareScan(col, null_hit, p.op, col.DoubleData(), p.value.ToNumber());
  }
  return Scan();
}

// Membership test for the numbers of an IN list, in the column's domain.
// Int members of an int column match exactly; every other numeric pair
// matches when equal as doubles, and a NaN on either side matches any
// number.
class NumberSet {
 public:
  NumberSet(ColumnType type, const std::vector<Value>& members) {
    for (const Value& v : members) {
      if (v.is_int() && type == ColumnType::kInt64) {
        ints_.push_back(v.AsInt());
      } else if (v.is_int() || v.is_double()) {
        const double d = v.ToNumber();
        if (std::isnan(d)) {
          any_nan_ = true;
        } else {
          doubles_.push_back(d);
        }
      }
    }
    empty_ = ints_.empty() && doubles_.empty() && !any_nan_;
    std::sort(ints_.begin(), ints_.end());
    std::sort(doubles_.begin(), doubles_.end());
    if (!ints_.empty() && static_cast<uint64_t>(ints_.back()) -
                                  static_cast<uint64_t>(ints_.front()) < kDenseSpan) {
      // Small id ranges (states, regions, grid nodes, enums) become a table.
      lo_ = ints_.front();
      dense_.assign(static_cast<size_t>(ints_.back() - lo_) + 2, 0);
      for (int64_t i : ints_) dense_[static_cast<size_t>(i - lo_)] = 1;
    }
  }

  bool empty() const { return empty_; }

  // Branch-free in the cell: the branches below depend on the list only.
  bool Contains(int64_t v) const {
    bool hit = any_nan_;
    if (!dense_.empty()) {
      // Out-of-range values land on the table's trailing 0.
      const uint64_t offset = static_cast<uint64_t>(v) - static_cast<uint64_t>(lo_);
      hit |= dense_[std::min<uint64_t>(offset, dense_.size() - 1)] != 0;
    } else if (!ints_.empty()) {
      hit |= std::binary_search(ints_.begin(), ints_.end(), v);
    }
    if (!doubles_.empty()) {
      hit |= std::binary_search(doubles_.begin(), doubles_.end(), static_cast<double>(v));
    }
    return hit;
  }

  // Only built for double columns, where int members sit in doubles_.
  bool Contains(double v) const {
    if (any_nan_ || std::isnan(v)) return !empty_;
    return std::binary_search(doubles_.begin(), doubles_.end(), v);
  }

 private:
  static constexpr uint64_t kDenseSpan = 1 << 16;

  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> dense_;  // ints_ as flags indexed by value - lo_, plus a 0
  int64_t lo_ = 0;
  bool any_nan_ = false;
  bool empty_ = true;
};

Scan MembershipScan(const Column& col, const Predicate& p) {
  const bool null_hit = std::any_of(p.values.begin(), p.values.end(),
                                    [](const Value& v) { return v.is_null(); });
  switch (col.type()) {
    case ColumnType::kString: {
      std::vector<std::string> members;
      for (const Value& v : p.values) {
        if (v.is_string()) members.push_back(v.AsString());
      }
      std::sort(members.begin(), members.end());
      const std::string* data = col.StringData();
      return MakeScan(col, null_hit, [members = std::move(members), data](size_t r) {
        return std::binary_search(members.begin(), members.end(), data[r]);
      });
    }
    case ColumnType::kInt64: {
      const int64_t* data = col.Int64Data();
      return MakeScan(col, null_hit, [members = NumberSet(col.type(), p.values), data](
                                         size_t r) { return members.Contains(data[r]); });
    }
    case ColumnType::kDouble: {
      const double* data = col.DoubleData();
      return MakeScan(col, null_hit, [members = NumberSet(col.type(), p.values), data](
                                         size_t r) { return members.Contains(data[r]); });
    }
  }
  return Scan();
}

// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  Value min = Value::Null();
  Value max = Value::Null();

  void Feed(const Value& v) {
    ++count;
    if (v.is_null()) return;
    sum += v.ToNumber();
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || max < v) max = v;
  }

  Value Finish(AggregateSpec::Fn fn) const {
    switch (fn) {
      case AggregateSpec::Fn::kCount: return Value(count);
      case AggregateSpec::Fn::kSum: return Value(sum);
      case AggregateSpec::Fn::kMin: return min;
      case AggregateSpec::Fn::kMax: return max;
      case AggregateSpec::Fn::kAvg:
        return count > 0 ? Value(sum / static_cast<double>(count)) : Value::Null();
    }
    return Value::Null();
  }
};

}  // namespace

AggregateSpec AggregateSpec::Count(std::string as) {
  AggregateSpec s{Fn::kCount, "", std::move(as)};
  if (s.as.empty()) s.as = DefaultName(s);
  return s;
}
AggregateSpec AggregateSpec::Sum(std::string column, std::string as) {
  AggregateSpec s{Fn::kSum, std::move(column), std::move(as)};
  if (s.as.empty()) s.as = DefaultName(s);
  return s;
}
AggregateSpec AggregateSpec::Min(std::string column, std::string as) {
  AggregateSpec s{Fn::kMin, std::move(column), std::move(as)};
  if (s.as.empty()) s.as = DefaultName(s);
  return s;
}
AggregateSpec AggregateSpec::Max(std::string column, std::string as) {
  AggregateSpec s{Fn::kMax, std::move(column), std::move(as)};
  if (s.as.empty()) s.as = DefaultName(s);
  return s;
}
AggregateSpec AggregateSpec::Avg(std::string column, std::string as) {
  AggregateSpec s{Fn::kAvg, std::move(column), std::move(as)};
  if (s.as.empty()) s.as = DefaultName(s);
  return s;
}

Result<std::vector<size_t>> FilterRows(const Table& table,
                                       const std::vector<Predicate>& where) {
  std::vector<Scan> scans;
  scans.reserve(where.size());
  for (const Predicate& p : where) {
    const Column* col = table.FindColumn(p.column);
    if (col == nullptr) {
      return NotFoundError(StrFormat("predicate column '%s' not in table '%s'",
                                     p.column.c_str(), table.name().c_str()));
    }
    scans.push_back(p.op == Predicate::Op::kIn ? MembershipScan(*col, p)
                                               : ComparisonScan(*col, p));
  }
  std::vector<size_t> rows;
  uint8_t mask[kBlockRows];
  for (size_t begin = 0; begin < table.NumRows(); begin += kBlockRows) {
    const size_t end = std::min(table.NumRows(), begin + kBlockRows);
    std::fill(mask, mask + (end - begin), uint8_t{1});
    size_t selected = end - begin;
    for (size_t i = 0; i < scans.size() && selected > 0; ++i) {
      selected = scans[i](begin, end, mask);
    }
    if (selected == 0) continue;
    // Branch-free compaction: every row is written, only selected ones kept.
    size_t k = rows.size();
    rows.resize(k + selected + 1);
    for (size_t r = begin; r < end; ++r) {
      rows[k] = r;
      k += mask[r - begin];
    }
    rows.pop_back();
  }
  return rows;
}

Result<Table> Execute(const Table& table, const Query& query) {
  Result<std::vector<size_t>> filtered = FilterRows(table, query.where);
  if (!filtered.ok()) return filtered.status();
  const std::vector<size_t>& rows = *filtered;

  Table out;
  if (query.group_by.empty() && query.aggregates.empty()) {
    // Plain selection / projection.
    std::vector<std::string> names = query.select;
    if (names.empty()) {
      for (const ColumnSpec& c : table.schema()) names.push_back(c.name);
    }
    std::vector<ColumnSpec> schema;
    std::vector<const Column*> sources;
    for (const std::string& n : names) {
      const Column* c = table.FindColumn(n);
      if (c == nullptr) {
        return NotFoundError(StrFormat("select column '%s' not in table '%s'", n.c_str(),
                                       table.name().c_str()));
      }
      schema.push_back(c->spec());
      sources.push_back(c);
    }
    out = Table(table.name() + "_select", std::move(schema));
    for (size_t r : rows) {
      std::vector<Value> cells;
      cells.reserve(sources.size());
      for (const Column* c : sources) cells.push_back(c->Get(r));
      FLEXVIS_RETURN_IF_ERROR(out.AppendRow(cells));
    }
  } else {
    // Group-by + aggregates (an empty group_by yields one global group).
    std::vector<const Column*> key_cols;
    std::vector<ColumnSpec> schema;
    for (const std::string& n : query.group_by) {
      const Column* c = table.FindColumn(n);
      if (c == nullptr) {
        return NotFoundError(StrFormat("group-by column '%s' not in table '%s'", n.c_str(),
                                       table.name().c_str()));
      }
      key_cols.push_back(c);
      schema.push_back(c->spec());
    }
    std::vector<const Column*> agg_cols;
    for (const AggregateSpec& a : query.aggregates) {
      const Column* c = nullptr;
      if (a.fn != AggregateSpec::Fn::kCount) {
        c = table.FindColumn(a.column);
        if (c == nullptr) {
          return NotFoundError(StrFormat("aggregate column '%s' not in table '%s'",
                                         a.column.c_str(), table.name().c_str()));
        }
      }
      agg_cols.push_back(c);
      ColumnType t = ColumnType::kDouble;
      if (a.fn == AggregateSpec::Fn::kCount) {
        t = ColumnType::kInt64;
      } else if ((a.fn == AggregateSpec::Fn::kMin || a.fn == AggregateSpec::Fn::kMax) &&
                 c != nullptr) {
        t = c->type();
      }
      schema.push_back(ColumnSpec{a.as.empty() ? DefaultName(a) : a.as, t});
    }

    // std::map keeps groups in ascending key order.
    std::map<std::vector<Value>, std::vector<AggState>> groups;
    for (size_t r : rows) {
      std::vector<Value> key;
      key.reserve(key_cols.size());
      for (const Column* c : key_cols) key.push_back(c->Get(r));
      auto [it, inserted] = groups.try_emplace(std::move(key));
      if (inserted) it->second.resize(query.aggregates.size());
      for (size_t i = 0; i < query.aggregates.size(); ++i) {
        it->second[i].Feed(agg_cols[i] != nullptr ? agg_cols[i]->Get(r) : Value(int64_t{1}));
      }
    }

    out = Table(table.name() + "_groupby", std::move(schema));
    for (const auto& [key, states] : groups) {
      std::vector<Value> cells = key;
      for (size_t i = 0; i < states.size(); ++i) {
        Value v = states[i].Finish(query.aggregates[i].fn);
        // Widen int min/max into the declared column type if needed.
        cells.push_back(std::move(v));
      }
      FLEXVIS_RETURN_IF_ERROR(out.AppendRow(cells));
    }
  }

  // ORDER BY over the produced table.
  if (!query.order_by.empty()) {
    std::vector<size_t> order_idx;
    for (const std::string& n : query.order_by) {
      Result<size_t> idx = out.ColumnIndex(n);
      if (!idx.ok()) return idx.status();
      order_idx.push_back(*idx);
    }
    std::vector<size_t> perm(out.NumRows());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
      for (size_t i : order_idx) {
        int c = Value::Compare(out.column(i).Get(a), out.column(i).Get(b));
        if (c != 0) return c < 0;
      }
      return false;
    });
    Table sorted(out.name(), out.schema());
    for (size_t r : perm) {
      FLEXVIS_RETURN_IF_ERROR(sorted.AppendRow(out.GetRow(r)));
    }
    out = std::move(sorted);
  }

  // LIMIT.
  if (query.limit > 0 && out.NumRows() > query.limit) {
    Table limited(out.name(), out.schema());
    for (size_t r = 0; r < query.limit; ++r) {
      FLEXVIS_RETURN_IF_ERROR(limited.AppendRow(out.GetRow(r)));
    }
    out = std::move(limited);
  }
  return out;
}

}  // namespace flexvis::dw
