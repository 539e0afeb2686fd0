#include "checks.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <unordered_set>

#include "core/render.h"

namespace interbench {

using blaeu::core::DataMap;
using blaeu::core::MapRegion;
using blaeu::monet::Column;
using blaeu::monet::CompareOp;
using blaeu::monet::Condition;
using blaeu::monet::DataType;
using blaeu::monet::SelectionVector;
using blaeu::monet::Table;

namespace {

template <typename T>
bool Compare(const T& lhs, CompareOp op, const T& rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

/// How a non-string cell is spelled inside an IN list.
std::string Spell(const Column& col, uint32_t row) {
  switch (col.type()) {
    case DataType::kInt64:
      return std::to_string(col.ints()[row]);
    case DataType::kBool:
      return col.bools()[row] ? "true" : "false";
    case DataType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", col.doubles()[row]);
      return buf;
    }
    case DataType::kString:
      return col.StringAt(row);
  }
  return {};
}

double Numeric(const Column& col, uint32_t row) {
  switch (col.type()) {
    case DataType::kDouble:
      return col.doubles()[row];
    case DataType::kInt64:
      return static_cast<double>(col.ints()[row]);
    case DataType::kBool:
      return col.bools()[row] ? 1.0 : 0.0;
    case DataType::kString:
      break;
  }
  return 0.0;
}

/// Three-valued truth of one condition on one row, with unknown -> false.
bool Holds(const Condition& c, const Column& col, uint32_t row) {
  const bool null = col.validity()[row] == 0;
  switch (c.kind) {
    case Condition::Kind::kIsNull:
      return null;
    case Condition::Kind::kNotNull:
      return !null;
    case Condition::Kind::kCompare: {
      if (null || c.value.is_null()) return false;
      const bool str_col = col.type() == DataType::kString;
      const bool str_lit = c.value.type() == DataType::kString;
      if (str_col != str_lit) return false;
      if (str_col) return Compare(col.StringAt(row), c.op, c.value.AsString());
      return Compare(Numeric(col, row), c.op, c.value.AsDouble());
    }
    case Condition::Kind::kInSet: {
      if (null) return false;
      const std::string spelled =
          col.type() == DataType::kString ? std::string() : Spell(col, row);
      const std::string& cell =
          col.type() == DataType::kString ? col.StringAt(row) : spelled;
      const bool member =
          std::find(c.set.begin(), c.set.end(), cell) != c.set.end();
      return member != c.negated;
    }
  }
  return false;
}

}  // namespace

size_t Recount(const Table& table, const SelectionVector& sel,
               const blaeu::monet::Conjunction& pred, std::string* error) {
  std::vector<uint32_t> rows = sel.rows();
  for (const Condition& c : pred.conditions()) {
    auto idx = table.schema().FieldIndex(c.column);
    if (!idx) {
      *error = "predicate names unknown column " + c.column;
      return 0;
    }
    const Column& col = *table.column(*idx);
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&](uint32_t r) { return !Holds(c, col, r); }),
               rows.end());
  }
  return rows.size();
}

std::string CheckMapCounts(const Table& table, const SelectionVector& sel,
                           const DataMap& map) {
  const size_t n = map.regions.size();
  if (n == 0) return "map has no regions";
  if (map.regions[0].parent != -1) return "region 0 is not the root";
  if (map.regions[0].tuple_count != sel.size()) {
    return "root counts " + std::to_string(map.regions[0].tuple_count) +
           " of a " + std::to_string(sel.size()) + "-row selection";
  }
  if (map.total_tuples != sel.size()) return "total_tuples != selection size";
  std::vector<int> listed(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const MapRegion& r = map.regions[i];
    if (r.id != static_cast<int>(i)) return "region ids out of order";
    if (i > 0 && (r.parent < 0 || static_cast<size_t>(r.parent) >= n)) {
      return "region " + std::to_string(i) + " has no valid parent";
    }
    for (int c : r.children) {
      if (c <= 0 || static_cast<size_t>(c) >= n ||
          map.regions[c].parent != r.id) {
        return "region " + std::to_string(i) + " lists a child that is not its";
      }
      ++listed[c];
    }
  }
  for (size_t i = 1; i < n; ++i) {
    if (listed[i] != 1) {
      return "region " + std::to_string(i) + " is listed by " +
             std::to_string(listed[i]) + " parents";
    }
  }
  for (const MapRegion& r : map.regions) {
    std::string error;
    const size_t expected = Recount(table, sel, r.predicate, &error);
    if (!error.empty()) return error;
    if (expected != r.tuple_count) {
      return "region " + std::to_string(r.id) + " counts " +
             std::to_string(r.tuple_count) + " but its predicate selects " +
             std::to_string(expected) + " rows (" + r.predicate.ToSql() + ")";
    }
  }
  return {};
}

size_t UnroutedRows(const DataMap& map) {
  size_t lost = 0;
  for (const MapRegion& r : map.regions) {
    if (r.is_leaf()) continue;
    size_t sum = 0;
    for (int c : r.children) sum += map.regions[c].tuple_count;
    lost += sum > r.tuple_count ? sum - r.tuple_count : r.tuple_count - sum;
  }
  return lost;
}

std::string StateLedger::Observe(const std::string& state,
                                 const DataMap& map) {
  std::string json = blaeu::core::CanonicalMapJson(map);
  auto [it, first] = first_json_.emplace(state, json);
  if (first || it->second == json) return {};
  return "state " + state + " differs from its first build";
}

std::vector<size_t> KeyColumns(const Table& table) {
  std::vector<size_t> keys;
  for (size_t i = 0; i < table.num_columns(); ++i) {
    std::string name = table.schema().field(i).name;
    for (char& ch : name) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    const bool named = name == "id" || name == "key" || name == "rowid" ||
                       (name.size() > 3 &&
                        name.compare(name.size() - 3, 3, "_id") == 0);
    const Column& col = *table.column(i);
    bool unique = false;
    if (col.null_count() == 0 && col.size() > 1 &&
        (col.type() == DataType::kInt64 || col.type() == DataType::kString)) {
      std::unordered_set<std::string> seen;
      unique = true;
      for (uint32_t r = 0; r < col.size() && unique; ++r) {
        unique = seen.insert(Spell(col, r)).second;
      }
    }
    if (named || unique) keys.push_back(i);
  }
  return keys;
}

std::string CheckThemePartition(const Table& table,
                                const blaeu::core::ThemeSet& themes,
                                const std::vector<size_t>& keys) {
  std::vector<int> seen(table.num_columns(), 0);
  for (const blaeu::core::Theme& t : themes.themes) {
    if (t.columns.size() != t.names.size()) return "theme columns/names differ";
    for (size_t i = 0; i < t.columns.size(); ++i) {
      const size_t c = t.columns[i];
      if (c >= table.num_columns() ||
          table.schema().field(c).name != t.names[i]) {
        return "theme " + std::to_string(t.id) + " names a wrong column";
      }
      ++seen[c];
    }
  }
  const std::set<size_t> key_set(keys.begin(), keys.end());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const int want = key_set.count(c) ? 0 : 1;
    if (seen[c] != want) {
      return "column " + table.schema().field(c).name + " sits in " +
             std::to_string(seen[c]) + " themes";
    }
  }
  return {};
}

double AdjustedRandIndex(const std::vector<int>& a, const std::vector<int>& b) {
  std::map<std::pair<int, int>, double> cells;
  std::map<int, double> rows, cols;
  for (size_t i = 0; i < a.size(); ++i) {
    cells[{a[i], b[i]}] += 1;
    rows[a[i]] += 1;
    cols[b[i]] += 1;
  }
  auto pairs = [](double n) { return n * (n - 1) / 2; };
  double index = 0, sum_rows = 0, sum_cols = 0;
  for (const auto& [_, n] : cells) index += pairs(n);
  for (const auto& [_, n] : rows) sum_rows += pairs(n);
  for (const auto& [_, n] : cols) sum_cols += pairs(n);
  const double expected = sum_rows * sum_cols / pairs(a.size());
  const double max_index = (sum_rows + sum_cols) / 2;
  if (max_index == expected) return 1.0;
  return (index - expected) / (max_index - expected);
}

double ThemeRecovery(const blaeu::core::ThemeSet& themes,
                     const std::vector<int>& planted) {
  std::vector<int> detected_of(planted.size(), -1);
  for (const blaeu::core::Theme& t : themes.themes) {
    for (size_t c : t.columns) {
      if (c < planted.size()) detected_of[c] = t.id;
    }
  }
  std::vector<int> detected, truth;
  for (size_t c = 0; c < planted.size(); ++c) {
    if (planted[c] < 0) continue;
    detected.push_back(detected_of[c]);
    truth.push_back(planted[c]);
  }
  return AdjustedRandIndex(detected, truth);
}

}  // namespace interbench
