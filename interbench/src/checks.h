// Correctness checks the interaction benchmark runs after every operation.
//
// They are written apart from the program: region counts are recounted
// straight from the typed column payloads (no monet::Conjunction, no
// prepared predicates), keys are re-derived from the data, and theme
// recovery is scored against the generator's planted themes. Each check
// returns an empty string when it holds and a one-line reason otherwise.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/map.h"
#include "core/theme.h"
#include "monet/predicate.h"
#include "monet/selection.h"
#include "monet/table.h"

namespace interbench {

/// Rows of `sel` that satisfy every condition of `pred`, counted from the
/// typed columns of `table`. SQL's rule applies: a NULL cell satisfies no
/// comparison and neither IN nor NOT IN; only IS [NOT] NULL look at it.
/// Sets `error` (and returns 0) when a column is missing.
size_t Recount(const blaeu::monet::Table& table,
               const blaeu::monet::SelectionVector& sel,
               const blaeu::monet::Conjunction& pred, std::string* error);

/// The map summarizes `sel`: the root counts exactly the selection, parent
/// and child links agree, and every region's tuple_count equals the recount
/// of its full predicate over `sel`.
std::string CheckMapCounts(const blaeu::monet::Table& table,
                           const blaeu::monet::SelectionVector& sel,
                           const blaeu::core::DataMap& map);

/// Rows a map loses between a region and its children: the sum over
/// internal regions of |tuple_count - sum of the children's counts|. A map
/// whose children partition every parent returns 0; an operation that
/// returns a map with a nonzero value is counted as failed.
size_t UnroutedRows(const blaeu::core::DataMap& map);

/// Remembers the canonical JSON of every navigation state the first time it
/// is built and compares every later visit (cache hit or cold rebuild)
/// against it.
class StateLedger {
 public:
  /// `state` names the state by the path that reached it. Returns an error
  /// when a revisit's map differs from the first build.
  std::string Observe(const std::string& state,
                      const blaeu::core::DataMap& map);
  size_t size() const { return first_json_.size(); }

 private:
  std::map<std::string, std::string> first_json_;
};

/// Columns that are keys by the paper's rule, derived from the data alone:
/// no NULLs and every value distinct, or a name that is "id" or ends in
/// "_id".
std::vector<size_t> KeyColumns(const blaeu::monet::Table& table);

/// Themes partition the non-key columns: every column not in `keys` sits in
/// exactly one theme, no key column sits in any, and each theme's names
/// match the schema.
std::string CheckThemePartition(const blaeu::monet::Table& table,
                                const blaeu::core::ThemeSet& themes,
                                const std::vector<size_t>& keys);

/// Adjusted Rand index of two labelings of the same items (1 = identical
/// partitions up to renaming).
double AdjustedRandIndex(const std::vector<int>& a, const std::vector<int>& b);

/// Lowest ARI at which detected themes count as recovering the planted
/// ones. The generators plant well-separated themes and detection recovers
/// them exactly today, so one column in the wrong theme already fails.
constexpr double kMinThemeAri = 0.999;

/// ARI between the detected themes and the planted ones, over the columns
/// the generator planted in a theme (`planted[c] >= 0`).
double ThemeRecovery(const blaeu::core::ThemeSet& themes,
                     const std::vector<int>& planted);

}  // namespace interbench
