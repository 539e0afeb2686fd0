// Interaction-time benchmark of the Blaeu map engine.
//
//   interbench --workload <lofar_build|lofar_navigate|oecd_open>
//              --seed <n> --seconds <s> --trace <0|1>
//
// Every workload generates its tables in-process from the seed, runs whole
// rounds of the same operations until the time is up, checks every
// operation's output with the independent checks of checks.h (outside the
// timed region), and prints one JSON object as its last line of stdout:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. README.md in this directory describes the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/map_builder.h"
#include "core/explorer.h"
#include "core/map_cache.h"
#include "core/navigation.h"
#include "core/render.h"
#include "core/theme.h"
#include "monet/column_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/column_dependency.h"
#include "workloads/lofar.h"
#include "workloads/oecd.h"

namespace interbench {
namespace {

using blaeu::core::DataMap;
using blaeu::core::MapOptions;
using blaeu::core::Session;
using blaeu::core::SessionOptions;
using blaeu::monet::SelectionVector;
using blaeu::monet::Table;
using blaeu::monet::TablePtr;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: set-up time counts from
// here.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Fixed inputs of the NULL-routing probe. They do not depend on --seed, so
/// the probe fails identically in every round of every run.
constexpr uint64_t kProbeTableSeed = 42;
constexpr uint64_t kProbeMapSeed = 42;
/// Leaves smaller than this are not zoomed into ("a few hundred tuples").
constexpr size_t kMinZoomRows = 300;
/// Levels an episode descends when leaves that large remain.
constexpr size_t kZoomDepth = 3;
/// Branches per map in a lofar_navigate walk; a round walks every path.
constexpr size_t kBranching = 3;
/// Episodes per lofar_navigate round: one per path, kBranching^kZoomDepth.
constexpr size_t kEpisodesPerRound = 27;
/// Cold builds per lofar_build round (the probe follows them).
constexpr size_t kBuildsPerRound = 39;
/// Untimed builds before lofar_build starts timing (part of set-up).
constexpr uint64_t kWarmupBuilds = 5;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a digest of a selection's size and row ids.
std::string RowsDigest(const SelectionVector& sel) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(sel.size());
  for (uint32_t row : sel.rows()) mix(row);
  return std::to_string(sel.size()) + ":" + std::to_string(h);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t ParallelTasks() {
  return blaeu::obs::MetricsRegistry::Global()
      .counter("common.parallel.tasks")
      ->value();
}

template <typename T>
T OrDie(blaeu::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "interbench: %s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).ValueOrDie();
}

std::vector<std::string> PlantedTheme(const blaeu::workloads::Dataset& d,
                                      int theme) {
  std::vector<std::string> names;
  for (size_t c = 0; c < d.table->num_columns(); ++c) {
    if (d.truth.column_themes[c] == theme) {
      names.push_back(d.table->schema().field(c).name);
    }
  }
  return names;
}

/// What one run measured and checked.
class Run {
 public:
  explicit Run(bool trace) : trace_(trace) {
    if (trace_) tracer_ = std::make_unique<blaeu::obs::Tracer>();
  }

  /// Tracer to inject into the program: null in untraced runs, so the
  /// program uses its disabled global tracer.
  blaeu::obs::Tracer* tracer() { return tracer_.get(); }
  bool trace() const { return trace_; }

  /// In traced runs, even rounds run untraced and odd rounds traced, so
  /// the two halves give trace.overhead_pct from the same operations.
  void BeginRound(size_t round) {
    round_ = round;
    lost_this_round_ = 0;
    visits_.clear();
    actions_.clear();
    if (tracer_ != nullptr) tracer_->set_enabled(traced_round());
  }
  bool traced_round() const { return trace_ && round_ % 2 == 1; }
  void EndRound() {
    ++rounds_;
    Add("map.rows_unrouted", lost_this_round_);
  }

  /// Records an incorrect output; the run reports correct=false.
  void Incorrect(const std::string& why) {
    if (error_.empty()) error_ = why;
  }
  void Check(const std::string& error) {
    if (!error.empty()) Incorrect(error);
  }

  /// Records one timed action of the current operation. `key` names the
  /// action so that it recurs, identical, in every round: its n-th
  /// occurrence in a round is the same action in every round.
  void Action(const std::string& key, double seconds) {
    const std::string name = key + "#" + std::to_string(visits_[key]++);
    actions_.push_back(name);
    if (traced_round()) return;
    auto [it, inserted] = fastest_ms_.emplace(name, seconds * 1e3);
    if (!inserted) it->second = std::min(it->second, seconds * 1e3);
  }

  /// Accounts one operation, made of the actions recorded since the last
  /// one: it fails when any map it returned leaves rows unrouted.
  /// `op_seconds` < 0 marks an untimed operation (the probe).
  void Operation(size_t lost_rows, double op_seconds) {
    ++attempted_;
    if (lost_rows > 0) ++failed_;
    lost_this_round_ += lost_rows;
    std::vector<std::string> actions = std::move(actions_);
    actions_.clear();
    if (op_seconds < 0) return;
    (traced_round() ? traced_op_ms_ : op_ms_).push_back(op_seconds * 1e3);
    if (!traced_round()) op_actions_.push_back(std::move(actions));
  }

  /// Checks one map the program returned for `sel` and, in traced rounds,
  /// harvests its stage spans, resource counts and predicate timings.
  /// Returns the rows the map leaves unrouted.
  size_t InspectMap(const Table& table, const SelectionVector& sel,
                    const DataMap& map) {
    // The recount depends only on the selected rows and on the regions'
    // links, predicates and counts, all of which the canonical JSON holds,
    // so a map already recounted over the same rows is not recounted again.
    if (recounted_.insert(blaeu::core::CanonicalMapJson(map) + "@" +
                          RowsDigest(sel))
            .second) {
      Check(CheckMapCounts(table, sel, map));
    }
    if (traced_round()) HarvestLayers(table, sel, map);
    return UnroutedRows(map);
  }

  void Add(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }
  double MedianOf(const std::string& metric) const {
    auto it = samples_.find(metric);
    return it == samples_.end() ? 0.0 : Median(it->second);
  }
  size_t Count(const std::string& metric) const;
  double Sum(const std::string& metric) const {
    auto it = samples_.find(metric);
    double s = 0;
    if (it != samples_.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  }

  void Print(double setup_s) const;

 private:
  void HarvestLayers(const Table& table, const SelectionVector& sel,
                     const DataMap& map);

  bool trace_;
  std::unique_ptr<blaeu::obs::Tracer> tracer_;
  size_t round_ = 0;
  size_t lost_this_round_ = 0;
  size_t rounds_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string error_;
  std::vector<double> op_ms_;
  std::vector<double> traced_op_ms_;
  /// Occurrences of each action key in the current round.
  std::map<std::string, int> visits_;
  /// Actions of the current operation so far.
  std::vector<std::string> actions_;
  /// The actions of each untraced-round operation, and the fastest time of
  /// each action over the run's untraced rounds.
  std::vector<std::vector<std::string>> op_actions_;
  std::map<std::string, double> fastest_ms_;
  /// Maps (with their selections) whose counts were recounted.
  std::set<std::string> recounted_;
  std::map<std::string, std::vector<double>> samples_;
};

void Run::HarvestLayers(const Table& table, const SelectionVector& sel,
                        const DataMap& map) {
  static const std::pair<const char*, const char*> kStages[] = {
      {"core.map.sample", "map.sample_ms"},
      {"core.map.preprocess", "map.preprocess_ms"},
      {"core.map.cluster", "map.cluster_ms"},
      {"core.map.describe", "map.describe_ms"},
      {"core.map.assemble", "map.assemble_ms"},
      {"core.map.count", "map.count_ms"},
  };
  for (const blaeu::obs::SpanRecord& span : tracer_->Finished()) {
    for (const auto& [name, metric] : kStages) {
      if (span.name == name && span.duration_ns >= 0) {
        Add(metric, static_cast<double>(span.duration_ns) / 1e6);
      }
    }
  }
  tracer_->Clear();
  const blaeu::obs::ResourceProfile& res = map.resources;
  if (res.cache_hits == 0 && res.cart_nodes > 0) {  // a cold build
    Add("map.distance_evals", static_cast<double>(res.distance_evaluations));
    Add("map.cart_nodes", static_cast<double>(res.cart_nodes));
    Add("map.rows_counted", static_cast<double>(res.rows_counted));
    Add("map.cells_materialized",
        static_cast<double>(res.cells_materialized));
    Add("map.scratch_peak_mb",
        static_cast<double>(res.peak_scratch_bytes) / (1 << 20));
  }
  // The predicate layer, timed from outside on the map's own regions.
  for (const blaeu::core::MapRegion& region : map.regions) {
    if (region.parent < 0) continue;
    const Clock::time_point t = Clock::now();
    auto rows = region.predicate.EvaluateOn(table, sel);
    const double s = SecondsSince(t);
    if (!rows.ok()) {
      Incorrect("EvaluateOn failed: " + rows.status().ToString());
      continue;
    }
    Add("predicate.eval_ms", s * 1e3);
    Add("predicate.rows", static_cast<double>(sel.size()));
  }
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

void PrintMetric(bool* first, const char* name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

size_t Run::Count(const std::string& metric) const {
  auto it = samples_.find(metric);
  return it == samples_.end() ? 0 : it->second.size();
}

void Run::Print(double setup_s) const {
  if (!error_.empty()) {
    std::fprintf(stderr, "interbench: INCORRECT: %s\n", error_.c_str());
  }
  std::fprintf(stderr,
               "interbench: %zu rounds, %zu timed operations, zooms: %zu "
               "cold, %zu cached; projections: %zu\n",
               rounds_, op_ms_.size() + traced_op_ms_.size(),
               Count("session.zoom_cold_ms"), Count("session.zoom_cached_ms"),
               Count("session.project_ms"));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              error_.empty() ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  bool first = true;
  if (!trace_) {
    // Every operation is charged the fastest time each of its actions took
    // in any round: the host's interference only ever slows an action down.
    std::vector<double> fastest;
    double total_ms = 0;
    for (const std::vector<std::string>& actions : op_actions_) {
      double ms = 0;
      for (const std::string& a : actions) ms += fastest_ms_.at(a);
      fastest.push_back(ms);
      total_ms += ms;
    }
    double raw_ms = 0;
    for (double ms : op_ms_) raw_ms += ms;
    std::fprintf(stderr,
                 "interbench: as measured, op_ms_p50 %.3f and ops_per_s %.4f; "
                 "at each action's fastest, %.3f and %.4f\n",
                 Median(op_ms_), raw_ms > 0 ? 1e3 * op_ms_.size() / raw_ms : 0.0,
                 Median(fastest),
                 total_ms > 0 ? 1e3 * fastest.size() / total_ms : 0.0);
    PrintMetric(&first, "setup_s", setup_s, "s");
    PrintMetric(&first, "op_ms_p50", Median(fastest), "ms");
    PrintMetric(&first, "ops_per_s",
                total_ms > 0 ? 1e3 * static_cast<double>(fastest.size()) /
                                   total_ms
                             : 0.0,
                "1/s");
    PrintMetric(&first, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    static const MetricSpec kMedians[] = {
        {"map.sample_ms", "ms"},          {"map.preprocess_ms", "ms"},
        {"map.cluster_ms", "ms"},         {"map.describe_ms", "ms"},
        {"map.assemble_ms", "ms"},        {"map.count_ms", "ms"},
        {"map.distance_evals", "count"},  {"map.cart_nodes", "count"},
        {"map.rows_counted", "count"},    {"map.cells_materialized", "count"},
        {"map.scratch_peak_mb", "MB"},    {"map.rows_unrouted", "count"},
        {"predicate.eval_ms", "ms"},      {"session.zoom_cold_ms", "ms"},
        {"session.zoom_cached_ms", "ms"}, {"session.project_ms", "ms"},
        {"session.highlight_ms", "ms"},   {"session.rollback_ms", "ms"},
        {"cache.hit_ratio", "ratio"},     {"cache.bytes_mb", "MB"},
        {"themes.pk_ms", "ms"},           {"themes.dependency_ms", "ms"},
        {"themes.detect_ms", "ms"},       {"parallel.tasks", "count"},
    };
    for (const MetricSpec& m : kMedians) {
      PrintMetric(&first, m.name, MedianOf(m.name), m.unit);
    }
    const double eval_ms = Sum("predicate.eval_ms");
    PrintMetric(&first, "predicate.mrows_per_s",
                eval_ms > 0 ? Sum("predicate.rows") / eval_ms / 1e3 : 0.0,
                "Mrows/s");
    const double untraced = Median(op_ms_);
    PrintMetric(&first, "trace.overhead_pct",
                untraced > 0 ? 100.0 * (Median(traced_op_ms_) - untraced) /
                                   untraced
                             : 0.0,
                "%");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------------- layer pass

/// Times the theme layer's public functions on `table` (traced runs).
void TimeThemeLayer(const Table& table, const blaeu::core::ThemeOptions& opts,
                    Run* run) {
  Clock::time_point t = Clock::now();
  std::vector<size_t> keys = blaeu::monet::DetectPrimaryKeyColumns(table);
  run->Add("themes.pk_ms", SecondsSince(t) * 1e3);
  std::vector<size_t> rest;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (std::find(keys.begin(), keys.end(), c) == keys.end()) rest.push_back(c);
  }
  TablePtr view = table.Project(rest);
  t = Clock::now();
  OrDie(blaeu::stats::DependencyMatrix(*view, opts.dependency),
        "DependencyMatrix");
  run->Add("themes.dependency_ms", SecondsSince(t) * 1e3);
  t = Clock::now();
  OrDie(blaeu::core::DetectThemes(table, opts), "DetectThemes");
  run->Add("themes.detect_ms", SecondsSince(t) * 1e3);
}

/// Checks a session's themes: they partition the non-key columns and, when
/// the generator planted themes, recover them with ARI >= kMinThemeAri.
void CheckThemes(const blaeu::workloads::Dataset& data, const Session& session,
                 bool planted, Run* run) {
  run->Check(CheckThemePartition(*data.table, session.themes(),
                                 KeyColumns(*data.table)));
  if (!planted) return;
  const double ari = ThemeRecovery(session.themes(), data.truth.column_themes);
  if (ari < kMinThemeAri) {
    run->Incorrect("themes recover the planted ones with ARI " +
                   std::to_string(ari));
  }
}

// -------------------------------------------------------------- navigator

/// Drives one Session through timed actions. Every action's output is
/// checked after its timer stops; op_seconds() sums the timed calls only.
class Navigator {
 public:
  struct Step {
    char kind;  // 'z' zoom, 'p' project
    int arg;
  };

  Navigator(Session* session, Run* run, StateLedger* ledger)
      : session_(session), run_(run), ledger_(ledger) {
    paths_.push_back({});
    ledger_->Observe(Name(paths_.back()), session_->current().map);
  }

  void ResetOpTimer() { op_seconds_ = 0; lost_ = 0; }
  double op_seconds() const { return op_seconds_; }
  size_t lost_rows() const { return lost_; }
  Session& session() { return *session_; }
  const std::vector<Step>& path() const { return paths_.back(); }

  void Zoom(int region) {
    const blaeu::core::NavState& before = session_->current();
    const size_t expected = before.map.region(region).tuple_count;
    const double s = Timed("zoom " + std::to_string(region),
                           [&] { return session_->Zoom(region); });
    if (s < 0) return;
    const blaeu::core::NavState& now = session_->current();
    if (now.selection.size() != expected) {
      run_->Incorrect("zoom selected " + std::to_string(now.selection.size()) +
                      " rows of a " + std::to_string(expected) +
                      "-row region");
    }
    Arrive('z', region, now,
           now.map.resources.cache_hits > 0 ? "session.zoom_cached_ms"
                                            : "session.zoom_cold_ms",
           s);
  }

  void Project(size_t theme) {
    const double s = Timed("project " + std::to_string(theme),
                           [&] { return session_->Project(theme); });
    if (s < 0) return;
    Arrive('p', static_cast<int>(theme), session_->current(),
           "session.project_ms", s);
  }

  void Highlight(const std::string& column) {
    const Clock::time_point t = Clock::now();
    blaeu::Result<blaeu::core::HighlightResult> result =
        session_->Highlight(column);
    const double s = SecondsSince(t);
    op_seconds_ += s;
    run_->Action(Name(path()) + " highlight " + column, s);
    run_->Add("session.highlight_ms", s * 1e3);
    if (!result.ok()) {
      run_->Incorrect("highlight failed: " + result.status().ToString());
      return;
    }
    const DataMap& map = session_->current().map;
    const std::vector<int> leaves = map.LeafIds();
    if (result->regions.size() != leaves.size()) {
      run_->Incorrect("highlight does not cover every leaf");
      return;
    }
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (result->regions[i].region_id != leaves[i] ||
          result->regions[i].tuple_count != map.region(leaves[i]).tuple_count) {
        run_->Incorrect("highlight counts differ from the map's");
      }
    }
  }

  void RollbackTo(size_t state) {
    const double s = Timed("rollback " + std::to_string(state),
                           [&] { return session_->RollbackTo(state); });
    if (s < 0) return;
    run_->Add("session.rollback_ms", s * 1e3);
    paths_.resize(state + 1);
    if (session_->history_size() != state + 1) {
      run_->Incorrect("rollback left the wrong number of states");
    }
  }

  static std::string Name(const std::vector<Step>& path) {
    std::string name = "root";
    for (const Step& step : path) {
      name += "/" + std::string(1, step.kind) + std::to_string(step.arg);
    }
    return name;
  }

 private:
  /// Runs one session action under the op timer; -1 when it failed. The
  /// action is named by the state it starts from and by `what`.
  template <typename F>
  double Timed(const std::string& what, F action) {
    const std::string key = Name(path()) + " " + what;
    const Clock::time_point t = Clock::now();
    blaeu::Status status = action();
    const double s = SecondsSince(t);
    op_seconds_ += s;
    run_->Action(key, s);
    if (!status.ok()) {
      run_->Incorrect("session action failed: " + status.ToString());
      return -1;
    }
    return s;
  }

  void Arrive(char kind, int arg, const blaeu::core::NavState& now,
              const char* metric, double s) {
    run_->Add(metric, s * 1e3);
    std::vector<Step> path = paths_.back();
    path.push_back({kind, arg});
    paths_.push_back(path);
    lost_ += run_->InspectMap(session_->table(), now.selection, now.map);
    run_->Check(ledger_->Observe(Name(path), now.map));
  }

  Session* session_;
  Run* run_;
  StateLedger* ledger_;
  std::vector<std::vector<Step>> paths_;  // one per history state
  double op_seconds_ = 0;
  size_t lost_ = 0;
};

/// One short episode on `nav` for the session layer's per-layer numbers in
/// workloads that do not navigate: a cold zoom into the largest leaf, a
/// highlight, a projection, a rollback and the same zoom again from cache.
void TimeSessionLayer(Navigator* nav, Run* run) {
  Session& session = nav->session();
  nav->RollbackTo(0);
  int leaf = -1;
  for (int id : session.current().map.LeafIds()) {
    if (leaf < 0 || session.current().map.region(id).tuple_count >
                        session.current().map.region(leaf).tuple_count) {
      leaf = id;
    }
  }
  const blaeu::core::SessionStats before = session.stats();
  if (leaf > 0) nav->Zoom(leaf);
  nav->Highlight(session.current().columns.front());
  if (session.themes().size() > 1) {
    nav->Project(session.current().theme_id == 0 ? 1 : 0);
  }
  nav->RollbackTo(0);
  if (leaf > 0) nav->Zoom(leaf);
  const blaeu::core::SessionStats& after = session.stats();
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  if (hits + misses > 0) run->Add("cache.hit_ratio", hits / (hits + misses));
  if (session.cache() != nullptr) {
    run->Add("cache.bytes_mb",
             static_cast<double>(session.cache()->stats().bytes) / (1 << 20));
  }
  nav->RollbackTo(0);
}

// -------------------------------------------------------------- workloads

/// The NULL-routing probe: one cold build on fixed inputs with the
/// generator's default NULL rate. Its map leaves rows unrouted in every
/// round (CartModel::BranchCondition sends NULLs down neither edge), so the
/// run's failed count is exactly one per round while the fault stands.
struct Probe {
  TablePtr table;
  std::vector<std::string> columns;
  MapOptions options;

  void Attempt(Run* run) const {
    const SelectionVector all = SelectionVector::All(table->num_rows());
    DataMap map = OrDie(blaeu::core::BuildMap(*table, all, columns, options),
                        "probe BuildMap");
    run->Check(CheckMapCounts(*table, all, map));
    run->Operation(UnroutedRows(map), -1.0);
  }
};

Probe LofarProbe(size_t threads) {
  blaeu::workloads::LofarSpec spec;
  spec.rows = 32000;
  spec.seed = kProbeTableSeed;
  blaeu::workloads::Dataset data = blaeu::workloads::MakeLofar(spec);
  Probe probe{data.table, PlantedTheme(data, 1), MapOptions()};
  probe.options.seed = kProbeMapSeed;
  probe.options.num_threads = threads;
  return probe;
}

/// Loops whole rounds until `seconds` have passed since `start` (at least
/// `min_rounds`).
void RunRounds(Run* run, double seconds, size_t min_rounds,
               const std::function<void()>& round) {
  const Clock::time_point start = Clock::now();
  for (size_t r = 0; r < min_rounds || SecondsSince(start) < seconds; ++r) {
    run->BeginRound(r);
    round();
    run->EndRound();
  }
}

/// lofar_build: cold BuildMap calls over LOFAR 32k on the spectral theme,
/// session-default map options, no cache, 1 thread. The builds of a round
/// have kBuildsPerRound different map seeds, and every round repeats them,
/// so that each build recurs identically (see Run::Action).
void LofarBuild(uint64_t seed, double seconds, Run* run, double* setup_s) {
  blaeu::workloads::LofarSpec spec;
  spec.rows = 32000;
  spec.seed = seed;
  spec.missing_rate = 0.0;
  blaeu::workloads::Dataset data = blaeu::workloads::MakeLofar(spec);
  const std::vector<std::string> columns = PlantedTheme(data, 1);
  const SelectionVector all = SelectionVector::All(data.table->num_rows());
  MapOptions options = SessionOptions().map;
  options.num_threads = 1;
  options.tracer = run->tracer();
  const Probe probe = LofarProbe(1);
  for (uint64_t w = 0; w < kWarmupBuilds; ++w) {
    options.seed = blaeu::core::HashMix(~seed, w);
    OrDie(blaeu::core::BuildMap(*data.table, all, columns, options), "warm-up");
  }
  *setup_s = SecondsSince(kProcessStart);

  RunRounds(run, seconds, run->trace() ? 2 : 1, [&] {
    for (size_t i = 0; i < kBuildsPerRound; ++i) {
      options.seed = blaeu::core::HashMix(seed, i);
      const int64_t tasks = ParallelTasks();
      const Clock::time_point t = Clock::now();
      DataMap map = OrDie(
          blaeu::core::BuildMap(*data.table, all, columns, options),
          "BuildMap");
      const double s = SecondsSince(t);
      run->Action("build " + std::to_string(i), s);
      if (run->traced_round()) {
        run->Add("parallel.tasks",
                 static_cast<double>(ParallelTasks() - tasks));
      }
      run->Operation(run->InspectMap(*data.table, all, map), s);
    }
    probe.Attempt(run);
  });

  if (run->trace()) {
    run->BeginRound(0);  // untraced: layer-pass maps stay out of map.*
    SessionOptions session_options;
    session_options.map.num_threads = 1;
    TimeThemeLayer(*data.table, session_options.themes, run);
    Session session = OrDie(
        Session::Start(data.table, "lofar_build", session_options), "Start");
    StateLedger ledger;
    Navigator nav(&session, run, &ledger);
    TimeSessionLayer(&nav, run);
  }
}

/// One lofar_navigate episode: descend up to kZoomDepth levels into leaves
/// of at least kMinZoomRows tuples, highlight a column, project onto another
/// theme, roll back to the root, replay the descent, roll back again.
///
/// The kBranching largest leaves of each map, largest first, are its
/// branches. Episode `e` follows the path spelled by the digits of `e` in
/// base kBranching; a digit past a map's last branch wraps round to its
/// first. A round runs the kBranching^kZoomDepth episodes in order: each
/// state is built cold on its first visit in the round and served from the
/// cache on every later one. The highlighted column is drawn from `cols`
/// by the path and by `column_offset`.
/// `at_deepest` runs, untimed, on the projected state before the rollback.
void Episode(Navigator* nav, size_t e, const std::vector<std::string>& cols,
             uint64_t column_offset, const std::function<void()>& at_deepest) {
  Session& session = nav->session();
  std::vector<int> descent;
  size_t digits = e;
  size_t rank_path = 0;  // the path by branch rank
  for (size_t d = 0; d < kZoomDepth; ++d, digits /= kBranching) {
    const DataMap& map = session.current().map;
    std::vector<int> leaves;
    for (int id : map.LeafIds()) {
      if (id > 0 && map.region(id).tuple_count >= kMinZoomRows) {
        leaves.push_back(id);
      }
    }
    if (leaves.empty()) break;
    std::stable_sort(leaves.begin(), leaves.end(), [&](int a, int b) {
      return map.region(a).tuple_count > map.region(b).tuple_count;
    });
    leaves.resize(std::min(leaves.size(), kBranching));
    const size_t rank = (digits % kBranching) % leaves.size();
    rank_path = rank_path * kBranching + rank;
    nav->Zoom(leaves[rank]);
    descent.push_back(leaves[rank]);
  }
  nav->Highlight(cols[(rank_path + column_offset) % cols.size()]);
  const size_t themes = session.themes().size();
  if (themes > 1) {
    size_t theme = rank_path % (themes - 1);
    if (theme >= static_cast<size_t>(session.current().theme_id)) ++theme;
    nav->Project(theme);
  }
  at_deepest();
  nav->RollbackTo(0);
  for (int leaf : descent) nav->Zoom(leaf);
  nav->RollbackTo(0);
}

/// Replays `path` from the root of a cache-disabled session and compares
/// the map it builds with the one the cached session recorded.
void CheckAgainstOracle(Session* oracle, const std::vector<Navigator::Step>& path,
                        const DataMap& expected, Run* run) {
  blaeu::Status status = oracle->RollbackTo(0);
  for (const Navigator::Step& step : path) {
    if (!status.ok()) break;
    status = step.kind == 'z' ? oracle->Zoom(step.arg)
                              : oracle->Project(static_cast<size_t>(step.arg));
  }
  if (!status.ok()) {
    run->Incorrect("oracle replay failed: " + status.ToString());
  } else if (blaeu::core::CanonicalMapJson(oracle->current().map) !=
             blaeu::core::CanonicalMapJson(expected)) {
    run->Incorrect("state " + Navigator::Name(path) +
                   " differs from a cache-disabled session");
  }
}

/// lofar_navigate: one Explorer session on LOFAR 200k at 1 thread, running
/// a walk of episodes. Each round evicts the session's cache entries and
/// walks the same tree in the same order, so every round does the same
/// actions with the same cold/cached mix. The table, the session seed and
/// the walk are fixed; the seed picks the highlighted columns.
void LofarNavigate(uint64_t seed, double seconds, Run* run, double* setup_s) {
  blaeu::workloads::LofarSpec spec;
  spec.missing_rate = 0.0;
  blaeu::workloads::Dataset data = blaeu::workloads::MakeLofar(spec);
  SessionOptions options;
  options.map.num_threads = 1;
  options.map.tracer = run->tracer();
  blaeu::core::Explorer explorer(options);
  if (!explorer.LoadTable(data.table, "lofar").ok()) std::exit(2);
  Session& session = *OrDie(explorer.OpenSession("lofar"), "OpenSession");
  const Probe probe = LofarProbe(1);
  *setup_s = SecondsSince(kProcessStart);

  CheckThemes(data, session, /*planted=*/false, run);
  run->InspectMap(*data.table, session.current().selection,
                  session.current().map);
  SessionOptions oracle_options = options;
  oracle_options.cache_enabled = false;
  oracle_options.map.tracer = nullptr;
  Session oracle = OrDie(Session::Start(data.table, "lofar", oracle_options),
                         "oracle Session::Start");
  std::vector<std::string> columns;
  const std::vector<size_t> keys = KeyColumns(*data.table);
  for (size_t c = 0; c < data.table->num_columns(); ++c) {
    if (std::find(keys.begin(), keys.end(), c) == keys.end()) {
      columns.push_back(data.table->schema().field(c).name);
    }
  }

  StateLedger ledger;
  Navigator nav(&session, run, &ledger);
  size_t round_index = 0;
  RunRounds(run, seconds, run->trace() ? 2 : 1, [&] {
    session.ReleaseCacheEntries();
    const blaeu::core::SessionStats before = session.stats();
    for (size_t e = 0; e < kEpisodesPerRound; ++e) {
      nav.ResetOpTimer();
      const int64_t tasks = ParallelTasks();
      // One sampled state per round is rebuilt without the cache.
      Episode(&nav, e, columns, seed, [&] {
        if (e == round_index % kEpisodesPerRound) {
          CheckAgainstOracle(&oracle, nav.path(), session.current().map, run);
        }
      });
      if (run->traced_round()) {
        run->Add("parallel.tasks", static_cast<double>(ParallelTasks() - tasks));
      }
      run->Operation(nav.lost_rows(), nav.op_seconds());
    }
    const blaeu::core::SessionStats& after = session.stats();
    const double hits =
        static_cast<double>(after.cache_hits - before.cache_hits);
    const double misses =
        static_cast<double>(after.cache_misses - before.cache_misses);
    if (run->traced_round() && hits + misses > 0) {
      run->Add("cache.hit_ratio", hits / (hits + misses));
      run->Add("cache.bytes_mb",
               static_cast<double>(session.cache()->stats().bytes) / (1 << 20));
    }
    probe.Attempt(run);
    ++round_index;
  });
  if (run->trace()) TimeThemeLayer(*data.table, options.themes, run);
}

/// oecd_open: open a session on the full OECD table (6,823 x 378) at a
/// thread budget of nproc capped at 4.
void OecdOpen(uint64_t seed, double seconds, size_t threads, Run* run,
              double* setup_s) {
  blaeu::workloads::OecdSpec spec;
  spec.seed = seed;
  spec.missing_rate = 0.0;
  blaeu::workloads::Dataset data = blaeu::workloads::MakeOecd(spec);
  SessionOptions options;
  options.seed = seed;
  options.map.num_threads = threads;
  options.map.tracer = run->tracer();

  blaeu::workloads::OecdSpec probe_spec;
  probe_spec.seed = kProbeTableSeed;
  blaeu::workloads::Dataset probe_data = blaeu::workloads::MakeOecd(probe_spec);
  Probe probe{probe_data.table, PlantedTheme(probe_data, 0), options.map};
  probe.options.seed = kProbeMapSeed;
  probe.options.tracer = nullptr;
  *setup_s = SecondsSince(kProcessStart);

  std::unique_ptr<Session> last;
  RunRounds(run, seconds, run->trace() ? 2 : 1, [&] {
    const int64_t tasks = ParallelTasks();
    const Clock::time_point t = Clock::now();
    Session session =
        OrDie(Session::Start(data.table, "oecd", options), "Session::Start");
    const double s = SecondsSince(t);
    run->Action("open", s);
    if (run->traced_round()) {
      run->Add("parallel.tasks", static_cast<double>(ParallelTasks() - tasks));
    }
    CheckThemes(data, session, /*planted=*/true, run);
    run->Operation(run->InspectMap(*data.table, session.current().selection,
                                   session.current().map),
                   s);
    probe.Attempt(run);
    last = std::make_unique<Session>(std::move(session));
  });

  if (run->trace()) {
    run->BeginRound(0);  // untraced: layer-pass maps stay out of map.*
    TimeThemeLayer(*data.table, options.themes, run);
    StateLedger ledger;
    Navigator nav(last.get(), run, &ledger);
    TimeSessionLayer(&nav, run);
  }
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "interbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  // The thread budget is fixed before the library's pool first reads it.
  const size_t threads =
      workload == "oecd_open"
          ? std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()))
          : 1;
  setenv("BLAEU_NUM_THREADS", std::to_string(threads).c_str(), 1);

  Run run(trace != 0);
  double setup_s = 0;
  if (workload == "lofar_build") {
    LofarBuild(seed, seconds, &run, &setup_s);
  } else if (workload == "lofar_navigate") {
    LofarNavigate(seed, seconds, &run, &setup_s);
  } else if (workload == "oecd_open") {
    OecdOpen(seed, seconds, threads, &run, &setup_s);
  } else {
    std::fprintf(stderr,
                 "usage: interbench --workload <lofar_build|lofar_navigate|"
                 "oecd_open> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  run.Print(setup_s);
  return 0;
}

}  // namespace
}  // namespace interbench

int main(int argc, char** argv) { return interbench::Main(argc, argv); }
