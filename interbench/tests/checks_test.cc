// The benchmark's own tests: each correctness check passes on an unmodified
// output and fails on a corrupted one.
#include <gtest/gtest.h>

#include <algorithm>

#include "checks.h"
#include "core/map_builder.h"
#include "core/navigation.h"
#include "core/theme.h"
#include "monet/column.h"
#include "workloads/lofar.h"
#include "workloads/oecd.h"

namespace interbench {
namespace {

using blaeu::core::DataMap;
using blaeu::monet::SelectionVector;

blaeu::workloads::Dataset Lofar(double missing_rate) {
  blaeu::workloads::LofarSpec spec;
  spec.rows = 4000;
  spec.seed = 7;
  spec.missing_rate = missing_rate;
  return blaeu::workloads::MakeLofar(spec);
}

std::vector<std::string> Spectral(const blaeu::workloads::Dataset& d) {
  std::vector<std::string> names;
  for (size_t c = 0; c < d.table->num_columns(); ++c) {
    if (d.truth.column_themes[c] == 1) {
      names.push_back(d.table->schema().field(c).name);
    }
  }
  return names;
}

DataMap Build(const blaeu::workloads::Dataset& d) {
  blaeu::core::MapOptions options;
  options.num_threads = 1;
  return *blaeu::core::BuildMap(*d.table,
                                SelectionVector::All(d.table->num_rows()),
                                Spectral(d), options);
}

TEST(RecountTest, NullSatisfiesNoComparison) {
  auto col = std::make_shared<blaeu::monet::Column>(
      blaeu::monet::DataType::kDouble);
  col->AppendDouble(1.0);
  col->AppendNull();
  col->AppendDouble(3.0);
  auto table = *blaeu::monet::Table::Make(
      blaeu::monet::Schema({{"x", blaeu::monet::DataType::kDouble}}), {col});
  const SelectionVector all = SelectionVector::All(3);
  using blaeu::monet::CompareOp;
  using blaeu::monet::Condition;
  using blaeu::monet::Conjunction;
  using blaeu::monet::Value;
  std::string error;
  EXPECT_EQ(Recount(*table, all,
                    Conjunction({Condition::Compare("x", CompareOp::kLe,
                                                    Value::Double(2))}),
                    &error),
            1u);
  EXPECT_EQ(Recount(*table, all,
                    Conjunction({Condition::Compare("x", CompareOp::kGt,
                                                    Value::Double(2))}),
                    &error),
            1u);
  EXPECT_EQ(Recount(*table, all, Conjunction({Condition::IsNull("x")}), &error),
            1u);
  EXPECT_TRUE(error.empty());
  Recount(*table, all, Conjunction({Condition::IsNull("y")}), &error);
  EXPECT_FALSE(error.empty());
}

TEST(MapCheckTest, PassesOnAnUnmodifiedMap) {
  const auto data = Lofar(0.0);
  const DataMap map = Build(data);
  ASSERT_GT(map.regions.size(), 1u);
  const SelectionVector all = SelectionVector::All(data.table->num_rows());
  EXPECT_EQ(CheckMapCounts(*data.table, all, map), "");
  EXPECT_EQ(UnroutedRows(map), 0u);
}

TEST(MapCheckTest, FailsOnARegionCountOffByOne) {
  const auto data = Lofar(0.0);
  const SelectionVector all = SelectionVector::All(data.table->num_rows());
  const DataMap map = Build(data);
  for (size_t r = 0; r < map.regions.size(); ++r) {
    DataMap bad = map;
    bad.regions[r].tuple_count += 1;
    EXPECT_NE(CheckMapCounts(*data.table, all, bad), "") << "region " << r;
  }
}

TEST(MapCheckTest, FailsOnADroppedChild) {
  const auto data = Lofar(0.0);
  const SelectionVector all = SelectionVector::All(data.table->num_rows());
  DataMap bad = Build(data);
  ASSERT_FALSE(bad.regions[0].children.empty());
  bad.regions[0].children.pop_back();
  EXPECT_GT(UnroutedRows(bad), 0u);
  EXPECT_NE(CheckMapCounts(*data.table, all, bad), "");
}

TEST(MapCheckTest, CountsTheNullRoutingFaultAsUnroutedRows) {
  // With NULLs in the split columns the program's counts agree with the
  // recount, but children no longer sum to their parents.
  const auto data = Lofar(0.05);
  const DataMap map = Build(data);
  EXPECT_EQ(CheckMapCounts(*data.table,
                           SelectionVector::All(data.table->num_rows()), map),
            "");
  EXPECT_GT(UnroutedRows(map), 0u);
}

TEST(StateLedgerTest, PassesOnACachedRevisitAndFailsOnAnAlteredMap) {
  const auto data = Lofar(0.0);
  blaeu::core::SessionOptions options;
  options.map.num_threads = 1;
  auto session = *blaeu::core::Session::Start(data.table, "lofar", options);
  StateLedger ledger;
  const int leaf = session.current().map.LeafIds().front();
  ASSERT_TRUE(session.Zoom(leaf).ok());
  EXPECT_EQ(ledger.Observe("root/z", session.current().map), "");
  ASSERT_TRUE(session.Rollback().ok());
  ASSERT_TRUE(session.Zoom(leaf).ok());
  ASSERT_EQ(session.current().map.resources.cache_hits, 1);
  EXPECT_EQ(ledger.Observe("root/z", session.current().map), "");

  DataMap altered = session.current().map;
  altered.regions.back().tuple_count += 1;
  EXPECT_NE(ledger.Observe("root/z", altered), "");
  altered = session.current().map;
  altered.silhouette += 0.5;
  EXPECT_NE(ledger.Observe("root/z", altered), "");
}

class ThemeCheckTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    blaeu::workloads::OecdSpec spec;
    spec.rows = 1500;
    spec.indicator_columns = 64;
    spec.missing_rate = 0.0;
    data_ = new blaeu::workloads::Dataset(blaeu::workloads::MakeOecd(spec));
    themes_ = new blaeu::core::ThemeSet(*blaeu::core::DetectThemes(*data_->table));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete themes_;
  }
  static blaeu::workloads::Dataset* data_;
  static blaeu::core::ThemeSet* themes_;
};
blaeu::workloads::Dataset* ThemeCheckTest::data_ = nullptr;
blaeu::core::ThemeSet* ThemeCheckTest::themes_ = nullptr;

TEST_F(ThemeCheckTest, PassesOnDetectedThemes) {
  const auto keys = KeyColumns(*data_->table);
  EXPECT_EQ(keys, std::vector<size_t>{0});  // region_id
  EXPECT_EQ(CheckThemePartition(*data_->table, *themes_, keys), "");
  EXPECT_GE(ThemeRecovery(*themes_, data_->truth.column_themes), kMinThemeAri);
}

TEST_F(ThemeCheckTest, FailsOnAColumnMovedBetweenThemes) {
  blaeu::core::ThemeSet moved = *themes_;
  ASSERT_GE(moved.themes.size(), 2u);
  // Move one planted indicator column from its theme into another.
  blaeu::core::Theme* from = nullptr;
  size_t at = 0;
  for (auto& theme : moved.themes) {
    for (size_t i = 0; i < theme.columns.size() && from == nullptr; ++i) {
      if (data_->truth.column_themes[theme.columns[i]] >= 0 &&
          theme.columns.size() > 1) {
        from = &theme;
        at = i;
      }
    }
  }
  ASSERT_NE(from, nullptr);
  blaeu::core::Theme& to =
      &moved.themes[0] == from ? moved.themes[1] : moved.themes[0];
  to.columns.push_back(from->columns[at]);
  to.names.push_back(from->names[at]);
  from->columns.erase(from->columns.begin() + at);
  from->names.erase(from->names.begin() + at);
  // Still a partition, but no longer the planted one.
  EXPECT_EQ(CheckThemePartition(*data_->table, moved,
                                KeyColumns(*data_->table)),
            "");
  EXPECT_LT(ThemeRecovery(moved, data_->truth.column_themes), kMinThemeAri);
}

TEST_F(ThemeCheckTest, FailsWhenAColumnSitsInTwoThemesOrNone) {
  blaeu::core::ThemeSet twice = *themes_;
  twice.themes[0].columns.push_back(twice.themes[1].columns.front());
  twice.themes[0].names.push_back(twice.themes[1].names.front());
  const auto keys = KeyColumns(*data_->table);
  EXPECT_NE(CheckThemePartition(*data_->table, twice, keys), "");
  blaeu::core::ThemeSet none = *themes_;
  none.themes[0].columns.pop_back();
  none.themes[0].names.pop_back();
  EXPECT_NE(CheckThemePartition(*data_->table, none, keys), "");
}

TEST(AdjustedRandIndexTest, KnownValues) {
  EXPECT_DOUBLE_EQ(AdjustedRandIndex({0, 0, 1, 1}, {5, 5, 7, 7}), 1.0);
  EXPECT_LT(AdjustedRandIndex({0, 0, 1, 1}, {0, 1, 0, 1}), 0.0);
}

}  // namespace
}  // namespace interbench
