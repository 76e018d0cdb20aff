#include "data/dataset.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"

namespace rrr {
namespace data {
namespace {

TEST(DatasetTest, FromRowsBasics) {
  Result<Dataset> ds = Dataset::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->dims(), 2u);
  EXPECT_DOUBLE_EQ(ds->at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(ds->at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(ds->row(1)[1], 4.0);
}

TEST(DatasetTest, DefaultColumnNames) {
  Result<Dataset> ds = Dataset::FromRows({{1.0, 2.0, 3.0}});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->column_names(),
            (std::vector<std::string>{"a0", "a1", "a2"}));
}

TEST(DatasetTest, CustomColumnNames) {
  Result<Dataset> ds = Dataset::FromRows({{1.0, 2.0}}, {"price", "carat"});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->column_names()[0], "price");
}

TEST(DatasetTest, RejectsRaggedRows) {
  EXPECT_FALSE(Dataset::FromRows({{1.0, 2.0}, {3.0}}).ok());
}

TEST(DatasetTest, RejectsWrongNameCount) {
  EXPECT_FALSE(Dataset::FromRows({{1.0, 2.0}}, {"only_one"}).ok());
}

TEST(DatasetTest, FromFlatValidatesCellCount) {
  EXPECT_TRUE(Dataset::FromFlat({1, 2, 3, 4}, 2, 2).ok());
  EXPECT_FALSE(Dataset::FromFlat({1, 2, 3}, 2, 2).ok());
}

TEST(DatasetTest, EmptyDataset) {
  Dataset ds;
  EXPECT_TRUE(ds.empty());
  EXPECT_EQ(ds.size(), 0u);
  Result<Dataset> from_rows = Dataset::FromRows({});
  ASSERT_TRUE(from_rows.ok());
  EXPECT_TRUE(from_rows->empty());
}

TEST(DatasetTest, HeadTakesPrefix) {
  Result<Dataset> ds = Dataset::FromRows({{1.0}, {2.0}, {3.0}});
  ASSERT_TRUE(ds.ok());
  const Dataset head = ds->Head(2);
  EXPECT_EQ(head.size(), 2u);
  EXPECT_DOUBLE_EQ(head.at(1, 0), 2.0);
  EXPECT_EQ(ds->Head(10).size(), 3u);  // clamped
  EXPECT_EQ(ds->Head(0).size(), 0u);
}

TEST(DatasetTest, SampleWithoutReplacement) {
  Result<Dataset> ds =
      Dataset::FromRows({{0.0}, {1.0}, {2.0}, {3.0}, {4.0}});
  ASSERT_TRUE(ds.ok());
  Rng rng(5);
  const Dataset sample = ds->Sample(3, &rng);
  EXPECT_EQ(sample.size(), 3u);
  // Values must be distinct members of the original, in ascending row
  // order (sampling preserves relative order).
  for (size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample.at(i - 1, 0), sample.at(i, 0));
  }
}

TEST(DatasetTest, SampleLargerThanDataReturnsAll) {
  Result<Dataset> ds = Dataset::FromRows({{1.0}, {2.0}});
  Rng rng(6);
  EXPECT_EQ(ds->Sample(10, &rng).size(), 2u);
}

TEST(DatasetTest, ProjectPrefixKeepsLeadingColumns) {
  Result<Dataset> ds =
      Dataset::FromRows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}}, {"a", "b", "c"});
  const Dataset p = ds->ProjectPrefix(2);
  EXPECT_EQ(p.dims(), 2u);
  EXPECT_DOUBLE_EQ(p.at(1, 1), 5.0);
  EXPECT_EQ(p.column_names(), (std::vector<std::string>{"a", "b"}));
}

TEST(DatasetTest, ProjectReordersColumns) {
  Result<Dataset> ds =
      Dataset::FromRows({{1.0, 2.0, 3.0}}, {"a", "b", "c"});
  Result<Dataset> p = ds->Project({2, 0});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(p->at(0, 1), 1.0);
  EXPECT_EQ(p->column_names(), (std::vector<std::string>{"c", "a"}));
}

TEST(DatasetTest, CheckFiniteDetectsNanAndInf) {
  EXPECT_TRUE(Dataset::FromRows({{1.0, 2.0}})->CheckFinite().ok());
  EXPECT_FALSE(
      Dataset::FromRows({{1.0, std::nan("")}})->CheckFinite().ok());
  EXPECT_FALSE(Dataset::FromRows({{1.0, INFINITY}})->CheckFinite().ok());
  EXPECT_FALSE(Dataset::FromRows({{-INFINITY, 0.0}})->CheckFinite().ok());
  Dataset empty;
  EXPECT_TRUE(empty.CheckFinite().ok());
}

TEST(DatasetTest, CheckFinitePinpointsTheOffendingCell) {
  Result<Dataset> ok = Dataset::FromRows({{1.0, 2.0}});
  EXPECT_TRUE(ok->CheckFinite().ok());
  Dataset empty;
  EXPECT_TRUE(empty.CheckFinite().ok());
  Result<Dataset> bad = Dataset::FromRows(
      {{1.0, 2.0}, {3.0, std::nan("")}}, {"price", "rating"});
  const Status status = bad->CheckFinite();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("row 1"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("rating"), std::string::npos)
      << status.message();
}

TEST(DatasetTest, ProjectRejectsBadColumn) {
  Result<Dataset> ds = Dataset::FromRows({{1.0, 2.0}});
  EXPECT_FALSE(ds->Project({0, 5}).ok());
  EXPECT_FALSE(ds->Project({-1}).ok());
}

}  // namespace
}  // namespace data
}  // namespace rrr
