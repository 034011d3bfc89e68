#include "src/runtime/table.h"

#include <gtest/gtest.h>

namespace p2 {
namespace {

TableSpec Spec(const std::string& name, double lifetime, size_t max_size,
               std::vector<size_t> keys) {
  TableSpec spec;
  spec.name = name;
  spec.lifetime_secs = lifetime;
  spec.max_size = max_size;
  spec.key_fields = std::move(keys);
  return spec;
}

TupleRef Row(const std::string& loc, int64_t k, int64_t v) {
  return Tuple::Make("t", {Value::Str(loc), Value::Int(k), Value::Int(v)});
}

TEST(TableTest, InsertNewReplacedRefreshed) {
  Table table(Spec("t", 100, 10, {0, 1}));
  EXPECT_EQ(table.Insert(Row("n", 1, 10), 0), InsertOutcome::kNew);
  EXPECT_EQ(table.Insert(Row("n", 1, 10), 1), InsertOutcome::kRefreshed);
  EXPECT_EQ(table.Insert(Row("n", 1, 20), 2), InsertOutcome::kReplaced);
  EXPECT_EQ(table.Insert(Row("n", 2, 10), 3), InsertOutcome::kNew);
  EXPECT_EQ(table.Size(3), 2u);
}

TEST(TableTest, RefreshExtendsLifetime) {
  Table table(Spec("t", 10, 10, {0, 1}));
  table.Insert(Row("n", 1, 10), 0);
  table.Insert(Row("n", 1, 10), 8);  // refresh at t=8 -> expires at 18
  EXPECT_EQ(table.Size(12), 1u);
  EXPECT_EQ(table.Size(18), 0u);
}

TEST(TableTest, ExpiryRemovesStaleRows) {
  Table table(Spec("t", 10, 10, {0, 1}));
  table.Insert(Row("n", 1, 10), 0);
  table.Insert(Row("n", 2, 10), 5);
  EXPECT_EQ(table.Size(9.5), 2u);
  EXPECT_EQ(table.Size(10), 1u);  // first row expires at exactly t=10
  EXPECT_EQ(table.Size(15), 0u);
}

TEST(TableTest, SizeBoundEvictsOldest) {
  Table table(Spec("t", 100, 3, {0, 1}));
  for (int i = 0; i < 5; ++i) {
    table.Insert(Row("n", i, i), i);
  }
  std::vector<TupleRef> rows = table.Scan(5);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0]->field(1), Value::Int(2));  // 0 and 1 evicted
  EXPECT_EQ(rows[2]->field(1), Value::Int(4));
}

TEST(TableTest, SizeBoundEvictsNextToExpireSoRefreshedRowsSurvive) {
  Table table(Spec("t", 10, 2, {0, 1}));
  table.Insert(Row("n", 1, 1), 0);  // expires at 10
  table.Insert(Row("n", 2, 1), 5);  // expires at 15
  table.Insert(Row("n", 1, 1), 8);  // refresh: now expires at 18
  table.Insert(Row("n", 3, 1), 9);  // over capacity: (n,2) is closest to expiry
  std::vector<TupleRef> rows = table.Scan(9);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->field(1), Value::Int(1));
  EXPECT_EQ(rows[1]->field(1), Value::Int(3));
}

TEST(TableTest, WholeTupleKeyWhenNoKeysDeclared) {
  Table table(Spec("t", 100, 10, {}));
  table.Insert(Row("n", 1, 10), 0);
  table.Insert(Row("n", 1, 20), 0);  // different contents: distinct row
  EXPECT_EQ(table.Size(0), 2u);
  EXPECT_EQ(table.Insert(Row("n", 1, 20), 1), InsertOutcome::kRefreshed);
}

TEST(TableTest, DeleteMatchingWithWildcards) {
  Table table(Spec("t", 100, 10, {0, 1}));
  table.Insert(Row("n", 1, 10), 0);
  table.Insert(Row("n", 2, 10), 0);
  table.Insert(Row("n", 3, 30), 0);
  // Delete all rows whose third field == 10, wildcard on the second.
  size_t deleted = table.DeleteMatching(
      {Value::Str("n"), Value::Null(), Value::Int(10)}, {true, false, true}, 1);
  EXPECT_EQ(deleted, 2u);
  EXPECT_EQ(table.Size(1), 1u);
}

TEST(TableTest, ListenersObserveChanges) {
  Table table(Spec("t", 10, 2, {0, 1}));
  std::vector<TableChange> changes;
  table.AddListener([&](const TableEvent& e) { changes.push_back(e.change); });
  table.Insert(Row("n", 1, 1), 0);   // kInsert
  table.Insert(Row("n", 1, 2), 0);   // kInsert (replace)
  table.Insert(Row("n", 1, 2), 0);   // refresh: no notification
  table.Insert(Row("n", 2, 1), 0);   // kInsert
  table.Insert(Row("n", 3, 1), 0);   // kInsert, then kEvict (row 1)
  table.DeleteMatching({Value::Str("n"), Value::Int(2)}, {true, true}, 1);  // kDelete
  table.ExpireStale(100);            // kExpire for remaining row
  ASSERT_EQ(changes.size(), 7u);
  EXPECT_EQ(changes[0], TableChange::kInsert);
  EXPECT_EQ(changes[1], TableChange::kInsert);
  EXPECT_EQ(changes[2], TableChange::kInsert);
  EXPECT_EQ(changes[3], TableChange::kInsert);
  EXPECT_EQ(changes[4], TableChange::kEvict);
  EXPECT_EQ(changes[5], TableChange::kDelete);
  EXPECT_EQ(changes[6], TableChange::kExpire);
}

TEST(TableTest, ScanReturnsInsertionOrder) {
  Table table(Spec("t", 100, 10, {0, 1}));
  table.Insert(Row("n", 3, 0), 0);
  table.Insert(Row("n", 1, 0), 0);
  table.Insert(Row("n", 2, 0), 0);
  std::vector<TupleRef> rows = table.Scan(0);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0]->field(1), Value::Int(3));
  EXPECT_EQ(rows[1]->field(1), Value::Int(1));
  EXPECT_EQ(rows[2]->field(1), Value::Int(2));
}

TEST(TableTest, ByteSizeTracksContents) {
  Table table(Spec("t", 100, 10, {0, 1}));
  EXPECT_EQ(table.ByteSize(), 0u);
  table.Insert(Row("n", 1, 1), 0);
  EXPECT_GT(table.ByteSize(), 0u);
}

TEST(TableTest, FindByKeyProbesAndRespectsExpiry) {
  Table table(Spec("t", 5, 10, {0, 1}));
  table.Insert(Row("n", 1, 10), 0);
  table.Insert(Row("n", 2, 20), 0);
  TupleRef hit = table.FindByKey({Value::Str("n"), Value::Int(2)}, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->field(2), Value::Int(20));
  EXPECT_EQ(table.FindByKey({Value::Str("n"), Value::Int(3)}, 1), nullptr);
  // Expired rows are not found.
  EXPECT_EQ(table.FindByKey({Value::Str("n"), Value::Int(2)}, 6), nullptr);
}

TEST(TableTest, FindByKeyMatchesCrossKindNumerics) {
  // Joins evaluate key expressions that may yield Int where the row holds Id; the
  // key hash/equality must treat them alike (as Value equality does).
  Table table(Spec("t", 100, 10, {0, 1}));
  table.Insert(Tuple::Make("t", {Value::Str("n"), Value::Id(7), Value::Int(1)}), 0);
  EXPECT_NE(table.FindByKey({Value::Str("n"), Value::Int(7)}, 1), nullptr);
}

TEST(TableTest, ExpiryFastPathSkipsScans) {
  // Expiry fast path: ExpireStale only looks at the top of the expiry heap. Rows with
  // infinite lifetime never expire, and a refresh re-sifts its row, so the expiry it
  // replaced no longer counts.
  Table inf(Spec("t", std::numeric_limits<double>::infinity(), 10, {0, 1}));
  inf.Insert(Row("n", 1, 1), 0);
  EXPECT_EQ(inf.ExpireStale(1e12), 0u);
  Table ttl(Spec("t", 10, 10, {0, 1}));
  ttl.Insert(Row("n", 1, 1), 0);   // expires at 10
  ttl.Insert(Row("n", 1, 1), 8);   // refresh: expiry now 18
  EXPECT_EQ(ttl.ExpireStale(12), 0u);  // the old expiry passed; the row must survive
  EXPECT_EQ(ttl.Size(12), 1u);
  EXPECT_EQ(ttl.Size(18), 0u);
}

// Property sweep: after arbitrary insert sequences the table never exceeds its bound
// and the index stays consistent with the row list.
class TableBoundProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(TableBoundProperty, NeverExceedsBound) {
  size_t bound = GetParam();
  Table table(Spec("t", 50, bound, {1}));
  for (int i = 0; i < 200; ++i) {
    table.Insert(Row("n", i % 37, i), i * 0.5);
    EXPECT_LE(table.Size(i * 0.5), bound);
  }
  // All remaining rows are distinct under the key.
  std::vector<TupleRef> rows = table.Scan(100);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      EXPECT_FALSE(rows[i]->field(1) == rows[j]->field(1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, TableBoundProperty, ::testing::Values(1, 3, 10, 36, 100));

}  // namespace
}  // namespace p2
