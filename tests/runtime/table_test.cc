#include "src/runtime/table.h"

#include <gtest/gtest.h>

#include "src/runtime/arena.h"

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

TEST(TableTest, CrossKindEqualKeysAreOneKey) {
  // Int(7), Id(7) and Double(7.0) compare equal, so they are one key: each replaces
  // the last on insert, and a keyed delete with any of them matches.
  Table table(Spec("t", 100, 10, {0, 1}));
  auto row = [](const Value& k, int64_t v) {
    return Tuple::Make("t", {Value::Str("n"), k, Value::Int(v)});
  };
  EXPECT_EQ(table.Insert(row(Value::Int(7), 1), 0), InsertOutcome::kNew);
  EXPECT_EQ(table.Insert(row(Value::Id(7), 2), 0), InsertOutcome::kReplaced);
  EXPECT_EQ(table.Insert(row(Value::Double(7.0), 3), 0), InsertOutcome::kReplaced);
  EXPECT_EQ(table.Insert(row(Value::Int(7), 3), 0), InsertOutcome::kRefreshed);
  EXPECT_EQ(table.Size(0), 1u);
  EXPECT_EQ(table.DeleteMatching({Value::Str("n"), Value::Id(7)}, {true, true}, 1), 1u);
  EXPECT_EQ(table.Size(1), 0u);
  table.Insert(row(Value::Id(7), 4), 1);
  EXPECT_EQ(table.DeleteMatching({Value::Str("n"), Value::Double(7.0)}, {true, true}, 1),
            1u);
  EXPECT_EQ(table.Size(1), 0u);
}

TEST(TableTest, EqualHashKeysStayDistinct) {
  // Value::Hash folds Bool into the numeric image, so these keys hash alike but
  // differ: every key operation must confirm its candidates field by field.
  const Value yes = Value::Bool(true);
  const Value one = Value::Int(1);
  ASSERT_EQ(yes.Hash(), one.Hash());
  ASSERT_FALSE(yes == one);
  auto r = [](const char* loc, const Value& k) {
    return Tuple::Make("r", {Value::Str(loc), k});
  };
  // Removing a row unlinks its own index entry, never its hash twin's. Delete each
  // of the pair mid-walk (the corpse stays allocated until the walk ends): the other
  // must still be found, and the deleted key must be free for a new row.
  for (const bool delete_first : {true, false}) {
    SCOPED_TRACE(delete_first);
    const Value& gone = delete_first ? yes : one;
    const Value& kept = delete_first ? one : yes;
    Table pair(Spec("r", 100, 10, {1}));
    pair.Insert(r("a", yes), 0);
    pair.Insert(r("a", one), 0);
    pair.ForEachLive(0, [&](const TupleRef&) {
      EXPECT_EQ(pair.DeleteMatching({Value::Null(), gone}, {false, true}, 0), 1u);
      EXPECT_NE(pair.FindByKey({kept}, 0), nullptr);
      EXPECT_EQ(pair.FindByKey({gone}, 0), nullptr);
      return false;
    });
    EXPECT_NE(pair.FindByKey({kept}, 0), nullptr);
    EXPECT_EQ(pair.Insert(r("a", kept), 0), InsertOutcome::kRefreshed);
    EXPECT_EQ(pair.Insert(r("a", gone), 0), InsertOutcome::kNew);
    EXPECT_EQ(pair.Size(0), 2u);
  }

  Table table(Spec("r", 100, 10, {1}));
  EXPECT_EQ(table.Insert(r("a", yes), 0), InsertOutcome::kNew);
  EXPECT_EQ(table.Insert(r("a", one), 0), InsertOutcome::kNew);
  EXPECT_EQ(table.Size(0), 2u);
  EXPECT_EQ(table.FindByKey({yes}, 0)->field(1), yes);
  EXPECT_EQ(table.FindByKey({one}, 0)->field(1), one);
  // A replacing insert touches only its own key's row.
  EXPECT_EQ(table.Insert(r("b", one), 1), InsertOutcome::kReplaced);
  EXPECT_EQ(table.FindByKey({yes}, 1)->field(0), Value::Str("a"));
  EXPECT_EQ(table.FindByKey({one}, 1)->field(0), Value::Str("b"));
  EXPECT_EQ(table.Insert(r("a", yes), 1), InsertOutcome::kRefreshed);
  // A keyed delete removes only its own key's row.
  EXPECT_EQ(table.DeleteMatching({Value::Null(), yes}, {false, true}, 2), 1u);
  EXPECT_EQ(table.FindByKey({yes}, 2), nullptr);
  ASSERT_NE(table.FindByKey({one}, 2), nullptr);
  EXPECT_EQ(table.Insert(r("b", one), 2), InsertOutcome::kRefreshed);
  const Value no = Value::Bool(false);  // hashes like Int(0); neither is a key here
  EXPECT_EQ(table.DeleteMatching({Value::Null(), no}, {false, true}, 2), 0u);
  EXPECT_EQ(table.Size(2), 1u);
}

TEST(TableTest, ShortRowKeyFieldsReadAsNull) {
  // Keyed on fields 0 and 2: a row of arity 2 has key (field 0, Null).
  Table table(Spec("t", 100, 10, {0, 2}));
  auto t = [](std::initializer_list<Value> fields) { return Tuple::Make("t", fields); };
  const Value n = Value::Str("n");
  EXPECT_EQ(table.Insert(t({n, Value::Int(5)}), 0), InsertOutcome::kNew);
  ASSERT_NE(table.FindByKey({n, Value::Null()}, 0), nullptr);
  EXPECT_EQ(table.FindByKey({n, Value::Null()}, 0)->field(1), Value::Int(5));
  EXPECT_EQ(table.FindByKey({n, Value::Int(0)}, 0), nullptr);
  // Another short row with the same present key fields replaces it.
  EXPECT_EQ(table.Insert(t({n, Value::Int(6)}), 0), InsertOutcome::kReplaced);
  EXPECT_EQ(table.Insert(t({n, Value::Int(6)}), 0), InsertOutcome::kRefreshed);
  // A full row whose field 2 is 0 is another key; one whose field 2 is Null is not.
  EXPECT_EQ(table.Insert(t({n, Value::Int(6), Value::Int(0)}), 0), InsertOutcome::kNew);
  EXPECT_EQ(table.Insert(t({n, Value::Int(7), Value::Null()}), 0),
            InsertOutcome::kReplaced);
  EXPECT_EQ(table.Size(0), 2u);
  EXPECT_EQ(table.FindByKey({n, Value::Null()}, 0)->field(1), Value::Int(7));
  EXPECT_EQ(table.Insert(t({n, Value::Int(8)}), 0), InsertOutcome::kReplaced);
  EXPECT_EQ(table.FindByKey({n, Value::Null()}, 0)->arity(), 2u);
  // Keyed deletes: the short row on the fields it has, the full row by its key.
  const std::vector<bool> key_bound = {true, false, true};
  EXPECT_EQ(table.DeleteMatching({n, Value::Null(), Value::Int(0)}, key_bound, 1), 2u);
  EXPECT_EQ(table.Size(1), 0u);
  table.Insert(t({n, Value::Int(9), Value::Null()}), 1);
  table.Insert(t({n, Value::Int(9), Value::Int(1)}), 1);
  EXPECT_EQ(table.DeleteMatching({n, Value::Null(), Value::Null()}, key_bound, 1), 1u);
  ASSERT_EQ(table.Size(1), 1u);
  EXPECT_EQ(table.FindByKey({n, Value::Int(1)}, 1)->field(1), Value::Int(9));
}

// A traced execution record's shape: two strings, two ids, two doubles, a bool.
TupleRef ExecRow(int i) {
  return Tuple::Make("ruleExec",
                     {Value::Str("n1"), Value::Str("r" + std::to_string(i % 7)),
                      Value::Id(static_cast<uint64_t>(i)), Value::Id(1000u + i),
                      Value::Double(i * 0.5), Value::Double(i * 0.5 + 0.25),
                      Value::Bool(i % 2 == 0)});
}

TEST(TableTest, KeyOperationsTakeNoArenaBlocks) {
  // The key index reads keys in place: inserting, refreshing, probing, deleting and
  // expiring rows copies no key through the tuple arena.
  // A whole-tuple key (like ruleExec's) and a two-field key.
  const std::vector<std::vector<size_t>> key_sets = {{}, {0, 2}};
  for (const std::vector<size_t>& keys : key_sets) {
    SCOPED_TRACE(keys.size());
    std::vector<TupleRef> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back(ExecRow(i));
    }
    ValueList key = rows[7]->fields();
    ValueList pattern = rows[9]->fields();
    std::vector<bool> bound(pattern.size(), true);
    if (!keys.empty()) {
      key = {rows[7]->field(0), rows[7]->field(2)};
      bound.assign(pattern.size(), false);
      bound[0] = bound[2] = true;  // exactly the key: the probe path
    }
    Table table(Spec("ruleExec", 30, 1000, keys));
    const uint64_t blocks = TupleArena::FreshBlocks() + TupleArena::RecycledBlocks();
    for (const TupleRef& row : rows) {
      EXPECT_EQ(table.Insert(row, 0), InsertOutcome::kNew);
    }
    for (const TupleRef& row : rows) {
      EXPECT_EQ(table.Insert(row, 1), InsertOutcome::kRefreshed);
    }
    EXPECT_EQ(table.FindByKey(key, 2), rows[7]);
    EXPECT_EQ(table.DeleteMatching(pattern, bound, 2), 1u);
    EXPECT_EQ(table.ExpireStale(31), 99u);
    EXPECT_EQ(TupleArena::FreshBlocks() + TupleArena::RecycledBlocks(), blocks);
  }
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
