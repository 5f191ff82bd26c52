// Tests for Table::append_rows and trend::per_group_trend (the wave-pooling
// and drill-down extensions), and for the shared column storage under
// them (data/page_vec.hpp): copies share rows, appends extend in place or
// fork, and no write reaches a sibling's rows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/snapshot.hpp"
#include "data/table.hpp"
#include "obs/metrics.hpp"
#include "trend/trend.hpp"
#include "util/error.hpp"

namespace rcr {
namespace {

data::Table make_wave(std::size_t a_hits, std::size_t a_n,
                      std::size_t b_hits, std::size_t b_n) {
  data::Table t;
  auto& field = t.add_categorical("field", {"a", "b"});
  auto& m = t.add_multiselect("m", {"x"});
  auto& v = t.add_numeric("v");
  const auto fill = [&](const char* label, std::size_t hits, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      field.push(label);
      m.push_mask(i < hits ? 1 : 0);
      v.push(static_cast<double>(i));
    }
  };
  fill("a", a_hits, a_n);
  fill("b", b_hits, b_n);
  return t;
}

TEST(AppendRowsTest, ConcatenatesMatchingSchemas) {
  auto t1 = make_wave(2, 4, 1, 3);
  const auto t2 = make_wave(1, 2, 2, 2);
  t1.append_rows(t2);
  EXPECT_EQ(t1.row_count(), 11u);
  EXPECT_NO_THROW(t1.validate_rectangular());
  // First appended row lands at index 7 with field "a", mask 1, v 0.
  EXPECT_EQ(t1.categorical("field").label_at(7), "a");
  EXPECT_EQ(t1.multiselect("m").mask_at(7), 1u);
  EXPECT_DOUBLE_EQ(t1.numeric("v").at(7), 0.0);
}

TEST(AppendRowsTest, PreservesMissingCells) {
  data::Table a;
  a.add_numeric("v").push(1.0);
  a.add_multiselect("m", {"x"}).push_mask(1);
  data::Table b;
  b.add_numeric("v").push_missing();
  b.add_multiselect("m", {"x"}).push_missing();
  a.append_rows(b);
  EXPECT_TRUE(data::NumericColumn::is_missing(a.numeric("v").at(1)));
  EXPECT_TRUE(a.multiselect("m").is_missing(1));
}

TEST(AppendRowsTest, RejectsSchemaMismatch) {
  auto t1 = make_wave(1, 2, 1, 2);
  data::Table other;
  other.add_numeric("v");
  EXPECT_THROW(t1.append_rows(other), rcr::Error);

  data::Table wrong_categories;
  wrong_categories.add_categorical("field", {"a", "c"});
  wrong_categories.add_multiselect("m", {"x"});
  wrong_categories.add_numeric("v");
  EXPECT_THROW(t1.append_rows(wrong_categories), rcr::Error);
}

TEST(PerGroupTrendTest, SplitsByGroupAndAdjusts) {
  // Group a: 10% -> 60% (strong shift); group b: flat 50%.
  const auto w1 = make_wave(10, 100, 50, 100);
  const auto w2 = make_wave(240, 400, 200, 400);
  const auto trends = trend::per_group_trend(w1, w2, "field", "m", "x");
  ASSERT_EQ(trends.size(), 2u);
  EXPECT_EQ(trends[0].indicator, "a");
  EXPECT_EQ(trends[0].direction, trend::Direction::kIncrease);
  EXPECT_EQ(trends[1].indicator, "b");
  EXPECT_EQ(trends[1].direction, trend::Direction::kStable);
  // Holm within the family: adjusted >= raw.
  for (const auto& t : trends) EXPECT_GE(t.p_adjusted, t.test.p_value);
}

TEST(PerGroupTrendTest, SkipsSmallGroups) {
  const auto w1 = make_wave(1, 3, 50, 100);  // group a too small
  const auto w2 = make_wave(2, 3, 60, 100);
  const auto trends =
      trend::per_group_trend(w1, w2, "field", "m", "x", /*min_group_n=*/5);
  ASSERT_EQ(trends.size(), 1u);
  EXPECT_EQ(trends[0].indicator, "b");
}

TEST(PerGroupTrendTest, RejectsMismatchedCategorySets) {
  const auto w1 = make_wave(1, 5, 1, 5);
  data::Table w2;
  w2.add_categorical("field", {"a", "z"});
  w2.add_multiselect("m", {"x"});
  w2.add_numeric("v");
  EXPECT_THROW(trend::per_group_trend(w1, w2, "field", "m", "x"),
               rcr::Error);
}

// --- shared column storage ----------------------------------------------------

// The rows with the given indices, in order. Every cell is a function of
// its row index, so any split into a base and blocks has one right answer,
// built here by pushes alone.
data::Table table_of(
    std::initializer_list<std::pair<std::size_t, std::size_t>> ranges) {
  data::Table t;
  auto& field = t.add_categorical("field", {"a", "b", "c"});
  auto& m = t.add_multiselect("m", {"x", "y", "z"});
  auto& v = t.add_numeric("v");
  for (const auto& [lo, hi] : ranges) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (i % 7 == 3) field.push_missing();
      else field.push_code(static_cast<std::int32_t>(i % 3));
      if (i % 5 == 1) m.push_missing();
      else m.push_mask(i % 8);
      v.push(static_cast<double>(i) * 0.5);
    }
  }
  return t;
}

data::Table rows(std::size_t lo, std::size_t hi) { return table_of({{lo, hi}}); }

// Where each of the table's four row arrays starts.
std::vector<const void*> storage(const data::Table& t) {
  return {t.categorical("field").codes().data(),
          t.multiselect("m").masks().data(),
          t.multiselect("m").missing_flags().data(),
          t.numeric("v").values().data()};
}

void expect_same_rows(const data::Table& got, const data::Table& want) {
  ASSERT_EQ(got.row_count(), want.row_count());
  EXPECT_TRUE(got.categorical("field").codes() ==
              want.categorical("field").codes());
  EXPECT_TRUE(got.multiselect("m").masks() == want.multiselect("m").masks());
  EXPECT_TRUE(got.multiselect("m").missing_flags() ==
              want.multiselect("m").missing_flags());
  EXPECT_TRUE(got.numeric("v").values() == want.numeric("v").values());
}

std::uint64_t copy_bytes() {
  return obs::registry().counter("data.copy.bytes").total();
}

// Bytes of one row across the four arrays: i32 code, u64 mask, u8 missing
// flag, f64 value.
constexpr std::size_t kRowBytes = 4 + 8 + 1 + 8;

// 1000 rows built by pushes leave spare capacity under doubling growth, so
// the first append of a few rows to any copy fits in place.
constexpr std::size_t kBase = 1000;

TEST(SharedStorageTest, CopyThenAppendExtendsTheSharedStorageInPlace) {
  const data::Table base = rows(0, kBase);
  data::Table copy = base;
  EXPECT_EQ(storage(copy), storage(base));
  copy.append_rows(rows(kBase, kBase + 10));
  EXPECT_EQ(storage(copy), storage(base));
  expect_same_rows(copy, rows(0, kBase + 10));
  expect_same_rows(base, rows(0, kBase));
}

TEST(SharedStorageTest, ASecondAppendFromTheSameOriginalForks) {
  const data::Table base = rows(0, kBase);
  data::Table first = base;
  first.append_rows(rows(kBase, kBase + 10));
  data::Table second = base;
  second.append_rows(rows(5000, 5010));

  const auto shared = storage(base);
  EXPECT_EQ(storage(first), shared);
  for (std::size_t c = 0; c < shared.size(); ++c)
    EXPECT_NE(storage(second)[c], shared[c]) << "array " << c;
  expect_same_rows(first, rows(0, kBase + 10));
  expect_same_rows(second, table_of({{0, kBase}, {5000, 5010}}));
  expect_same_rows(base, rows(0, kBase));

  // The fork owns the tail of its new buffer: its next append is in place.
  const auto forked = storage(second);
  second.append_rows(rows(5010, 5020));
  EXPECT_EQ(storage(second), forked);
  expect_same_rows(second, table_of({{0, kBase}, {5000, 5020}}));
}

TEST(SharedStorageTest, SetOnASharedCopyLeavesItsSiblingsUnchanged) {
  const data::Table base = rows(0, 100);
  data::Table left = base;
  const data::Table right = base;
  left.numeric("v").set(5, -1.0);
  left.categorical("field").set_code(5, 0);
  left.multiselect("m").set_mask(6, 7);
  left.multiselect("m").set_mask(11, 2);  // a missing row becomes answered

  EXPECT_EQ(left.numeric("v").at(5), -1.0);
  EXPECT_EQ(left.categorical("field").code_at(5), 0);
  EXPECT_EQ(left.multiselect("m").mask_at(6), 7u);
  EXPECT_FALSE(left.multiselect("m").is_missing(11));
  expect_same_rows(base, rows(0, 100));
  expect_same_rows(right, rows(0, 100));
  EXPECT_EQ(storage(right), storage(base));
}

TEST(SharedStorageTest, SelfAppendDoublesTheRows) {
  // 700 rows double past their capacity, so the sole holder's self-append
  // moves the rows it is reading from.
  data::Table t = rows(0, 700);
  t.append_rows(t);
  expect_same_rows(t, table_of({{0, 700}, {0, 700}}));

  // A shared holder's self-append forks.
  const data::Table pinned = t;
  t.append_rows(t);
  expect_same_rows(t, table_of({{0, 700}, {0, 700}, {0, 700}, {0, 700}}));
  expect_same_rows(pinned, table_of({{0, 700}, {0, 700}}));
}

TEST(SharedStorageTest, BorrowedSnapshotColumnMaterializesOnceOnFirstAppend) {
  const std::string path = testing::TempDir() + "rcr_append_borrowed.rcr";
  data::write_snapshot(rows(0, kBase), path);
  const data::Table mapped = data::read_snapshot(path);
  ASSERT_TRUE(mapped.numeric("v").values().is_borrowed());

  const data::Table block1 = rows(kBase, kBase + 10);
  const data::Table block2 = rows(kBase + 10, kBase + 20);
  data::Table grown = mapped;
  const std::uint64_t before = copy_bytes();
  grown.append_rows(block1);
  const std::uint64_t first = copy_bytes() - before;
  EXPECT_FALSE(grown.numeric("v").values().is_borrowed());
  const auto materialized = storage(grown);
  grown.append_rows(block2);
  EXPECT_EQ(storage(grown), materialized);
#ifndef RCR_OBS_DISABLED
  EXPECT_EQ(first, kBase * kRowBytes);
  EXPECT_EQ(copy_bytes() - before, first);
#else
  (void)first;
#endif

  expect_same_rows(grown, rows(0, kBase + 20));
  expect_same_rows(mapped, rows(0, kBase));
  EXPECT_TRUE(mapped.numeric("v").values().is_borrowed());
  std::remove(path.c_str());
}

TEST(SharedStorageTest, ConcurrentAppendsToCopiesOfOneTable) {
  constexpr std::size_t kThreads = 4, kBlock = 16;
  std::vector<data::Table> blocks;
  for (std::size_t i = 0; i < kThreads; ++i)
    blocks.push_back(rows(5000 + 100 * i, 5000 + 100 * i + kBlock));

  for (int round = 0; round < 8; ++round) {
    const data::Table base = rows(0, kBase);
    std::vector<data::Table> results(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        data::Table mine = base;
        mine.append_rows(blocks[i]);
        results[i] = std::move(mine);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();

    // Per array, at most one copy won the claim and shares the base's
    // storage; the rest forked.
    const auto shared = storage(base);
    for (std::size_t c = 0; c < shared.size(); ++c) {
      std::size_t in_place = 0;
      for (const auto& r : results) in_place += storage(r)[c] == shared[c];
      EXPECT_LE(in_place, 1u) << "round " << round << ", array " << c;
    }
    for (std::size_t i = 0; i < kThreads; ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + ", thread " +
                   std::to_string(i));
      expect_same_rows(
          results[i],
          table_of({{0, kBase}, {5000 + 100 * i, 5000 + 100 * i + kBlock}}));
    }
    expect_same_rows(base, rows(0, kBase));
  }
}

}  // namespace
}  // namespace rcr
