// rcr::stream sketch tests: per-sketch correctness against exact
// references, plus the subsystem's core property — ingesting random shard
// splits and merging gives the same answer as single-stream ingestion
// (exactly for the order-free sketches, within the documented bound for
// the rest).
#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/table.hpp"
#include "stats/descriptive.hpp"
#include "stream/sketch.hpp"
#include "stream/table_sketch.hpp"
#include "util/rng.hpp"

namespace {

using namespace rcr::stream;

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  rcr::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-50.0, 150.0);
  return v;
}

// Random cut points turning [0, n) into 1..max_shards contiguous shards.
std::vector<std::pair<std::size_t, std::size_t>> random_shards(
    std::size_t n, std::size_t max_shards, rcr::Rng& rng) {
  std::set<std::size_t> cuts = {0, n};
  const std::size_t k = 1 + rng.next_below(max_shards);
  for (std::size_t i = 0; i + 1 < k; ++i) cuts.insert(rng.next_below(n));
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  for (auto it = cuts.begin(); std::next(it) != cuts.end(); ++it)
    shards.emplace_back(*it, *std::next(it));
  return shards;
}

TEST(StreamHash, Mix64AndBytesAreStableAndSeeded) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_EQ(hash_bytes("abc", 7), hash_bytes("abc", 7));
  EXPECT_NE(hash_bytes("abc", 7), hash_bytes("abc", 8));
  EXPECT_NE(hash_bytes("abc", 7), hash_bytes("abd", 7));
}

TEST(Moments, MatchesDescriptiveStats) {
  const auto values = random_values(10000, 11);
  Moments m;
  for (double v : values) m.add(v);
  EXPECT_EQ(m.count(), values.size());
  EXPECT_NEAR(m.mean(), rcr::stats::mean(values), 1e-9);
  EXPECT_NEAR(m.variance(), rcr::stats::variance(values), 1e-6);
  EXPECT_EQ(m.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(m.max(), *std::max_element(values.begin(), values.end()));
}

TEST(Moments, WeightedEqualsRepetition) {
  Moments weighted, repeated;
  const auto values = random_values(200, 3);
  for (double v : values) {
    weighted.add(v, 3.0);
    for (int r = 0; r < 3; ++r) repeated.add(v);
  }
  EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-12);
  EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-9);
}

TEST(Moments, ShardMergeMatchesSingleStream) {
  const auto values = random_values(20000, 21);
  Moments single;
  for (double v : values) single.add(v);

  rcr::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Moments merged;
    for (const auto& [lo, hi] : random_shards(values.size(), 7, rng)) {
      Moments shard;
      for (std::size_t i = lo; i < hi; ++i) shard.add(values[i]);
      merged.merge(shard);
    }
    EXPECT_EQ(merged.count(), single.count());
    EXPECT_NEAR(merged.mean(), single.mean(), 1e-10);
    EXPECT_NEAR(merged.variance(), single.variance(), 1e-7);
    EXPECT_EQ(merged.min(), single.min());
    EXPECT_EQ(merged.max(), single.max());
  }
}

// Exact rank deviation of `est` for target quantile q over sorted values.
double rank_error(const std::vector<double>& sorted, double q, double est) {
  const double n = static_cast<double>(sorted.size());
  const double target = std::max(1.0, std::ceil(q * n));
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), est);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), est);
  const double rank_lo = static_cast<double>(lo - sorted.begin()) + 1.0;
  const double rank_hi = static_cast<double>(hi - sorted.begin());
  if (target < rank_lo) return rank_lo - target;
  if (target > rank_hi) return target - rank_hi;
  return 0.0;
}

TEST(GKQuantile, SingleStreamWithinEps) {
  constexpr double kEps = 0.01;
  auto values = random_values(50000, 31);
  GKQuantile q(kEps);
  for (double v : values) q.add(v);
  std::sort(values.begin(), values.end());

  EXPECT_EQ(q.count(), values.size());
  EXPECT_EQ(q.quantile(0.0), values.front());
  EXPECT_EQ(q.quantile(1.0), values.back());
  const double n = static_cast<double>(values.size());
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_LE(rank_error(values, p, q.quantile(p)), kEps * n)
        << "quantile " << p;
  }
  // Space stays O((1/eps) log(eps n)), far below n.
  EXPECT_LT(q.tuple_count(), 2000u);
}

TEST(GKQuantile, ShardMergeWithinTwiceEps) {
  constexpr double kEps = 0.01;
  auto values = random_values(30000, 41);
  auto sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(values.size());

  rcr::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    GKQuantile merged(kEps);
    for (const auto& [lo, hi] : random_shards(values.size(), 8, rng)) {
      GKQuantile shard(kEps);
      for (std::size_t i = lo; i < hi; ++i) shard.add(values[i]);
      merged.merge(shard);
    }
    EXPECT_EQ(merged.count(), values.size());
    for (double p : {0.01, 0.1, 0.5, 0.9, 0.99}) {
      EXPECT_LE(rank_error(sorted, p, merged.quantile(p)), 2.0 * kEps * n)
          << "trial " << trial << " quantile " << p;
    }
  }
}

TEST(GKQuantile, ExtremesExactAfterMerge) {
  GKQuantile a(0.05), b(0.05);
  for (int i = 0; i < 1000; ++i) a.add(static_cast<double>(i));
  for (int i = 1000; i < 2000; ++i) b.add(static_cast<double>(i));
  a.merge(b);
  EXPECT_EQ(a.quantile(0.0), 0.0);
  EXPECT_EQ(a.quantile(1.0), 1999.0);
}

TEST(CountMin, NeverUnderestimatesAndBoundsOverestimate) {
  CountMinSketch cms(4, 512, 17);
  // Zipf-ish exact counts over 200 keys.
  std::vector<double> exact(200);
  for (std::size_t k = 0; k < exact.size(); ++k) {
    exact[k] = std::floor(2000.0 / static_cast<double>(k + 1));
    for (double c = 0; c < exact[k]; ++c)
      cms.add("key_" + std::to_string(k));
  }
  for (std::size_t k = 0; k < exact.size(); ++k) {
    const double est = cms.estimate("key_" + std::to_string(k));
    EXPECT_GE(est, exact[k]);
    EXPECT_LE(est - exact[k], cms.error_bound());
  }
}

TEST(CountMin, ShardMergeEqualsSingleStream) {
  const std::size_t n = 5000;
  rcr::Rng keys(5);
  std::vector<std::uint64_t> stream(n);
  for (auto& k : stream) k = keys.next_below(64);

  CountMinSketch single(4, 256, 9);
  for (auto k : stream) single.add(mix64(k));

  rcr::Rng rng(55);
  CountMinSketch merged(4, 256, 9);
  for (const auto& [lo, hi] : random_shards(n, 6, rng)) {
    CountMinSketch shard(4, 256, 9);
    for (std::size_t i = lo; i < hi; ++i) shard.add(mix64(stream[i]));
    merged.merge(shard);
  }
  for (std::uint64_t k = 0; k < 64; ++k)
    EXPECT_EQ(merged.estimate(mix64(k)), single.estimate(mix64(k)));
  EXPECT_EQ(merged.total_weight(), single.total_weight());
}

TEST(SpaceSaving, ExactWithinCapacityAndDeterministic) {
  SpaceSaving ss(32);
  std::vector<double> exact(20);
  for (std::size_t k = 0; k < exact.size(); ++k) {
    exact[k] = static_cast<double>(5 * (exact.size() - k));
    for (double c = 0; c < exact[k]; ++c)
      ss.add("item_" + std::to_string(k));
  }
  EXPECT_TRUE(ss.exact());
  const auto top = ss.top(5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].key, "item_0");
  EXPECT_EQ(top[0].count, exact[0]);
  EXPECT_EQ(top[0].error, 0.0);
  EXPECT_GE(top[0].count, top[1].count);
}

TEST(SpaceSaving, OverCapacityKeepsHeavyHittersWithBoundedError) {
  SpaceSaving ss(16);
  // 8 heavy keys (1000 each) buried in 200 light keys (3 each).
  for (int rep = 0; rep < 1000; ++rep)
    for (int h = 0; h < 8; ++h) ss.add("heavy_" + std::to_string(h));
  for (int l = 0; l < 200; ++l)
    for (int rep = 0; rep < 3; ++rep) ss.add("light_" + std::to_string(l));
  EXPECT_FALSE(ss.exact());
  const auto top = ss.top(8);
  for (const auto& e : top) {
    EXPECT_EQ(e.key.substr(0, 6), "heavy_");
    EXPECT_GE(e.count, 1000.0);          // never underestimates
    EXPECT_LE(e.count - e.error, 1000.0);  // lower bound stays honest
  }
}

TEST(SpaceSaving, ShardMergeExactWhenDomainsFit) {
  const std::size_t n = 4000;
  rcr::Rng keys(13);
  std::vector<std::string> stream(n);
  for (auto& s : stream)
    s = std::string("k").append(std::to_string(keys.next_below(24)));

  SpaceSaving single(32);
  for (const auto& s : stream) single.add(s);

  rcr::Rng rng(77);
  SpaceSaving merged(32);
  for (const auto& [lo, hi] : random_shards(n, 5, rng)) {
    SpaceSaving shard(32);
    for (std::size_t i = lo; i < hi; ++i) shard.add(stream[i]);
    merged.merge(shard);
  }
  EXPECT_TRUE(merged.exact());
  const auto a = single.top(24), b = merged.top(24);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

TEST(HyperLogLog, EstimatesDistinctWithinBound) {
  for (std::size_t truth : {100u, 5000u, 100000u}) {
    HyperLogLog hll(12, 3);
    for (std::size_t i = 0; i < truth; ++i) {
      hll.add(mix64(i + 1));
      hll.add(mix64(i + 1));  // duplicates must not inflate
    }
    const double err =
        std::abs(hll.estimate() - static_cast<double>(truth)) /
        static_cast<double>(truth);
    EXPECT_LT(err, 5.0 * 1.04 / 64.0) << "truth " << truth;  // 5 sigma, p=12
  }
}

TEST(HyperLogLog, ShardMergeEqualsSingleStream) {
  const std::size_t n = 20000;
  HyperLogLog single(12, 3);
  for (std::size_t i = 0; i < n; ++i) single.add(mix64(i % 3000));

  rcr::Rng rng(123);
  HyperLogLog merged(12, 3);
  for (const auto& [lo, hi] : random_shards(n, 9, rng)) {
    HyperLogLog shard(12, 3);
    for (std::size_t i = lo; i < hi; ++i) shard.add(mix64(i % 3000));
    merged.merge(shard);
  }
  EXPECT_EQ(merged.estimate(), single.estimate());
}

TEST(WeightedReservoir, ShardMergeIdenticalToSingleStream) {
  const std::size_t n = 10000;
  const auto values = random_values(n, 61);
  WeightedReservoir single(50, 9);
  for (std::size_t i = 0; i < n; ++i) single.offer(i, values[i]);

  rcr::Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    WeightedReservoir merged(50, 9);
    for (const auto& [lo, hi] : random_shards(n, 8, rng)) {
      WeightedReservoir shard(50, 9);
      for (std::size_t i = lo; i < hi; ++i) shard.offer(i, values[i]);
      merged.merge(shard);
    }
    ASSERT_EQ(merged.items().size(), single.items().size());
    for (std::size_t i = 0; i < merged.items().size(); ++i) {
      EXPECT_EQ(merged.items()[i].index, single.items()[i].index);
      EXPECT_EQ(merged.items()[i].value, single.items()[i].value);
      EXPECT_EQ(merged.items()[i].priority, single.items()[i].priority);
    }
  }
}

TEST(WeightedReservoir, WeightsBiasSelection) {
  // One item with overwhelming weight must always be kept.
  WeightedReservoir res(5, 4);
  for (std::size_t i = 0; i < 1000; ++i)
    res.offer(i, static_cast<double>(i), i == 500 ? 1e9 : 1.0);
  bool found = false;
  for (const auto& item : res.items()) found = found || item.index == 500;
  EXPECT_TRUE(found);
  // Zero/negative weights are excluded.
  WeightedReservoir res2(5, 4);
  res2.offer(0, 1.0, 0.0);
  res2.offer(1, 2.0, -1.0);
  EXPECT_TRUE(res2.items().empty());
  EXPECT_EQ(res2.offered(), 2u);
}

// --- TableSketch ------------------------------------------------------------

rcr::data::Table sketch_fixture(std::size_t rows, std::uint64_t seed) {
  rcr::data::Table t;
  auto& color = t.add_categorical("color", {"red", "green", "blue"});
  auto& shape = t.add_categorical("shape", {"circle", "square"});
  auto& tags = t.add_multiselect("tags", {"a", "b", "c"});
  auto& w = t.add_numeric("w");
  color.freeze();
  shape.freeze();
  rcr::Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.next_below(10) == 0) {
      color.push_missing();
    } else {
      color.push(std::vector<std::string>{"red", "green",
                                          "blue"}[rng.next_below(3)]);
    }
    if (rng.next_below(12) == 0) {
      shape.push_missing();
    } else {
      shape.push(rng.next_below(2) == 0 ? "circle" : "square");
    }
    if (rng.next_below(15) == 0) {
      tags.push_missing();
    } else {
      tags.push_mask(rng.next_below(8));
    }
    w.push(1.0);
  }
  return t;
}

// --- TableSketch property: random shard splits merge to the single-stream
// state across every sketch at once.
TEST(TableSketch, RandomShardSplitsMergeToSingleStreamState) {
  auto full = sketch_fixture(6000, 53);
  // Rename w to a real numeric variable for moments/quantiles/reservoir.
  rcr::Rng vals(8);
  auto& w = full.numeric("w");
  for (std::size_t i = 0; i < w.size(); ++i)
    w.set(i, vals.uniform(0.0, 100.0));

  TableSketch single(full, "w");
  single.ingest(full, 0);

  rcr::Rng rng(71);
  for (int trial = 0; trial < 3; ++trial) {
    TableSketch merged(full, "w");
    bool first = true;
    for (const auto& [lo, hi] : random_shards(full.row_count(), 7, rng)) {
      TableSketch shard(full, "w");
      shard.ingest(full.slice(lo, hi), lo);
      if (first) {
        merged = std::move(shard);
        first = false;
      } else {
        merged.merge(shard);
      }
    }
    EXPECT_EQ(merged.rows(), single.rows());
    // Order-free sketches: identical.
    EXPECT_EQ(merged.distinct().estimate(), single.distinct().estimate());
    for (const char* label : {"red", "green", "blue"}) {
      const auto key = TableSketch::label_key("color", label);
      EXPECT_EQ(merged.label_cms().estimate(key),
                single.label_cms().estimate(key));
    }
    ASSERT_EQ(merged.reservoir().items().size(),
              single.reservoir().items().size());
    for (std::size_t i = 0; i < merged.reservoir().items().size(); ++i)
      EXPECT_EQ(merged.reservoir().items()[i].index,
                single.reservoir().items()[i].index);
    // Near-exact accumulators: within documented bounds.
    EXPECT_NEAR(merged.moments("w").mean(), single.moments("w").mean(), 1e-9);
    const double n = static_cast<double>(single.rows());
    for (double p : {0.1, 0.5, 0.9}) {
      EXPECT_NEAR(merged.quantile_sketch("w").quantile(p),
                  single.quantile_sketch("w").quantile(p),
                  // both are within 2 eps n of the true rank; values at
                  // ranks that close differ by little on a smooth uniform
                  4.0 * TableSketch::kQuantileEps * 100.0 + 1e-9)
          << "p=" << p << " n=" << n;
    }
    EXPECT_TRUE(merged.heavy_hitters().exact());
  }
}

TEST(TableSketch, ApproxBytesAndMetricsPublish) {
  const auto full = sketch_fixture(500, 5);
  TableSketch sketch(full, "w");
  sketch.ingest(full, 0);
  EXPECT_GT(sketch.approx_bytes(), 0u);
  EXPECT_LT(sketch.approx_bytes(), 4u << 20);
  sketch.publish_metrics();  // must not throw, obs on or off
}

}  // namespace
