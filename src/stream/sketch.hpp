// rcr::stream — mergeable one-pass sketches for populations that do not
// fit in RAM.
//
// Every accumulator here obeys the same three-part contract:
//
//   * one pass   — add()/offer() sees each observation exactly once and
//                  keeps state bounded (O(1) or O(poly(1/eps)) in the
//                  stream length);
//   * mergeable  — merge(other) folds a shard built from a disjoint slice
//                  of the stream into *this; shard-and-merge equals
//                  single-stream ingestion exactly (Moments, CountMin,
//                  HyperLogLog, WeightedReservoir) or within the
//                  documented error bound (GKQuantile, SpaceSaving);
//   * deterministic — no hidden global state: hashed sketches derive every
//                  hash from an explicit seed, and the only order
//                  sensitivity left (floating-point merge order in Moments
//                  and GK summary structure) is fixed by merging shards
//                  in stream order (the streaming study merges block k's
//                  shard after block k-1's), so results are bitwise
//                  identical across thread counts.
//
// Error bounds (n = stream length, documented per sketch below):
//   Moments          exact (floating point; merge order fixed by contract)
//   GKQuantile       rank error <= eps*n single-stream; <= 2*eps*n after
//                    arbitrary shard merges (conservative)
//   CountMinSketch   overestimate only; err <= e/width * total weight with
//                    probability 1 - exp(-depth) per query
//   SpaceSaving      exact while distinct keys <= capacity (our categorical
//                    domains); otherwise count in [true, true + error]
//   HyperLogLog      relative std error ~= 1.04 / sqrt(2^precision)
//   WeightedReservoir exact A-ES sample: priorities are a pure function of
//                    (seed, global index, weight), so any shard split
//                    selects the same k items
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rcr::stream {

// SplitMix64 finalizer: the mixing primitive every hashed sketch uses.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// FNV-1a over the bytes, folded through mix64 with the sketch seed.
std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed);

// --- Moments ----------------------------------------------------------------
// Streaming weighted mean/variance (West's update) with Chan's pairwise
// merge, plus exact sum/min/max. With unit weights, mean() and variance()
// reproduce stats::mean / stats::variance (n-1 denominator).
class Moments {
 public:
  void add(double x, double w = 1.0);
  void merge(const Moments& other);

  std::uint64_t count() const { return count_; }
  double weight() const { return weight_; }
  double mean() const { return mean_; }
  // Sample variance (n-1 style: M2 / (weight - 1)); 0 until weight > 1.
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * weight_; }
  double min() const;
  double max() const;

 private:
  std::uint64_t count_ = 0;
  double weight_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// --- GKQuantile -------------------------------------------------------------
// Greenwald–Khanna epsilon-approximate quantile summary with buffered bulk
// inserts. quantile(q) returns a stream value whose rank is within eps*n
// of ceil(q*n) for a single-stream build, and within 2*eps*n after any
// sequence of shard merges (conservative bound; merges concatenate the
// summaries and recompress against the combined n). Space is
// O((1/eps) * log(eps*n)) tuples. min/max are tracked exactly.
class GKQuantile {
 public:
  explicit GKQuantile(double eps = 0.01);

  void add(double x);
  void merge(const GKQuantile& other);  // eps must match

  // q in [0, 1]. Returns 0 on an empty sketch.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double eps() const { return eps_; }
  double min() const;
  double max() const;

  std::size_t tuple_count() const;
  std::size_t approx_bytes() const;

 private:
  struct Tuple {
    double value;
    std::uint64_t g;      // rmin(i) - rmin(i-1)
    std::uint64_t delta;  // rmax(i) - rmin(i)
  };

  void flush() const;
  void compress() const;

  double eps_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  // Buffered inserts are folded into the summary lazily; queries flush
  // first, so the buffer is an internal detail (hence mutable).
  mutable std::vector<Tuple> tuples_;
  mutable std::vector<double> buffer_;
};

// --- CountMinSketch ---------------------------------------------------------
// Conservative point-frequency sketch over hashed keys: depth rows of
// `width` (rounded up to a power of two) double counters. estimate() never
// underestimates; the overestimate exceeds e/width * total_weight() with
// probability at most exp(-depth). merge() adds counters elementwise and is
// exact (shard-and-merge == single stream); dims and seed must match.
class CountMinSketch {
 public:
  CountMinSketch(std::size_t depth, std::size_t width, std::uint64_t seed);

  void add(std::uint64_t key_hash, double w = 1.0);
  void add(std::string_view key, double w = 1.0) {
    add(hash_bytes(key, seed_), w);
  }
  // Batched form of add(): identical cells and total to the equivalent
  // loop of add(key_hashes[i], w) calls (each cell's += sequence keeps key
  // order; the depth loop is hoisted outward and the row hashing runs
  // through the rcr::simd mix64 kernel, L keys at a time).
  void add_batch(std::span<const std::uint64_t> key_hashes, double w = 1.0);

  double estimate(std::uint64_t key_hash) const;
  double estimate(std::string_view key) const {
    return estimate(hash_bytes(key, seed_));
  }

  void merge(const CountMinSketch& other);

  double total_weight() const { return total_; }
  std::size_t depth() const { return depth_; }
  std::size_t width() const { return width_; }
  // e/width * total_weight — the per-query error scale.
  double error_bound() const;
  std::size_t approx_bytes() const;

 private:
  std::size_t row_index(std::size_t d, std::uint64_t key_hash) const;

  std::size_t depth_;
  std::size_t width_;  // power of two
  std::uint64_t seed_;
  double total_ = 0.0;
  std::vector<double> cells_;  // depth_ * width_
  std::vector<std::uint64_t> scratch_;  // add_batch row hashes (reused)
};

// --- SpaceSaving ------------------------------------------------------------
// Metwally et al. heavy hitters over string keys with at most `capacity`
// tracked entries. While the distinct-key count stays within capacity
// (every categorical answer set in this toolkit) the counts are exact and
// exact() stays true; beyond it, each reported count lies in
// [true, true + error]. Eviction and merge tie-breaks are by (count, key),
// so the structure is a pure function of the input stream.
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity);

  void add(std::string_view key, double w = 1.0);
  void merge(const SpaceSaving& other);

  struct Entry {
    std::string key;
    double count = 0.0;  // estimate (upper bound)
    double error = 0.0;  // count - error <= true count <= count
  };
  // Entries sorted by descending count (ties: ascending key).
  std::vector<Entry> top(std::size_t k) const;

  bool exact() const { return exact_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t tracked() const { return entries_.size(); }
  std::size_t approx_bytes() const;

 private:
  double min_count() const;

  std::size_t capacity_;
  bool exact_ = true;
  // Sorted by key so every walk (eviction scan, merge) is deterministic.
  std::vector<Entry> entries_;
};

// --- HyperLogLog ------------------------------------------------------------
// Flajolet et al. distinct counting: 2^precision one-byte registers,
// register-wise max merge (exact under sharding). estimate() applies the
// standard small-range linear-counting correction. Relative standard error
// ~= 1.04 / sqrt(2^precision) (~1.6% at the default precision 12).
class HyperLogLog {
 public:
  explicit HyperLogLog(std::uint8_t precision = 12, std::uint64_t seed = 0);

  void add(std::uint64_t key_hash);
  void add(std::string_view key) { add(hash_bytes(key, seed_)); }
  // Batched add(): register-wise max is order-insensitive, and the hash
  // runs through the rcr::simd mix64 kernel — identical registers to the
  // equivalent add() loop.
  void add_batch(std::span<const std::uint64_t> key_hashes);

  double estimate() const;
  void merge(const HyperLogLog& other);  // precision and seed must match

  std::uint8_t precision() const { return precision_; }
  std::size_t approx_bytes() const { return registers_.size(); }

 private:
  std::uint8_t precision_;
  std::uint64_t seed_;
  std::vector<std::uint8_t> registers_;
  std::vector<std::uint64_t> scratch_;  // add_batch hashes (reused)
};

// --- WeightedReservoir ------------------------------------------------------
// Weighted sampling without replacement (Efraimidis–Spirakis A-ES) made
// shard-proof: item i's priority is ln(u_i)/w_i with u_i derived from
// mix64(seed, global index) — a pure function of the item, not of arrival
// order — and the reservoir is simply the top-`capacity` priorities. Any
// partition of the stream therefore merges to exactly the single-stream
// sample, and a fixed (priority, index) order makes ties impossible.
class WeightedReservoir {
 public:
  WeightedReservoir(std::size_t capacity, std::uint64_t seed);

  // `index` is the item's global stream position (must be unique);
  // w <= 0 excludes the item.
  void offer(std::uint64_t index, double value, double w = 1.0);
  void merge(const WeightedReservoir& other);  // seed must match

  struct Item {
    double priority = 0.0;  // ln(u)/w, in (-inf, 0]
    std::uint64_t index = 0;
    double value = 0.0;
    double weight = 1.0;
  };
  // Sorted by descending (priority, index).
  const std::vector<Item>& items() const { return items_; }

  std::uint64_t offered() const { return offered_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t approx_bytes() const;

 private:
  void insert(const Item& item);

  std::size_t capacity_;
  std::uint64_t seed_;
  std::uint64_t offered_ = 0;
  std::vector<Item> items_;  // sorted descending, size <= capacity_
};

}  // namespace rcr::stream
