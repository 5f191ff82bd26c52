// Parallel loop constructs layered on ThreadPool.
//
// parallel_for hands each worker a contiguous [begin, end) sub-range, so
// body functions can use cache-friendly inner loops (the OpenMP
// "schedule(static)" idiom). Scheduling policy:
//   * Static  — ranges pre-split into ~2 chunks per thread; lowest overhead.
//   * Dynamic — chunks pulled from a shared atomic cursor; better for
//     irregular per-iteration cost. The micro benches quantify the gap.
//
// Chunk layout is a pure function of (range, grain, thread count): the range
// splits into ceil(total/grain) chunks whose sizes differ by at most one
// iteration, each with a stable index. parallel_reduce exploits that to
// store partials by chunk index and fold them in index order, which makes
// floating-point reductions bitwise reproducible run-to-run — and, because
// its default grain depends only on the range, across thread counts too.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace rcr::parallel {

enum class Schedule { kStatic, kDynamic };

struct ForOptions {
  Schedule schedule = Schedule::kStatic;
  // Minimum iterations per chunk; 0 lets the library choose.
  std::size_t grain = 0;
};

// Invokes body(lo, hi) over disjoint sub-ranges covering [begin, end).
void parallel_for_range(ThreadPool& pool, std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t, std::size_t)>& body,
                        ForOptions options = {});

// Like parallel_for_range but also passes the chunk's stable index
// (0 .. chunk_count-1). For a fixed (range, grain, thread count) chunk k
// always covers the same [lo, hi) regardless of schedule or execution order.
void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    ForOptions options = {});

// Number of chunks parallel_for_chunks will dispatch for this range.
// Independent of the pool size whenever options.grain > 0.
std::size_t chunk_count(const ThreadPool& pool, std::size_t begin,
                        std::size_t end, ForOptions options = {});

// Element-wise convenience: body(i) for each i in [begin, end).
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body&& body, ForOptions options = {}) {
  parallel_for_range(
      pool, begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      options);
}

// Default chunk-count target for parallel_reduce when no grain is given:
// enough chunks to keep any realistic pool busy, few enough that the
// index-ordered combine loop stays trivial.
inline constexpr std::size_t kReduceChunkTarget = 64;

// Parallel reduction: combines per-chunk partial results with `combine`.
// `chunk_fn(lo, hi)` returns the partial value for a sub-range.
//
// Each partial lands at its chunk's index in a pre-sized vector and the
// partials are combined in index order, so the result is bitwise identical
// across runs AND across pool sizes: when options.grain == 0 the grain is
// derived from the range alone (ceil(total / kReduceChunkTarget)), never
// from the thread count. T must be default-constructible (every slot is
// overwritten before combining).
template <typename T, typename ChunkFn, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end,
                  T init, ChunkFn&& chunk_fn, Combine&& combine,
                  ForOptions options = {}) {
  if (begin >= end) return init;
  ForOptions opts = options;
  if (opts.grain == 0) {
    const std::size_t total = end - begin;
    opts.grain = std::max<std::size_t>(
        1, (total + kReduceChunkTarget - 1) / kReduceChunkTarget);
  }
  std::vector<T> partials(chunk_count(pool, begin, end, opts));
  parallel_for_chunks(
      pool, begin, end,
      [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        partials[chunk] = chunk_fn(lo, hi);
      },
      opts);
  T result = std::move(init);
  for (auto& p : partials) result = combine(std::move(result), std::move(p));
  return result;
}

// out[i] = fn(i) for each i; output must already be sized.
template <typename T, typename Fn>
void parallel_transform(ThreadPool& pool, std::vector<T>& out, Fn&& fn,
                        ForOptions options = {}) {
  parallel_for(
      pool, 0, out.size(), [&](std::size_t i) { out[i] = fn(i); }, options);
}

}  // namespace rcr::parallel
