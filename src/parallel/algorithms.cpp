#include "parallel/algorithms.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace rcr::parallel {

namespace {

// Counters for chunk dispatch, resolved once (registration takes a mutex).
struct LoopObs {
  obs::Counter& serial_runs =
      obs::registry().counter("parallel.for.serial_runs");
  obs::Counter& static_chunks =
      obs::registry().counter("parallel.for.chunks.static");
  obs::Counter& dynamic_chunks =
      obs::registry().counter("parallel.for.chunks.dynamic");
};

LoopObs& loop_obs() {
  static LoopObs o;
  return o;
}

// The chunk layout for an explicit grain: ceil(total/grain) chunks whose
// sizes differ by at most one iteration, chunk k covering
// [begin + k*base + min(k, rem), ...) with the first `rem` chunks one
// iteration longer. A pure function of (begin, end, grain), never of the
// pool or schedule; rebalancing means a range that barely exceeds the
// grain never produces a degenerate 1-iteration tail chunk.
struct ChunkLayout {
  std::size_t begin = 0;
  std::size_t chunks = 0;
  std::size_t base = 0;
  std::size_t rem = 0;

  std::pair<std::size_t, std::size_t> bounds(std::size_t k) const {
    const std::size_t lo = begin + k * base + std::min(k, rem);
    return {lo, lo + base + (k < rem ? 1 : 0)};
  }
};

ChunkLayout chunk_layout(std::size_t begin, std::size_t end,
                         std::size_t grain) {
  if (begin >= end) return {begin, 0, 0, 0};
  const std::size_t total = end - begin;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (total + g - 1) / g;
  return {begin, chunks, total / chunks, total % chunks};
}

std::size_t pick_grain(std::size_t total, std::size_t threads,
                       Schedule schedule, std::size_t requested) {
  if (requested > 0) return requested;
  if (schedule == Schedule::kStatic) {
    // ~2 chunks per thread balances tail imbalance against overhead.
    return std::max<std::size_t>(1, total / (2 * threads));
  }
  // Dynamic: ~8 chunks per thread gives the scheduler room to rebalance.
  return std::max<std::size_t>(1, total / (8 * threads));
}

ChunkLayout make_plan(std::size_t begin, std::size_t end, std::size_t threads,
                      ForOptions options) {
  return chunk_layout(begin, end, pick_grain(end - begin, threads,
                                             options.schedule,
                                             options.grain));
}

}  // namespace

std::size_t chunk_count(const ThreadPool& pool, std::size_t begin,
                        std::size_t end, ForOptions options) {
  if (begin >= end) return 0;
  const std::size_t threads = std::max<std::size_t>(1, pool.thread_count());
  return make_plan(begin, end, threads, options).chunks;
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    ForOptions options) {
  if (begin >= end) return;
  const std::size_t threads = std::max<std::size_t>(1, pool.thread_count());
  const ChunkLayout plan = make_plan(begin, end, threads, options);

  if (plan.chunks <= 1) {
    // Single chunk: skip the pool entirely (no task allocation, no wakeup).
    loop_obs().serial_runs.add(1);
    body(0, begin, end);
    return;
  }

  if (options.schedule == Schedule::kStatic) {
    loop_obs().static_chunks.add(plan.chunks);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(plan.chunks);
    for (std::size_t k = 0; k < plan.chunks; ++k) {
      tasks.push_back([&body, plan, k] {
        const auto [lo, hi] = plan.bounds(k);
        body(k, lo, hi);
      });
    }
    pool.run_batch(std::move(tasks));
    return;
  }

  // Dynamic: at most min(threads, chunks) tasks, each claiming chunk
  // indices from a shared cursor — near-empty ranges no longer spawn one
  // task per pool thread.
  loop_obs().dynamic_chunks.add(plan.chunks);
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t workers = std::min(threads, plan.chunks);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    tasks.push_back([&body, plan, cursor] {
      for (;;) {
        const std::size_t k = cursor->fetch_add(1);
        if (k >= plan.chunks) return;
        const auto [lo, hi] = plan.bounds(k);
        body(k, lo, hi);
      }
    });
  }
  pool.run_batch(std::move(tasks));
}

void parallel_for_range(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    ForOptions options) {
  parallel_for_chunks(
      pool, begin, end,
      [&body](std::size_t, std::size_t lo, std::size_t hi) { body(lo, hi); },
      options);
}

}  // namespace rcr::parallel
