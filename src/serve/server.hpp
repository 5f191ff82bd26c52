// rcr::serve server core — holds immutable Table snapshots resident and
// answers query requests through a four-layer pipeline:
//
//   1. result cache   — (epoch, canonical spec) fingerprint -> encoded
//                       result body (protocol.hpp); a hit never touches
//                       the engine.
//   2. single-flight  — concurrent misses on the SAME key attach to one
//                       in-flight computation; N identical requests cost
//                       one engine query, and the other N-1 wait on it.
//   3. batch folding  — concurrent misses on DISTINCT keys for the same
//                       epoch fold into one fused QueryEngine pass (the
//                       engine's whole design premise: a batch of queries
//                       costs one sharded scan). The first miss to find no
//                       runner active becomes the batch runner and loops,
//                       draining whatever misses accumulated while the
//                       previous engine pass ran; everyone else waits on
//                       their flight. No timers: batches form exactly from
//                       natural concurrency.
//   0. delta epochs   — append_delta() mints a new epoch as a delta on an
//                       existing one: the appended block feeds a per-
//                       lineage QueryEngine::append (O(block rows)),
//                       and every result the base epoch ever served is
//                       re-encoded from the refreshed partials and
//                       inserted into the cache under the new epoch's
//                       fingerprints BEFORE the epoch becomes visible —
//                       readers never see the new epoch cold, and the old
//                       epoch stays registered (PR 8's pinning), so
//                       in-flight readers keep a consistent cut.
//   4. admission      — a request that misses while the miss queue
//                       (in-flight misses, waiters included) has reached
//                       the admitted-limit budget is refused with an
//                       explicit kShed response instead of queueing
//                       unboundedly. The budget adapts AIMD-style: every
//                       slo_window completed requests the server takes a
//                       windowed p99 of serve.request.ms (obs histogram
//                       window_snapshot) and halves the limit while the
//                       interval's p99 exceeds the SLO target, recovering
//                       by +1 per interval while it meets it.
//
// Determinism contract: a served result body is byte-identical to
// encode_result_body over a cold direct QueryEngine run of the same spec
// on the same snapshot — for any thread count (the engine's shard layout
// is a pure function of the row count), any SIMD width (kernels are
// bitwise-identical across widths), either cache path (the cached bytes
// ARE the first computation's bytes), and any batch composition (each
// query accumulates into its own cells, so co-batched queries cannot
// perturb each other).
//
// Metrics: serve.requests / serve.hits / serve.misses / serve.coalesced /
// serve.shed / serve.errors / serve.batches / serve.batch.queries
// counters, serve.inflight and serve.admit.limit gauges, serve.request.ms
// and serve.batch.ms histograms.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/table.hpp"
#include "obs/metrics.hpp"
#include "query/engine.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace rcr::parallel {
class ThreadPool;
}

namespace rcr::serve {

struct ServerConfig {
  std::size_t cache_capacity = 4096;  // cached result bodies (total)
  // Admission control:
  double slo_p99_ms = 5.0;         // windowed-p99 latency target
  std::size_t max_admitted = 256;  // miss-queue budget ceiling (and start)
  std::size_t min_admitted = 2;    // decay floor (keeps the server live)
  std::size_t slo_window = 256;    // completed requests per SLO interval
  // Engine execution; nullptr runs the fused scans serially. Results are
  // bitwise identical either way.
  parallel::ThreadPool* pool = nullptr;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});

  // Registers an immutable snapshot under `epoch` (must be new).
  void register_snapshot(std::uint64_t epoch, data::Table table);

  // Drops the snapshot and every cached result fingerprinted against it.
  // In-flight batches keep the table alive until they finish.
  void retire_snapshot(std::uint64_t epoch);

  // Mints `new_epoch` as a delta on `base_epoch`: the new snapshot is the
  // base table plus `block`'s rows, but instead of recomputing, every spec
  // the base epoch ever served is refreshed in O(block rows) through the
  // lineage engine's append() and cached under the new epoch before it
  // becomes visible (a reader can never find the new epoch cold for those
  // specs). Refreshed bodies are byte-identical to a cold engine run on
  // the merged table — an appended cut reproduces the cold bits exactly.
  // The base epoch stays registered; retire it separately once its
  // readers drain. Returns the number of cache entries refreshed.
  // Specs first requested on the new epoch miss into the normal cold
  // batch path and join the lineage at its next delta.
  std::size_t append_delta(std::uint64_t base_epoch, std::uint64_t new_epoch,
                           const data::Table& block);

  std::vector<std::uint64_t> epochs() const;

  // The full pipeline for one decoded request. Never throws for request
  // problems — bad specs and unknown epochs come back as kError responses.
  Response handle(const Request& req);

  // Wire entry point: decode payload -> handle -> encode response payload.
  std::vector<std::uint8_t> handle_payload(
      std::span<const std::uint8_t> payload);

  // --- Introspection (tests, admin) ----------------------------------------
  std::size_t admit_limit() const {
    return admit_limit_.load(std::memory_order_relaxed);
  }
  std::size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  double window_p99_ms() const {
    return window_p99_ms_.load(std::memory_order_relaxed);
  }
  std::size_t cache_size() const { return cache_.size(); }

  // Queries enqueued for `epoch`'s next batch (0 for unknown epochs).
  std::size_t pending_queries(std::uint64_t epoch) const;

  // Test hook: while held, batch runners stall before executing, so
  // concurrent misses pile into one batch. Lets tests pin coalescing,
  // batch folding, and shedding without racing the engine. A request
  // thread that becomes the batch runner blocks until released, so only
  // hold from a thread that is not itself sending requests.
  void hold_batches(bool hold);

 private:
  // One in-flight miss computation; waiters block on cv until done.
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    MsgType type = MsgType::kResult;
    CachedBody body;    // kResult
    std::string error;  // kError
  };

  struct PendingQuery {
    std::uint64_t key = 0;
    QuerySpec spec;  // canonicalized
    std::shared_ptr<Flight> flight;
  };

  struct Epoch {
    std::uint64_t id = 0;
    data::Table table;
    std::mutex m;  // guards pending + runner_active + served_*
    std::vector<PendingQuery> pending;
    bool runner_active = false;
    // Every distinct spec this epoch answered successfully (canonicalized,
    // deduped by fingerprint) — what append_delta refreshes.
    std::vector<QuerySpec> served_specs;
    std::vector<std::uint64_t> served_keys;
  };

  // The incremental state advancing one snapshot lineage: an engine
  // holding partials for the head epoch's served specs. Keyed by head
  // epoch; append_delta moves it base -> new.
  struct Lineage {
    std::unique_ptr<query::QueryEngine> engine;
    std::vector<QuerySpec> specs;  // engine registration order: id i = specs[i]
  };

  std::shared_ptr<Epoch> find_epoch(std::uint64_t epoch) const;
  void run_batches(Epoch& ep);
  void execute_batch(Epoch& ep, std::vector<PendingQuery>& batch);
  void finish_flight(const std::shared_ptr<Flight>& flight, MsgType type,
                     CachedBody body, std::string error);
  void complete_request(double elapsed_ms);
  void wait_if_held();

  ServerConfig config_;
  ResultCache cache_;

  mutable std::mutex epochs_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Epoch>> epochs_;

  // Admin plane: serializes whole append_delta calls (one delta at a
  // time). Nothing else ever takes it, so holding it across the O(delta)
  // rebuild/refresh work blocks only other admins.
  std::mutex delta_mutex_;
  // Guards the lineages_ map itself — held only for the brief extract /
  // publish of a Lineage entry, never across the incremental scan, so
  // retire_snapshot (and anything else touching the map) never waits on
  // an in-flight delta's O(block rows) work.
  std::mutex lineage_mutex_;
  std::map<std::uint64_t, Lineage> lineages_;

  std::mutex inflight_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> inflight_map_;
  std::atomic<std::size_t> inflight_{0};

  std::atomic<std::size_t> admit_limit_;
  std::atomic<double> window_p99_ms_{0.0};
  std::atomic<std::uint64_t> completed_{0};
  std::mutex slo_mutex_;
  // Per-server latency histogram driving the SLO window (the registry's
  // serve.request.ms is also fed, for dashboards, but windows on a shared
  // registry metric would interleave across server instances). With
  // RCR_OBS_DISABLED this is a no-op, every window p99 reads 0, and
  // admission degrades gracefully to the static max_admitted budget.
  obs::Histogram latency_;

  std::mutex hold_mutex_;
  std::condition_variable hold_cv_;
  bool hold_ = false;
};

}  // namespace rcr::serve
