#include "serve/server.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/timer.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace rcr::serve {

namespace {

struct Metrics {
  obs::Counter& requests = obs::registry().counter("serve.requests");
  obs::Counter& hits = obs::registry().counter("serve.hits");
  obs::Counter& misses = obs::registry().counter("serve.misses");
  obs::Counter& coalesced = obs::registry().counter("serve.coalesced");
  obs::Counter& shed = obs::registry().counter("serve.shed");
  obs::Counter& errors = obs::registry().counter("serve.errors");
  obs::Counter& batches = obs::registry().counter("serve.batches");
  obs::Counter& batch_queries =
      obs::registry().counter("serve.batch.queries");
  obs::Counter& deltas = obs::registry().counter("serve.deltas");
  obs::Counter& delta_refreshed =
      obs::registry().counter("serve.delta.refreshed");
  obs::Gauge& inflight = obs::registry().gauge("serve.inflight");
  obs::Gauge& admit_limit = obs::registry().gauge("serve.admit.limit");
  obs::Histogram& request_ms = obs::registry().histogram("serve.request.ms");
  obs::Histogram& batch_ms = obs::registry().histogram("serve.batch.ms");
  obs::Histogram& delta_ms = obs::registry().histogram("serve.delta.ms");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(config),
      cache_(config.cache_capacity),
      admit_limit_(std::max<std::size_t>(1, config.max_admitted)) {
  RCR_CHECK_MSG(config_.min_admitted >= 1,
                "serve: min_admitted must be at least 1");
  RCR_CHECK_MSG(config_.min_admitted <= config_.max_admitted,
                "serve: min_admitted must not exceed max_admitted");
  metrics().admit_limit.set(
      static_cast<std::int64_t>(admit_limit_.load(std::memory_order_relaxed)));
}

void Server::register_snapshot(std::uint64_t epoch, data::Table table) {
  table.validate_rectangular();
  auto ep = std::make_shared<Epoch>();
  ep->id = epoch;
  ep->table = std::move(table);
  std::lock_guard<std::mutex> lock(epochs_mutex_);
  RCR_CHECK_MSG(epochs_.find(epoch) == epochs_.end(),
                "serve: epoch already registered (snapshots are immutable)");
  epochs_.emplace(epoch, std::move(ep));
}

void Server::retire_snapshot(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(epochs_mutex_);
    epochs_.erase(epoch);
  }
  {
    std::lock_guard<std::mutex> lock(lineage_mutex_);
    lineages_.erase(epoch);
  }
  cache_.invalidate_epoch(epoch);
}

std::size_t Server::append_delta(std::uint64_t base_epoch,
                                 std::uint64_t new_epoch,
                                 const data::Table& block) {
  Metrics& m = metrics();
  obs::ScopedTimer timer(m.delta_ms);
  // Admin plane: one delta at a time. Request handling stays live — it
  // only ever touches epochs_mutex_, the cache shards, and ep->m briefly.
  // The O(delta) scan below runs on a privately-extracted Lineage;
  // lineage_mutex_ is taken only for the extract and the final publish,
  // so retire_snapshot never stalls behind an in-flight delta.
  std::lock_guard<std::mutex> admin(delta_mutex_);

  const auto base = find_epoch(base_epoch);
  RCR_CHECK_MSG(base != nullptr, "serve: unknown snapshot epoch " +
                                     std::to_string(base_epoch));
  RCR_CHECK_MSG(find_epoch(new_epoch) == nullptr,
                "serve: epoch already registered (snapshots are immutable)");

  std::vector<QuerySpec> served;
  std::vector<std::uint64_t> served_keys;
  {
    std::lock_guard<std::mutex> lock(base->m);
    served = base->served_specs;
  }

  // Pull the base lineage out of the shared map; the rebuild and the
  // incremental append below own it privately, off every shared lock.
  Lineage lin;
  {
    std::lock_guard<std::mutex> lock(lineage_mutex_);
    const auto it = lineages_.find(base_epoch);
    if (it != lineages_.end()) {
      lin = std::move(it->second);
      lineages_.erase(it);
    }
  }

  // (Re)build the lineage when it doesn't exist yet or the base epoch has
  // served specs the engine never registered (late specs went through the
  // cold batch path): register everything served and catch up with ONE
  // run() over the base table, after which the engine no longer reads it.
  // Otherwise this delta costs O(block rows). Every servable wire kind can
  // be appended to (the external-weight-span kind has no wire form).
  if (!lin.engine || lin.specs != served) {
    lin.engine = std::make_unique<query::QueryEngine>(base->table);
    lin.specs = served;
    for (const QuerySpec& spec : served) register_spec(*lin.engine, spec);
    lin.engine->run(config_.pool);
  }
  lin.engine->append(block, config_.pool);

  // The copy shares the base's row storage, and the append writes the
  // block in place past the base's rows: O(block rows), base unchanged.
  data::Table merged = base->table;
  merged.append_rows(block);

  // Refresh every served spec from the incremental partials and insert
  // under the NEW epoch's fingerprints before the epoch is visible — a
  // reader can never observe the new epoch cold for a served spec.
  std::size_t refreshed = 0;
  served_keys.reserve(lin.specs.size());
  for (std::size_t i = 0; i < lin.specs.size(); ++i) {
    const std::uint64_t key = fingerprint(new_epoch, lin.specs[i]);
    auto body = std::make_shared<const std::vector<std::uint8_t>>(
        encode_result_body(*lin.engine, i, lin.specs[i]));
    cache_.insert(key, new_epoch, std::move(body));
    served_keys.push_back(key);
    ++refreshed;
  }

  register_snapshot(new_epoch, std::move(merged));
  {
    // The new epoch inherits the served set (it answered all of it at
    // birth, via the pre-warmed cache), so the next delta refreshes the
    // same specs without a rebuild.
    const auto ep = find_epoch(new_epoch);
    std::lock_guard<std::mutex> lock(ep->m);
    ep->served_specs = lin.specs;
    ep->served_keys = std::move(served_keys);
  }

  // The lineage advances: its engine now holds partials for new_epoch's
  // rows. Publish it under the new head; the base keeps serving reads but
  // accepts no further deltas on this lineage.
  {
    std::lock_guard<std::mutex> lock(lineage_mutex_);
    lineages_[new_epoch] = std::move(lin);
  }

  m.deltas.add(1);
  m.delta_refreshed.add(refreshed);
  return refreshed;
}

std::vector<std::uint64_t> Server::epochs() const {
  std::lock_guard<std::mutex> lock(epochs_mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(epochs_.size());
  for (const auto& [id, ep] : epochs_) out.push_back(id);
  return out;
}

std::shared_ptr<Server::Epoch> Server::find_epoch(std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(epochs_mutex_);
  const auto it = epochs_.find(epoch);
  return it == epochs_.end() ? nullptr : it->second;
}

Response Server::handle(const Request& req) {
  Metrics& m = metrics();
  m.requests.add();
  Stopwatch watch;

  const QuerySpec spec = canonicalize(req.spec);
  const std::uint64_t key = fingerprint(req.epoch, spec);
  Response resp;
  resp.fingerprint = key;

  const auto ep = find_epoch(req.epoch);
  if (!ep) {
    m.errors.add();
    resp.type = MsgType::kError;
    resp.body = encode_error_body("serve: unknown snapshot epoch " +
                                  std::to_string(req.epoch));
    complete_request(watch.elapsed_ms());
    return resp;
  }

  if (CachedBody hit = cache_.find(key)) {
    m.hits.add();
    resp.type = MsgType::kResult;
    resp.body = *hit;
    complete_request(watch.elapsed_ms());
    return resp;
  }
  m.misses.add();

  // Admission control: refuse with explicit backpressure once the miss
  // queue has consumed its budget. Sheds are NOT recorded into the latency
  // window — a flood of fast refusals must not read as "p99 recovered".
  const std::size_t limit = admit_limit_.load(std::memory_order_relaxed);
  const std::size_t depth = inflight_.load(std::memory_order_relaxed);
  if (depth >= limit) {
    m.shed.add();
    resp.type = MsgType::kShed;
    resp.body = encode_shed_body(
        {depth, limit, window_p99_ms_.load(std::memory_order_relaxed)});
    return resp;
  }

  inflight_.fetch_add(1, std::memory_order_relaxed);
  m.inflight.add(1);

  // Single-flight: one computation per key, however many wait on it.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_map_.find(key);
    if (it != inflight_map_.end()) {
      flight = it->second;
      m.coalesced.add();
    } else {
      flight = std::make_shared<Flight>();
      inflight_map_.emplace(key, flight);
      leader = true;
    }
  }

  // Batch folding: the leader enqueues its query for the epoch's next
  // engine pass; whichever leader finds no runner active becomes the
  // runner and drains batches until the queue is empty.
  bool runner = false;
  if (leader) {
    std::lock_guard<std::mutex> lock(ep->m);
    ep->pending.push_back({key, spec, flight});
    if (!ep->runner_active) {
      ep->runner_active = true;
      runner = true;
    }
  }
  if (runner) run_batches(*ep);

  {
    std::unique_lock<std::mutex> lock(flight->m);
    flight->cv.wait(lock, [&] { return flight->done; });
    resp.type = flight->type;
    if (flight->type == MsgType::kResult) {
      resp.body = *flight->body;
    } else {
      m.errors.add();
      resp.body = encode_error_body(flight->error);
    }
  }

  inflight_.fetch_sub(1, std::memory_order_relaxed);
  m.inflight.add(-1);
  complete_request(watch.elapsed_ms());
  return resp;
}

std::vector<std::uint8_t> Server::handle_payload(
    std::span<const std::uint8_t> payload) {
  Response resp;
  try {
    resp = handle(decode_request(payload));
  } catch (const Error& e) {
    metrics().errors.add();
    resp.type = MsgType::kError;
    resp.fingerprint = 0;
    resp.body = encode_error_body(e.what());
  }
  return encode_response(resp);
}

void Server::run_batches(Epoch& ep) {
  for (;;) {
    wait_if_held();
    std::vector<PendingQuery> batch;
    {
      std::lock_guard<std::mutex> lock(ep.m);
      if (ep.pending.empty()) {
        ep.runner_active = false;
        return;
      }
      batch.swap(ep.pending);
    }
    execute_batch(ep, batch);
  }
}

void Server::execute_batch(Epoch& ep, std::vector<PendingQuery>& batch) {
  Metrics& m = metrics();
  obs::ScopedTimer timer(m.batch_ms);
  m.batches.add();
  m.batch_queries.add(batch.size());

  // Distinct concurrent misses for this epoch become ONE fused engine
  // pass: registration is per query, the sharded scan is shared.
  query::QueryEngine engine(ep.table);
  std::vector<std::optional<query::QueryId>> ids(batch.size());
  std::size_t registered = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    try {
      ids[i] = register_spec(engine, batch[i].spec);
      ++registered;
    } catch (const Error& e) {
      finish_flight(batch[i].flight, MsgType::kError, nullptr, e.what());
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_map_.erase(batch[i].key);
    }
  }

  bool ran = false;
  std::string run_error;
  if (registered > 0) {
    try {
      engine.run(config_.pool);
      ran = true;
    } catch (const Error& e) {
      run_error = e.what();
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!ids[i]) continue;  // failed registration, already answered
    if (ran) {
      auto body = std::make_shared<const std::vector<std::uint8_t>>(
          encode_result_body(engine, *ids[i], batch[i].spec));
      cache_.insert(batch[i].key, ep.id, body);
      {
        // Record the spec as served (deduped by fingerprint): the set
        // append_delta refreshes when this epoch grows a delta.
        std::lock_guard<std::mutex> lock(ep.m);
        if (std::find(ep.served_keys.begin(), ep.served_keys.end(),
                      batch[i].key) == ep.served_keys.end()) {
          ep.served_keys.push_back(batch[i].key);
          ep.served_specs.push_back(batch[i].spec);
        }
      }
      {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        inflight_map_.erase(batch[i].key);
      }
      finish_flight(batch[i].flight, MsgType::kResult, std::move(body), "");
    } else {
      {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        inflight_map_.erase(batch[i].key);
      }
      finish_flight(batch[i].flight, MsgType::kError, nullptr, run_error);
    }
  }
}

void Server::finish_flight(const std::shared_ptr<Flight>& flight, MsgType type,
                           CachedBody body, std::string error) {
  {
    std::lock_guard<std::mutex> lock(flight->m);
    flight->type = type;
    flight->body = std::move(body);
    flight->error = std::move(error);
    flight->done = true;
  }
  flight->cv.notify_all();
}

void Server::complete_request(double elapsed_ms) {
  Metrics& m = metrics();
  m.request_ms.record(elapsed_ms);
  latency_.record(elapsed_ms);
  const std::uint64_t done =
      completed_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.slo_window == 0 || done % config_.slo_window != 0) return;

  // SLO interval boundary: take the per-window p99 and adapt the budget
  // AIMD-style (halve over target, +1 under it).
  std::lock_guard<std::mutex> lock(slo_mutex_);
  const auto window = latency_.window_snapshot();
  if (window.count == 0) return;
  window_p99_ms_.store(window.p99, std::memory_order_relaxed);
  std::size_t limit = admit_limit_.load(std::memory_order_relaxed);
  if (window.p99 > config_.slo_p99_ms) {
    limit = std::max(config_.min_admitted, limit / 2);
  } else {
    limit = std::min(config_.max_admitted, limit + 1);
  }
  admit_limit_.store(limit, std::memory_order_relaxed);
  m.admit_limit.set(static_cast<std::int64_t>(limit));
}

std::size_t Server::pending_queries(std::uint64_t epoch) const {
  const auto ep = find_epoch(epoch);
  if (!ep) return 0;
  std::lock_guard<std::mutex> lock(ep->m);
  return ep->pending.size();
}

void Server::hold_batches(bool hold) {
  {
    std::lock_guard<std::mutex> lock(hold_mutex_);
    hold_ = hold;
  }
  hold_cv_.notify_all();
}

void Server::wait_if_held() {
  std::unique_lock<std::mutex> lock(hold_mutex_);
  hold_cv_.wait(lock, [&] { return !hold_; });
}

}  // namespace rcr::serve
