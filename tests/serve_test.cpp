// The serving determinism contract, pinned end to end: a served result
// body is byte-identical to encoding a cold direct QueryEngine run of the
// same spec on the same snapshot — for thread counts 0/1/2/8, forced-scalar
// vs native SIMD, hit and miss cache paths, and any batch composition.
// Plus the concurrency semantics that cannot be left to chance: N identical
// concurrent misses collapse into ONE engine pass (single-flight), distinct
// concurrent misses fold into ONE fused batch, and overload is refused with
// an explicit kShed response rather than unbounded queueing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/snapshot.hpp"
#include "data/table.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "simd/dispatch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::serve {
namespace {

constexpr std::uint64_t kEpoch = 7;

// field (5 categories) x career (4) x langs (8 options) x score x w —
// 9000 rows, multi-shard at the engine's 4096-row grain, with per-column
// missingness and full-mantissa weights so the weighted paths exercise the
// engine's deterministic-reassociation merge.
data::Table make_table(std::size_t rows = 9000) {
  const std::vector<std::string> fields = {"f0", "f1", "f2", "f3", "f4"};
  const std::vector<std::string> careers = {"c0", "c1", "c2", "c3"};
  std::vector<std::string> langs;
  for (int o = 0; o < 8; ++o) langs.push_back("L" + std::to_string(o));

  data::Table t;
  auto& field = t.add_categorical("field", fields);
  auto& career = t.add_categorical("career", careers);
  auto& lang_col = t.add_multiselect("langs", langs);
  auto& score = t.add_numeric("score");
  auto& w = t.add_numeric("w");

  Rng rng(2718);
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.next_double() < 0.10) field.push_missing();
    else field.push(fields[rng.next_below(5)]);
    if (rng.next_double() < 0.07) career.push_missing();
    else career.push(careers[rng.next_below(4)]);
    if (rng.next_double() < 0.12) lang_col.push_missing();
    else lang_col.push_mask(rng.next_u64() & 0xFFULL);
    if (rng.next_double() < 0.08) score.push_missing();
    else score.push(rng.normal() * 10.0 + rng.next_double());
    if (rng.next_double() < 0.05) w.push_missing();
    else w.push(rng.next_double() * 3.0 + 0.5);
  }
  return t;
}

const data::Table& shared_table() {
  static const data::Table t = make_table();
  return t;
}

QuerySpec spec_of(QueryKind kind, std::string a, std::string b = "",
                  std::string weight = "", double confidence = 0.95) {
  QuerySpec s;
  s.kind = kind;
  s.a = std::move(a);
  s.b = std::move(b);
  s.weight = std::move(weight);
  s.confidence = confidence;
  return s;
}

// One spec per query kind (the weighted-span kind has no wire form).
std::vector<QuerySpec> all_kind_specs() {
  return {
      spec_of(QueryKind::kCrosstab, "field", "career"),
      spec_of(QueryKind::kCrosstab, "field", "career", "w"),
      spec_of(QueryKind::kCrosstabMultiselect, "field", "langs", "w"),
      spec_of(QueryKind::kCategoryShares, "career"),
      spec_of(QueryKind::kOptionShares, "langs", "", "", 0.90),
      spec_of(QueryKind::kNumericSummary, "score"),
      spec_of(QueryKind::kGroupAnswered, "field", "score"),
  };
}

// The ground truth every served byte is pinned against: a cold, serial,
// single-query engine run.
std::vector<std::uint8_t> cold_engine_body(const data::Table& t,
                                           const QuerySpec& raw) {
  const QuerySpec spec = canonicalize(raw);
  query::QueryEngine engine(t);
  const auto id = register_spec(engine, spec);
  engine.run();
  return encode_result_body(engine, id, spec);
}

std::uint64_t engine_runs() {
#ifndef RCR_OBS_DISABLED
  return obs::registry().counter("query.runs").total();
#else
  return 0;
#endif
}

std::uint64_t copy_bytes() {
  return obs::registry().counter("data.copy.bytes").total();
}

bool wait_until(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// --- fingerprints and canonicalization --------------------------------------

TEST(ServeFingerprintTest, IgnoredFieldsDoNotPerturbTheKey) {
  // A share query ignores weight and b; a crosstab ignores confidence.
  const auto base = spec_of(QueryKind::kOptionShares, "langs");
  auto noisy = base;
  noisy.b = "career";
  noisy.weight = "w";
  EXPECT_EQ(fingerprint(kEpoch, base), fingerprint(kEpoch, noisy));
  EXPECT_EQ(canonical_bytes(base), canonical_bytes(noisy));

  const auto ct = spec_of(QueryKind::kCrosstab, "field", "career");
  auto ct_conf = ct;
  ct_conf.confidence = 0.5;
  EXPECT_EQ(fingerprint(kEpoch, ct), fingerprint(kEpoch, ct_conf));
}

TEST(ServeFingerprintTest, EverySignificantFieldChangesTheKey) {
  const auto base = spec_of(QueryKind::kCrosstab, "field", "career");
  const auto key = fingerprint(kEpoch, base);

  EXPECT_NE(key, fingerprint(kEpoch + 1, base));  // epoch seeds the hash
  auto other = base;
  other.kind = QueryKind::kCrosstabMultiselect;
  EXPECT_NE(key, fingerprint(kEpoch, other));
  other = base;
  other.a = "career";
  EXPECT_NE(key, fingerprint(kEpoch, other));
  other = base;
  other.b = "field";
  EXPECT_NE(key, fingerprint(kEpoch, other));
  other = base;
  other.weight = "w";
  EXPECT_NE(key, fingerprint(kEpoch, other));

  // Confidence is significant on share kinds.
  const auto cs = spec_of(QueryKind::kCategoryShares, "career", "", "", 0.95);
  auto cs90 = cs;
  cs90.confidence = 0.90;
  EXPECT_NE(fingerprint(kEpoch, cs), fingerprint(kEpoch, cs90));
}

// Satellite: the cache key and the served bytes are invariant across
// engine thread counts AND across SIMD dispatch (forced scalar vs native).
TEST(ServeFingerprintTest, KeyAndBytesStableAcrossThreadsAndIsa) {
  const auto specs = all_kind_specs();

  struct Observed {
    std::vector<std::uint64_t> keys;
    std::vector<std::vector<std::uint8_t>> bodies;
  };
  const auto observe = [&](parallel::ThreadPool* pool) {
    ServerConfig cfg;
    cfg.pool = pool;
    Server server(cfg);
    server.register_snapshot(kEpoch, shared_table());
    Observed got;
    for (const auto& spec : specs) {
      const Response resp = server.handle({kEpoch, spec});
      EXPECT_EQ(resp.type, MsgType::kResult);
      got.keys.push_back(resp.fingerprint);
      got.bodies.push_back(resp.body);
    }
    return got;
  };

  const Observed baseline = observe(nullptr);  // serial, native ISA
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    const Observed got = observe(&pool);
    EXPECT_EQ(got.keys, baseline.keys) << threads << " threads";
    EXPECT_EQ(got.bodies, baseline.bodies) << threads << " threads";
  }
  {
    simd::force_isa(simd::Isa::kScalar);
    const Observed scalar = observe(nullptr);
    simd::clear_isa_override();
    EXPECT_EQ(scalar.keys, baseline.keys);
    EXPECT_EQ(scalar.bodies, baseline.bodies);
  }
}

// --- the byte-identity contract ---------------------------------------------

TEST(ServeTest, ServedBytesMatchColdEngineOnMissAndHit) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());

  for (const auto& spec : all_kind_specs()) {
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(spec.kind)));
    const auto want = cold_engine_body(shared_table(), spec);

    const Response miss = server.handle({kEpoch, spec});
    ASSERT_EQ(miss.type, MsgType::kResult);
    EXPECT_EQ(miss.body, want);

    const auto runs_before = engine_runs();
    const Response hit = server.handle({kEpoch, spec});
    ASSERT_EQ(hit.type, MsgType::kResult);
    EXPECT_EQ(hit.body, want);                   // cached bytes ARE the bytes
    EXPECT_EQ(hit.fingerprint, miss.fingerprint);
    EXPECT_EQ(engine_runs(), runs_before);       // a hit never runs the engine
  }
  EXPECT_EQ(server.cache_size(), all_kind_specs().size());
}

// A catalog of `n` DISTINCT specs cycling through the servable kinds; the
// share kinds absorb the index into the confidence level so every entry
// fingerprints differently (distinct dashboards over the same snapshot).
std::vector<QuerySpec> make_catalog(std::size_t n) {
  std::vector<QuerySpec> catalog;
  catalog.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    QuerySpec s;
    const double conf = 0.80 + 0.00015 * static_cast<double>(i);
    switch (i % 6) {
      case 0:
        s.kind = QueryKind::kCategoryShares;
        s.a = "career";
        s.confidence = conf;
        break;
      case 1:
        s.kind = QueryKind::kOptionShares;
        s.a = "langs";
        s.confidence = conf;
        break;
      case 2:
        s.kind = QueryKind::kCategoryShares;
        s.a = "field";
        s.confidence = conf;
        break;
      case 3:
        s.kind = i % 12 == 3 ? QueryKind::kCrosstab
                             : QueryKind::kCrosstabMultiselect;
        s.a = "field";
        s.b = i % 12 == 3 ? "career" : "langs";
        s.weight = i % 24 < 12 ? "" : "w";
        break;
      case 4:
        s.kind = QueryKind::kOptionShares;
        s.a = "langs";
        s.confidence = conf + 0.00005;
        break;
      default:
        s.kind = i % 12 == 5 ? QueryKind::kNumericSummary
                             : QueryKind::kGroupAnswered;
        s.a = i % 12 == 5 ? "score" : "field";
        s.b = i % 12 == 5 ? "" : "score";
        break;
    }
    catalog.push_back(std::move(s));
  }
  return catalog;
}

double median_ms(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// The serving contract over a 128-spec dashboard catalog on a 20k-row
// table, through the framed LocalTransport on a pooled server: every
// served body (miss and hit) equals the cold engine's bytes, every response
// echoes fingerprint(epoch, canonical spec), and a cache hit is at least 5x
// faster than the cold engine pass it replaces (medians over 32 probes).
TEST(ServeTest, CatalogServesColdBytesAndHitsBeatColdPasses) {
  const data::Table table = make_table(20000);
  const auto catalog = make_catalog(128);
  parallel::ThreadPool pool(4);
  ServerConfig cfg;
  cfg.cache_capacity = catalog.size();
  cfg.pool = &pool;

  {
    Server server(cfg);
    server.register_snapshot(kEpoch, table);
    LocalTransport transport(server);
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      SCOPED_TRACE("catalog entry " + std::to_string(i));
      const auto want = cold_engine_body(table, catalog[i]);
      const auto key = fingerprint(kEpoch, canonicalize(catalog[i]));
      const Response miss = transport.query(kEpoch, catalog[i]);
      const Response hit = transport.query(kEpoch, catalog[i]);
      ASSERT_EQ(miss.type, MsgType::kResult);
      ASSERT_EQ(hit.type, MsgType::kResult);
      EXPECT_EQ(miss.body, want);
      EXPECT_EQ(hit.body, want);
      EXPECT_EQ(miss.fingerprint, key);
      EXPECT_EQ(hit.fingerprint, key);
    }
  }

  Server server(cfg);
  server.register_snapshot(kEpoch, table);
  LocalTransport transport(server);
  constexpr std::size_t kProbes = 32;
  std::vector<std::vector<std::uint8_t>> frames(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i)
    append_frame(frames[i], encode_request({kEpoch, catalog[i]}));
  const auto time_ms = [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    const auto reply = transport.roundtrip_frame(frames[i]);
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(reply.empty());
    return took.count();
  };
  std::vector<double> cold, hit;
  for (std::size_t i = 0; i < kProbes; ++i) cold.push_back(time_ms(i));
  for (std::size_t i = 0; i < kProbes; ++i) hit.push_back(time_ms(i));
  const double cold_ms = median_ms(cold), hit_ms = median_ms(hit);
  EXPECT_GE(cold_ms, 5.0 * hit_ms)
      << "cold median " << cold_ms << " ms, hit median " << hit_ms << " ms";
}

TEST(ServeTest, DecodedResultsMatchTheEngineForEveryKind) {
  const data::Table& t = shared_table();
  query::QueryEngine engine(t);
  const auto ct_id = engine.add_crosstab("field", "career");
  const auto ns_id = engine.add_numeric_summary("score");
  const auto os_id = engine.add_option_shares("langs", 0.90);
  const auto ga_id = engine.add_group_answered("field", "score");
  engine.run();

  Server server;
  server.register_snapshot(kEpoch, t);

  const auto fetch = [&](const QuerySpec& spec) {
    const Response resp = server.handle({kEpoch, spec});
    EXPECT_EQ(resp.type, MsgType::kResult);
    return decode_result_body(resp.body);
  };

  const auto ct = fetch(spec_of(QueryKind::kCrosstab, "field", "career"));
  EXPECT_EQ(ct.crosstab.row_labels, engine.crosstab(ct_id).row_labels);
  EXPECT_EQ(ct.crosstab.col_labels, engine.crosstab(ct_id).col_labels);
  for (std::size_t r = 0; r < ct.crosstab.counts.rows(); ++r)
    for (std::size_t c = 0; c < ct.crosstab.counts.cols(); ++c)
      EXPECT_EQ(ct.crosstab.counts.at(r, c),
                engine.crosstab(ct_id).counts.at(r, c));

  const auto ns = fetch(spec_of(QueryKind::kNumericSummary, "score"));
  EXPECT_EQ(ns.numeric.count, engine.numeric(ns_id).count);
  EXPECT_EQ(ns.numeric.sum, engine.numeric(ns_id).sum);
  EXPECT_EQ(ns.numeric.min, engine.numeric(ns_id).min);
  EXPECT_EQ(ns.numeric.max, engine.numeric(ns_id).max);

  const auto os =
      fetch(spec_of(QueryKind::kOptionShares, "langs", "", "", 0.90));
  ASSERT_EQ(os.shares.size(), engine.shares(os_id).size());
  for (std::size_t o = 0; o < os.shares.size(); ++o) {
    EXPECT_EQ(os.shares[o].label, engine.shares(os_id)[o].label);
    EXPECT_EQ(os.shares[o].count, engine.shares(os_id)[o].count);
    EXPECT_EQ(os.shares[o].share.estimate,
              engine.shares(os_id)[o].share.estimate);
    EXPECT_EQ(os.shares[o].share.lo, engine.shares(os_id)[o].share.lo);
    EXPECT_EQ(os.shares[o].share.hi, engine.shares(os_id)[o].share.hi);
  }

  const auto ga = fetch(spec_of(QueryKind::kGroupAnswered, "field", "score"));
  EXPECT_EQ(ga.group_counts, engine.group_answered(ga_id));
}

// --- single-flight and batch folding ----------------------------------------

#ifndef RCR_OBS_DISABLED

TEST(ServeConcurrencyTest, IdenticalConcurrentMissesCoalesceIntoOneRun) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  const auto spec = spec_of(QueryKind::kCrosstab, "field", "career", "w");
  const auto want = cold_engine_body(shared_table(), spec);

  auto& coalesced = obs::registry().counter("serve.coalesced");
  const auto coalesced_before = coalesced.total();
  const auto runs_before = engine_runs();

  constexpr std::size_t kClients = 8;
  server.hold_batches(true);
  std::vector<Response> responses(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = server.handle({kEpoch, spec}); });
  }
  // All followers attached to the leader's flight; nothing has run yet.
  ASSERT_TRUE(wait_until(
      [&] { return coalesced.total() == coalesced_before + kClients - 1; }));
  EXPECT_EQ(engine_runs(), runs_before);
  server.hold_batches(false);
  for (auto& c : clients) c.join();

  EXPECT_EQ(engine_runs(), runs_before + 1);  // N misses, ONE engine pass
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.type, MsgType::kResult);
    EXPECT_EQ(resp.body, want);
  }
}

TEST(ServeConcurrencyTest, DistinctConcurrentMissesFoldIntoOneFusedBatch) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  const auto specs = all_kind_specs();

  auto& batches = obs::registry().counter("serve.batches");
  auto& batch_queries = obs::registry().counter("serve.batch.queries");
  const auto batches_before = batches.total();
  const auto batch_queries_before = batch_queries.total();
  const auto runs_before = engine_runs();

  server.hold_batches(true);
  std::vector<Response> responses(specs.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = server.handle({kEpoch, specs[i]}); });
  }
  // Every distinct miss is enqueued for the epoch's next batch.
  ASSERT_TRUE(wait_until(
      [&] { return server.pending_queries(kEpoch) == specs.size(); }));
  server.hold_batches(false);
  for (auto& c : clients) c.join();

  // One fused engine pass answered all of them.
  EXPECT_EQ(engine_runs(), runs_before + 1);
  EXPECT_EQ(batches.total(), batches_before + 1);
  EXPECT_EQ(batch_queries.total(), batch_queries_before + specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    EXPECT_EQ(responses[i].type, MsgType::kResult);
    // Batch composition cannot perturb the bytes.
    EXPECT_EQ(responses[i].body, cold_engine_body(shared_table(), specs[i]));
  }
}

TEST(ServeConcurrencyTest, BadSpecInABatchFailsAloneWithoutPoisoningIt) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  const auto good = spec_of(QueryKind::kNumericSummary, "score");
  const auto bad = spec_of(QueryKind::kNumericSummary, "no_such_column");

  server.hold_batches(true);
  Response good_resp, bad_resp;
  std::thread a([&] { good_resp = server.handle({kEpoch, good}); });
  std::thread b([&] { bad_resp = server.handle({kEpoch, bad}); });
  ASSERT_TRUE(wait_until([&] { return server.pending_queries(kEpoch) == 2; }));
  server.hold_batches(false);
  a.join();
  b.join();

  EXPECT_EQ(good_resp.type, MsgType::kResult);
  EXPECT_EQ(good_resp.body, cold_engine_body(shared_table(), good));
  EXPECT_EQ(bad_resp.type, MsgType::kError);
  EXPECT_FALSE(decode_error_body(bad_resp.body).empty());
}

// --- admission control -------------------------------------------------------

TEST(ServeAdmissionTest, OverloadShedsWithExplicitBackpressure) {
  ServerConfig cfg;
  cfg.max_admitted = 2;
  cfg.min_admitted = 1;
  cfg.slo_window = 1u << 20;  // keep AIMD out of this test
  Server server(cfg);
  server.register_snapshot(kEpoch, shared_table());

  auto& shed = obs::registry().counter("serve.shed");
  const auto shed_before = shed.total();

  server.hold_batches(true);
  Response r1, r2;
  std::thread a([&] {
    r1 = server.handle({kEpoch, spec_of(QueryKind::kNumericSummary, "score")});
  });
  std::thread b([&] {
    r2 = server.handle({kEpoch, spec_of(QueryKind::kCategoryShares, "career")});
  });
  ASSERT_TRUE(wait_until([&] { return server.pending_queries(kEpoch) == 2; }));

  // The miss budget (2) is spent: the next miss is refused immediately,
  // with the server's own view of its saturation in the body.
  const Response refused =
      server.handle({kEpoch, spec_of(QueryKind::kOptionShares, "langs")});
  EXPECT_EQ(refused.type, MsgType::kShed);
  const ShedInfo info = decode_shed_body(refused.body);
  EXPECT_GE(info.queue_depth, 2u);
  EXPECT_EQ(info.admit_limit, 2u);
  EXPECT_EQ(shed.total(), shed_before + 1);

  // A cache hit is still served while saturated (hits bypass admission)...
  server.hold_batches(false);
  a.join();
  b.join();
  EXPECT_EQ(r1.type, MsgType::kResult);
  EXPECT_EQ(r2.type, MsgType::kResult);
  const Response hit =
      server.handle({kEpoch, spec_of(QueryKind::kNumericSummary, "score")});
  EXPECT_EQ(hit.type, MsgType::kResult);

  // ...and once the queue drains, the shed spec is admitted and served.
  const Response retried =
      server.handle({kEpoch, spec_of(QueryKind::kOptionShares, "langs")});
  EXPECT_EQ(retried.type, MsgType::kResult);
}

TEST(ServeAdmissionTest, AimdHalvesToTheFloorWhenP99ExceedsTarget) {
  ServerConfig cfg;
  cfg.slo_p99_ms = 1e-9;  // any real latency violates the target
  cfg.slo_window = 4;
  cfg.max_admitted = 16;
  cfg.min_admitted = 1;
  Server server(cfg);
  server.register_snapshot(kEpoch, shared_table());
  ASSERT_EQ(server.admit_limit(), 16u);

  const auto spec = spec_of(QueryKind::kNumericSummary, "score");
  const auto drive_window = [&] {
    for (std::size_t i = 0; i < cfg.slo_window; ++i) {
      ASSERT_EQ(server.handle({kEpoch, spec}).type, MsgType::kResult);
    }
  };

  drive_window();
  EXPECT_EQ(server.admit_limit(), 8u);
  EXPECT_GT(server.window_p99_ms(), 0.0);
  drive_window();
  EXPECT_EQ(server.admit_limit(), 4u);
  drive_window();
  drive_window();
  EXPECT_EQ(server.admit_limit(), 1u);
  drive_window();
  EXPECT_EQ(server.admit_limit(), 1u);  // the floor keeps the server live
}

TEST(ServeAdmissionTest, MeetingTheSloHoldsTheCeiling) {
  ServerConfig cfg;
  cfg.slo_p99_ms = 1e9;  // unmissable target
  cfg.slo_window = 2;
  cfg.max_admitted = 8;
  Server server(cfg);
  server.register_snapshot(kEpoch, shared_table());

  const auto spec = spec_of(QueryKind::kCategoryShares, "career");
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(server.handle({kEpoch, spec}).type, MsgType::kResult);
    EXPECT_EQ(server.admit_limit(), 8u);  // +1 recovery clamps at max
  }
}

#endif  // RCR_OBS_DISABLED

// --- snapshots and the cache -------------------------------------------------

TEST(ServeTest, UnknownEpochAndDuplicateRegistrationAreErrors) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  EXPECT_THROW(server.register_snapshot(kEpoch, shared_table()), Error);

  const Response resp =
      server.handle({kEpoch + 1, spec_of(QueryKind::kNumericSummary, "score")});
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_NE(decode_error_body(resp.body).find("unknown snapshot epoch"),
            std::string::npos);
}

TEST(ServeTest, RetiringASnapshotDropsItsCachedResults) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  server.register_snapshot(kEpoch + 1, shared_table());

  const auto spec = spec_of(QueryKind::kCrosstab, "field", "career");
  ASSERT_EQ(server.handle({kEpoch, spec}).type, MsgType::kResult);
  ASSERT_EQ(server.handle({kEpoch + 1, spec}).type, MsgType::kResult);
  EXPECT_EQ(server.cache_size(), 2u);

  server.retire_snapshot(kEpoch);
  EXPECT_EQ(server.epochs(), std::vector<std::uint64_t>{kEpoch + 1});
  EXPECT_EQ(server.cache_size(), 1u);  // only the retired epoch's entry fell
  EXPECT_EQ(server.handle({kEpoch, spec}).type, MsgType::kError);
  EXPECT_EQ(server.handle({kEpoch + 1, spec}).type, MsgType::kResult);
}

// --- delta epochs ------------------------------------------------------------

TEST(ServeDeltaTest, AppendDeltaValidatesItsEpochs) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  const data::Table block = make_table(100);
  EXPECT_THROW(server.append_delta(kEpoch + 5, kEpoch + 6, block), Error);
  EXPECT_THROW(server.append_delta(kEpoch, kEpoch, block), Error);
}

// The delta contract, across thread counts: after K appended blocks, every
// spec the base epoch served comes back from the new epoch as a cache hit
// (no engine run — the refresh pre-warmed it) with bytes equal to a cold
// direct engine run on the fully-merged table, and the base epoch keeps
// serving its own consistent cut.
TEST(ServeDeltaTest, RefreshedEpochsMatchColdEngineOnTheMergedTable) {
  const std::size_t base_rows = 9000, block_rows = 1000;
  const data::Table full = make_table(12000);
  const data::Table base = full.slice(0, base_rows);
  const auto specs = all_kind_specs();

  const auto run_scenario = [&](parallel::ThreadPool* pool) {
    ServerConfig cfg;
    cfg.pool = pool;
    Server server(cfg);
    server.register_snapshot(kEpoch, base);
    // Serve every spec once so the base epoch records them.
    std::vector<std::vector<std::uint8_t>> base_bodies;
    for (const auto& spec : specs) {
      const Response resp = server.handle({kEpoch, spec});
      EXPECT_EQ(resp.type, MsgType::kResult);
      base_bodies.push_back(resp.body);
    }

    std::vector<std::vector<std::uint8_t>> delta_bodies;
    for (std::uint64_t k = 1; k <= 3; ++k) {
      const std::size_t hi = base_rows + k * block_rows;
      const std::size_t refreshed = server.append_delta(
          kEpoch + k - 1, kEpoch + k, full.slice(hi - block_rows, hi));
      EXPECT_EQ(refreshed, specs.size()) << "delta " << k;
      for (const auto& spec : specs) {
        const auto runs_before = engine_runs();
        const Response resp = server.handle({kEpoch + k, spec});
        EXPECT_EQ(resp.type, MsgType::kResult);
        EXPECT_EQ(engine_runs(), runs_before)
            << "refresh should pre-warm the cache, delta " << k;
        delta_bodies.push_back(resp.body);
      }
    }

    // The base epoch still serves its original cut.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Response resp = server.handle({kEpoch, specs[i]});
      EXPECT_EQ(resp.type, MsgType::kResult);
      EXPECT_EQ(resp.body, base_bodies[i]);
    }
    return delta_bodies;
  };

  // Serial reference pinned against the cold single-spec engine...
  const auto serial = run_scenario(nullptr);
  std::size_t at = 0;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const data::Table merged = full.slice(0, base_rows + k * block_rows);
    for (const auto& spec : specs) {
      SCOPED_TRACE("delta " + std::to_string(k));
      EXPECT_EQ(serial[at++], cold_engine_body(merged, spec));
    }
  }
  // ...and thread counts cannot reach the bytes.
  for (const std::size_t threads : {2u, 8u}) {
    parallel::ThreadPool pool(threads);
    EXPECT_EQ(run_scenario(&pool), serial) << threads << " threads";
  }
}

// A spec first requested on a delta epoch misses into the cold batch path
// (correct bytes immediately) and joins the refresh set at the next delta.
TEST(ServeDeltaTest, LateSpecBackfillsColdThenJoinsTheLineage) {
  const data::Table full = make_table(11000);
  Server server;
  server.register_snapshot(kEpoch, full.slice(0, 9000));

  const auto early = spec_of(QueryKind::kCrosstab, "field", "career", "w");
  const auto late = spec_of(QueryKind::kOptionShares, "langs", "", "", 0.90);
  ASSERT_EQ(server.handle({kEpoch, early}).type, MsgType::kResult);

  // Delta 1 refreshes only the spec the base epoch served.
  EXPECT_EQ(server.append_delta(kEpoch, kEpoch + 1, full.slice(9000, 10000)),
            1u);
  const data::Table merged1 = full.slice(0, 10000);
  EXPECT_EQ(server.handle({kEpoch + 1, early}).body,
            cold_engine_body(merged1, early));
  // The late spec misses cold and still serves the correct cut.
  const Response first_late = server.handle({kEpoch + 1, late});
  ASSERT_EQ(first_late.type, MsgType::kResult);
  EXPECT_EQ(first_late.body, cold_engine_body(merged1, late));

  // Delta 2 refreshes both: the late spec joined the lineage.
  EXPECT_EQ(
      server.append_delta(kEpoch + 1, kEpoch + 2, full.slice(10000, 11000)),
      2u);
  const data::Table merged2 = full.slice(0, 11000);
  const auto runs_before = engine_runs();
  const Response early2 = server.handle({kEpoch + 2, early});
  const Response late2 = server.handle({kEpoch + 2, late});
  EXPECT_EQ(engine_runs(), runs_before);  // both were pre-warmed
  EXPECT_EQ(early2.body, cold_engine_body(merged2, early));
  EXPECT_EQ(late2.body, cold_engine_body(merged2, late));
}

// Retiring a delta's base epoch leaves the new epoch fully servable (the
// lineage rides with the head, and the head owns its own table copy).
TEST(ServeDeltaTest, RetiringTheBaseKeepsTheDeltaEpochLive) {
  const data::Table full = make_table(9500);
  Server server;
  server.register_snapshot(kEpoch, full.slice(0, 9000));
  const auto spec = spec_of(QueryKind::kCrosstabMultiselect, "field", "langs",
                            "w");
  ASSERT_EQ(server.handle({kEpoch, spec}).type, MsgType::kResult);
  ASSERT_EQ(server.append_delta(kEpoch, kEpoch + 1, full.slice(9000, 9500)),
            1u);

  server.retire_snapshot(kEpoch);
  EXPECT_EQ(server.epochs(), std::vector<std::uint64_t>{kEpoch + 1});
  EXPECT_EQ(server.handle({kEpoch, spec}).type, MsgType::kError);
  EXPECT_EQ(server.handle({kEpoch + 1, spec}).body,
            cold_engine_body(full, spec));
  // The lineage survives retirement of its ancestor: the next delta still
  // refreshes incrementally on top of the head epoch.
  const data::Table more = make_table(9750).slice(9500, 9750);
  EXPECT_EQ(server.append_delta(kEpoch + 1, kEpoch + 2, more), 1u);
  data::Table merged = full;
  merged.append_rows(more);
  EXPECT_EQ(server.handle({kEpoch + 2, spec}).body,
            cold_engine_body(merged, spec));
}

// Readers stay live while deltas land: handle() never takes the admin
// locks, and append_delta does its O(delta) incremental scan on a
// privately-extracted lineage (lineage_mutex_ held only for the brief
// extract/publish). This test — run under TSan in CI — hammers reads on
// every epoch of a growing chain while the chain is being built, plus
// concurrent retires of old ancestors, and then pins every surviving
// epoch's bytes against a cold engine run of its cut. Each epoch appends
// in place past its base's rows in storage the older epochs still read;
// the chain outgrows that storage twice (delta 1 trades the base's exact
// fit for a buffer of twice its rows, and delta 7 outgrows that), so
// growth copies run beside the readers too.
TEST(ServeDeltaTest, ConcurrentReadsAndRetireDuringDeltaChain) {
  constexpr std::size_t kBaseRows = 9000, kBlockRows = 1500;
  constexpr std::uint64_t kDeltas = 8;
  const data::Table full = make_table(kBaseRows + kDeltas * kBlockRows);
  const auto specs = all_kind_specs();

  Server server;
  server.register_snapshot(kEpoch, full.slice(0, kBaseRows));
  for (const auto& spec : specs)
    ASSERT_EQ(server.handle({kEpoch, spec}).type, MsgType::kResult);

  std::atomic<std::uint64_t> head{kEpoch};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        // Read a random-ish epoch in [kEpoch, head]: retired ancestors
        // answer kError, live ones must answer kResult.
        const std::uint64_t h = head.load(std::memory_order_relaxed);
        const std::uint64_t e = kEpoch + i++ % (h - kEpoch + 1);
        const Response resp = server.handle({e, specs[i % specs.size()]});
        EXPECT_TRUE(resp.type == MsgType::kResult ||
                    resp.type == MsgType::kError);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t k = 1; k <= kDeltas; ++k) {
    const std::size_t hi = kBaseRows + k * kBlockRows;
    ASSERT_EQ(server.append_delta(kEpoch + k - 1, kEpoch + k,
                                  full.slice(hi - kBlockRows, hi)),
              specs.size());
    head.store(kEpoch + k, std::memory_order_relaxed);
    // Retire every other ancestor, two behind the head, mid-chain.
    if (k % 2 == 0) server.retire_snapshot(kEpoch + k - 2);
  }
  // Let the readers actually overlap the chain before stopping.
  ASSERT_TRUE(wait_until([&] { return reads.load() > 200; }));
  stop.store(true);
  for (auto& t : readers) t.join();

  // Every surviving epoch serves exactly its cut, bit for bit.
  for (std::uint64_t k = 0; k <= kDeltas; ++k) {
    SCOPED_TRACE("epoch +" + std::to_string(k));
    if (k % 2 == 0 && k + 2 <= kDeltas) {
      EXPECT_EQ(server.handle({kEpoch + k, specs[0]}).type, MsgType::kError);
      continue;
    }
    const data::Table merged = full.slice(0, kBaseRows + k * kBlockRows);
    for (const auto& spec : specs)
      EXPECT_EQ(server.handle({kEpoch + k, spec}).body,
                cold_engine_body(merged, spec));
  }
}

// Two deltas minted from one base fork its row storage: the first extends
// the base's rows in place, the second finds them claimed and copies. Each
// epoch serves its own merged table, and the base its own cut.
TEST(ServeDeltaTest, TwoEpochsForkedFromOneBaseServeTheirOwnRows) {
  const data::Table full = make_table(10000);
  const auto specs = all_kind_specs();
  Server server;
  server.register_snapshot(kEpoch, full.slice(0, 8000));
  for (const auto& spec : specs)
    ASSERT_EQ(server.handle({kEpoch, spec}).type, MsgType::kResult);
  // This delta leaves the slice's exact fit for storage with room to grow,
  // which both forks below start from.
  ASSERT_EQ(server.append_delta(kEpoch, kEpoch + 1, full.slice(8000, 9000)),
            specs.size());

  const std::uint64_t copied_before = copy_bytes();
  ASSERT_EQ(
      server.append_delta(kEpoch + 1, kEpoch + 2, full.slice(9000, 9500)),
      specs.size());
  const std::uint64_t copied_first = copy_bytes() - copied_before;
  ASSERT_EQ(
      server.append_delta(kEpoch + 1, kEpoch + 3, full.slice(9500, 10000)),
      specs.size());
  const std::uint64_t copied_second =
      copy_bytes() - copied_before - copied_first;
#ifndef RCR_OBS_DISABLED
  EXPECT_EQ(copied_first, 0u);   // in place
  EXPECT_GT(copied_second, 0u);  // forked
#else
  (void)copied_second;
#endif

  const data::Table merged_a = full.slice(0, 9500);
  data::Table merged_b = full.slice(0, 9000);
  merged_b.append_rows(full.slice(9500, 10000));
  const data::Table base = full.slice(0, 9000);
  for (const auto& spec : specs) {
    EXPECT_EQ(server.handle({kEpoch + 2, spec}).body,
              cold_engine_body(merged_a, spec));
    EXPECT_EQ(server.handle({kEpoch + 3, spec}).body,
              cold_engine_body(merged_b, spec));
    EXPECT_EQ(server.handle({kEpoch + 1, spec}).body,
              cold_engine_body(base, spec));
  }
}

#ifndef RCR_OBS_DISABLED
// Bytes of the table's row arrays.
std::size_t column_bytes(const data::Table& t) {
  std::size_t bytes = 0;
  for (const auto& name : t.column_names()) {
    switch (t.kind(name)) {
      case data::ColumnKind::kNumeric:
        bytes += t.numeric(name).size() * sizeof(double);
        break;
      case data::ColumnKind::kCategorical:
        bytes += t.categorical(name).size() * sizeof(std::int32_t);
        break;
      case data::ColumnKind::kMultiSelect:
        bytes += t.multiselect(name).size() *
                 (sizeof(std::uint64_t) + sizeof(std::uint8_t));
        break;
    }
  }
  return bytes;
}

// A delta epoch appends past its base's rows in storage they share. Only
// the first delta on a snapshot-mapped base copies existing rows, to
// materialize the mapping with room to grow; the next three copy none.
TEST(ServeDeltaTest, OnlyTheFirstDeltaOnASnapshotBaseCopiesRows) {
  constexpr std::size_t kBaseRows = 9000, kBlockRows = kBaseRows / 20;
  const data::Table full = make_table(kBaseRows + 4 * kBlockRows);
  const std::string path = testing::TempDir() + "rcr_serve_delta_base.rcr";
  data::write_snapshot(full.slice(0, kBaseRows), path);
  const data::Table base = data::read_snapshot(path);
  ASSERT_TRUE(base.numeric("score").values().is_borrowed());
  std::vector<data::Table> blocks;
  for (std::size_t k = 0; k < 4; ++k)
    blocks.push_back(full.slice(kBaseRows + k * kBlockRows,
                                kBaseRows + (k + 1) * kBlockRows));

  Server server;
  server.register_snapshot(kEpoch, base);
  const auto spec = spec_of(QueryKind::kCrosstabMultiselect, "field", "langs",
                            "w");
  ASSERT_EQ(server.handle({kEpoch, spec}).type, MsgType::kResult);

  std::vector<std::uint64_t> per_delta;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const std::uint64_t before = copy_bytes();
    ASSERT_EQ(server.append_delta(kEpoch + k - 1, kEpoch + k, blocks[k - 1]),
              1u);
    per_delta.push_back(copy_bytes() - before);
  }
  EXPECT_GT(per_delta[0], 0u);
  EXPECT_LE(per_delta[0], column_bytes(base));
  EXPECT_EQ(per_delta[1], 0u);
  EXPECT_EQ(per_delta[2], 0u);
  EXPECT_EQ(per_delta[3], 0u);
  EXPECT_EQ(server.handle({kEpoch + 4, spec}).body,
            cold_engine_body(full, spec));
  std::remove(path.c_str());
}
#endif  // RCR_OBS_DISABLED

TEST(ResultCacheTest, PerShardLruEvictsTheColdTail) {
  ResultCache cache(16);  // 16 shards -> one entry per shard
  EXPECT_EQ(cache.capacity(), 16u);
  const auto body_for = [](std::uint64_t key) {
    return std::make_shared<const std::vector<std::uint8_t>>(
        std::vector<std::uint8_t>{static_cast<std::uint8_t>(key)});
  };
  // Keys 0..63 land on shard (key & 15): each shard sees 4 keys and keeps
  // only the last (its LRU budget is 1), so exactly 48..63 survive.
  for (std::uint64_t key = 0; key < 64; ++key) {
    cache.insert(key, kEpoch, body_for(key));
  }
  EXPECT_EQ(cache.size(), 16u);
  for (std::uint64_t key = 0; key < 48; ++key) {
    EXPECT_EQ(cache.find(key), nullptr) << key;
  }
  for (std::uint64_t key = 48; key < 64; ++key) {
    const auto hit = cache.find(key);
    ASSERT_NE(hit, nullptr) << key;
    EXPECT_EQ(hit->front(), static_cast<std::uint8_t>(key));
  }
  cache.invalidate_epoch(kEpoch);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, FindRefreshesRecency) {
  ResultCache cache(16);  // one entry per shard
  const auto body = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1});
  // Same shard (keys differ in high bits): a refreshing insert of the
  // resident key must not evict it.
  cache.insert(0, kEpoch, body);
  cache.insert(0, kEpoch, body);
  EXPECT_NE(cache.find(0), nullptr);
  // A second key on the shard evicts the older resident.
  cache.insert(16, kEpoch, body);
  EXPECT_EQ(cache.find(0), nullptr);
  EXPECT_NE(cache.find(16), nullptr);
}

// --- protocol and framing ----------------------------------------------------

TEST(ServeProtocolTest, RequestAndResponseRoundTrip) {
  Request req;
  req.epoch = 42;
  req.spec = spec_of(QueryKind::kCrosstab, "field", "career", "w");
  const auto payload = encode_request(req);
  const Request back = decode_request(payload);
  EXPECT_EQ(back.epoch, req.epoch);
  EXPECT_EQ(back.spec, canonicalize(req.spec));

  Response resp;
  resp.type = MsgType::kResult;
  resp.fingerprint = fingerprint(req.epoch, req.spec);
  resp.body = {1, 2, 3, 4, 5};
  EXPECT_EQ(decode_response(encode_response(resp)), resp);

  const ShedInfo info{7, 3, 12.5};
  const ShedInfo shed = decode_shed_body(encode_shed_body(info));
  EXPECT_EQ(shed.queue_depth, info.queue_depth);
  EXPECT_EQ(shed.admit_limit, info.admit_limit);
  EXPECT_DOUBLE_EQ(shed.window_p99_ms, info.window_p99_ms);

  EXPECT_EQ(decode_error_body(encode_error_body("boom")), "boom");
}

TEST(ServeProtocolTest, MalformedPayloadsAreRejected) {
  Request req;
  req.epoch = 1;
  req.spec = spec_of(QueryKind::kNumericSummary, "score");
  auto payload = encode_request(req);

  auto truncated = payload;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(decode_request(truncated), Error);

  auto wrong_version = payload;
  wrong_version[1] = 0xFF;  // version is the u16 after the type byte
  EXPECT_THROW(decode_request(wrong_version), Error);

  auto bad_kind = payload;
  bad_kind[11] = 0x7F;  // kind byte follows type, version, and epoch
  EXPECT_THROW(decode_request(bad_kind), Error);

  auto trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW(decode_request(trailing), Error);

  EXPECT_THROW(decode_response(std::vector<std::uint8_t>{}), Error);
}

TEST(ServeProtocolTest, FrameDecoderReassemblesArbitrarySplits) {
  std::vector<std::uint8_t> stream;
  const std::vector<std::uint8_t> p1 = {10, 20, 30};
  const std::vector<std::uint8_t> p2 = {};
  const std::vector<std::uint8_t> p3(1000, 0xAB);
  append_frame(stream, p1);
  append_frame(stream, p2);
  append_frame(stream, p3);

  // Worst-case delivery: one byte at a time.
  FrameDecoder decoder;
  std::vector<std::vector<std::uint8_t>> got;
  for (const std::uint8_t byte : stream) {
    decoder.feed(std::span<const std::uint8_t>(&byte, 1));
    while (decoder.has_frame()) got.push_back(decoder.take());
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], p1);
  EXPECT_EQ(got[1], p2);
  EXPECT_EQ(got[2], p3);

  // All at once.
  FrameDecoder whole;
  whole.feed(stream);
  EXPECT_TRUE(whole.has_frame());
  EXPECT_EQ(whole.take(), p1);

  // A hostile length prefix is rejected before any allocation.
  FrameDecoder hostile;
  std::vector<std::uint8_t> oversized(4);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(oversized.data(), &huge, 4);
  EXPECT_THROW(hostile.feed(oversized), Error);
}

// --- transports --------------------------------------------------------------

TEST(ServeTransportTest, LocalTransportMatchesDirectHandle) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  LocalTransport transport(server);

  for (const auto& spec : all_kind_specs()) {
    const Response direct = server.handle({kEpoch, spec});
    const Response framed = transport.query(kEpoch, spec);
    EXPECT_EQ(framed, direct);
  }
  // A malformed request comes back as a kError response, not a dead peer.
  const Response err = transport.query(kEpoch + 99, all_kind_specs()[0]);
  EXPECT_EQ(err.type, MsgType::kError);
}

int tcp_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, 0);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

// Blocking read of the next `count` response frames off the client
// socket; `out` gets the last. With a timeout, false once no byte arrives
// for that long.
bool recv_response(int fd, Response& out, int timeout_ms = -1,
                   std::size_t count = 1) {
  FrameDecoder decoder;
  std::uint8_t buf[512];
  for (std::size_t got = 0; got < count;) {
    if (decoder.has_frame()) {
      out = decode_response(decoder.take());
      ++got;
      continue;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    decoder.feed(std::span<const std::uint8_t>(buf, static_cast<size_t>(n)));
  }
  return true;
}

TEST(ServeTransportTest, TcpRoundTripMatchesLocalTransport) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  TcpServer tcp(server, 0, 2);
  try {
    tcp.start();
  } catch (const Error& e) {
    GTEST_SKIP() << "no loopback sockets in this environment: " << e.what();
  }
  ASSERT_TRUE(tcp.running());
  ASSERT_NE(tcp.port(), 0);

  LocalTransport local(server);
  const int fd = tcp_connect(tcp.port());
  if (fd < 0) {
    tcp.stop();
    GTEST_SKIP() << "cannot connect to 127.0.0.1:" << tcp.port();
  }

  // Several requests on one connection, the first delivered in two
  // deliberately split writes to exercise server-side reassembly.
  const auto specs = all_kind_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::vector<std::uint8_t> frame;
    append_frame(frame, encode_request({kEpoch, specs[i]}));
    if (i == 0) {
      const std::size_t split = frame.size() / 2;
      ASSERT_TRUE(send_all(fd, frame.data(), split));
      ASSERT_TRUE(send_all(fd, frame.data() + split, frame.size() - split));
    } else {
      ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));
    }
    Response over_tcp;
    ASSERT_TRUE(recv_response(fd, over_tcp));
    EXPECT_EQ(over_tcp, local.query(kEpoch, specs[i]));
  }
  ::close(fd);
  tcp.stop();
  EXPECT_FALSE(tcp.running());
}

TEST(ServeTransportTest, TcpServesParallelClients) {
  ServerConfig cfg;
  Server server(cfg);
  server.register_snapshot(kEpoch, shared_table());
  TcpServer tcp(server, 0, 3);
  try {
    tcp.start();
  } catch (const Error& e) {
    GTEST_SKIP() << "no loopback sockets in this environment: " << e.what();
  }

  const auto specs = all_kind_specs();
  std::vector<Response> expected;
  {
    LocalTransport local(server);
    for (const auto& spec : specs) expected.push_back(local.query(kEpoch, spec));
  }

  constexpr std::size_t kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = tcp_connect(tcp.port());
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::size_t pick = (c + i) % specs.size();
        std::vector<std::uint8_t> frame;
        append_frame(frame, encode_request({kEpoch, specs[pick]}));
        Response resp;
        if (!send_all(fd, frame.data(), frame.size()) ||
            !recv_response(fd, resp) || !(resp == expected[pick])) {
          failures.fetch_add(1);
          break;
        }
      }
      ::close(fd);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  tcp.stop();
}

// The acceptor hands each connection to a worker through a list and an
// eventfd tick. A worker that took the list before draining the eventfd
// lost the tick of a connection queued in between, and with no other
// traffic that connection waited forever. The steps below queue one in
// that window: the worker wakes to a request on P and the tick for B in
// one batch, adopts B, and C connects while it serves P's burst of misses.
// Every read has a deadline, so the old order fails here instead of
// hanging.
TEST(ServeTransportTest, OneWorkerAdoptsAConnectionQueuedWhileItServes) {
  Server server;
  server.register_snapshot(kEpoch, shared_table());
  TcpServer tcp(server, 0, 1);
  try {
    tcp.start();
  } catch (const Error& e) {
    GTEST_SKIP() << "no loopback sockets in this environment: " << e.what();
  }
  constexpr int kTimeoutMs = 10000;
  constexpr std::size_t kBurst = 200;
  // Distinct confidences give distinct keys: each request is an engine run.
  const auto miss = [](std::size_t i) {
    return spec_of(QueryKind::kCategoryShares, "career", "", "",
                   0.5 + 0.001 * static_cast<double>(i));
  };
  const auto request = [](int fd, const QuerySpec& spec) {
    std::vector<std::uint8_t> frame;
    append_frame(frame, encode_request({kEpoch, spec}));
    return send_all(fd, frame.data(), frame.size());
  };

  Response resp;
  const int p = tcp_connect(tcp.port());
  const int q = tcp_connect(tcp.port());
  ASSERT_GE(p, 0);
  ASSERT_GE(q, 0);
  ASSERT_TRUE(request(p, miss(0)) && recv_response(p, resp, kTimeoutMs));
  ASSERT_TRUE(request(q, miss(0)) && recv_response(q, resp, kTimeoutMs));

  // The worker blocks serving Q while P sends its burst and B connects.
  server.hold_batches(true);
  ASSERT_TRUE(request(q, miss(1)));
  ASSERT_TRUE(wait_until([&] { return server.pending_queries(kEpoch) == 1; }));
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kBurst; ++i)
    append_frame(burst, encode_request({kEpoch, miss(2 + i)}));
  ASSERT_TRUE(send_all(p, burst.data(), burst.size()));
  const int b = tcp_connect(tcp.port());
  ASSERT_GE(b, 0);
  // Time for the acceptor to queue B; too little only weakens the check.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.hold_batches(false);

  // Q's reply means the worker has moved on to P's burst: C connects now.
  ASSERT_TRUE(recv_response(q, resp, kTimeoutMs));
  const int c = tcp_connect(tcp.port());
  ASSERT_GE(c, 0);
  ASSERT_TRUE(request(c, miss(0)));
  EXPECT_TRUE(recv_response(p, resp, kTimeoutMs, kBurst));
  EXPECT_TRUE(recv_response(c, resp, kTimeoutMs)) << "C was never adopted";
  EXPECT_EQ(resp.type, MsgType::kResult);
  for (const int fd : {p, q, b, c}) ::close(fd);
  tcp.stop();
}

}  // namespace
}  // namespace rcr::serve
