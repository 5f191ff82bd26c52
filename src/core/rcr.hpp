// Umbrella header: the public API of the RCR toolkit.
//
// Quickstart:
//   #include "core/rcr.hpp"
//   rcr::core::Study study;                       // both synthetic waves
//   rcr::report::ExperimentRegistry registry;
//   rcr::core::register_all_experiments(registry, study);
//   std::cout << registry.run("F1");              // any table/figure id
//
// Layering (each header is usable on its own):
//   util     — RNG, errors, strings, CLI, stopwatch
//   obs      — metrics registry (counters/gauges/histograms/meters),
//              scoped timers, JSON/table snapshots
//   stats    — descriptive, tests, CIs, histograms, regression, bootstrap
//   parallel — thread pool + parallel_for/reduce
//   data     — columnar tables, CSV, snapshots
//   query    — fused aggregation engine (one sharded scan per query batch;
//              appends update every answer in O(delta rows), bitwise-equal
//              to a cold run at every cut)
//   stream   — mergeable one-pass sketches (moments, quantiles, heavy
//              hitters, distinct counts, reservoir)
//   serve    — long-lived analytics server (result cache, request
//              coalescing/batching, SLO admission, local + TCP transports)
//   survey   — questionnaire schema, validation, raking, Likert
//   synth    — calibrated synthetic respondent generator
//   trend    — two-wave share trends, adoption curves
//   kernels  — runnable computational-science mini-apps
//   sim      — scaling models and the batch-cluster simulator
//   report   — tables, series, experiment registry
#pragma once

#include "core/experiments.hpp"
#include "core/stream_study.hpp"
#include "core/study.hpp"
#include "data/crosstab.hpp"
#include "data/csv.hpp"
#include "data/table.hpp"
#include "kernels/suite.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "report/experiment.hpp"
#include "report/series.hpp"
#include "report/table.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/scaling.hpp"
#include "stats/bootstrap.hpp"
#include "stats/ci.hpp"
#include "stats/contingency.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "stats/nonparametric.hpp"
#include "stats/power.hpp"
#include "stats/regression.hpp"
#include "stream/sketch.hpp"
#include "stream/table_sketch.hpp"
#include "survey/allocate.hpp"
#include "survey/likert.hpp"
#include "survey/schema.hpp"
#include "survey/weighting.hpp"
#include "synth/generator.hpp"
#include "trend/trend.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
