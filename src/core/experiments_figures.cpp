#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "core/experiments.hpp"
#include "data/crosstab.hpp"
#include "kernels/suite.hpp"
#include "query/engine.hpp"
#include "report/series.hpp"
#include "report/table.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/scaling.hpp"
#include "stats/bootstrap.hpp"
#include "stats/contingency.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "survey/likert.hpp"
#include "synth/domain.hpp"
#include "trend/trend.hpp"
#include "util/strings.hpp"

namespace rcr::core {

namespace {
using rcr::format_double;
using rcr::format_percent;
}  // namespace

std::string run_f1_language_trend(const Study& study) {
  // Per-option counts from the cached fused scans; one battery, no rescans.
  const auto battery = trend::option_battery_from_shares(
      study.aggregates(0).languages, study.aggregates(1).languages);
  std::string out = "Language usage share by wave (respondents may use "
                    "several languages)\n\n";
  std::vector<report::Bar> bars2011, bars2024;
  for (const auto& t : battery) {
    bars2011.push_back({t.indicator, t.share1.estimate});
    bars2024.push_back({t.indicator, t.share2.estimate});
  }
  out += "2011:\n" + report::render_bars(bars2011, 1.0);
  out += "\n2024:\n" + report::render_bars(bars2024, 1.0);

  out += "\nseries (CSV)\n";
  report::Series s2011{"share_2011", {}}, s2024{"share_2024", {}};
  report::Series lo2011{"lo_2011", {}}, hi2011{"hi_2011", {}};
  report::Series lo2024{"lo_2024", {}}, hi2024{"hi_2024", {}};
  for (std::size_t i = 0; i < battery.size(); ++i) {
    const double x = static_cast<double>(i);
    s2011.points.push_back({x, battery[i].share1.estimate});
    lo2011.points.push_back({x, battery[i].share1.lo});
    hi2011.points.push_back({x, battery[i].share1.hi});
    s2024.points.push_back({x, battery[i].share2.estimate});
    lo2024.points.push_back({x, battery[i].share2.lo});
    hi2024.points.push_back({x, battery[i].share2.hi});
  }
  out += report::render_series_csv("language_index",
                           {s2011, lo2011, hi2011, s2024, lo2024, hi2024});
  out += "\nlanguage_index order:";
  for (std::size_t i = 0; i < battery.size(); ++i) {
    out += ' ';
    out += std::to_string(i);
    out += '=';
    out += battery[i].indicator;
  }
  out += "\n";
  return out;
}

std::string run_f2_parallelism_ladder(const Study& study) {
  std::string out =
      "Highest parallel capability routinely used, share of wave\n\n";
  const ParallelRung rungs[] = {ParallelRung::kSerialOnly,
                                ParallelRung::kMulticore,
                                ParallelRung::kCluster, ParallelRung::kGpu};
  report::TextTable t({"Rung", "2011 share [95% CI]", "2024 share [95% CI]",
                       "Δ (pp)", "p (Holm)", "Trend"});
  // One rung tally per wave; the share of a rung is over answered rows.
  const RungCounts c2011 = rung_counts(study.wave(0));
  const RungCounts c2024 = rung_counts(study.wave(1));
  std::vector<trend::ShareTrend> trends;
  for (ParallelRung rung : rungs) {
    const auto r = static_cast<std::size_t>(rung);
    trends.push_back(trend::trend_from_counts(
        rung_label(rung), c2011.at_rung[r], c2011.answered, c2024.at_rung[r],
        c2024.answered));
  }
  trend::adjust_and_classify(trends);
  for (const auto& tr : trends) {
    t.add_row({tr.indicator,
               report::share_cell(tr.share1.estimate, tr.share1.lo,
                                  tr.share1.hi),
               report::share_cell(tr.share2.estimate, tr.share2.lo,
                                  tr.share2.hi),
               format_double(100.0 * (tr.share2.estimate - tr.share1.estimate),
                             1),
               report::p_cell(tr.p_adjusted),
               trend::direction_label(tr.direction)});
  }
  out += t.render();
  out += "\n2024 ladder:\n";
  std::vector<report::Bar> bars;
  for (std::size_t i = 0; i < trends.size(); ++i)
    bars.push_back({trends[i].indicator, trends[i].share2.estimate});
  out += report::render_bars(bars, 1.0);
  return out;
}

std::string run_f3_cores_cdf(const Study& study) {
  std::string out =
      "CDF of typical job width (cores), log2 x-axis points\n\n";
  const auto cdf_points = [&](const data::Table& wave) {
    const auto values =
        wave.numeric(synth::col::kCoresTypical).present_values();
    return stats::empirical_cdf(values);
  };
  const auto c2011 = cdf_points(study.wave(0));
  const auto c2024 = cdf_points(study.wave(1));
  // Evaluate both CDFs on the union grid of powers of two.
  const auto eval = [](const std::vector<stats::CdfPoint>& cdf, double x) {
    double y = 0.0;
    for (const auto& p : cdf) {
      if (p.value <= x) y = p.cumulative;
      else break;
    }
    return y;
  };
  report::Series s2011{"cdf_2011", {}}, s2024{"cdf_2024", {}};
  report::TextTable t({"Cores ≤", "2011", "2024"});
  for (double x = 1.0; x <= 4096.0; x *= 2.0) {
    s2011.points.push_back({x, eval(c2011, x)});
    s2024.points.push_back({x, eval(c2024, x)});
    t.add_row({format_double(x, 0), format_percent(eval(c2011, x), 0),
               format_percent(eval(c2024, x), 0)});
  }
  out += t.render();
  out += "\nseries (CSV)\n" + report::render_series_csv("cores", {s2011, s2024});
  return out;
}

std::string run_f4_time_programming(const Study& study) {
  std::string out = "Share of research time spent programming "
                    "(Likert 1 = <10% ... 5 = >75%)\n\n";
  report::TextTable t({"Wave", "n", "Mean", "Median", "1", "2", "3", "4", "5",
                       "Top-box (4-5)"});
  for (std::size_t w = 0; w < 2; ++w) {
    const auto s = survey::summarize_likert(
        study.wave(w), synth::col::kTimeProgramming, 5);
    std::vector<std::string> row = {w == 0 ? "2011" : "2024",
                                    std::to_string(s.answered),
                                    format_double(s.mean, 2),
                                    format_double(s.median, 1)};
    for (double d : s.distribution) row.push_back(format_percent(d, 0));
    row.push_back(report::share_cell(s.top_box.estimate, s.top_box.lo,
                                     s.top_box.hi));
    t.add_row(std::move(row));
  }
  out += t.render();
  const auto mw = stats::mann_whitney_u(
      study.wave(0).numeric(synth::col::kTimeProgramming).present_values(),
      study.wave(1).numeric(synth::col::kTimeProgramming).present_values());
  out += "\nMann-Whitney 2011 vs 2024: U=" + format_double(mw.u, 0) +
         ", z=" + format_double(mw.z, 2) + ", p=" + report::p_cell(mw.p_value) +
         ", P(2011 < 2024)=" + format_percent(1.0 - mw.effect_size) + "\n";
  return out;
}

namespace {
// F5's and A1's DES: 20% task-size jitter, one fixed stream.
constexpr double kDesJitter = 0.2;
constexpr std::uint64_t kDesSeed = 1;
}  // namespace

std::string run_f5_scaling(const Study& study) {
  (void)study;  // hardware experiment; independent of the survey waves
  std::string out =
      "Strong scaling of the kernel suite: the analytic model projects each "
      "kernel from its declared reference core; the discrete-event "
      "simulator cross-checks it (host has too few cores to measure wide "
      "scaling directly — see DESIGN.md substitutions)\n\n";
  const std::vector<std::size_t> cores = {1, 2, 4, 8, 16, 32, 64, 128, 256,
                                          512, 1024};
  rcr::parallel::ThreadPool pool;

  for (const auto& k : kernels::standard_suite()) {
    // Run the real kernel serially and pooled; the two must agree.
    const double serial_checksum = k.run_serial();
    const double parallel_checksum = k.run_parallel(pool);
    out += "kernel " + k.name + ": checksum diff " +
           format_double(std::fabs(serial_checksum - parallel_checksum), 9) +
           "\n";
    report::TextTable t({"Cores", "Model speedup", "DES speedup",
                         "Amdahl ideal", "Efficiency"});
    const double des_t1 =
        sim::des_time(k.reference, k.work, 1, kDesJitter, kDesSeed);
    for (const auto& pt : sim::strong_scaling_curve(k.reference, k.work,
                                                    cores)) {
      const double des_t =
          sim::des_time(k.reference, k.work, pt.cores, kDesJitter, kDesSeed);
      t.add_row({std::to_string(pt.cores), format_double(pt.speedup, 1),
                 format_double(des_t1 / des_t, 1),
                 format_double(sim::amdahl_speedup(k.work.serial_fraction,
                                                   pt.cores), 1),
                 format_percent(pt.efficiency, 0)});
    }
    out += t.render() + "\n";
  }
  out += "Memory-bound spmv saturates at the bandwidth ceiling while "
         "compute-bound nbody/matmul track Amdahl — the shape the survey's "
         "\"why we stay serial\" discussion rests on.\n";
  return out;
}

std::string run_a1_model_ablation() {
  std::string out =
      "Speedup predicted at each core count from each kernel's declared\n"
      "reference core; 'no-bw' drops the bandwidth ceiling, 'no-barrier'\n"
      "the synchronization term.\n\n";
  sim::ModelAblation no_bw;
  no_bw.include_bandwidth = false;
  sim::ModelAblation no_barrier;
  no_barrier.include_barriers = false;
  for (const auto& k : kernels::standard_suite()) {
    const double t1 = sim::predict_time(k.reference, k.work, 1);
    const double des1 =
        sim::des_time(k.reference, k.work, 1, kDesJitter, kDesSeed);
    const auto speedup = [&](double t) { return format_double(t1 / t, 1); };
    report::TextTable table(
        {"Cores", "Full model", "no-bw", "no-barrier", "DES"});
    for (std::size_t p : {4, 16, 64, 256}) {
      table.add_row(
          {std::to_string(p),
           speedup(sim::predict_time(k.reference, k.work, p)),
           speedup(sim::predict_time_ablated(k.reference, k.work, p, no_bw)),
           speedup(
               sim::predict_time_ablated(k.reference, k.work, p, no_barrier)),
           format_double(des1 / sim::des_time(k.reference, k.work, p,
                                              kDesJitter, kDesSeed),
                         1)});
    }
    out += "kernel " + k.name + " (bytes/flop " +
           format_double(k.work.bytes_per_flop, 1) + ")\n" + table.render() +
           "\n";
  }
  out += "Reading: for memory-bound kernels (spmv, stencil, reduction) the\n"
         "no-bw column overshoots wildly — the bandwidth ceiling is the\n"
         "load-bearing term. For compute-bound kernels the no-barrier\n"
         "column overshoots the DES at width: there the barrier term\n"
         "carries the load.\n";
  return out;
}

std::string run_a2_comm_model() {
  const sim::DistributedWorkload w{.work_ops_total = 1e12,
                                   .core_gflops = 8.0,
                                   .halo_bytes_per_rank = 4e6,
                                   .halo_neighbors = 4};
  struct Net {
    const char* name;
    sim::NetworkModel model;
  };
  const Net nets[] = {
      {"gigabit-ethernet", {50.0, 0.125}},  // 50 us, 1 Gb/s
      {"modern-cluster", {2.0, 12.5}},      // 2 us, 100 Gb/s
      {"ideal", {0.0, 1e6}},
  };
  std::string out = "workload: 1 Tflop/step, 4 MB halos\n\n";
  report::TextTable t({"Ranks", "gigabit (ms)", "cluster (ms)",
                       "ideal (ms)"});
  for (std::size_t p = 1; p <= 4096; p *= 4) {
    std::vector<std::string> row = {std::to_string(p)};
    for (const auto& net : nets)
      row.push_back(format_double(1e3 * sim::bsp_step_time(net.model, w, p),
                                  2));
    t.add_row(std::move(row));
  }
  out += t.render() + "\n";
  for (const auto& net : nets)
    out += std::string("sweet spot on ") + net.name + ": " +
           std::to_string(sim::bsp_sweet_spot(net.model, w)) + " ranks\n";
  out += "\nOn slow interconnects the same problem stops scaling two orders "
         "of magnitude earlier — the infrastructure gap behind the job-width "
         "distribution shift (F3).\n";
  return out;
}

std::string run_f6_queueing(const Study& study) {
  (void)study;
  std::string out =
      "Batch-queue wait vs offered load on a 512-core cluster "
      "(2000 jobs per point)\n\n";
  report::TextTable t({"Load", "Policy", "Utilization", "Mean wait (min)",
                       "P95 wait (min)", "Bounded slowdown"});
  report::Series fcfs{"fcfs_mean_wait_min", {}},
      easy{"easy_mean_wait_min", {}}, sjf{"sjf_mean_wait_min", {}};
  for (double load : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0}) {
    for (const auto policy : {sim::SchedulerPolicy::kFcfs,
                              sim::SchedulerPolicy::kEasyBackfill,
                              sim::SchedulerPolicy::kShortestFirst}) {
      sim::JobStreamConfig cfg;
      cfg.jobs = 2000;
      cfg.arrival_rate_per_hour = load;
      cfg.seed = 99;  // same trace for both policies
      auto jobs = sim::generate_job_stream(cfg);
      const auto m = sim::simulate_cluster(jobs, 512, policy);
      t.add_row({format_double(load, 0), sim::scheduler_label(policy),
                 format_percent(m.utilization, 0),
                 format_double(m.mean_wait / 60.0, 1),
                 format_double(m.p95_wait / 60.0, 1),
                 format_double(m.mean_bounded_slowdown, 1)});
      auto& series = policy == sim::SchedulerPolicy::kFcfs
                         ? fcfs
                         : (policy == sim::SchedulerPolicy::kEasyBackfill
                                ? easy
                                : sjf);
      series.points.push_back({load, m.mean_wait / 60.0});
    }
  }
  out += t.render();
  out += "\nseries (CSV)\n" +
         report::render_series_csv("arrivals_per_hour", {fcfs, easy, sjf});
  out += "\nBackfill defers the wait-time knee to higher utilization — the "
         "operational gap between 2011-era FCFS queues and 2024 "
         "backfilling schedulers.\n";
  return out;
}

std::string run_f7_weighting(const Study& study) {
  std::string out =
      "Methodology: raking-weight effect and CI-method agreement "
      "(2024 wave)\n\n";
  const auto& raking = study.weights(1);
  out += "raking: " + std::to_string(raking.iterations) + " iterations, " +
         (raking.converged ? "converged" : "NOT converged") +
         ", max residual " + format_double(raking.max_residual, 6) +
         ", design effect " + format_double(raking.design_effect, 3) +
         ", effective n " + format_double(raking.effective_n, 0) + "\n\n";

  report::TextTable t({"Indicator", "Unweighted", "Weighted",
                       "Wilson 95% CI", "Bootstrap 95% CI (percentile)"});
  const auto& langs = study.wave(1).multiselect(synth::col::kLanguages);
  const std::array<std::string, 4> names = {"Python", "MATLAB", "C++",
                                            "Fortran"};
  std::array<std::size_t, names.size()> options{};
  for (std::size_t l = 0; l < names.size(); ++l)
    options[l] = static_cast<std::size_t>(langs.find_option(names[l]));
  // One pass over the answered rows: the sums accumulate in row order, and
  // each row's answer pattern (bit l = language l) is counted for the
  // bootstrap.
  double answered = 0.0, weight_total = 0.0;
  std::array<double, names.size()> hits{}, weighted_hits{};
  std::array<std::uint64_t, std::size_t{1} << names.size()> patterns{};
  for (std::size_t i = 0; i < langs.size(); ++i) {
    if (langs.is_missing(i)) continue;
    answered += 1.0;
    weight_total += raking.weights[i];
    std::size_t pattern = 0;
    for (std::size_t l = 0; l < names.size(); ++l) {
      if (!langs.has(i, options[l])) continue;
      hits[l] += 1.0;
      weighted_hits[l] += raking.weights[i];
      pattern |= std::size_t{1} << l;
    }
    ++patterns[pattern];
  }
  stats::BootstrapOptions opts;
  opts.replicates = 1000;
  opts.seed = 17;
  // Deterministic under any pool: replicate streams are index-derived.
  opts.pool = study.config().pool;
  const auto boots = stats::bootstrap_proportions(patterns, opts);
  double gap = 0.0, shift = 0.0;
  for (std::size_t l = 0; l < names.size(); ++l) {
    const double unweighted = hits[l] / answered;
    const double weighted = weighted_hits[l] / weight_total;
    const auto wilson = stats::wilson_ci(hits[l], answered);
    const auto& boot = boots[l];
    gap = std::max({gap, std::abs(wilson.lo - boot.percentile_ci.lo),
                    std::abs(wilson.hi - boot.percentile_ci.hi)});
    shift = std::max(shift, std::abs(weighted - unweighted));
    t.add_row({names[l], format_percent(unweighted), format_percent(weighted),
               report::share_cell(wilson.estimate, wilson.lo, wilson.hi),
               report::share_cell(boot.estimate, boot.percentile_ci.lo,
                                  boot.percentile_ci.hi)});
  }
  out += t.render();
  out += "\nThe largest Wilson-bootstrap endpoint gap is ";
  out += format_double(100.0 * gap, 2);
  out += gap < 0.01 ? " pp: the intervals agree within a fraction of a point"
                    : " pp: the intervals differ by a point or more";
  out += ". The largest weighted-unweighted shift is ";
  out += format_double(100.0 * shift, 2);
  out += " pp. The 2024 wave is raked to the margins it was drawn from, so "
         "weighting here corrects sampling noise only; F9 measures what "
         "raking does to a skewed sample.\n";
  return out;
}

std::string run_f8_dataset_size(const Study& study) {
  std::string out = "Typical dataset size distribution (log2 GB bins)\n\n";
  // Each wave is sorted once: the quantiles and the Mann-Whitney test read
  // the sorted values.
  std::array<std::vector<double>, 2> sorted;
  for (std::size_t w = 0; w < 2; ++w) {
    auto& values = sorted[w];
    values = study.wave(w).numeric(synth::col::kDatasetGb).present_values();
    std::sort(values.begin(), values.end());
    stats::Log2Histogram h(-6, 14);  // ~15 MB .. 16 TB
    for (double v : values) h.add(v);
    out += std::string("Wave ") + (w == 0 ? "2011" : "2024") + " (n=" +
           std::to_string(values.size()) + ", median " +
           format_double(stats::quantile_sorted(values, 0.5), 2) + " GB, p90 " +
           format_double(stats::quantile_sorted(values, 0.9), 1) + " GB)\n";
    std::vector<report::Bar> bars;
    for (std::size_t b = 0; b < h.bin_count(); ++b)
      bars.push_back({h.bin_label(b), h.fraction(b)});
    out += report::render_bars(bars) + "\n";
  }
  const auto mw = stats::mann_whitney_u(sorted[0], sorted[1]);
  out += "Mann-Whitney 2011 vs 2024: z=" + format_double(mw.z, 2) +
         ", p=" + report::p_cell(mw.p_value) + " — the median dataset grew "
         "by roughly two orders of magnitude.\n";
  return out;
}

std::string run_f9_nonresponse(const Study& study) {
  std::string out =
      "Methodology: nonresponse bias and how much demographic raking "
      "repairs\n\n"
      "Computationally active people answer a computing survey more "
      "readily. This experiment draws a deliberately biased 2024 sample "
      "(response propensity rising with the latent programming-intensity "
      "trait), compares naive estimates against the population truth, and "
      "shows that raking on field x career margins — all a real study can "
      "do — removes only the demographic part of the bias.\n\n";

  const std::uint64_t seed = study.config().seed ^ 0xF9F9F9ULL;
  // Population truth: a large unbiased draw.
  const auto truth = synth::generate_wave(
      {synth::Wave::k2024, 8000, seed, study.config().pool, 0.0});
  // Observed sample: same population, strong trait-driven nonresponse.
  synth::GeneratorConfig biased_cfg{synth::Wave::k2024,
                                    study.config().n_2024, seed,
                                    study.config().pool, 0.9};
  const auto observed = synth::generate_wave(biased_cfg);

  // Rake the observed sample to the true field/career margins.
  const auto& params = synth::params_for(synth::Wave::k2024);
  survey::MarginTarget field_target{synth::col::kField, {}};
  for (std::size_t f = 0; f < synth::fields().size(); ++f)
    field_target.shares[synth::fields()[f]] = params.field_mix[f];
  survey::MarginTarget career_target{synth::col::kCareerStage, {}};
  for (std::size_t c = 0; c < synth::career_stages().size(); ++c)
    career_target.shares[synth::career_stages()[c]] = params.career_mix[c];
  const auto raking =
      survey::rake_weights(observed, {field_target, career_target});

  struct Indicator {
    const char* column;
    const char* option;
  };
  const Indicator indicators[] = {
      {synth::col::kLanguages, "Python"},
      {synth::col::kLanguages, "C++"},
      {synth::col::kSePractices, "Version control"},
      {synth::col::kSePractices, "Continuous integration"},
      {synth::col::kParallelResources, "GPU"},
      {synth::col::kParallelResources, "Cluster"},
  };
  // One fused scan per table answers all 6 indicators: option shares for
  // the three multi-select columns on each table, plus the six weighted
  // shares on the observed one (weighted variants ride the same pass).
  const char* const share_columns[] = {synth::col::kLanguages,
                                       synth::col::kSePractices,
                                       synth::col::kParallelResources};
  query::QueryEngine truth_engine(truth), observed_engine(observed);
  std::vector<query::QueryId> truth_ids, observed_ids;
  for (const char* column : share_columns) {
    truth_ids.push_back(truth_engine.add_option_shares(column));
    observed_ids.push_back(observed_engine.add_option_shares(column));
  }
  std::vector<query::QueryId> raked_ids;
  for (const auto& ind : indicators)
    raked_ids.push_back(observed_engine.add_weighted_option_share(
        ind.column, ind.option, raking.weights));
  truth_engine.run(study.config().pool);
  observed_engine.run(study.config().pool);

  const auto find_share = [&](const query::QueryEngine& engine,
                              const std::vector<query::QueryId>& ids,
                              const Indicator& ind) {
    for (std::size_t c = 0; c < std::size(share_columns); ++c) {
      if (std::string(share_columns[c]) != ind.column) continue;
      for (const auto& s : engine.shares(ids[c]))
        if (s.label == ind.option) return s.share.estimate;
    }
    throw Error("indicator option missing");
  };

  report::TextTable t({"Indicator", "Truth", "Naive sample", "Raked",
                       "Naive bias (pp)", "Residual bias (pp)"});
  for (std::size_t i = 0; i < std::size(indicators); ++i) {
    const auto& ind = indicators[i];
    const double truth_share = find_share(truth_engine, truth_ids, ind);
    const double naive = find_share(observed_engine, observed_ids, ind);
    const double raked =
        observed_engine.weighted_share(raked_ids[i]).share.estimate;
    t.add_row({std::string(ind.option), format_percent(truth_share, 1),
               format_percent(naive, 1), format_percent(raked, 1),
               format_double(100.0 * (naive - truth_share), 1),
               format_double(100.0 * (raked - truth_share), 1)});
  }
  out += t.render();
  out += "\nraking design effect " +
         format_double(raking.design_effect, 3) + ", effective n " +
         format_double(raking.effective_n, 0) +
         ".\nTrait-correlated indicators (CI, GPU, C++) keep residual bias "
         "after raking: weighting on demographics cannot fix selection on "
         "an unobserved trait. The study's own estimates carry the same "
         "caveat.\n";
  return out;
}

std::string run_f10_panel_transitions(const Study& study) {
  std::string out =
      "Longitudinal panel: the 2011 cohort re-surveyed in 2024 (rows "
      "paired by person). Transitions per indicator with McNemar tests "
      "on the discordant pairs.\n\n";
  // The panel is the 2011 cohort, so it has the 2011 wave's size.
  const auto panel = synth::generate_panel(
      study.config().n_2011, study.config().seed ^ 0xBA5EBA11ULL,
      study.config().pool);

  struct Target {
    const char* column;
    const char* option;
  };
  const Target targets[] = {
      {synth::col::kLanguages, "Python"},
      {synth::col::kLanguages, "MATLAB"},
      {synth::col::kLanguages, "Fortran"},
      {synth::col::kSePractices, "Version control"},
      {synth::col::kParallelResources, "GPU"},
      {synth::col::kParallelResources, "Cluster"},
  };
  report::TextTable t({"Indicator", "2011", "2024", "Kept", "Adopted",
                       "Abandoned", "Never", "McNemar p"});
  for (const auto& target : targets) {
    const auto tr = trend::option_transitions(panel.wave2011, panel.wave2024,
                                              target.column, target.option);
    t.add_row({std::string(target.option),
               format_percent(tr.share_before(), 0),
               format_percent(tr.share_after(), 0),
               format_double(tr.kept, 0), format_double(tr.adopted, 0),
               format_double(tr.abandoned, 0), format_double(tr.never, 0),
               report::p_cell(tr.mcnemar.p_value)});
  }
  out += t.render();
  out += "\nAdoption dominates abandonment for Python/VCS/GPU (one-way "
         "ratchets); MATLAB is the one indicator where abandonment "
         "competes — the attrition channel behind its falling share.\n";

  // Career progression sanity panel.
  double still_grad = 0.0;
  const auto& c11 = panel.wave2011.categorical(synth::col::kCareerStage);
  const auto& c24 = panel.wave2024.categorical(synth::col::kCareerStage);
  for (std::size_t i = 0; i < c11.size(); ++i) {
    if (!c11.is_missing(i) && !c24.is_missing(i) &&
        c11.label_at(i) == "Grad student" && c24.label_at(i) == "Grad student")
      still_grad += 1.0;
  }
  out += "panel consistency: " + format_double(still_grad, 0) +
         " respondents remained grad students across 13 years (expected 0)\n";
  return out;
}

std::string run_l1_multiwave_trends(const Study& study) {
  const std::size_t waves = study.wave_count();
  std::string out = "Piecewise longitudinal trends across " +
                    std::to_string(waves) +
                    " waves. Per indicator: one overall chi-square "
                    "(did the share move at all) plus adjacent-wave "
                    "z-tests; every p of the battery is Holm-adjusted "
                    "as ONE family per indicator group.\n";
  std::vector<double> years;
  for (std::size_t w = 0; w < waves; ++w) years.push_back(study.wave_year(w));

  struct Family {
    const char* name;
    const std::vector<data::OptionShare>& (*pick)(const WaveAggregates&);
  };
  const Family families[] = {
      {"Languages",
       [](const WaveAggregates& a) -> const std::vector<data::OptionShare>& {
         return a.languages;
       }},
      {"SE practices",
       [](const WaveAggregates& a) -> const std::vector<data::OptionShare>& {
         return a.se_practices;
       }},
      {"Parallel resources",
       [](const WaveAggregates& a) -> const std::vector<data::OptionShare>& {
         return a.parallel_resources;
       }},
  };
  for (const auto& family : families) {
    std::vector<std::vector<data::OptionShare>> shares;
    for (std::size_t w = 0; w < waves; ++w)
      shares.push_back(family.pick(study.aggregates(w)));
    const auto battery = trend::multi_wave_option_battery(years, shares);

    std::vector<std::string> header{"Indicator"};
    for (double y : years) header.push_back(format_double(y, 0));
    header.insert(header.end(), {"Overall p(adj)", "Direction", "Segments"});
    report::TextTable t(header);
    for (const auto& tr : battery) {
      std::vector<std::string> row{tr.indicator};
      for (std::size_t w = 0; w < waves; ++w)
        row.push_back(format_percent(tr.share(w), 1));
      row.push_back(report::p_cell(tr.overall_p_adjusted));
      row.push_back(trend::direction_label(tr.direction));
      // Compact per-segment view: sign of the move when its adjusted p
      // clears 0.05, '.' otherwise.
      std::string segs;
      for (std::size_t s = 0; s < tr.segments.size(); ++s) {
        if (tr.segment_p_adjusted[s] < 0.05)
          segs += tr.segments[s].diff > 0 ? '+' : '-';
        else
          segs += '.';
      }
      row.push_back(segs);
      t.add_row(row);
    }
    out += "\n" + std::string(family.name) + "\n" + t.render();
  }
  out += "\nSegment key: one glyph per adjacent-wave pair, '+'/'-' = "
         "Holm-significant rise/fall over that segment, '.' = no "
         "adjusted evidence of movement within the segment.\n";
  return out;
}

void register_all_experiments(report::ExperimentRegistry& registry,
                              const Study& study) {
  const auto add = [&](const char* id, const char* kind, const char* title,
                       std::string (*fn)(const Study&)) {
    registry.add({id, kind, title, [fn, &study] { return fn(study); }});
  };
  add("T1", "table", "Respondent demographics by field and career stage",
      run_t1_demographics);
  add("T2", "table", "Programming-language usage by field",
      run_t2_languages_by_field);
  add("T3", "table", "Parallel programming models among parallel users",
      run_t3_parallel_models);
  add("T4", "table", "Software-engineering practice adoption",
      run_t4_se_practices);
  add("T5", "table", "Tool awareness vs usage gap", run_t5_tool_gap);
  add("T6", "table", "Significance battery for all 2011→2024 shifts",
      run_t6_significance);
  add("T7", "table", "GPU adoption by field with logistic curves",
      run_t7_gpu_adoption);
  add("T8", "table", "Per-field drill-down of the headline shifts",
      run_t8_field_drilldown);
  add("F1", "figure", "Language share trend with 95% CIs",
      run_f1_language_trend);
  add("F2", "figure", "Parallelism capability ladder by wave",
      run_f2_parallelism_ladder);
  add("F3", "figure", "CDF of typical job width (cores)", run_f3_cores_cdf);
  add("F4", "figure", "Research time spent programming",
      run_f4_time_programming);
  add("F5", "figure", "Kernel-suite strong scaling: model vs DES",
      run_f5_scaling);
  add("F6", "figure", "Batch-queue wait vs offered load", run_f6_queueing);
  add("F7", "figure", "Weighting and CI methodology checks", run_f7_weighting);
  add("F8", "figure", "Dataset-size distribution shift", run_f8_dataset_size);
  add("F9", "figure", "Nonresponse bias vs raking repair", run_f9_nonresponse);
  add("F10", "figure", "Panel transitions with McNemar tests",
      run_f10_panel_transitions);
  // Longitudinal series: only meaningful (and only registered) when the
  // study actually has intermediate waves; two-wave studies keep the
  // classic 18-experiment registry byte-for-byte.
  if (study.wave_count() >= 3)
    add("L1", "table", "Piecewise N-wave trend batteries per indicator",
        run_l1_multiwave_trends);
}

}  // namespace rcr::core
