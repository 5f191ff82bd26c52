// The reconstructed evaluation: one function per table/figure.
// Each returns the complete printable artifact (tables, CSV series, notes).
// DESIGN.md and EXPERIMENTS.md document what each reconstructs and which
// calibration anchors drive it.
#pragma once

#include <string>

#include "core/study.hpp"
#include "report/experiment.hpp"

namespace rcr::core {

// Tables.
std::string run_t1_demographics(const Study& study);
std::string run_t2_languages_by_field(const Study& study);
std::string run_t3_parallel_models(const Study& study);
std::string run_t4_se_practices(const Study& study);
std::string run_t5_tool_gap(const Study& study);
std::string run_t6_significance(const Study& study);
std::string run_t7_gpu_adoption(const Study& study);
std::string run_t8_field_drilldown(const Study& study);

// Figures.
std::string run_f1_language_trend(const Study& study);
std::string run_f2_parallelism_ladder(const Study& study);
std::string run_f3_cores_cdf(const Study& study);
std::string run_f4_time_programming(const Study& study);
std::string run_f5_scaling(const Study& study);
std::string run_f6_queueing(const Study& study);
std::string run_f7_weighting(const Study& study);
std::string run_f8_dataset_size(const Study& study);
std::string run_f9_nonresponse(const Study& study);
std::string run_f10_panel_transitions(const Study& study);

// Ablations of the scaling and communication models: pure functions of
// the kernel suite's declared profiles and fixed network presets, so they
// take no study. bench_artifacts registers them itself;
// register_all_experiments keeps a study's registry to T1–T8, F1–F10
// (and L1).
std::string run_a1_model_ablation();
std::string run_a2_comm_model();

// Longitudinal extension (registered only for studies with 3+ waves):
// piecewise N-wave trend batteries per indicator family, one Holm family
// spanning every overall chi-square and every adjacent-segment z-test.
std::string run_l1_multiwave_trends(const Study& study);

// Registers all experiments against one shared Study (captured by
// reference; the Study must outlive the registry). Two-wave studies get
// the classic 18 tables/figures; studies with 3+ waves additionally get
// the longitudinal L-series.
void register_all_experiments(report::ExperimentRegistry& registry,
                              const Study& study);

}  // namespace rcr::core
