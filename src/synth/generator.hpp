// Synthetic respondent generator.
//
// Produces a survey wave as a data::Table conforming to synth::instrument().
// Each respondent is drawn independently from a latent-trait model:
//
//   strata  : field, career stage            (calibrated mixes)
//   traits  : programming intensity, HPC exposure, SE maturity  (Betas,
//             shifted by field and correlated with each other)
//   answers : conditional on strata + traits via the WaveParams baselines
//             and the field multiplier tables in calibration.cpp
//
// Hard consistency rules the generator guarantees (and tests assert):
//   * primary_language is one of the languages the respondent uses;
//   * parallel_models is empty unless some parallel resource is used;
//   * MPI requires Cluster, CUDA/HIP requires GPU;
//   * tools_used is a subset of tools_aware;
//   * cores_typical is 1 for serial respondents.
//
// Generation is deterministic for a given (wave, n, seed) regardless of
// thread count: respondent i draws from an RNG seeded by hash(seed, i).
#pragma once

#include <cstdint>

#include "data/table.hpp"
#include "synth/calibration.hpp"
#include "synth/domain.hpp"

namespace rcr::parallel {
class ThreadPool;
}

namespace rcr::synth {

struct GeneratorConfig {
  Wave wave = Wave::k2024;
  std::size_t respondents = 1000;
  std::uint64_t seed = 7;
  // When non-null, respondents are generated in parallel on this pool.
  rcr::parallel::ThreadPool* pool = nullptr;
  // Nonresponse bias strength in [0, 1). 0 = every drawn person answers
  // (an unbiased sample of the population). Above 0, response propensity
  // rises with the latent programming-intensity trait — computationally
  // active people answer a computing survey more readily — so the observed
  // sample over-represents heavy programmers. The F9 methodology
  // experiment quantifies the resulting bias and how much raking repairs.
  double nonresponse_strength = 0.0;
  // When non-null, this parameter set drives generation instead of
  // params_for(wave) — how N-wave studies synthesize a wave at an
  // interpolated calendar year (calibration.hpp interpolated_params).
  // The pointee must outlive the call. `wave` is ignored for generation
  // when set (trait drift is a calibrated parameter, not a wave branch).
  const WaveParams* params = nullptr;
};

// Generates one wave. The returned table validates cleanly against
// synth::instrument().
data::Table generate_wave(const GeneratorConfig& config);

// Rows [first, first + count) of the unbiased respondent sequence for this
// config — the random-access form the streaming study shards on.
// Respondent i draws from hash(seed, i) regardless of the range it is
// generated in, so any partition of [0, n) concatenates to exactly
// generate_wave's table. Requires config.nonresponse_strength == 0 (a
// biased row is the i-th candidate that answered, which only a walk over
// the candidates finds; use generate_wave).
data::Table generate_range(const GeneratorConfig& config, std::size_t first,
                           std::size_t count);

// Convenience for the common two-wave study: wave-specific default sizes
// (the 2024 revisit reached a larger population than the 2011 study).
data::Table generate_2011(std::size_t n = 120, std::uint64_t seed = 7,
                          rcr::parallel::ThreadPool* pool = nullptr);
data::Table generate_2024(std::size_t n = 650, std::uint64_t seed = 7,
                          rcr::parallel::ThreadPool* pool = nullptr);

// Longitudinal panel: the same n people answering in 2011 and again in
// 2024 (rows paired by index). The 2024 self evolves from the 2011 self:
//   * field is stable; career stage advances (no one stays a grad student
//     for 13 years);
//   * languages and SE practices ratchet — mostly kept, with 2024-era
//     additions drawn from the wave model; a small abandonment rate (the
//     MATLAB attrition channel);
//   * parallel resources ratchet upward; models stay gated (MPI needs a
//     cluster, CUDA a GPU); all generator invariants hold in both waves.
// When `pool` is non-null, persons are generated in parallel; the panel is
// byte-identical on any pool.
struct Panel {
  data::Table wave2011;
  data::Table wave2024;
};
Panel generate_panel(std::size_t n, std::uint64_t seed = 7,
                     rcr::parallel::ThreadPool* pool = nullptr);

}  // namespace rcr::synth
