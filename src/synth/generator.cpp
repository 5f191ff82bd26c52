#include "synth/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/philox.hpp"
#include "util/rng.hpp"

namespace rcr::synth {

namespace {

constexpr std::size_t kLangMatlab = 0;
constexpr std::size_t kResMulticore = 0;
constexpr std::size_t kResCluster = 1;
constexpr std::size_t kResGpu = 2;
constexpr std::size_t kModelMpi = 1;
constexpr std::size_t kModelCuda = 2;

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

std::uint64_t respondent_seed(std::uint64_t master, std::size_t index) {
  std::uint64_t z = master + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Candidate c's response coin: one draw from simd::Philox substream c of
// the coin-masked master seed — counter-based splitting in place of a
// per-candidate hash reseed. Same degenerate-p contract as Rng::bernoulli
// (propensities at the clamp rails consume no draw).
bool responds(std::uint64_t master, std::size_t candidate, double propensity) {
  if (propensity <= 0.0) return false;
  if (propensity >= 1.0) return true;
  simd::Philox coin(master ^ 0xC0FFEEULL,
                    static_cast<std::uint64_t>(candidate));
  return coin.next_double() < propensity;
}

// Plain-value form of one generated respondent; appended to the table
// serially after the (optionally parallel) generation pass.
struct Raw {
  double intensity = 0.0;  // latent trait, kept for the nonresponse model
  std::int32_t field = 0;
  std::int32_t career = 0;
  double years = 0.0;          // NaN = missing
  double time_prog = 0.0;      // NaN = missing
  std::uint64_t languages = 0;
  std::int32_t primary = 0;
  std::uint64_t resources = 0;
  std::uint64_t models = 0;
  bool models_missing = false;
  double cores = 1.0;          // NaN = missing
  std::int32_t gpu_usage = 0;  // -1 = missing
  std::uint64_t se = 0;
  bool se_missing = false;
  std::uint64_t tools_aware = 0;
  std::uint64_t tools_used = 0;
  bool tools_missing = false;
  double dataset_gb = 1.0;     // NaN = missing
  double expertise = 3.0;      // NaN = missing
};

double likert_draw(Rng& rng, double mean) {
  const double v = std::round(rng.normal(mean, 0.9));
  return std::clamp(v, 1.0, 5.0);
}

Raw generate_one(const WaveParams& p, std::uint64_t seed) {
  Rng rng(seed);
  Raw r;
  const double nan = data::NumericColumn::missing();

  r.field = static_cast<std::int32_t>(rng.categorical(p.field_mix));
  r.career = static_cast<std::int32_t>(rng.categorical(p.career_mix));
  const auto f = static_cast<std::size_t>(r.field);

  // Latent traits. The era boost is a calibrated parameter (0 in 2011,
  // 0.06 in 2024, blended for interpolated years), not a wave branch.
  const double wave_boost = p.trait_boost;
  const double intensity =
      clamp01(rng.beta(2.2, 2.2) + field_intensity_shift(f) + wave_boost);
  r.intensity = intensity;
  const double hpc =
      clamp01(0.75 * rng.beta(2.0, 3.0) + 0.35 * intensity + wave_boost);
  const double se_maturity =
      clamp01(0.55 * rng.beta(2.0, 2.0) + 0.45 * intensity + wave_boost);

  // Per-item probabilities for the mask-valued questions are staged here and
  // drawn in one bernoulli_mask call per question (index order and draw
  // consumption identical to a per-item bernoulli loop, so the output is
  // unchanged bitwise).
  std::array<double, 64> probs;

  // Languages: Bernoulli per language with field- and trait-modulated odds.
  const std::size_t n_lang = languages().size();
  std::vector<double> lang_p(n_lang);
  for (std::size_t l = 0; l < n_lang; ++l) {
    lang_p[l] = clamp01(p.language_base[l] * field_language_multiplier(f, l) *
                        (0.55 + 0.9 * intensity));
  }
  r.languages = rng.bernoulli_mask(std::span<const double>(lang_p));
  if (r.languages == 0) {
    // Everyone in this study programs something: fall back to the single
    // most likely language for this respondent (MATLAB if all zero).
    std::size_t best = kLangMatlab;
    for (std::size_t l = 1; l < n_lang; ++l)
      if (lang_p[l] > lang_p[best]) best = l;
    r.languages = std::uint64_t{1} << best;
  }
  {
    // Primary language: weighted choice among the used ones.
    std::vector<double> w;
    std::vector<std::size_t> idx;
    for (std::size_t l = 0; l < n_lang; ++l) {
      if ((r.languages >> l) & 1u) {
        idx.push_back(l);
        w.push_back(std::max(1e-3, lang_p[l]));
      }
    }
    r.primary = static_cast<std::int32_t>(idx[rng.categorical(w)]);
  }

  // Parallel resources.
  const std::size_t n_res = parallel_resources().size();
  for (std::size_t res = 0; res < n_res; ++res) {
    probs[res] = clamp01(p.resource_base[res] *
                         field_resource_multiplier(f, res) *
                         (0.40 + 1.2 * hpc));
  }
  r.resources = rng.bernoulli_mask(std::span<const double>(probs.data(), n_res));

  // Parallel models, gated on resources. Gated-out models get probability
  // 0.0, which bernoulli_mask answers without a draw — exactly what the
  // former `continue` did.
  const bool any_parallel = r.resources != 0;
  const bool has_cluster = (r.resources >> kResCluster) & 1u;
  const bool has_gpu = (r.resources >> kResGpu) & 1u;
  if (any_parallel) {
    const std::size_t n_models = parallel_models().size();
    for (std::size_t m = 0; m < n_models; ++m) {
      const bool gated = (m == kModelMpi && !has_cluster) ||
                         (m == kModelCuda && !has_gpu);
      probs[m] = gated ? 0.0 : clamp01(p.model_base[m] * (0.5 + intensity));
    }
    r.models =
        rng.bernoulli_mask(std::span<const double>(probs.data(), n_models));
  }
  r.models_missing = any_parallel && rng.bernoulli(p.missing_rate);

  // Typical job width.
  if (rng.bernoulli(p.missing_rate)) {
    r.cores = nan;
  } else if (has_cluster) {
    const double log2_cores = rng.normal(p.cores_log2_mu, p.cores_log2_sd);
    r.cores = std::pow(2.0, std::clamp(std::round(log2_cores), 0.0, 12.0));
  } else if ((r.resources >> kResMulticore) & 1u || has_gpu) {
    r.cores = static_cast<double>(std::uint64_t{1} << rng.uniform_int(1, 5));
  } else {
    r.cores = 1.0;
  }

  // GPU usage frequency, consistent with the GPU resource answer.
  if (rng.bernoulli(p.missing_rate)) {
    r.gpu_usage = -1;
  } else if (has_gpu) {
    r.gpu_usage = rng.bernoulli(0.45 + 0.4 * hpc) ? 2 : 1;  // Regularly : Occ.
  } else {
    // Some non-owners still borrow a GPU occasionally; scaled to the era.
    r.gpu_usage = rng.bernoulli(0.5 * p.resource_base[kResGpu]) ? 1 : 0;
  }

  // Software-engineering practices.
  const std::size_t n_se = se_practices().size();
  for (std::size_t s = 0; s < n_se; ++s) {
    probs[s] =
        clamp01(p.se_base[s] * (0.45 + 0.75 * se_maturity + 0.35 * intensity));
  }
  r.se = rng.bernoulli_mask(std::span<const double>(probs.data(), n_se));
  r.se_missing = rng.bernoulli(p.missing_rate);

  // Tools: used ⊆ aware by construction. Stays a scalar loop — the `used`
  // coin for tool t is drawn between the aware coins for t and t+1, so the
  // draws cannot be batched per question without reordering the stream.
  for (std::size_t t = 0; t < dev_tools().size(); ++t) {
    const double aware =
        clamp01(p.tool_aware_base[t] * (0.55 + 0.7 * intensity));
    if (!rng.bernoulli(aware)) continue;
    r.tools_aware |= std::uint64_t{1} << t;
    const double used =
        clamp01(p.tool_used_given_aware[t] * (0.5 + 0.8 * intensity));
    if (rng.bernoulli(used)) r.tools_used |= std::uint64_t{1} << t;
  }
  r.tools_missing = rng.bernoulli(p.missing_rate);

  // Scalars.
  r.dataset_gb =
      rng.bernoulli(p.missing_rate)
          ? nan
          : rng.lognormal(p.dataset_log_gb_mu, p.dataset_log_gb_sigma);
  r.time_prog = rng.bernoulli(p.missing_rate)
                    ? nan
                    : likert_draw(rng, p.time_programming_mean +
                                           1.6 * (intensity - 0.5));
  r.expertise = rng.bernoulli(p.missing_rate)
                    ? nan
                    : likert_draw(rng, p.expertise_mean +
                                           2.0 * (intensity - 0.5));
  {
    static const double kCareerYearShift[4] = {-0.25, 0.10, 0.60, 0.50};
    const double mu =
        p.years_mu + kCareerYearShift[static_cast<std::size_t>(r.career)];
    r.years = rng.bernoulli(p.missing_rate)
                  ? nan
                  : std::min(45.0, rng.lognormal(mu, p.years_sigma));
  }
  return r;
}

// Materializes generated respondents as an instrument-conformant table.
data::Table table_from_raws(const std::vector<Raw>& raws) {
  data::Table table = instrument().make_table();
  auto& field = table.categorical(col::kField);
  auto& career = table.categorical(col::kCareerStage);
  auto& years = table.numeric(col::kYearsProgramming);
  auto& time_prog = table.numeric(col::kTimeProgramming);
  auto& langs = table.multiselect(col::kLanguages);
  auto& primary = table.categorical(col::kPrimaryLanguage);
  auto& resources = table.multiselect(col::kParallelResources);
  auto& models = table.multiselect(col::kParallelModels);
  auto& cores = table.numeric(col::kCoresTypical);
  auto& gpu = table.categorical(col::kGpuUsage);
  auto& se = table.multiselect(col::kSePractices);
  auto& aware = table.multiselect(col::kToolsAware);
  auto& used = table.multiselect(col::kToolsUsed);
  auto& dataset = table.numeric(col::kDatasetGb);
  auto& expertise = table.numeric(col::kExpertise);

  for (const Raw& r : raws) {
    field.push_code(r.field);
    career.push_code(r.career);
    years.push(r.years);
    time_prog.push(r.time_prog);
    langs.push_mask(r.languages);
    primary.push_code(r.primary);
    resources.push_mask(r.resources);
    if (r.models_missing) {
      models.push_missing();
    } else {
      models.push_mask(r.models);
    }
    cores.push(r.cores);
    gpu.push_code(r.gpu_usage);
    if (r.se_missing) {
      se.push_missing();
    } else {
      se.push_mask(r.se);
    }
    if (r.tools_missing) {
      aware.push_missing();
      used.push_missing();
    } else {
      aware.push_mask(r.tools_aware);
      used.push_mask(r.tools_used);
    }
    dataset.push(r.dataset_gb);
    expertise.push(r.expertise);
  }
  table.validate_rectangular();
  return table;
}

// fn(i) for each i in [0, n), on the pool when there is one.
template <typename Fn>
void for_each_index(rcr::parallel::ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool != nullptr) {
    rcr::parallel::parallel_for(*pool, 0, n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

void check_config(const GeneratorConfig& config) {
  RCR_CHECK_MSG(config.respondents > 0, "cannot generate an empty wave");
  RCR_CHECK_MSG(config.nonresponse_strength >= 0.0 &&
                    config.nonresponse_strength < 1.0,
                "nonresponse_strength must lie in [0, 1)");
}

// The parameter set generation runs under: an explicit override (N-wave
// studies at interpolated years) or the wave's calibrated anchors.
const WaveParams& resolved_params(const GeneratorConfig& config) {
  return config.params != nullptr ? *config.params : params_for(config.wave);
}

// Most candidates a pooled biased draw generates at once (~9 MB of Raws).
constexpr std::size_t kMaxCandidateChunk = 65536;

// The nonresponse-biased sample: candidate c = 0, 1, ... answers with a
// propensity rising with its programming intensity, and the first
// `respondents` candidates that answer, in candidate order, are the sample.
// Candidate c's traits and coin derive from hash(seed, c) alone, so on
// config.pool a chunk of candidates is drawn in parallel and the sample is
// byte-identical on any pool. A chunk holds 1.5 candidates per missing
// respondent plus 64, at most kMaxCandidateChunk; without a pool it is one
// candidate.
std::vector<Raw> walk_biased(const GeneratorConfig& config) {
  const WaveParams& p = resolved_params(config);
  const std::size_t n = config.respondents;
  const std::size_t cap = 200 * n + 1000;
  std::vector<Raw> sample, chunk;
  sample.reserve(n);
  std::vector<char> answered;
  std::size_t size = 0;
  for (std::size_t c = 0; sample.size() < n; c += size) {
    RCR_CHECK_MSG(c < cap, "nonresponse rejection loop did not terminate");
    const std::size_t need = n - sample.size();
    size = config.pool == nullptr
               ? 1
               : std::min({kMaxCandidateChunk, need + need / 2 + 64, cap - c});
    chunk.resize(size);
    answered.resize(size);
    for_each_index(config.pool, size, [&](std::size_t i) {
      chunk[i] = generate_one(p, respondent_seed(config.seed, c + i));
      const double propensity = clamp01(
          0.6 + config.nonresponse_strength * 1.6 * (chunk[i].intensity - 0.5));
      answered[i] = responds(config.seed, c + i, propensity);
    });
    for (std::size_t i = 0; i < size && sample.size() < n; ++i)
      if (answered[i]) sample.push_back(chunk[i]);
  }
  return sample;
}

}  // namespace

data::Table generate_wave(const GeneratorConfig& config) {
  check_config(config);
  if (config.nonresponse_strength == 0.0)
    return generate_range(config, 0, config.respondents);
  // The table is built after the walk has freed its candidate chunk, so
  // the chunk and the table are never resident together (peak RSS).
  return table_from_raws(walk_biased(config));
}

data::Table generate_range(const GeneratorConfig& config, std::size_t first,
                           std::size_t count) {
  check_config(config);
  RCR_CHECK_MSG(config.nonresponse_strength == 0.0,
                "generate_range requires the unbiased (nonresponse == 0) "
                "sequence; use generate_wave for biased sampling");
  RCR_CHECK_MSG(first + count <= config.respondents,
                "generate_range beyond the configured population");
  // Respondent i depends only on hash(seed, i), never on the range bounds,
  // so shards concatenate into the one-shot sequence.
  const WaveParams& p = resolved_params(config);
  std::vector<Raw> raws(count);
  for_each_index(config.pool, count, [&](std::size_t i) {
    raws[i] = generate_one(p, respondent_seed(config.seed, first + i));
  });
  return table_from_raws(raws);
}

namespace {

// Drops each set bit of `mask` with probability 1-p (independent coins).
std::uint64_t thin_mask(Rng& rng, std::uint64_t mask, double keep_p) {
  std::uint64_t out = 0;
  for (std::uint64_t bit = mask; bit;) {
    const std::uint64_t lsb = bit & (~bit + 1);
    if (rng.bernoulli(keep_p)) out |= lsb;
    bit ^= lsb;
  }
  return out;
}

}  // namespace

Panel generate_panel(std::size_t n, std::uint64_t seed,
                     rcr::parallel::ThreadPool* pool) {
  RCR_CHECK_MSG(n > 0, "cannot generate an empty panel");
  const WaveParams& p11 = params_for(Wave::k2011);
  const WaveParams& p24 = params_for(Wave::k2024);

  // Person i draws only from streams seeded by (seed, i), so persons can be
  // generated in any order: the panel is byte-identical on any pool.
  std::vector<Raw> raws11(n), raws24(n);
  const auto person = [&](std::size_t i) {
    const std::uint64_t s = respondent_seed(seed, i);
    Raw r11 = generate_one(p11, s);
    // The same person's 2024-era tendencies: an independent draw that the
    // evolution step reconciles with their 2011 self.
    Raw r24 = generate_one(p24, respondent_seed(seed ^ 0x2024ULL, i));
    Rng evo(respondent_seed(seed ^ 0xE7011E7ULL, i));

    // Identity: field stable; career advances over 13 years.
    r24.field = r11.field;
    switch (r11.career) {
      case 0:  // grad student -> postdoc / faculty / staff
        r24.career = evo.bernoulli(0.15) ? 1 : (evo.bernoulli(0.7) ? 3 : 2);
        break;
      case 1:  // postdoc -> faculty / staff
        r24.career = evo.bernoulli(0.6) ? 2 : 3;
        break;
      case 2:  // faculty stay faculty
        r24.career = 2;
        break;
      default:  // staff mostly stay staff
        r24.career = evo.bernoulli(0.8) ? 3 : 2;
        break;
    }

    // Languages: mostly keep the old ones (MATLAB attrition is the
    // exception); pick up new ones with a propensity scaled by the
    // language's era trajectory — mid-career researchers rarely adopt a
    // declining language, readily adopt a rising one.
    std::uint64_t final_langs = 0;
    for (std::size_t l = 0; l < languages().size(); ++l) {
      const bool had = (r11.languages >> l) & 1u;
      const bool draws = (r24.languages >> l) & 1u;
      if (had) {
        const double keep_p = languages()[l] == "MATLAB" ? 0.55 : 0.85;
        if (evo.bernoulli(keep_p) || (draws && evo.bernoulli(0.5)))
          final_langs |= std::uint64_t{1} << l;
      } else if (draws) {
        const double b11 = std::max(0.05, p11.language_base[l]);
        const double ratio =
            p24.language_base[l] > 0.0 ? p24.language_base[l] / b11 : 0.0;
        const double adopt_p =
            clamp01(0.25 + 0.75 * std::min(1.0, ratio / 2.0));
        if (evo.bernoulli(adopt_p)) final_langs |= std::uint64_t{1} << l;
      }
    }
    if (final_langs == 0) final_langs = r24.languages;  // never language-less
    r24.languages = final_langs;
    // Primary must remain among the used languages after the evolution.
    if (!((r24.languages >> r24.primary) & 1u)) {
      for (std::size_t l = 0; l < languages().size(); ++l) {
        if ((r24.languages >> l) & 1u) {
          r24.primary = static_cast<std::int32_t>(l);
          break;
        }
      }
    }
    // Primary: sometimes loyal to the old primary when still in use.
    if (((r24.languages >> r11.primary) & 1u) && evo.bernoulli(0.4)) {
      r24.primary = r11.primary;
    }
    RCR_CHECK((r24.languages >> r24.primary) & 1u);

    // Resources ratchet upward; models re-gated on the final resources.
    r24.resources |= thin_mask(evo, r11.resources, 0.7);
    r24.models |= thin_mask(evo, r11.models, 0.7);
    const bool has_cluster = (r24.resources >> kResCluster) & 1u;
    const bool has_gpu = (r24.resources >> kResGpu) & 1u;
    if (!has_cluster) r24.models &= ~(std::uint64_t{1} << kModelMpi);
    if (!has_gpu) r24.models &= ~(std::uint64_t{1} << kModelCuda);
    if (r24.resources == 0) {
      r24.models = 0;
      r24.models_missing = false;
      if (!data::NumericColumn::is_missing(r24.cores)) r24.cores = 1.0;
    }
    // GPU-usage answer consistent with the final resource set.
    if (r24.gpu_usage == 0 && has_gpu) r24.gpu_usage = 1;
    if (r24.gpu_usage == 2 && !has_gpu) r24.gpu_usage = 1;

    // Practices and tool awareness ratchet; use stays within awareness.
    r24.se |= thin_mask(evo, r11.se, 0.8);
    r24.tools_aware |= thin_mask(evo, r11.tools_aware, 0.9);
    r24.tools_used |= thin_mask(evo, r11.tools_used, 0.7);
    r24.tools_used &= r24.tools_aware;

    // Thirteen more years of experience.
    if (!data::NumericColumn::is_missing(r11.years)) {
      r24.years = std::min(58.0, r11.years + 13.0);
    }

    raws11[i] = std::move(r11);
    raws24[i] = std::move(r24);
  };
  for_each_index(pool, n, person);
  Panel panel;
  panel.wave2011 = table_from_raws(raws11);
  panel.wave2024 = table_from_raws(raws24);
  return panel;
}

data::Table generate_2011(std::size_t n, std::uint64_t seed,
                          rcr::parallel::ThreadPool* pool) {
  return generate_wave({Wave::k2011, n, seed, pool});
}

data::Table generate_2024(std::size_t n, std::uint64_t seed,
                          rcr::parallel::ThreadPool* pool) {
  // Distinct default seed stream so the waves are independent samples.
  return generate_wave({Wave::k2024, n, seed ^ 0xA5A5A5A5ULL, pool});
}

}  // namespace rcr::synth
