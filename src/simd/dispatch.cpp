#include "simd/dispatch.hpp"

#include <atomic>

#include "util/error.hpp"

namespace rcr::simd {

namespace {

// -1 == unresolved; otherwise a cached static_cast<int>(Isa).
std::atomic<int> g_active{-1};
std::atomic<int> g_override{-1};

bool compiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
#if defined(RCR_SIMD_BUILD_SSE2)
      return true;
#else
      return false;
#endif
    case Isa::kAvx2:
#if defined(RCR_SIMD_BUILD_AVX2)
      return true;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(RCR_SIMD_BUILD_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool cpu_supports(Isa isa) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
      return true;  // baseline on x86-64
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

// The widest available ISA.
Isa resolve() {
  for (const Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kSse2}) {
    if (isa_available(isa)) return isa;
  }
  return Isa::kScalar;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

std::size_t isa_lanes(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return 1;
    case Isa::kSse2: return 2;
    case Isa::kAvx2: return 4;
    case Isa::kAvx512: return 8;
  }
  return 1;
}

bool isa_available(Isa isa) { return compiled(isa) && cpu_supports(isa); }

Isa active_isa() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  int cached = g_active.load(std::memory_order_relaxed);
  if (cached < 0) {
    cached = static_cast<int>(resolve());
    g_active.store(cached, std::memory_order_relaxed);
  }
  return static_cast<Isa>(cached);
}

void force_isa(Isa isa) {
  RCR_CHECK_MSG(isa_available(isa),
                std::string("cannot force unavailable ISA ") + isa_name(isa));
  g_override.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_isa_override() {
  g_override.store(-1, std::memory_order_relaxed);
}

std::string describe() {
  const Isa isa = active_isa();
  return std::string(isa_name(isa)) + " lanes=" +
         std::to_string(isa_lanes(isa));
}

}  // namespace rcr::simd
