// Runtime ISA selection for the rcr::simd kernels.
//
// Every kernel body is instantiated once per lane width in translation
// units compiled with the matching -m flags (see src/simd/CMakeLists.txt);
// kernels.cpp routes each public entry point through the Isa returned by
// active_isa(). Selection is a cached switch rather than target_clones /
// ifunc resolvers because the determinism suite must be able to force the
// scalar path at runtime (ifunc binds once at load, before main, and
// misbehaves under TSan).
//
// Resolution order:
//   1. force_isa() override (tests; cleared with clear_isa_override());
//   2. CPU detection: the widest compiled-in width the CPU supports.
// Building with -DRCR_SIMD_WIDTH=1 compiles only the scalar kernels, so
// every route collapses to kScalar.
#pragma once

#include <cstddef>
#include <string>

namespace rcr::simd {

enum class Isa : int {
  kScalar = 0,  // V<1> — the reference every other width must match
  kSse2 = 1,    // V<2>
  kAvx2 = 2,    // V<4>
  kAvx512 = 3,  // V<8> (F + DQ)
};

// "scalar", "sse2", "avx2", "avx512".
const char* isa_name(Isa isa);

// 1, 2, 4, 8.
std::size_t isa_lanes(Isa isa);

// True when the width was compiled in AND the running CPU supports it.
bool isa_available(Isa isa);

// The ISA the kernels will dispatch to, resolved once and cached.
Isa active_isa();

// Test hook: pin dispatch to `isa` (must be available). Takes effect on
// the next active_isa() call; not thread-safe against in-flight kernels,
// so only flip it from test/bench setup code.
void force_isa(Isa isa);
void clear_isa_override();

// One-line summary for bench stderr echoes: "avx512 lanes=8".
std::string describe();

}  // namespace rcr::simd
