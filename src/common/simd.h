#ifndef FREQ_COMMON_SIMD_H
#define FREQ_COMMON_SIMD_H

/// \file simd.h
/// Names the widest vector ISA the compiler targets, for build provenance in
/// bench output. The library has no intrinsic code paths: the counter table
/// is one scalar implementation, and host tuning is a compiler flag
/// (-DCMAKE_CXX_FLAGS=-march=native) that reaches every target.

namespace freq::simd {

constexpr const char* isa_name() noexcept {
#if defined(__AVX2__)
    return "avx2";
#elif defined(__SSE2__) || defined(_M_X64)
    return "sse2";
#elif defined(__aarch64__) && defined(__ARM_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

}  // namespace freq::simd

#endif  // FREQ_COMMON_SIMD_H
