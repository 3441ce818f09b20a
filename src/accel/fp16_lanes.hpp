// Sixteen fp16 lanes at a time: the vector form of round_to_fp16 that the
// VPU's wave kernel (vpu.cpp) rounds every multiply and adder-tree stage
// through. Written with GCC/Clang vector extensions, which the build
// requires (see the root CMakeLists).
#pragma once

#include <cstdint>

#include "common/fp16.hpp"

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace efld::accel {

// Sixteen floats (or their bits) in one vector: a 512-bit register where the
// target has one; the compiler splits it into narrower registers elsewhere.
typedef float F32x16 __attribute__((vector_size(16 * sizeof(float))));
typedef std::uint32_t U32x16 __attribute__((vector_size(16 * sizeof(std::uint32_t))));

// round_to_fp16 on each element of v, in place: bit-identical to the scalar
// function lane by lane, NaN included. With F16C the hardware converter
// rounds (vcvtps2ph with an immediate round-to-nearest-even mode, then the
// exact vcvtph2ps back), and a NaN lane is rewritten to the scalar's
// canonical quiet NaN, sign kept (the converter keeps the top payload bits).
// AVX-512 targets convert all 16 lanes in one instruction each way: on a
// Sapphire Rapids Xeon the kv260-twin workload serves ≈ 1.6× the tokens/s
// it does with the two-halves body below, whose extra lane shuffles,
// conversions and blends crowd the one port they share. Without F16C every
// lane runs the scalar bit formula. Takes a reference so no vector crosses
// a call boundary by value (a by-value 512-bit argument changes the psABI
// on targets without AVX-512).
inline void round_to_fp16_lanes(F32x16& v) noexcept {
#if defined(__F16C__) && defined(__AVX512F__)
    const U32x16 bits = reinterpret_cast<U32x16>(
        _mm512_cvtph_ps(_mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)));
    v = reinterpret_cast<F32x16>(v == v ? bits : bits & 0xFFC0'0000u);
#elif defined(__F16C__)
    // The NaN test runs per 8-lane half: AVX2 has no 16-lane compare, and
    // the compiler would test a 16-lane vector one lane at a time.
    const __m256 nan_bits = _mm256_castsi256_ps(_mm256_set1_epi32(0xFFC0'0000));
    __m256 half[2] = {__builtin_shufflevector(v, v, 0, 1, 2, 3, 4, 5, 6, 7),
                      __builtin_shufflevector(v, v, 8, 9, 10, 11, 12, 13, 14, 15)};
    for (__m256& h : half) {
        const __m256 r = _mm256_cvtph_ps(_mm256_cvtps_ph(h, _MM_FROUND_TO_NEAREST_INT));
        h = _mm256_blendv_ps(_mm256_and_ps(r, nan_bits), r, _mm256_cmp_ps(h, h, _CMP_ORD_Q));
    }
    v = __builtin_shufflevector(half[0], half[1], 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                14, 15);
#else
    for (int i = 0; i < 16; ++i) v[i] = round_to_fp16(v[i]);
#endif
}

}  // namespace efld::accel
