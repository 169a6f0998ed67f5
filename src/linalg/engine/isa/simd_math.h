/**
 * @file
 * Vectorized transcendentals for the per-ISA kernel TUs. Each
 * function is guarded by the target macro its instructions need, so
 * this header is safe to include from any TU — only the TUs built
 * with `-mavx2 -mfma` / `-mavx512f` instantiate the wide versions.
 *
 * expApprox*_ps: Cephes-style expf — range-reduce x = n*ln2 + r,
 * evaluate a degree-5 polynomial in r, scale by 2^n through the
 * exponent bits. Max error ~2 ulp against libm expf over the clamped
 * domain, far inside the engine's differential ulp budget; inputs
 * outside [-87.34, 88.38] clamp (the fused softmax only ever feeds
 * x - max(x) <= 0, so the upper clamp is never hit in practice).
 *
 * geluApprox*_ps: the tanh-form GELU of linalg::gelu rewritten
 * without tanh, 0.5x(1 + tanh(u)) = x / (1 + exp(-2u)) with
 * u = sqrt(2/pi)(x + 0.044715x^3), on expApprox. Against the
 * double-precision oracle on 2^16 points per unit over [-12, 12]:
 * at most 21 ulp wherever |gelu(x)| > 1e-6 (the exp argument's
 * rounding, scaled by |2u|, dominates; the worst case sits near
 * x = -4.7) and at most 4.8e-7 absolute error everywhere. Below
 * x ~ -6.4 the oracle's double tanh saturates to exactly -1 and it
 * returns -0, where these return the (more accurate) tiny value.
 * x < -10 returns -0 (the true value is below 1e-37 and the exp
 * argument would clamp); +inf stays +inf, -inf gives -0 and NaN
 * propagates.
 */

#ifndef VITCOD_LINALG_ENGINE_ISA_SIMD_MATH_H
#define VITCOD_LINALG_ENGINE_ISA_SIMD_MATH_H

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace vitcod::linalg::engine::isa {

// Cephes expf constants, shared by every width.
#define VITCOD_EXP_HI 88.3762626647949f
#define VITCOD_EXP_LO -87.3365478515625f
#define VITCOD_LOG2E 1.44269504088896341f
#define VITCOD_EXP_C1 0.693359375f
#define VITCOD_EXP_C2 -2.12194440e-4f
#define VITCOD_EXP_P0 1.9875691500e-4f
#define VITCOD_EXP_P1 1.3981999507e-3f
#define VITCOD_EXP_P2 8.3334519073e-3f
#define VITCOD_EXP_P3 4.1665795894e-2f
#define VITCOD_EXP_P4 1.6666665459e-1f
#define VITCOD_EXP_P5 5.0000001201e-1f

// GELU: -2u = x * (A + B x^2), A = -2 sqrt(2/pi), B = 0.044715 A.
#define VITCOD_GELU_A -1.5957691216057308f
#define VITCOD_GELU_B -0.07135481627260025f
#define VITCOD_GELU_CUT -10.0f

#if defined(__AVX2__) && defined(__FMA__)

/** 8-lane expf approximation (AVX2 + FMA). */
inline __m256
expApprox256_ps(__m256 x)
{
    x = _mm256_min_ps(x, _mm256_set1_ps(VITCOD_EXP_HI));
    x = _mm256_max_ps(x, _mm256_set1_ps(VITCOD_EXP_LO));

    // n = round-to-nearest(x / ln2); r = x - n*ln2 in two steps for
    // extra bits of ln2.
    __m256 n = _mm256_round_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(VITCOD_LOG2E)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256 r =
        _mm256_fnmadd_ps(n, _mm256_set1_ps(VITCOD_EXP_C1), x);
    r = _mm256_fnmadd_ps(n, _mm256_set1_ps(VITCOD_EXP_C2), r);

    __m256 p = _mm256_set1_ps(VITCOD_EXP_P0);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P1));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P2));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P4));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(VITCOD_EXP_P5));
    const __m256 r2 = _mm256_mul_ps(r, r);
    p = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r),
                      _mm256_set1_ps(1.0f));

    // 2^n via exponent-bit construction (n in [-127, 128] after the
    // domain clamp).
    const __m256i bits = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvtps_epi32(n),
                         _mm256_set1_epi32(0x7f)),
        23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

/** 8-lane GELU (tanh form) on expApprox256_ps. */
inline __m256
geluApprox256_ps(__m256 x)
{
    const __m256 x2 = _mm256_mul_ps(x, x);
    const __m256 z = _mm256_mul_ps(
        x, _mm256_fmadd_ps(x2, _mm256_set1_ps(VITCOD_GELU_B),
                           _mm256_set1_ps(VITCOD_GELU_A)));
    const __m256 g = _mm256_div_ps(
        x, _mm256_add_ps(_mm256_set1_ps(1.0f), expApprox256_ps(z)));
    return _mm256_blendv_ps(
        g, _mm256_set1_ps(-0.0f),
        _mm256_cmp_ps(x, _mm256_set1_ps(VITCOD_GELU_CUT), _CMP_LT_OQ));
}

#endif // __AVX2__ && __FMA__

#if defined(__AVX512F__)

/** 16-lane expf approximation (AVX-512F). */
inline __m512
expApprox512_ps(__m512 x)
{
    x = _mm512_min_ps(x, _mm512_set1_ps(VITCOD_EXP_HI));
    x = _mm512_max_ps(x, _mm512_set1_ps(VITCOD_EXP_LO));

    __m512 n = _mm512_roundscale_ps(
        _mm512_mul_ps(x, _mm512_set1_ps(VITCOD_LOG2E)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m512 r =
        _mm512_fnmadd_ps(n, _mm512_set1_ps(VITCOD_EXP_C1), x);
    r = _mm512_fnmadd_ps(n, _mm512_set1_ps(VITCOD_EXP_C2), r);

    __m512 p = _mm512_set1_ps(VITCOD_EXP_P0);
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P1));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P2));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P3));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P4));
    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(VITCOD_EXP_P5));
    const __m512 r2 = _mm512_mul_ps(r, r);
    p = _mm512_add_ps(_mm512_fmadd_ps(p, r2, r),
                      _mm512_set1_ps(1.0f));

    const __m512i bits = _mm512_slli_epi32(
        _mm512_add_epi32(_mm512_cvtps_epi32(n),
                         _mm512_set1_epi32(0x7f)),
        23);
    return _mm512_mul_ps(p, _mm512_castsi512_ps(bits));
}

/** 16-lane GELU (tanh form) on expApprox512_ps. */
inline __m512
geluApprox512_ps(__m512 x)
{
    const __m512 x2 = _mm512_mul_ps(x, x);
    const __m512 z = _mm512_mul_ps(
        x, _mm512_fmadd_ps(x2, _mm512_set1_ps(VITCOD_GELU_B),
                           _mm512_set1_ps(VITCOD_GELU_A)));
    const __m512 g = _mm512_div_ps(
        x, _mm512_add_ps(_mm512_set1_ps(1.0f), expApprox512_ps(z)));
    return _mm512_mask_mov_ps(
        g,
        _mm512_cmp_ps_mask(x, _mm512_set1_ps(VITCOD_GELU_CUT),
                           _CMP_LT_OQ),
        _mm512_set1_ps(-0.0f));
}

#endif // __AVX512F__

} // namespace vitcod::linalg::engine::isa

#endif // VITCOD_LINALG_ENGINE_ISA_SIMD_MATH_H
