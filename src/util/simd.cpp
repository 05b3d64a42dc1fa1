// Runtime-dispatched scoring kernels; the contract is in util/simd.h.
//
// Upper-state rule: every target("avx2") kernel clears the upper state
// (_mm256_zeroupper) before any call or return into non-VEX code. Baseline
// x86-64 code is compiled for SSE, and while the upper halves of the YMM
// registers are dirty every SSE instruction in the process pays a
// transition penalty. GCC emits vzeroupper on a plain return from an AVX
// function, but not before a tail call, which it compiles to a bare jmp.
// tests/util/simd_test.cpp reads XGETBV(1) after each kernel call to catch
// a kernel that leaves the state dirty. NEON has no upper state.
#include "util/simd.h"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(_M_X64)
#define SFL_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define SFL_SIMD_AARCH64 1
#include <arm_neon.h>
#endif

namespace sfl::util::simd {

namespace {

/// The portable kernel AND the tail of every vector kernel. Out-of-line
/// (never inlined into a target("avx2") caller) so the remainder elements
/// are evaluated by exactly the code the pure-scalar path runs: the same
/// non-contracted mul/mul/sub/sub tree as auction::score.
[[gnu::noinline]] void score_scalar(const double* values, const double* bids,
                                    const double* penalties, double* out,
                                    std::size_t n, double vw, double bw) {
  if (penalties == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = vw * values[i] - bw * bids[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = vw * values[i] - bw * bids[i] - penalties[i];
    }
  }
}

#if defined(SFL_SIMD_X86)
/// 4-wide AVX2 lanes with explicit (never-contracted) mul/sub intrinsics;
/// the <4 remainder runs through the out-of-line scalar kernel, after the
/// upper state is cleared (see the rule at the top of this file).
__attribute__((target("avx2"))) void score_avx2(const double* values,
                                                const double* bids,
                                                const double* penalties,
                                                double* out, std::size_t n,
                                                double vw, double bw) {
  const __m256d wv = _mm256_set1_pd(vw);
  const __m256d wb = _mm256_set1_pd(bw);
  std::size_t i = 0;
  if (penalties == nullptr) {
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(values + i);
      const __m256d b = _mm256_loadu_pd(bids + i);
      _mm256_storeu_pd(
          out + i, _mm256_sub_pd(_mm256_mul_pd(wv, v), _mm256_mul_pd(wb, b)));
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(values + i);
      const __m256d b = _mm256_loadu_pd(bids + i);
      const __m256d p = _mm256_loadu_pd(penalties + i);
      _mm256_storeu_pd(
          out + i,
          _mm256_sub_pd(
              _mm256_sub_pd(_mm256_mul_pd(wv, v), _mm256_mul_pd(wb, b)), p));
    }
  }
  _mm256_zeroupper();
  score_scalar(values + i, bids + i,
               penalties == nullptr ? nullptr : penalties + i, out + i, n - i,
               vw, bw);
}
#endif

#if defined(SFL_SIMD_AARCH64)
/// 2-wide NEON lanes (baseline on aarch64) with explicit vmulq/vsubq — no
/// vfma, matching the non-contracted scalar tree.
void score_neon(const double* values, const double* bids,
                const double* penalties, double* out, std::size_t n, double vw,
                double bw) {
  const float64x2_t wv = vdupq_n_f64(vw);
  const float64x2_t wb = vdupq_n_f64(bw);
  std::size_t i = 0;
  if (penalties == nullptr) {
    for (; i + 2 <= n; i += 2) {
      const float64x2_t v = vld1q_f64(values + i);
      const float64x2_t b = vld1q_f64(bids + i);
      vst1q_f64(out + i, vsubq_f64(vmulq_f64(wv, v), vmulq_f64(wb, b)));
    }
  } else {
    for (; i + 2 <= n; i += 2) {
      const float64x2_t v = vld1q_f64(values + i);
      const float64x2_t b = vld1q_f64(bids + i);
      const float64x2_t p = vld1q_f64(penalties + i);
      vst1q_f64(out + i,
                vsubq_f64(vsubq_f64(vmulq_f64(wv, v), vmulq_f64(wb, b)), p));
    }
  }
  score_scalar(values + i, bids + i,
               penalties == nullptr ? nullptr : penalties + i, out + i, n - i,
               vw, bw);
}
#endif

ScoreKernel detect_kernel() noexcept {
  // SFL_SIMD pins a kernel for A/B runs and the dispatch-forcing tests; an
  // unavailable or unknown value falls through to auto-detection rather
  // than failing a whole run over a typo.
  if (const char* env = std::getenv("SFL_SIMD"); env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return ScoreKernel::kScalar;
    if (std::strcmp(env, "avx2") == 0 && kernel_available(ScoreKernel::kAvx2)) {
      return ScoreKernel::kAvx2;
    }
    if (std::strcmp(env, "neon") == 0 && kernel_available(ScoreKernel::kNeon)) {
      return ScoreKernel::kNeon;
    }
  }
  if (kernel_available(ScoreKernel::kAvx2)) return ScoreKernel::kAvx2;
  if (kernel_available(ScoreKernel::kNeon)) return ScoreKernel::kNeon;
  return ScoreKernel::kScalar;
}

}  // namespace

const char* kernel_name(ScoreKernel kernel) noexcept {
  switch (kernel) {
    case ScoreKernel::kScalar:
      return "scalar";
    case ScoreKernel::kAvx2:
      return "avx2";
    case ScoreKernel::kNeon:
      return "neon";
  }
  return "unknown";
}

bool kernel_available(ScoreKernel kernel) noexcept {
  switch (kernel) {
    case ScoreKernel::kScalar:
      return true;
    case ScoreKernel::kAvx2:
#if defined(SFL_SIMD_X86)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case ScoreKernel::kNeon:
#if defined(SFL_SIMD_AARCH64)
      return true;
#else
      return false;
#endif
  }
  return false;
}

ScoreKernel active_kernel() noexcept {
  static const ScoreKernel kernel = detect_kernel();
  return kernel;
}

void score_span(const double* values, const double* bids,
                const double* penalties, double* out, std::size_t n,
                double value_weight, double bid_weight) {
  score_span_with(active_kernel(), values, bids, penalties, out, n,
                  value_weight, bid_weight);
}

void score_span_with(ScoreKernel kernel, const double* values,
                     const double* bids, const double* penalties, double* out,
                     std::size_t n, double value_weight, double bid_weight) {
  if (!kernel_available(kernel)) {
    throw std::invalid_argument(std::string("simd: kernel unavailable here: ") +
                                kernel_name(kernel));
  }
  switch (kernel) {
    case ScoreKernel::kScalar:
      score_scalar(values, bids, penalties, out, n, value_weight, bid_weight);
      return;
    case ScoreKernel::kAvx2:
#if defined(SFL_SIMD_X86)
      score_avx2(values, bids, penalties, out, n, value_weight, bid_weight);
      return;
#else
      break;
#endif
    case ScoreKernel::kNeon:
#if defined(SFL_SIMD_AARCH64)
      score_neon(values, bids, penalties, out, n, value_weight, bid_weight);
      return;
#else
      break;
#endif
  }
  // kernel_available said yes but no implementation was compiled — cannot
  // happen; keep the scalar answer rather than UB.
  score_scalar(values, bids, penalties, out, n, value_weight, bid_weight);
}

}  // namespace sfl::util::simd
