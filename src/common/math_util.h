// Math helpers used by the group-testing bounds and the theory module.

#ifndef AID_COMMON_MATH_UTIL_H_
#define AID_COMMON_MATH_UTIL_H_

#include <cassert>
#include <cmath>
#include <cstdint>

namespace aid {

/// ceil(a / b) for positive integers.
inline int64_t CeilDiv(int64_t a, int64_t b) {
  assert(b > 0);
  return (a + b - 1) / b;
}

/// ceil(log2(n)) for n >= 1; the number of halving steps to isolate one item
/// among n.
inline int CeilLog2(uint64_t n) {
  assert(n >= 1);
  int bits = 0;
  uint64_t v = n - 1;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// log2 of n as a double (n > 0).
inline double Log2(double n) {
  assert(n > 0);
  return std::log2(n);
}

/// One EWMA step over the zero-means-unmeasured convention of the
/// scheduler's replica cost trackers (exec/scheduler.h): the first sample
/// seeds the average, later samples blend by `alpha`, and the result
/// clamps to >= 1 so genuinely measured sub-unit samples can never be
/// mistaken for the unmeasured sentinel.
inline double FoldEwma(double previous, double sample, double alpha) {
  const double next =
      previous == 0 ? sample : alpha * sample + (1.0 - alpha) * previous;
  return next < 1.0 ? 1.0 : next;
}

/// log2 of the binomial coefficient C(n, k), computed in log-space via
/// lgamma so it never overflows. Returns 0 for k == 0 or k == n.
inline double Log2Binomial(int64_t n, int64_t k) {
  assert(n >= 0 && k >= 0 && k <= n);
  if (k == 0 || k == n) return 0.0;
  const double ln = std::lgamma(static_cast<double>(n) + 1.0) -
                    std::lgamma(static_cast<double>(k) + 1.0) -
                    std::lgamma(static_cast<double>(n - k) + 1.0);
  return ln / std::log(2.0);
}

/// The group-testing crossover rule (paper Section 2): adaptive group testing
/// is only worthwhile when the number of defectives D < N / log2(N); above
/// that a linear scan is preferable.
inline bool GroupTestingWorthwhile(int64_t num_items, int64_t num_defective) {
  assert(num_items >= 1);
  if (num_items <= 2) return false;
  return static_cast<double>(num_defective) <
         static_cast<double>(num_items) / Log2(static_cast<double>(num_items));
}

}  // namespace aid

#endif  // AID_COMMON_MATH_UTIL_H_
