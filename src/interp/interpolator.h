// Unit-circle polynomial interpolation front-end.
//
// The paper's evaluation loop (eqs. (4)-(10)): sample the network function's
// numerator/denominator at K equally spaced points on the unit circle of the
// *scaled* frequency variable, then recover coefficients with the inverse
// DFT. Two refinements live here:
//
//  * conjugate symmetry — the polynomials have real coefficients, so
//    P(conj(s)) = conj(P(s)) and only floor(K/2)+1 points need an actual
//    matrix factorization (the dominant cost);
//  * sample-space deflation (paper eq. (17)) — once coefficients p_0..p_{k-1}
//    and p_{l+1}..p_n are known, the remaining ones are interpolated from
//    P'(s) = (P(s) - known parts) / s^k with only l-k+1 points.
#pragma once

#include <complex>
#include <utility>
#include <vector>

#include "numeric/scaled.h"

namespace symref::support {
class ThreadPool;
}

namespace symref::interp {

/// Evaluation-point bookkeeping for one K-point interpolation.
class UnitCircleSampler {
 public:
  /// K >= 1 points; with symmetry enabled only floor(K/2)+1 are evaluated.
  explicit UnitCircleSampler(int point_count, bool conjugate_symmetry = true);

  [[nodiscard]] int point_count() const noexcept { return point_count_; }

  /// The points that require an actual evaluation.
  [[nodiscard]] const std::vector<std::complex<double>>& evaluation_points() const noexcept {
    return evaluation_points_;
  }

  /// Expand values at evaluation_points() to all K points, filling the
  /// mirrored half with conjugates when symmetry is on.
  [[nodiscard]] std::vector<numeric::ScaledComplex> expand(
      const std::vector<numeric::ScaledComplex>& unique_values) const;

 private:
  int point_count_;
  bool symmetric_;
  std::vector<std::complex<double>> evaluation_points_;
};

/// Recover normalized coefficients from all-K-point samples (IDFT wrapper).
/// `pool` spreads the transform's output indices over its lanes without
/// changing a bit of the result.
std::vector<numeric::ScaledComplex> coefficients_from_samples(
    const std::vector<numeric::ScaledComplex>& samples, support::ThreadPool* pool = nullptr);

/// |Re p_i| of each coefficient — the region logic works on magnitudes of
/// the real parts (the polynomials are real; imaginary parts are noise).
std::vector<numeric::ScaledDouble> real_magnitudes(
    const std::vector<numeric::ScaledComplex>& coefficients);

/// One known coefficient in the *current* normalized scaling.
struct KnownCoefficient {
  int index = 0;
  numeric::ScaledDouble value;  // normalized p'_index
};

/// Paper eq. (17): subtract the known parts from a sample and shift down by
/// `shift` powers of s (|s_hat| == 1, so the division is exact in
/// magnitude). The result is a sample of the residual polynomial whose
/// coefficient j corresponds to original index j + shift.
numeric::ScaledComplex deflate_sample(const numeric::ScaledComplex& sample,
                                      std::complex<double> s_hat,
                                      const std::vector<KnownCoefficient>& known,
                                      int shift);

}  // namespace symref::interp
