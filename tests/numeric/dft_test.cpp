// DFT / IDFT and the unit-circle coefficient recovery (paper eq. (5)).
#include "numeric/dft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "numeric/kahan.h"
#include "numeric/polynomial.h"
#include "support/random.h"
#include "support/thread_pool.h"

namespace symref::numeric {
namespace {

using Complex = std::complex<double>;

TEST(UnitCircle, PointsLieOnCircleAndStartAtOne) {
  const auto points = unit_circle_points(8);
  ASSERT_EQ(points.size(), 8u);
  EXPECT_LT(std::abs(points[0] - Complex(1.0, 0.0)), 1e-15);
  for (const Complex& p : points) {
    EXPECT_NEAR(std::abs(p), 1.0, 1e-15);
  }
  // Conjugate symmetry: s_k == conj(s_{K-k}).
  for (std::size_t k = 1; k < points.size(); ++k) {
    EXPECT_LT(std::abs(points[k] - std::conj(points[8 - k])), 1e-15);
  }
}

TEST(Dft, RoundTripIdentity) {
  support::Rng rng(7);
  for (const std::size_t size : {1u, 2u, 3u, 5u, 8u, 12u, 16u, 17u, 49u}) {
    std::vector<Complex> data(size);
    for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const auto back = idft(dft(data));
    ASSERT_EQ(back.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_LT(std::abs(back[i] - data[i]), 1e-12) << "size " << size << " idx " << i;
    }
  }
}

TEST(Dft, FftAgreesWithDirectTransform) {
  // 16 is a power of two (FFT path); compare against a 17-point direct
  // transform restricted... instead: compute the 16-point transform with the
  // direct formula by hand.
  support::Rng rng(8);
  std::vector<Complex> data(16);
  for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto fast = dft(data);
  for (std::size_t k = 0; k < data.size(); ++k) {
    KahanSum<Complex> sum;
    for (std::size_t j = 0; j < data.size(); ++j) {
      const double angle = -2.0 * M_PI * static_cast<double>(j * k) / 16.0;
      sum.add(data[j] * Complex(std::cos(angle), std::sin(angle)));
    }
    EXPECT_LT(std::abs(fast[k] - sum.value()), 1e-11) << k;
  }
}

TEST(Dft, RecoversPolynomialCoefficients) {
  // The core interpolation identity: sample P on the unit circle, recover
  // its coefficients (paper eq. (5)).
  support::Rng rng(9);
  for (const int degree : {0, 1, 3, 7, 9, 14}) {
    std::vector<double> coeffs(static_cast<std::size_t>(degree) + 1);
    for (auto& c : coeffs) c = rng.uniform(-2.0, 2.0);
    const Polynomial<double> p{std::vector<double>(coeffs)};
    const std::size_t K = static_cast<std::size_t>(degree) + 1;
    const auto points = unit_circle_points(K);
    std::vector<Complex> samples(K);
    for (std::size_t k = 0; k < K; ++k) samples[k] = p.eval(points[k]);
    const auto recovered = coefficients_from_unit_circle_samples(samples);
    for (std::size_t i = 0; i < K; ++i) {
      EXPECT_NEAR(recovered[i].real(), p.coeff(i), 1e-12) << "deg " << degree << " i " << i;
      EXPECT_NEAR(recovered[i].imag(), 0.0, 1e-12);
    }
  }
}

TEST(Dft, OverestimatedOrderGivesZeroHighCoefficients) {
  // K larger than degree+1: coefficients above the degree must vanish
  // (paper eq. (6)) — up to round-off, which is the paper's whole point.
  const Polynomial<double> p({1.0, 2.0, 3.0});
  const std::size_t K = 10;
  const auto points = unit_circle_points(K);
  std::vector<Complex> samples(K);
  for (std::size_t k = 0; k < K; ++k) samples[k] = p.eval(points[k]);
  const auto recovered = coefficients_from_unit_circle_samples(samples);
  for (std::size_t i = 3; i < K; ++i) {
    EXPECT_LT(std::abs(recovered[i]), 1e-13) << i;
  }
}

TEST(DftScaled, MatchesDoublePathInRange) {
  support::Rng rng(10);
  const std::size_t K = 9;
  std::vector<Complex> plain(K);
  std::vector<ScaledComplex> scaled(K);
  for (std::size_t i = 0; i < K; ++i) {
    plain[i] = {rng.uniform(-3, 3), rng.uniform(-3, 3)};
    scaled[i] = ScaledComplex(plain[i]);
  }
  const auto expected = coefficients_from_unit_circle_samples(plain);
  const auto actual = coefficients_from_unit_circle_samples(scaled);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < K; ++i) {
    EXPECT_LT(std::abs(actual[i].to_complex() - expected[i]), 1e-13) << i;
  }
}

TEST(DftScaled, HandlesSamplesBeyondDoubleRange) {
  // P(s) = a0 + a1 s with coefficients near 1e400: samples overflow IEEE
  // double, but the common-exponent path recovers them exactly.
  const ScaledDouble a0 = ScaledDouble(1.5) * ScaledDouble::exp10i(400);
  const ScaledDouble a1 = ScaledDouble(-2.5) * ScaledDouble::exp10i(399);
  const std::size_t K = 4;
  const auto points = unit_circle_points(K);
  std::vector<ScaledComplex> samples(K);
  for (std::size_t k = 0; k < K; ++k) {
    samples[k] = ScaledComplex(a0) + ScaledComplex(a1) * ScaledComplex(points[k]);
  }
  const auto recovered = coefficients_from_unit_circle_samples(samples);
  EXPECT_NEAR((recovered[0].real() / a0).to_double(), 1.0, 1e-12);
  EXPECT_NEAR((recovered[1].real() / a1).to_double(), 1.0, 1e-12);
  EXPECT_LT(recovered[2].abs().log10_abs(), 400.0 - 13.0);
  EXPECT_LT(recovered[3].abs().log10_abs(), 400.0 - 13.0);
}

TEST(DftScaled, WidelySpreadSamplesKeepOnlyDominantPrecision) {
  // A sample 400 decades below the peak cannot influence the transform —
  // documents the round-off model of §2.2.
  std::vector<ScaledComplex> samples(4, ScaledComplex(ScaledDouble::exp10i(100)));
  samples[2] = ScaledComplex(ScaledDouble::exp10i(-300));
  const auto recovered = coefficients_from_unit_circle_samples(samples);
  // Coefficient 0 is the mean of samples: 3/4 * 1e100 + tiny.
  EXPECT_NEAR(recovered[0].real().log10_abs(), 100.0 + std::log10(0.75), 1e-9);
}

TEST(DftScaled, AllZeroSamples) {
  const std::vector<ScaledComplex> samples(5);
  const auto recovered = coefficients_from_unit_circle_samples(samples);
  ASSERT_EQ(recovered.size(), 5u);
  for (const auto& c : recovered) EXPECT_TRUE(c.is_zero());
}

TEST(Dft, DegenerateSizes) {
  EXPECT_TRUE(dft({}).empty());
  EXPECT_TRUE(idft({}).empty());
  const std::vector<Complex> one{{3.0, -1.0}};
  EXPECT_LT(std::abs(dft(one)[0] - one[0]), 1e-15);
  EXPECT_LT(std::abs(idft(one)[0] - one[0]), 1e-15);
  EXPECT_EQ(unit_circle_points(1).size(), 1u);
}

TEST(Dft, ParsevalEnergyConserved) {
  support::Rng rng(77);
  std::vector<Complex> x(12);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto X = dft(x);
  double ex = 0.0;
  double eX = 0.0;
  for (const auto& v : x) ex += std::norm(v);
  for (const auto& v : X) eX += std::norm(v);
  EXPECT_NEAR(eX, ex * 12.0, 1e-10);  // Parseval with unnormalized forward
}

// --- Differential oracle: the direct transform as it was before its twiddle
// table and pool lanes, one cos and one sin per (j, k) term. The table walk
// and the pooled rows must reproduce it bit for bit.

constexpr double kOracleTwoPi = 6.283185307179586476925286766559;

std::complex<double> oracle_twiddle(std::uint64_t num, std::uint64_t den, int sign) {
  const double angle = kOracleTwoPi * static_cast<double>(num % den) / static_cast<double>(den);
  return {std::cos(angle), sign * std::sin(angle)};
}

std::vector<Complex> oracle_direct_transform(const std::vector<Complex>& input, int sign) {
  const std::size_t n = input.size();
  std::vector<std::complex<double>> output(n);
  for (std::size_t k = 0; k < n; ++k) {
    KahanSum<std::complex<double>> sum;
    for (std::size_t j = 0; j < n; ++j) {
      sum.add(input[j] * oracle_twiddle(static_cast<std::uint64_t>(j) * k, n, sign));
    }
    output[k] = sum.value();
  }
  return output;
}

std::vector<Complex> scaled_by_inverse_size(std::vector<Complex> values) {
  const double scale = 1.0 / static_cast<double>(values.size());
  for (auto& value : values) value *= scale;
  return values;
}

/// The ScaledComplex recovery on top of the oracle transform: same common-
/// exponent alignment, oracle transform, 1/K and re-attached exponent.
std::vector<ScaledComplex> oracle_scaled_coefficients(const std::vector<ScaledComplex>& samples) {
  std::int64_t max_exp = 0;
  bool any_nonzero = false;
  for (const auto& sample : samples) {
    if (sample.is_zero()) continue;
    max_exp = any_nonzero ? std::max(max_exp, sample.exponent2()) : sample.exponent2();
    any_nonzero = true;
  }
  if (!any_nonzero) return std::vector<ScaledComplex>(samples.size());
  std::vector<Complex> aligned(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].is_zero()) continue;
    const std::int64_t gap = max_exp - samples[i].exponent2();
    aligned[i] = gap > 1100 ? Complex()
                            : samples[i].mantissa() * std::ldexp(1.0, static_cast<int>(-gap));
  }
  const auto coeffs = scaled_by_inverse_size(oracle_direct_transform(aligned, -1));
  std::vector<ScaledComplex> output(coeffs.size());
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    output[i] = ScaledComplex::from_mantissa_exp(coeffs[i], max_exp);
  }
  return output;
}

/// A value spread over +-300 decades; about one part in eight is an exact
/// zero, so zero terms and zero outputs are covered too.
double wide_value(support::Rng& rng) {
  if (rng.uniform_index(8) == 0) return 0.0;
  return rng.uniform(-1.0, 1.0) *
         std::pow(10.0, static_cast<double>(rng.uniform_index(601)) - 300.0);
}

std::vector<Complex> wide_samples(support::Rng& rng, std::size_t size) {
  std::vector<Complex> values(size);
  for (auto& v : values) v = {wide_value(rng), wide_value(rng)};
  return values;
}

bool same_bits(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

bool same_bits(const std::vector<ScaledComplex>& a, const std::vector<ScaledComplex>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Complex ma = a[i].mantissa();
    const Complex mb = b[i].mantissa();
    if (std::memcmp(&ma, &mb, sizeof(Complex)) != 0) return false;
    if (a[i].exponent2() != b[i].exponent2()) return false;
  }
  return true;
}

/// Every non-power-of-two size up to 600, plus three past the engine's
/// ladder-512 size (two primes and a composite).
std::vector<std::size_t> direct_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t k = 1; k <= 600; ++k) {
    if ((k & (k - 1)) != 0) sizes.push_back(k);
  }
  for (const std::size_t k : {1021u, 1031u, 1100u}) sizes.push_back(k);
  return sizes;
}

/// The oracle is slow (one cos and one sin per term), so the expected
/// outputs of all sizes are computed up front, sizes spread over a pool.
template <typename Case>
void fill_expected(std::vector<Case>& cases) {
  support::ThreadPool pool(4);
  pool.parallel_for(cases.size(), [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t i = begin; i < end; ++i) cases[i].fill_expected();
  });
}

struct DirectCase {
  std::vector<Complex> x;
  std::vector<Complex> forward;  // unnormalized, sign -1
  std::vector<Complex> inverse;  // 1/K-normalized, sign +1
  void fill_expected() {
    forward = oracle_direct_transform(x, -1);
    inverse = scaled_by_inverse_size(oracle_direct_transform(x, +1));
  }
};

struct ScaledCase {
  std::vector<ScaledComplex> samples;
  std::vector<ScaledComplex> coefficients;
  void fill_expected() { coefficients = oracle_scaled_coefficients(samples); }
};

class DftDifferential : public ::testing::Test {
 protected:
  support::ThreadPool one_{1};
  support::ThreadPool two_{2};
  support::ThreadPool four_{4};
  const std::vector<support::ThreadPool*> pools_{nullptr, &one_, &two_, &four_};
};

TEST_F(DftDifferential, DirectTransformBitIdenticalToPerTermTwiddles) {
  support::Rng rng(0x5eed15);
  std::vector<DirectCase> cases;
  for (const std::size_t size : direct_sizes()) cases.push_back({wide_samples(rng, size), {}, {}});
  fill_expected(cases);
  for (const DirectCase& c : cases) {
    const std::size_t size = c.x.size();
    EXPECT_TRUE(same_bits(dft(c.x), c.forward)) << "dft, K = " << size;
    EXPECT_TRUE(same_bits(idft(c.x), c.inverse)) << "idft, K = " << size;
    const std::vector<Complex> expected = scaled_by_inverse_size(c.forward);
    for (support::ThreadPool* pool : pools_) {
      EXPECT_TRUE(same_bits(coefficients_from_unit_circle_samples(c.x, pool), expected))
          << "coefficients, K = " << size << ", lanes " << (pool ? pool->size() : 0);
    }
  }
}

TEST_F(DftDifferential, ScaledRecoveryBitIdenticalToPerTermTwiddles) {
  support::Rng rng(0x5eed16);
  std::vector<ScaledCase> cases;
  for (const std::size_t size : direct_sizes()) {
    ScaledCase c;
    for (const Complex& v : wide_samples(rng, size)) c.samples.emplace_back(v);
    cases.push_back(std::move(c));
  }
  fill_expected(cases);
  for (const ScaledCase& c : cases) {
    for (support::ThreadPool* pool : pools_) {
      EXPECT_TRUE(same_bits(coefficients_from_unit_circle_samples(c.samples, pool),
                            c.coefficients))
          << "scaled coefficients, K = " << c.samples.size() << ", lanes "
          << (pool ? pool->size() : 0);
    }
  }
}

TEST(Kahan, CompensatedSummationBeatsNaive) {
  // Summing 1 + 1e-16 * 10^7 terms: naive double accumulates to 1.0 + eps
  // garbage; Kahan keeps the exact value 1 + 1e-9 to full precision.
  KahanSum<double> kahan;
  double naive = 0.0;
  kahan.add(1.0);
  naive += 1.0;
  for (int i = 0; i < 10000000; ++i) {
    kahan.add(1e-16);
    naive += 1e-16;
  }
  const double expected = 1.0 + 1e-9;
  EXPECT_NEAR(kahan.value(), expected, 1e-18);
  EXPECT_GT(std::fabs(naive - expected), 1e-12);  // naive visibly wrong
}

}  // namespace
}  // namespace symref::numeric
