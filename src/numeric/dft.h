// Discrete Fourier transforms used by the polynomial interpolation engine.
//
// The paper recovers polynomial coefficients from samples at K equally
// spaced points on the unit circle via the inverse DFT (its eq. (5)):
//
//   p_i = (1/K) * sum_k P(s_k) * exp(-2*pi*j*i*k/K),  s_k = exp(+2*pi*j*k/K)
//
// Two implementations are provided: a radix-2 iterative FFT for power-of-two
// sizes and a direct O(K^2) transform with compensated sums otherwise. K is
// the order bound plus one, so a 512-stage ladder takes the direct path at
// K = 513 on every scaling iteration, at a cost comparable to all of that
// iteration's sample evaluations. The direct path therefore computes its K
// exact-angle twiddles once per call (each term's angle is reduced from
// j*k mod K, so a table lookup gives the same bits) and can hand its output
// indices to a ThreadPool. Each output sums its terms in one fixed order on
// whichever lane runs it, so the result is bit-identical with or without a
// pool. A ScaledComplex front-end removes the overflow limit of the textbook
// method: samples are shifted to a common binary exponent first.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "numeric/scaled.h"

namespace symref::support {
class ThreadPool;
}

namespace symref::numeric {

/// K equally spaced points on the unit circle: s_k = exp(+2*pi*j*k/K).
std::vector<std::complex<double>> unit_circle_points(std::size_t count);

/// Forward transform: X_k = sum_j x_j exp(-2*pi*j*i*j*k/K). No 1/K factor.
std::vector<std::complex<double>> dft(const std::vector<std::complex<double>>& input);

/// Inverse transform: x_j = (1/K) sum_k X_k exp(+2*pi*j*i*j*k/K).
std::vector<std::complex<double>> idft(const std::vector<std::complex<double>>& input);

/// Paper eq. (5): polynomial coefficients from unit-circle samples
/// P(s_k), s_k = exp(+2*pi*j*k/K). coefficient[i] corresponds to s^i.
/// With a pool, a direct (non-power-of-two) transform runs its output
/// indices on the pool's lanes; the result is bit-identical either way.
std::vector<std::complex<double>> coefficients_from_unit_circle_samples(
    const std::vector<std::complex<double>>& samples, support::ThreadPool* pool = nullptr);

/// Same recovery for extended-range samples. All samples are aligned to one
/// shared binary exponent, transformed in double, and the exponent is
/// re-attached, so sample magnitudes like 1e+5000 are handled exactly as
/// well as magnitudes near 1. `pool` as for the double overload.
std::vector<ScaledComplex> coefficients_from_unit_circle_samples(
    const std::vector<ScaledComplex>& samples, support::ThreadPool* pool = nullptr);

}  // namespace symref::numeric
