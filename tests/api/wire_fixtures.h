// Seeded inputs shared by the wire-encoder tests: a splitmix64 stream of
// doubles for the differential tests (json_test, serialize_test) and the
// synthetic responses, statuses and job outcomes behind the golden
// wire-bytes fixtures (wire_golden_test). Everything here is deterministic
// and engine-free: the same seed builds the same values on every host.
#pragma once

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/jobs.h"
#include "api/requests.h"
#include "api/status.h"

namespace symref::api::wire_fixtures {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Doubles where a formatter is most likely to slip: signed zeros, the
/// subnormal range, the normal bounds, halfway and integer edges.
inline std::vector<double> special_doubles() {
  const double largest_subnormal = std::nextafter(DBL_MIN, 0.0);
  return {0.0,
          -0.0,
          5e-324,
          -5e-324,
          1e-323,
          largest_subnormal,
          -largest_subnormal,
          DBL_MIN,
          -DBL_MIN,
          DBL_MAX,
          -DBL_MAX,
          1e23,
          -1e23,
          9007199254740993.0,  // 2^53 + 1, rounds to 2^53
          9007199254740994.0,
          100000.0,
          300.0,
          0.1,
          0.3,
          1.0 / 3.0,
          2.0 / 3.0,
          1e21,
          1e22,
          5e-5,
          123456789012345678.0,
          0.5,
          1.0,
          -1.0,
          2.5e-12,
          4.7e3,
          0x1p-1017};  // shortest round trip has 16 digits, %.16g misses
}

/// Every power of two, subnormal to DBL_MAX. At 46 of them the correctly
/// rounded text with the shortest round-trip digit count does not read
/// back (the rounding interval below a power of two is half as wide), so
/// the encoder must step up a digit.
inline std::vector<double> powers_of_two() {
  std::vector<double> out;
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    out.push_back(std::ldexp(1.0, exponent));
  }
  return out;
}

/// The non-finite values: JSON numbers encode them as null, hex floats as
/// inf/nan words.
inline std::vector<double> non_finite_doubles() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {inf, -inf, nan, std::copysign(nan, -1.0)};
}

/// One draw of the differential stream, rotating through three families:
/// raw bit patterns (every class: subnormals, inf and nan payloads
/// included), integers of every bit width, and short decimals scaled by a
/// power of ten (the values physical quantities take, whose shortest text
/// is short and where %.{p}g rounding matters).
inline double seeded_double(SplitMix64& rng, std::uint64_t index) {
  const std::uint64_t bits = rng.next();
  switch (index % 3) {
    case 0:
      return std::bit_cast<double>(bits);
    case 1: {
      const auto magnitude = static_cast<double>(bits >> (rng.next() % 64));
      return (bits & 1) != 0 ? -magnitude : magnitude;
    }
    default: {
      const int digits = 1 + static_cast<int>(rng.next() % 17);
      std::uint64_t mantissa = 1;
      for (int i = 0; i < digits; ++i) mantissa *= 10;
      mantissa = bits % mantissa;
      const int exponent = static_cast<int>(rng.next() % 660) - 340;
      char text[48];
      std::snprintf(text, sizeof(text), "%s%llue%d", (bits >> 63) != 0 ? "-" : "",
                    static_cast<unsigned long long>(mantissa), exponent);
      return std::strtod(text, nullptr);
    }
  }
}

/// `count` draws of the differential stream.
inline std::vector<double> seeded_doubles(std::size_t count, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(seeded_double(rng, i));
  return out;
}

/// Runs `encode` against `oracle` on every input, sharded over up to four
/// threads (the oracles are slow: up to 17 snprintf/sscanf pairs a value).
/// Returns the number of mismatches; the first few land in *examples as
/// "got <encode text>, want <oracle text>".
template <typename Encode, typename Oracle>
std::size_t differential_mismatches(const std::vector<double>& inputs, Encode encode,
                                    Oracle oracle, std::vector<std::string>* examples) {
  const std::size_t lanes =
      std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::size_t> counts(lanes, 0);
  std::vector<std::vector<std::string>> found(lanes);
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      for (std::size_t i = lane; i < inputs.size(); i += lanes) {
        const std::string got = encode(inputs[i]);
        const std::string want = oracle(inputs[i]);
        if (got == want) continue;
        if (++counts[lane] <= 5) found[lane].push_back("got " + got + ", want " + want);
      }
    });
  }
  std::size_t total = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads[lane].join();
    total += counts[lane];
    examples->insert(examples->end(), found[lane].begin(), found[lane].end());
  }
  return total;
}

/// Finite doubles for fixture fields: the specials first, then the seeded
/// stream with non-finite draws skipped.
class FiniteSource {
 public:
  explicit FiniteSource(std::uint64_t seed) : rng_(seed), specials_(special_doubles()) {}

  double next() {
    if (special_ < specials_.size()) return specials_[special_++];
    for (;;) {
      const double value = seeded_double(rng_, draws_++);
      if (std::isfinite(value)) return value;
    }
  }

 private:
  SplitMix64 rng_;
  std::vector<double> specials_;
  std::size_t special_ = 0;
  std::uint64_t draws_ = 0;
};

/// Any double, non-finite values included, for fields that carry them
/// (hex floats, and plain numbers that must encode as null).
inline double any_double(FiniteSource& source, int index) {
  const std::vector<double> specials = non_finite_doubles();
  if (index % 7 == 3) return specials[static_cast<std::size_t>(index / 7) % specials.size()];
  return source.next();
}

/// Names that exercise string escaping: quotes, backslashes, control
/// characters, DEL and a UTF-8 multibyte sequence (micro sign).
inline std::vector<std::string> awkward_names() {
  return {"vo", "n\"q\"", "back\\slash", "tab\there", "line\nbreak", "ctl\x01\x1f",
          "del\x7f", "\xc2\xb5" "amp", "/slash", ""};
}

inline numeric::ScaledDouble scaled(FiniteSource& source, std::int64_t exp2) {
  return numeric::ScaledDouble::from_mantissa_exp(source.next(), exp2);
}

inline RefgenResponse refgen_response() {
  FiniteSource source(101);
  RefgenResponse response;
  response.from_cache = true;
  response.seconds = 0.0123;
  refgen::AdaptiveResult& result = response.result;
  result.termination = "complete";
  result.complete = true;
  result.iterations.resize(7);
  result.total_evaluations = 912;
  result.seconds = 1.5e-3;
  result.numerator_degree = 3;
  result.denominator_degree = 9;
  result.degraded = true;
  result.degraded_points = 2;
  const refgen::CoefficientStatus statuses[] = {refgen::CoefficientStatus::Interpolated,
                                                refgen::CoefficientStatus::ZeroTail,
                                                refgen::CoefficientStatus::Unknown};
  for (refgen::PolynomialReference* poly :
       {&result.reference.numerator(), &result.reference.denominator()}) {
    *poly = refgen::PolynomialReference(23);
    for (int i = 0; i <= poly->order_bound(); ++i) {
      refgen::Coefficient& c = poly->at(i);
      // Exponents span the extended range, so "approx" is sometimes null.
      c.value = i == 5 ? numeric::ScaledDouble() : scaled(source, (i - 11) * 97);
      c.status = statuses[i % 3];
      c.iteration = i % 4;
      c.relative_accuracy = any_double(source, i);
    }
  }
  return response;
}

inline SweepResponse sweep_response() {
  FiniteSource source(202);
  SweepResponse response;
  response.degraded = true;
  response.seconds = 0.25;
  for (int i = 0; i < 48; ++i) {
    mna::BodePoint point;
    point.frequency_hz = source.next();
    point.value = {any_double(source, i), source.next()};
    point.magnitude_db = any_double(source, i + 1);
    point.phase_deg = source.next();
    response.points.push_back(point);
  }
  return response;
}

inline SimplifyResponse simplify_response() {
  FiniteSource source(303);
  SimplifyResponse response;
  response.seconds = 2.75;
  refgen::SimplifyResult& result = response.result;
  const std::vector<std::string> names = awkward_names();
  for (int i = 0; i < 24; ++i) {
    refgen::SimplifiedTerm term;
    term.coefficient = source.next();
    for (int k = 0; k <= i % 4; ++k) {
      term.symbols.push_back(names[static_cast<std::size_t>(i + k) % names.size()]);
    }
    term.s_power = i % 6;
    term.value = scaled(source, (i - 12) * 211);
    (i % 2 == 0 ? result.numerator_terms : result.denominator_terms).push_back(term);
  }
  result.numerator_expression = "gm1*R2 + C\"1\"\\s";
  result.denominator_expression = "1 + s*(C1*R1)\t+ s^2*\xc2\xb5";
  for (int i = 0; i < 16; ++i) {
    result.certificate.frequencies_hz.push_back(source.next());
    result.certificate.relative_error.push_back(any_double(source, i));
  }
  result.certificate.max_relative_error = 9.5e-3;
  result.certificate.error_budget = 0.01;
  for (int i = 0; i < 6; ++i) {
    result.prune_actions.push_back(
        {names[static_cast<std::size_t>(i)], i % 2 == 0 ? "open" : "short", any_double(source, i)});
  }
  result.reduced_dim = 12;
  result.reduced_elements = 31;
  result.original_elements = 77;
  result.enumerated_terms = 9876;
  result.kept_terms = 24;
  result.terms_dropped = 9852;
  result.term_evals = 123456789;
  result.ranking_fresh_factorizations = 3;
  result.seconds = 2.5;
  return response;
}

inline TransientResponse transient_response() {
  FiniteSource source(404);
  TransientResponse response;
  response.seconds = 0.5;
  transient::TransientResult& result = response.result;
  result.node_names = {"in", "out", "n\"1\""};
  result.branch_names = {"vin#branch"};
  for (int k = 0; k < 32; ++k) {
    result.times.push_back(k == 0 ? 0.0 : source.next());
    std::vector<double> state;
    for (int j = 0; j < 4; ++j) state.push_back(any_double(source, k * 4 + j));
    result.states.push_back(std::move(state));
  }
  result.steps = 31;
  result.lte_rejections = 4;
  result.newton_iterations = 77;
  result.step_size_buckets = 2;
  result.fresh_factorizations = 3;
  result.pivot_escalations = 1;
  result.degraded = true;
  result.seconds = 0.375;
  return response;
}

inline OpResponse op_response() {
  FiniteSource source(505);
  OpResponse response;
  response.from_cache = true;
  response.seconds = 1e-4;
  dc::OpResult& result = response.result;
  const std::vector<std::string> names = awkward_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    result.node_names.push_back(names[i]);
    result.node_voltages.push_back(any_double(source, static_cast<int>(i)));
    result.branch_names.push_back(names[i] + "#branch");
    result.branch_currents.push_back(source.next());
  }
  for (int d = 0; d < 4; ++d) {
    dc::OpDeviceInfo device;
    device.name = names[static_cast<std::size_t>(d)];
    device.kind = d % 2 == 0 ? "bjt" : "mos";
    for (const char* key : {"ic", "gm", "gpi", "vbe"}) {
      device.values.emplace_back(key, any_double(source, d));
    }
    result.devices.push_back(std::move(device));
  }
  result.newton_iterations = 17;
  result.gmin_steps = 2;
  result.source_steps = 1;
  result.fresh_factorizations = 1;
  result.pivot_escalations = 0;
  result.max_residual = 3.5e-15;
  result.seconds = 4e-3;
  return response;
}

inline PolesZerosResponse poles_zeros_response() {
  FiniteSource source(606);
  PolesZerosResponse response;
  response.from_cache = true;
  response.seconds = 0.0625;
  for (int i = 0; i < 12; ++i) {
    response.poles.emplace_back(any_double(source, i), source.next());
    if (i % 2 == 0) response.zeros.emplace_back(source.next(), any_double(source, i + 3));
  }
  response.poles_converged = true;
  response.zeros_converged = false;
  return response;
}

/// Three samples over four probe points; the middle sample failed, so its
/// points are (NaN, NaN) and encode as hex "nan" with "ok":false.
inline ParamSweepResponse param_sweep_response() {
  FiniteSource source(707);
  ParamSweepResponse response;
  response.seconds = 0.125;
  mna::ParamSweepResult& result = response.result;
  result.names = {"ccomp", "r\"load\""};
  for (int k = 0; k < 4; ++k) result.frequencies_hz.push_back(source.next());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < result.names.size(); ++j) {
      result.values.push_back(any_double(source, i * 2 + static_cast<int>(j)));
    }
    const bool ok = i != 1;
    result.ok.push_back(ok ? 1 : 0);
    for (int k = 0; k < 4; ++k) {
      result.response.emplace_back(ok ? std::complex<double>(source.next(), source.next())
                                      : std::complex<double>(nan, nan));
    }
  }
  result.fresh_factorizations = 1;
  result.op_solves = 4;
  result.newton_iterations = 23;
  result.seconds = 0.0875;
  return response;
}

/// A status whose message needs escaping, with a known line and column.
inline Status located_error() {
  return Status::error(StatusCode::kParseError,
                       "netlist: bad token \"1k\\x\"\tnear\nR1 \x01\x7f \xc2\xb5", {12, 7});
}

/// One ok item and one failed item.
inline BatchResponse batch_response() {
  BatchResponse response;
  response.seconds = 0.5;
  BatchItemResponse ok;
  ok.response = refgen_response();
  response.items.push_back(std::move(ok));
  BatchItemResponse failed;
  failed.status = Status::error(StatusCode::kSingularSystem, "no pivot in column \"3\"");
  response.items.push_back(std::move(failed));
  return response;
}

/// A finished job that failed: its wire form is the uniform error payload.
inline JobOutcome error_outcome() {
  JobOutcome outcome;
  outcome.type = AnyRequest::Type::kParamSweep;
  outcome.status = Status::error(StatusCode::kDeadlineExceeded,
                                 "deadline of 5 ms exceeded after \"2\" attempts\\retries");
  return outcome;
}

}  // namespace symref::api::wire_fixtures
