// Reference-driven symbolic simplification, end to end: the certificate a
// simplify run returns must be reproducible by an INDEPENDENT re-evaluation
// of the returned terms against an independently replayed baseline — the
// certificate is a proof, not a self-report.
#include "refgen/simplify.h"

#include <gtest/gtest.h>

#include <complex>
#include <map>
#include <string>
#include <vector>

#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "circuits/ua741.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "numeric/scaled.h"
#include "symbolic/errors.h"

namespace symref::refgen {
namespace {

using numeric::ScaledComplex;
using numeric::ScaledDouble;

circuits::Ua741Options reduced_ua741_options() {
  // The monomial-sparse variant (no base resistances, no substrate caps):
  // dim 22, 109 elements — the largest model whose transfer function stays
  // sparsely representable in the monomial term basis at a 1% budget.
  circuits::Ua741Options options;
  options.base_resistance = false;
  options.substrate_caps = false;
  return options;
}

/// Sum the returned terms into per-power coefficients and evaluate the
/// model polynomial at s = jw in scaled arithmetic (term values span
/// hundreds of decades on the ua741; plain doubles would underflow).
ScaledComplex evaluate_terms(const std::vector<SimplifiedTerm>& terms, double omega) {
  std::map<int, ScaledDouble> coefficients;
  for (const SimplifiedTerm& term : terms) {
    auto [it, inserted] = coefficients.emplace(term.s_power, term.value);
    if (!inserted) it->second += term.value;
  }
  ScaledComplex sum;
  for (const auto& [power, value] : coefficients) {
    ScaledComplex s_power(1.0);
    for (int k = 0; k < power; ++k) s_power *= ScaledComplex(std::complex<double>(0.0, omega));
    sum += ScaledComplex(value) * s_power;
  }
  return sum;
}

/// Max relative error of the returned model over the certificate's band,
/// measured against a fresh evaluator on the ORIGINAL circuit — nothing
/// from the simplify run is reused.
double independent_max_error(const netlist::Circuit& circuit, const mna::TransferSpec& spec,
                             const SimplifyResult& result) {
  const netlist::Circuit canonical = netlist::canonicalize(circuit);
  const mna::NodalSystem system(canonical);
  const mna::CofactorEvaluator evaluator(system, spec);
  double worst = 0.0;
  for (std::size_t i = 0; i < result.certificate.frequencies_hz.size(); ++i) {
    const double omega = 2.0 * 3.14159265358979323846 * result.certificate.frequencies_hz[i];
    const auto sample = evaluator.evaluate(std::complex<double>(0.0, omega), 1.0, 1.0);
    EXPECT_TRUE(sample.ok) << "baseline evaluation failed at point " << i;
    const ScaledComplex exact =
        ScaledComplex(sample.numerator) / ScaledComplex(sample.denominator);
    const ScaledComplex model = evaluate_terms(result.numerator_terms, omega) /
                                evaluate_terms(result.denominator_terms, omega);
    const double error = numeric::ratio_abs((model - exact).abs(), exact.abs());
    worst = error > worst ? error : worst;
    // The certificate must be what an independent re-evaluation reproduces.
    EXPECT_NEAR(error, result.certificate.relative_error[i],
                1e-6 * (1.0 + result.certificate.relative_error[i]))
        << "certificate point " << i << " does not reproduce";
  }
  return worst;
}

/// Every kept term equal bit for bit: symbols, s-power, coefficient and
/// extended-range value.
void expect_same_terms(const std::vector<SimplifiedTerm>& a,
                       const std::vector<SimplifiedTerm>& b, std::size_t config) {
  ASSERT_EQ(a.size(), b.size()) << "config " << config;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].symbols, b[i].symbols) << "config " << config << " term " << i;
    EXPECT_EQ(a[i].s_power, b[i].s_power) << "config " << config << " term " << i;
    EXPECT_EQ(a[i].coefficient, b[i].coefficient) << "config " << config << " term " << i;
    EXPECT_EQ(a[i].value.mantissa(), b[i].value.mantissa())
        << "config " << config << " term " << i;
    EXPECT_EQ(a[i].value.exponent2(), b[i].value.exponent2())
        << "config " << config << " term " << i;
  }
}

TEST(Simplify, RcLadderCertificateReproducesIndependently) {
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  const mna::TransferSpec spec = circuits::rc_ladder_spec(4);
  SimplifyOptions options;
  options.error_budget = 0.01;
  options.f_start_hz = 1e3;
  options.f_stop_hz = 1e6;
  options.band_points = 9;
  const SimplifyResult result = simplify_transfer(ladder, spec, options);
  EXPECT_LE(result.certificate.max_relative_error, options.error_budget);
  EXPECT_GT(result.enumerated_terms, 0u);
  EXPECT_LE(result.kept_terms, result.enumerated_terms);
  EXPECT_LE(independent_max_error(ladder, spec, result), options.error_budget);
}

TEST(Simplify, Ua741OnePercentBudgetCertifies) {
  // The acceptance scenario: a 1% budget over the 10 Hz..1 kHz open-loop
  // band returns a strictly smaller term set whose re-evaluated response
  // stays within budget — certified here by an independent re-evaluation.
  const netlist::Circuit amp = circuits::ua741(reduced_ua741_options());
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("inp", "vo");
  SimplifyOptions options;
  options.error_budget = 0.01;
  options.f_start_hz = 10.0;
  options.f_stop_hz = 1e3;
  options.band_points = 9;
  options.engine.threads = 8;
  const SimplifyResult result = simplify_transfer(amp, spec, options);

  EXPECT_LE(result.certificate.max_relative_error, options.error_budget);
  EXPECT_LT(result.kept_terms, result.enumerated_terms);  // strictly smaller
  EXPECT_GT(result.terms_dropped, 0u);
  EXPECT_FALSE(result.prune_actions.empty());
  EXPECT_LT(result.reduced_elements, result.original_elements);
  // Plan-reuse probe: ranking runs through pinned replay of the one shared
  // symbolic plan; only the rare pivot-stability fallback factors fresh.
  EXPECT_GT(result.term_evals, 0u);
  EXPECT_LT(result.ranking_fresh_factorizations * 50, result.term_evals);

  EXPECT_LE(independent_max_error(amp, spec, result), options.error_budget);
}

TEST(Simplify, Ua741BitIdenticalAcrossThreadsAndKernels) {
  const netlist::Circuit amp = circuits::ua741(reduced_ua741_options());
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("inp", "vo");
  SimplifyOptions base;
  base.error_budget = 0.05;  // loose budget keeps the 4-way matrix fast
  base.f_start_hz = 10.0;
  base.f_stop_hz = 1e3;
  base.band_points = 5;

  std::vector<SimplifyResult> results;
  // Three lanes split the per-coefficient enumerations unevenly.
  for (const int threads : {1, 2, 3, 8}) {
    for (const bool batched : {false, true}) {
      SimplifyOptions options = base;
      options.engine.threads = threads;
      options.engine.kernel =
          batched ? sparse::ReplayKernel::kBatched : sparse::ReplayKernel::kScalar;
      results.push_back(simplify_transfer(amp, spec, options));
    }
  }
  const SimplifyResult& first = results.front();
  EXPECT_LE(first.certificate.max_relative_error, base.error_budget);
  for (std::size_t r = 1; r < results.size(); ++r) {
    const SimplifyResult& other = results[r];
    EXPECT_EQ(first.numerator_expression, other.numerator_expression) << r;
    EXPECT_EQ(first.denominator_expression, other.denominator_expression) << r;
    EXPECT_EQ(first.enumerated_terms, other.enumerated_terms) << r;
    EXPECT_EQ(first.kept_terms, other.kept_terms) << r;
    ASSERT_EQ(first.prune_actions.size(), other.prune_actions.size()) << r;
    for (std::size_t i = 0; i < first.prune_actions.size(); ++i) {
      EXPECT_EQ(first.prune_actions[i].element, other.prune_actions[i].element);
      EXPECT_EQ(first.prune_actions[i].op, other.prune_actions[i].op);
    }
    ASSERT_EQ(first.certificate.relative_error.size(), other.certificate.relative_error.size());
    for (std::size_t i = 0; i < first.certificate.relative_error.size(); ++i) {
      // Bitwise, not approximately: the oracle contract promises identical
      // results at every thread count and kernel.
      EXPECT_EQ(first.certificate.relative_error[i], other.certificate.relative_error[i])
          << "config " << r << " point " << i;
    }
    expect_same_terms(first.numerator_terms, other.numerator_terms, r);
    expect_same_terms(first.denominator_terms, other.denominator_terms, r);
  }
}

TEST(Simplify, DifferentialSpecThrowsNonAdmissible) {
  const netlist::Circuit ota = circuits::ota_fig1();
  EXPECT_THROW(simplify_transfer(ota, circuits::ota_fig1_gain_spec()),
               symbolic::NonAdmissibleError);
}

TEST(Simplify, UncertifiableCapsThrowTermEnumeration) {
  // One term per coefficient cannot reach a 1e-6 budget on a 4-stage
  // ladder: the enumeration must refuse with the typed error instead of
  // returning an uncertified result.
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  SimplifyOptions options;
  options.error_budget = 1e-6;
  options.f_start_hz = 1e3;
  options.f_stop_hz = 1e6;
  options.band_points = 5;
  options.prune = false;
  options.max_terms_per_coefficient = 1;
  EXPECT_THROW(simplify_transfer(ladder, circuits::rc_ladder_spec(4), options),
               symbolic::TermEnumerationError);
}

TEST(Simplify, UncertifiableMessageIsTheSameAtEveryThreadCount) {
  // The enumerations run concurrently but merge in (side, k) order, so a
  // refusal reads the same at any width: the budget miss of the merged
  // model, and (with a two-state frontier, where the numerator completes
  // no term) the unmet-coefficient list.
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  SimplifyOptions options;
  options.error_budget = 1e-6;
  options.f_start_hz = 1e3;
  options.f_stop_hz = 1e6;
  options.band_points = 5;
  options.prune = false;
  options.max_terms_per_coefficient = 1;
  for (const std::size_t max_queue : {options.max_queue, std::size_t{2}}) {
    options.max_queue = max_queue;
    std::vector<std::string> messages;
    for (const int threads : {1, 4}) {
      options.engine.threads = threads;
      try {
        simplify_transfer(ladder, circuits::rc_ladder_spec(4), options);
        ADD_FAILURE() << "threads " << threads << ": expected TermEnumerationError";
      } catch (const symbolic::TermEnumerationError& error) {
        messages.emplace_back(error.what());
      }
    }
    ASSERT_EQ(messages.size(), 2u);
    EXPECT_EQ(messages[0], messages[1]) << "max_queue " << max_queue;
    if (max_queue == 2) {
      EXPECT_NE(messages[0].find("unmet coefficients: s^0 (queue_overflow"), std::string::npos)
          << messages[0];
    }
  }
}

}  // namespace
}  // namespace symref::refgen
