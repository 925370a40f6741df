// SDG magnitude-ordered term generation with eq. (3) error control.
#include "symbolic/sdg.h"

#include <gtest/gtest.h>

#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "circuits/ua741.h"
#include "netlist/canonical.h"
#include "refgen/adaptive.h"
#include "support/cancellation.h"

namespace symref::symbolic {
namespace {

using numeric::ScaledDouble;

TEST(Sdg, TermsEmittedInDecreasingMagnitude) {
  const netlist::Circuit ota = netlist::canonicalize(circuits::ota_fig1());
  const SymbolicNodalMatrix matrix(ota);
  // Exact reference from the full expansion, then regenerate with epsilon 0
  // (never met) capped by max_terms -> full ordered stream.
  const auto oracle = symbolic_determinant(matrix).coefficients(matrix.symbols());
  SdgOptions options;
  options.epsilon = 0.0;
  options.max_terms = 100000;
  const SdgResult result =
      generate_determinant_terms(matrix, 2, oracle.coeff(2), options);
  ASSERT_GT(result.generated(), 4u);
  for (std::size_t i = 1; i < result.terms.size(); ++i) {
    EXPECT_GE(result.terms[i - 1].magnitude(matrix.symbols()).log10_abs(),
              result.terms[i].magnitude(matrix.symbols()).log10_abs() - 1e-9)
        << i;
  }
}

TEST(Sdg, ExhaustedStreamSumsToExactCoefficient) {
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(3));
  const SymbolicNodalMatrix matrix(ladder);
  const auto oracle = symbolic_determinant(matrix).coefficients(matrix.symbols());
  for (int k = 0; k <= 3; ++k) {
    SdgOptions options;
    options.epsilon = 0.0;  // force full enumeration
    const SdgResult result =
        generate_determinant_terms(matrix, k, oracle.coeff(static_cast<std::size_t>(k)),
                                   options);
    EXPECT_EQ(result.termination, "exhausted") << k;
    EXPECT_LT(numeric::relative_difference(result.accumulated,
                                           oracle.coeff(static_cast<std::size_t>(k))),
              1e-10)
        << k;
  }
}

TEST(Sdg, StopsEarlyWithLooseEpsilon) {
  const netlist::Circuit ota = netlist::canonicalize(circuits::ota_fig1());
  const SymbolicNodalMatrix matrix(ota);
  const auto oracle = symbolic_determinant(matrix).coefficients(matrix.symbols());

  SdgOptions loose;
  loose.epsilon = 0.1;
  const SdgResult early = generate_determinant_terms(matrix, 2, oracle.coeff(2), loose);
  EXPECT_TRUE(early.met);
  EXPECT_EQ(early.termination, "met");
  EXPECT_LT(early.relative_error, 0.1);

  SdgOptions tight;
  tight.epsilon = 1e-9;
  const SdgResult late = generate_determinant_terms(matrix, 2, oracle.coeff(2), tight);
  EXPECT_GE(late.generated(), early.generated());
}

TEST(Sdg, EveryTermHasExactlyKCapacitors) {
  const netlist::Circuit ota = netlist::canonicalize(circuits::ota_fig1());
  const SymbolicNodalMatrix matrix(ota);
  const auto oracle = symbolic_determinant(matrix).coefficients(matrix.symbols());
  SdgOptions options;
  options.epsilon = 1e-6;
  const SdgResult result = generate_determinant_terms(matrix, 2, oracle.coeff(2), options);
  for (const Term& term : result.terms) {
    int caps = 0;
    for (const int id : term.symbols) {
      if (matrix.symbols().at(id).is_capacitor) ++caps;
    }
    EXPECT_EQ(caps, 2);
    EXPECT_EQ(term.s_power, 2);
    EXPECT_EQ(term.symbols.size(), static_cast<std::size_t>(matrix.dim()));
  }
}

TEST(Sdg, ReferenceFromAdaptiveEngineDrivesStopRule) {
  // End-to-end: the numerical reference produced by the paper's algorithm
  // is exactly what eq. (3) needs. Use the transimpedance denominator
  // (= full determinant) so the oracle matches the engine output.
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  const netlist::Circuit canonical = netlist::canonicalize(ladder);
  const auto spec = mna::TransferSpec::transimpedance("in", "n4");
  const refgen::AdaptiveResult reference = refgen::generate_reference(ladder, spec);
  ASSERT_TRUE(reference.complete);

  const SymbolicNodalMatrix matrix(canonical);
  SdgOptions options;
  options.epsilon = 1e-4;
  const SdgResult result = generate_determinant_terms(
      matrix, 2, reference.reference.denominator().at(2).value, options);
  EXPECT_TRUE(result.met) << result.termination;
  EXPECT_LT(result.relative_error, 1e-4);
}

TEST(Sdg, UniformLadderTermCounts) {
  // For the n=2 uniform ladder (all values 1), det = (g1+g2)(g2+sc2)... with
  // unit values; coefficient of s^2 (c1 c2 g1) has exactly one term after
  // cancellation, but term GENERATION enumerates signed duplicates too.
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(2, 1.0, 1.0));
  const SymbolicNodalMatrix matrix(ladder);
  const auto oracle = symbolic_determinant(matrix).coefficients(matrix.symbols());
  SdgOptions options;
  options.epsilon = 0.0;
  const SdgResult result = generate_determinant_terms(matrix, 2, oracle.coeff(2), options);
  EXPECT_EQ(result.termination, "exhausted");
  EXPECT_NEAR(result.accumulated.to_double(), oracle.coeff(2).to_double(), 1e-12);
}

TEST(Sdg, ZeroReferenceHandled) {
  // Asking for a coefficient beyond the true order: reference 0, generator
  // must terminate (cancelling terms or none at all).
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(2));
  const SymbolicNodalMatrix matrix(ladder);
  SdgOptions options;
  options.epsilon = 1e-3;
  const SdgResult result =
      generate_determinant_terms(matrix, 2 + 1, ScaledDouble(0.0), options);
  // k=3 exceeds the capacitor count: no term can have 3 caps.
  EXPECT_EQ(result.generated(), 0u);
  EXPECT_EQ(result.termination, "exhausted");
}

TEST(Sdg, MaxTermsCapRespected) {
  const netlist::Circuit ota = netlist::canonicalize(circuits::ota_fig1());
  const SymbolicNodalMatrix matrix(ota);
  const auto oracle = symbolic_determinant(matrix).coefficients(matrix.symbols());
  SdgOptions options;
  options.epsilon = 0.0;
  options.max_terms = 3;
  const SdgResult result = generate_determinant_terms(matrix, 2, oracle.coeff(2), options);
  EXPECT_EQ(result.generated(), 3u);
  EXPECT_EQ(result.termination, "max_terms");
}


TEST(Sdg, FrontierPruningContinuesPastOverflow) {
  // A frontier cap small enough to overflow must PRUNE the weakest-bound
  // states and keep generating (flagging frontier_pruned) instead of
  // aborting — and must refuse to claim eq. (3) was met afterwards, since
  // pruned states could have carried mass.
  const netlist::Circuit ota = netlist::canonicalize(circuits::ota_fig1());
  const SymbolicNodalMatrix matrix(ota);
  const auto oracle = symbolic_determinant(matrix).coefficients(matrix.symbols());
  SdgOptions options;
  options.epsilon = 0.0;  // never met: exhaust through repeated prunes
  options.max_queue = 8;
  const SdgResult result = generate_determinant_terms(matrix, 2, oracle.coeff(2), options);
  EXPECT_TRUE(result.frontier_pruned);
  EXPECT_EQ(result.termination, "queue_overflow");
  EXPECT_FALSE(result.met);
  EXPECT_GT(result.generated(), 0u);
  // The survivors still stream in decreasing magnitude.
  for (std::size_t i = 1; i < result.terms.size(); ++i) {
    EXPECT_GE(result.terms[i - 1].magnitude(matrix.symbols()).log10_abs(),
              result.terms[i].magnitude(matrix.symbols()).log10_abs() - 1e-9)
        << i;
  }
}

TEST(Sdg, UnprunedRunIsUnaffectedByLargeQueueCap) {
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(3));
  const SymbolicNodalMatrix matrix(ladder);
  const auto oracle = symbolic_determinant(matrix).coefficients(matrix.symbols());
  SdgOptions roomy;
  roomy.epsilon = 0.0;
  roomy.max_queue = 1u << 20;
  const SdgResult result = generate_determinant_terms(matrix, 1, oracle.coeff(1), roomy);
  EXPECT_FALSE(result.frontier_pruned);
  EXPECT_EQ(result.termination, "exhausted");
  EXPECT_LT(numeric::relative_difference(result.accumulated, oracle.coeff(1)), 1e-10);
}

TEST(Sdg, Ua741TermStreamIsDeterministic) {
  // Two runs over the reduced ua741 (dim 22) must be identical term for
  // term — the generator's order is a pure function of the matrix, with no
  // dependence on allocation or iteration incidentals.
  circuits::Ua741Options reduced;
  reduced.base_resistance = false;
  reduced.substrate_caps = false;
  const netlist::Circuit amp = netlist::canonicalize(circuits::ua741(reduced));
  const auto spec = mna::TransferSpec::voltage_gain("inp", "vo");
  const refgen::AdaptiveResult reference = refgen::generate_reference(amp, spec);
  ASSERT_TRUE(reference.complete);
  const SymbolicNodalMatrix matrix(amp);

  SdgOptions options;
  options.epsilon = 0.05;
  const auto& num = reference.reference.numerator();
  const SdgResult first = generate_transfer_terms(matrix, spec, TransferSide::Numerator, 0,
                                                  num.at(0).value, options);
  const SdgResult second = generate_transfer_terms(matrix, spec, TransferSide::Numerator, 0,
                                                   num.at(0).value, options);
  EXPECT_TRUE(first.met) << first.termination;
  ASSERT_EQ(first.generated(), second.generated());
  EXPECT_GT(first.generated(), 100u);  // a real stream, not a toy
  EXPECT_EQ(first.accumulated.mantissa(), second.accumulated.mantissa());
  EXPECT_EQ(first.accumulated.exponent2(), second.accumulated.exponent2());
  for (std::size_t i = 0; i < first.terms.size(); ++i) {
    EXPECT_EQ(first.terms[i].symbols, second.terms[i].symbols) << i;
    EXPECT_EQ(first.terms[i].coefficient, second.terms[i].coefficient) << i;
  }
}

TEST(Sdg, CofactorTermsMatchSymbolicCofactor) {
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(3));
  const SymbolicNodalMatrix matrix(ladder);
  const int in_row = *matrix.row_of_node("in");
  const int out_row = *matrix.row_of_node("n3");
  const auto oracle =
      symbolic_cofactor(matrix, in_row, out_row).coefficients(matrix.symbols());
  for (int k = 0; k <= oracle.degree(); ++k) {
    SdgOptions options;
    options.epsilon = 0.0;  // exhaust
    const SdgResult result = generate_cofactor_terms(
        matrix, in_row, out_row, k, oracle.coeff(static_cast<std::size_t>(k)), options);
    EXPECT_EQ(result.termination, "exhausted") << k;
    EXPECT_LT(numeric::relative_difference(result.accumulated,
                                           oracle.coeff(static_cast<std::size_t>(k))),
              1e-10)
        << k;
  }
}

TEST(Sdg, CofactorSignsHandled) {
  // Pick a cofactor with odd row+col so the (-1)^(row+col) factor matters.
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(2));
  const SymbolicNodalMatrix matrix(ladder);
  for (int row = 0; row < matrix.dim(); ++row) {
    for (int col = 0; col < matrix.dim(); ++col) {
      const auto oracle =
          symbolic_cofactor(matrix, row, col).coefficients(matrix.symbols());
      for (int k = 0; k <= oracle.degree(); ++k) {
        SdgOptions options;
        options.epsilon = 0.0;
        const SdgResult result = generate_cofactor_terms(
            matrix, row, col, k, oracle.coeff(static_cast<std::size_t>(k)), options);
        EXPECT_LT(numeric::relative_difference(result.accumulated,
                                               oracle.coeff(static_cast<std::size_t>(k))),
                  1e-10)
            << row << "," << col << " k=" << k;
      }
    }
  }
}

TEST(Sdg, TransferTermsSingleEnded) {
  // Full loop on a voltage-gain spec: numerator and denominator terms from
  // the engine's own references.
  const netlist::Circuit ladder = circuits::rc_ladder(3);
  const netlist::Circuit canonical = netlist::canonicalize(ladder);
  const auto spec = circuits::rc_ladder_spec(3);
  const auto reference = refgen::generate_reference(ladder, spec);
  ASSERT_TRUE(reference.complete);
  const SymbolicNodalMatrix matrix(canonical);

  SdgOptions options;
  options.epsilon = 1e-6;
  // Denominator: every known nonzero coefficient reachable by eq. (3).
  const auto& den = reference.reference.denominator();
  for (int k = 0; k <= den.order_bound(); ++k) {
    if (!den.at(k).known() || den.at(k).value.is_zero()) continue;
    const auto result = generate_transfer_terms(matrix, spec, TransferSide::Denominator,
                                                k, den.at(k).value, options);
    EXPECT_TRUE(result.met) << "den k=" << k << " " << result.termination;
  }
  // Numerator: the ladder's numerator is the conductance-path product (s^0).
  const auto& num = reference.reference.numerator();
  const auto result = generate_transfer_terms(matrix, spec, TransferSide::Numerator, 0,
                                              num.at(0).value, options);
  EXPECT_TRUE(result.met) << result.termination;
  EXPECT_EQ(result.generated(), 1u);  // exactly g1*g2*g3
}

TEST(Sdg, CancelledTokenStopsTheSearch) {
  // A cancelled token stops the generator at its next checkpoint — the
  // first pop — with the typed error the service maps to kCancelled.
  const netlist::Circuit ladder = circuits::rc_ladder(3);
  const netlist::Circuit canonical = netlist::canonicalize(ladder);
  const auto spec = circuits::rc_ladder_spec(3);
  const SymbolicNodalMatrix matrix(canonical);
  support::CancellationSource source;
  source.cancel();
  SdgOptions options;
  options.cancel = source.token();
  EXPECT_THROW(generate_transfer_terms(matrix, spec, TransferSide::Denominator, 1,
                                       ScaledDouble(1.0), options),
               support::CancelledError);
  // The same search with a live token runs to completion.
  options.cancel = support::CancellationSource().token();
  const auto result = generate_transfer_terms(matrix, spec, TransferSide::Denominator, 1,
                                              ScaledDouble(1.0), options);
  EXPECT_GT(result.generated(), 0u);
}

TEST(Sdg, TransferTermsRejectDifferentialSpecs) {
  const netlist::Circuit ota = netlist::canonicalize(circuits::ota_fig1());
  const SymbolicNodalMatrix matrix(ota);
  const auto spec = circuits::ota_fig1_gain_spec();  // differential input
  EXPECT_THROW(generate_transfer_terms(matrix, spec, TransferSide::Numerator, 0,
                                       ScaledDouble(1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace symref::symbolic
