// SBG: prune negligible elements against the numerical reference.
#include "symbolic/sbg.h"

#include <gtest/gtest.h>

#include "circuits/ladder.h"
#include "mna/ac.h"
#include "refgen/adaptive.h"
#include "support/strings.h"

namespace symref::symbolic {
namespace {

/// A divider whose transfer is dominated by two elements; the tiny parasitic
/// branches are textbook SBG removal candidates.
netlist::Circuit divider_with_parasitics() {
  netlist::Circuit c;
  c.add_resistor("r1", "in", "out", 1e3);
  c.add_resistor("r2", "out", "0", 1e3);
  c.add_resistor("rpar", "in", "out", 1e9);    // negligible parallel path
  c.add_capacitor("cpar", "out", "0", 1e-18);  // far-away pole
  c.add_capacitor("cmain", "out", "0", 1e-9);  // the real pole
  return c;
}

TEST(Sbg, RemovesNegligibleElements) {
  const netlist::Circuit circuit = divider_with_parasitics();
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult reference = refgen::generate_reference(circuit, spec);
  ASSERT_TRUE(reference.complete);

  SbgOptions options;
  options.epsilon = 0.01;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e7;
  const SbgResult result =
      simplify_before_generation(circuit, spec, reference.reference, options);

  EXPECT_LT(result.remaining_elements, result.original_elements);
  EXPECT_EQ(result.simplified.find_element("rpar"), nullptr);   // opened
  EXPECT_EQ(result.simplified.find_element("cpar"), nullptr);   // opened
  EXPECT_NE(result.simplified.find_element("r1"), nullptr);     // load-bearing
  EXPECT_NE(result.simplified.find_element("cmain"), nullptr);  // sets the pole
  EXPECT_LE(result.final_error, options.epsilon);
}

TEST(Sbg, ErrorBoundRespectedAcrossBand) {
  const netlist::Circuit circuit = divider_with_parasitics();
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult reference = refgen::generate_reference(circuit, spec);
  SbgOptions options;
  options.epsilon = 0.02;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e7;
  const SbgResult result =
      simplify_before_generation(circuit, spec, reference.reference, options);

  const mna::AcSimulator sim(result.simplified);
  for (const double f : {1e2, 1e3, 1e5, 1e6, 1e7}) {
    const auto h_ref = reference.reference.transfer_at_hz(f);
    const auto h_simplified = sim.transfer(spec, f);
    EXPECT_LT(std::abs(h_simplified - h_ref) / std::abs(h_ref), options.epsilon * 1.5)
        << f;
  }
}

TEST(Sbg, TightEpsilonRemovesNothingEssential) {
  netlist::Circuit c;
  c.add_resistor("r1", "in", "out", 1e3);
  c.add_capacitor("c1", "out", "0", 1e-9);
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult reference = refgen::generate_reference(c, spec);
  SbgOptions options;
  options.epsilon = 1e-6;
  options.f_start_hz = 1e3;
  options.f_stop_hz = 1e6;  // around the pole: both elements matter
  const SbgResult result = simplify_before_generation(c, spec, reference.reference, options);
  EXPECT_EQ(result.remaining_elements, 2u);
  EXPECT_TRUE(result.actions.empty());
}

TEST(Sbg, ShortActionMergesSeriesResistance) {
  // Series parasitic resistance of 1 milliohm in a 2k path: shorting it is
  // the preferred simplification.
  netlist::Circuit c;
  c.add_resistor("r1", "in", "x", 1e3);
  c.add_resistor("rpar", "x", "out", 1e-3);
  c.add_resistor("r2", "out", "0", 1e3);
  c.add_capacitor("c1", "out", "0", 1e-9);
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult reference = refgen::generate_reference(c, spec);
  ASSERT_TRUE(reference.complete);
  SbgOptions options;
  options.epsilon = 0.01;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e6;
  const SbgResult result = simplify_before_generation(c, spec, reference.reference, options);
  bool shorted = false;
  for (const auto& action : result.actions) {
    if (action.element == "rpar" && action.op == SbgAction::Op::Short) shorted = true;
  }
  EXPECT_TRUE(shorted);
}

TEST(Sbg, PortNodesNeverMergedAway) {
  // An element directly across in-out must not be shorted even if doing so
  // would "simplify" the circuit.
  netlist::Circuit c;
  c.add_resistor("r1", "in", "out", 10.0);
  c.add_resistor("r2", "out", "0", 1e3);
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult reference = refgen::generate_reference(c, spec);
  SbgOptions options;
  options.epsilon = 0.05;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e4;
  const SbgResult result = simplify_before_generation(c, spec, reference.reference, options);
  for (const auto& action : result.actions) {
    EXPECT_FALSE(action.element == "r1" && action.op == SbgAction::Op::Short);
  }
  EXPECT_TRUE(result.simplified.find_node("in").has_value());
  EXPECT_TRUE(result.simplified.find_node("out").has_value());
}

TEST(Sbg, LadderParasiticSweep) {
  // Ladder with per-stage parasitic resistors 6 decades up: all parasitics
  // pruned, the backbone survives.
  netlist::Circuit c = circuits::rc_ladder(3);
  c.add_resistor("rp1", "n1", "0", 1e9);
  c.add_resistor("rp2", "n2", "0", 1e9);
  c.add_resistor("rp3", "n3", "0", 1e9);
  const auto spec = circuits::rc_ladder_spec(3);
  const refgen::AdaptiveResult reference = refgen::generate_reference(c, spec);
  ASSERT_TRUE(reference.complete);
  SbgOptions options;
  options.epsilon = 0.01;
  options.f_start_hz = 1e3;
  options.f_stop_hz = 1e6;
  const SbgResult result = simplify_before_generation(c, spec, reference.reference, options);
  EXPECT_EQ(result.simplified.find_element("rp1"), nullptr);
  EXPECT_EQ(result.simplified.find_element("rp2"), nullptr);
  EXPECT_EQ(result.simplified.find_element("rp3"), nullptr);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_NE(result.simplified.find_element(support::numbered("r", i)), nullptr) << i;
    EXPECT_NE(result.simplified.find_element(support::numbered("c", i)), nullptr) << i;
  }
}


TEST(Sbg, SensitivityScreeningMatchesBruteForce) {
  // With screening on, the same elements must be pruned from a canonical
  // circuit — the screen only skips elements that could never be removed.
  netlist::Circuit c;
  c.add_conductance("g1", "in", "out", 1e-3);
  c.add_conductance("g2", "out", "0", 1e-3);
  c.add_conductance("gpar", "in", "out", 1e-9);
  c.add_capacitor("cpar", "out", "0", 1e-18);
  c.add_capacitor("cmain", "out", "0", 1e-9);
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult reference = refgen::generate_reference(c, spec);
  ASSERT_TRUE(reference.complete);

  SbgOptions brute;
  brute.epsilon = 0.01;
  brute.f_start_hz = 1e2;
  brute.f_stop_hz = 1e7;
  SbgOptions screened = brute;
  screened.sensitivity_screening = true;

  const SbgResult a = simplify_before_generation(c, spec, reference.reference, brute);
  const SbgResult b = simplify_before_generation(c, spec, reference.reference, screened);
  EXPECT_FALSE(a.screened);
  EXPECT_TRUE(b.screened);
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    EXPECT_EQ(a.actions[i].element, b.actions[i].element) << i;
    EXPECT_EQ(static_cast<int>(a.actions[i].op), static_cast<int>(b.actions[i].op)) << i;
  }
}

TEST(Sbg, ScreeningToleratesNonCanonicalCircuits) {
  // Resistor-based circuit: screening silently disabled, behaviour intact.
  netlist::Circuit c;
  c.add_resistor("r1", "in", "out", 1e3);
  c.add_resistor("rpar", "in", "out", 1e9);
  c.add_capacitor("c1", "out", "0", 1e-9);
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult reference = refgen::generate_reference(c, spec);
  SbgOptions options;
  options.epsilon = 0.01;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e6;
  options.sensitivity_screening = true;
  const SbgResult result = simplify_before_generation(c, spec, reference.reference, options);
  EXPECT_FALSE(result.screened);
  EXPECT_EQ(result.simplified.find_element("rpar"), nullptr);
}

TEST(Sbg, FailedScreeningIsReportedAndEveryElementIsTrialed) {
  // Node x only controls gx, so its row of the adjoint system is empty and
  // screening fails; the reference comes from the circuit without gx.
  netlist::Circuit c;
  c.add_conductance("g1", "in", "out", 1e-3);
  c.add_conductance("g2", "out", "0", 1e-3);
  c.add_conductance("gpar", "in", "out", 1e-9);
  c.add_capacitor("cmain", "out", "0", 1e-9);
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult reference = refgen::generate_reference(c, spec);
  ASSERT_TRUE(reference.complete);
  c.add_vccs("gx", "out", "0", "x", "0", 1e-9);

  SbgOptions options;
  options.epsilon = 0.01;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e6;
  options.sensitivity_screening = true;
  const SbgResult result = simplify_before_generation(c, spec, reference.reference, options);
  EXPECT_FALSE(result.screened);
  EXPECT_EQ(result.simplified.find_element("gx"), nullptr);
  EXPECT_EQ(result.simplified.find_element("gpar"), nullptr);
}

}  // namespace
}  // namespace symref::symbolic
