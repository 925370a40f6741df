// Adjoint sensitivities vs finite differences.
#include "mna/sensitivity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "mna/ac.h"
#include "mna/errors.h"
#include "netlist/canonical.h"

namespace symref::mna {
namespace {

using Complex = std::complex<double>;

/// Central finite difference of the normalized sensitivity y dH/dy / H.
Complex finite_difference(const netlist::Circuit& circuit, const TransferSpec& spec,
                          const std::string& element, double frequency) {
  const double h = 1e-6;
  netlist::Circuit up = circuit;
  netlist::Circuit down = circuit;
  // Scale the element value by (1 +/- h).
  auto scale_element = [&](netlist::Circuit& target, double factor) {
    const netlist::Element* e = target.find_element(element);
    if (e == nullptr) return false;
    netlist::Element copy = *e;
    copy.value *= factor;
    target.remove_element(element);
    target.add(copy);
    return true;
  };
  if (!scale_element(up, 1.0 + h) || !scale_element(down, 1.0 - h)) {
    ADD_FAILURE() << "element not found: " << element;
    return {};
  }
  const Complex h_up = AcSimulator(up).transfer(spec, frequency);
  const Complex h_down = AcSimulator(down).transfer(spec, frequency);
  const Complex h_mid = AcSimulator(circuit).transfer(spec, frequency);
  return (h_up - h_down) / (2.0 * h) / h_mid;
}

TEST(Sensitivity, MatchesFiniteDifferenceOnLadder) {
  const auto ladder = netlist::canonicalize(circuits::rc_ladder(3));
  const auto spec = circuits::rc_ladder_spec(3);
  const double freq = 2e5;
  const auto sensitivities = ac_sensitivities(ladder, spec, freq);
  ASSERT_EQ(sensitivities.size(), ladder.element_count());
  for (const auto& s : sensitivities) {
    const Complex fd = finite_difference(ladder, spec, s.element, freq);
    EXPECT_LT(std::abs(s.normalized - fd), 1e-4 * std::max(1.0, std::abs(fd)))
        << s.element;
  }
}

TEST(Sensitivity, MatchesFiniteDifferenceOnOta) {
  // Includes VCCS elements and a gm-driven (control-only) input node, which
  // exercises the drive-admittance path.
  const auto ota = netlist::canonicalize(circuits::ota_fig1());
  const auto spec = circuits::ota_fig1_gain_spec();
  const double freq = 1e6;
  const auto sensitivities = ac_sensitivities(ota, spec, freq);
  int checked = 0;
  for (const auto& s : sensitivities) {
    if (std::abs(s.normalized) < 1e-9) continue;  // FD would be noise-bound
    const Complex fd = finite_difference(ota, spec, s.element, freq);
    EXPECT_LT(std::abs(s.normalized - fd), 2e-4 * std::max(1.0, std::abs(fd)))
        << s.element;
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

TEST(Sensitivity, RcPoleKnownAnalytically) {
  // One-pole RC: H = 1/(1 + sRC). Normalized sensitivity to C is
  // -sRC/(1+sRC); at the corner frequency its magnitude is 1/sqrt(2).
  netlist::Circuit c;
  c.add_conductance("g1", "in", "out", 1e-3);
  c.add_capacitor("c1", "out", "0", 1e-9);
  const auto spec = TransferSpec::voltage_gain("in", "out");
  const double f0 = 1e-3 / (2.0 * M_PI * 1e-9);  // w0 = G/C
  const auto sensitivities = ac_sensitivities(c, spec, f0);
  for (const auto& s : sensitivities) {
    if (s.element == "c1") {
      EXPECT_NEAR(std::abs(s.normalized), 1.0 / std::sqrt(2.0), 1e-9);
    }
    if (s.element == "g1") {
      // G appears in both numerator and denominator: S_g = +sRC/(1+sRC).
      EXPECT_NEAR(std::abs(s.normalized), 1.0 / std::sqrt(2.0), 1e-9);
    }
  }
}

TEST(Sensitivity, BandScreeningFindsNegligibleElements) {
  // The divider-with-parasitics from the SBG tests: the parasitic branches
  // must rank at the bottom across the whole band.
  netlist::Circuit c;
  c.add_conductance("g1", "in", "out", 1e-3);
  c.add_conductance("g2", "out", "0", 1e-3);
  c.add_conductance("gpar", "in", "out", 1e-9);
  c.add_capacitor("cpar", "out", "0", 1e-18);
  c.add_capacitor("cmain", "out", "0", 1e-9);
  const auto spec = TransferSpec::voltage_gain("in", "out");
  const auto band = band_sensitivities(c, spec, 1e2, 1e7, 2);
  double par_worst = 0.0;
  double main_best = 1e300;
  for (const auto& s : band) {
    if (s.element == "gpar" || s.element == "cpar") {
      par_worst = std::max(par_worst, std::abs(s.normalized));
    }
    if (s.element == "g1" || s.element == "g2" || s.element == "cmain") {
      main_best = std::min(main_best, std::abs(s.normalized));
    }
  }
  EXPECT_LT(par_worst, 1e-5);
  EXPECT_GT(main_best, 1e-2);
}

TEST(Sensitivity, FloatingNodeIsATypedSingularSystem) {
  // Node "x" hangs off the circuit through a capacitor only: at DC its row
  // and column vanish, so the system is singular at every pivot rung.
  netlist::Circuit c;
  c.add_conductance("g1", "in", "out", 1e-3);
  c.add_conductance("g2", "out", "0", 1e-3);
  c.add_capacitor("cx", "out", "x", 1e-9);
  EXPECT_THROW(ac_sensitivities(c, TransferSpec::voltage_gain("in", "out"), 0.0),
               SingularSystemError);
}

TEST(Sensitivity, RejectsNonCanonical) {
  netlist::Circuit c;
  c.add_resistor("r1", "a", "0", 1e3);
  EXPECT_THROW(ac_sensitivities(c, TransferSpec::voltage_gain("a", "a", "0"), 1e3),
               std::invalid_argument);
}

}  // namespace
}  // namespace symref::mna
