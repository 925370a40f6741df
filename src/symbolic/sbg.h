// Simplification Before Generation (SBG).
//
// The paper (§1): "SBG takes place in the network under analysis, replacing
// those elements (or subcircuits), whose contribution (appropriately
// measured) to the network function is negligible, with a zero-admittance
// [open] or zero-impedance [short] element. ... most accurate error control
// criteria compare a numerical evaluation of the simplified expression with
// a numerical estimate of the complete (exact) expression."
//
// This pass implements that loop: the "numerical estimate of the complete
// expression" is the NumericalReference from the adaptive engine, evaluated
// on a frequency grid; candidates are greedily opened/shorted while the
// worst-case relative transfer error stays below epsilon.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mna/transfer.h"
#include "netlist/circuit.h"
#include "refgen/reference.h"

namespace symref::symbolic {

struct SbgOptions {
  /// Maximum allowed max-relative error of the simplified transfer function.
  double epsilon = 0.05;
  /// Error-check grid (log spaced). Choose it to cover the band of interest.
  double f_start_hz = 1.0;
  double f_stop_hz = 100e6;
  int points_per_decade = 2;
  std::size_t max_removals = static_cast<std::size_t>(-1);
  /// Pre-screen candidates with adjoint band sensitivities (two solves per
  /// frequency for ALL elements) and only trial-remove the low-influence
  /// tail: elements whose |y dH/dy / H| exceeds ~epsilon cannot be removed
  /// anyway. Requires a canonical circuit; silently disabled otherwise.
  bool sensitivity_screening = false;
  /// Screening threshold multiplier: elements with band sensitivity above
  /// screening_factor * epsilon are never trialed.
  double screening_factor = 10.0;
};

struct SbgAction {
  std::string element;
  enum class Op { Open, Short } op = Op::Open;
  /// Worst-case relative error after committing this action.
  double error_after = 0.0;
};

struct SbgResult {
  netlist::Circuit simplified;
  std::vector<SbgAction> actions;
  double final_error = 0.0;
  std::size_t original_elements = 0;
  std::size_t remaining_elements = 0;
  /// True when sensitivity screening ran and pruned the trial list; false
  /// when it was off, the circuit was not canonical, or its adjoint solves
  /// failed (a singular system or a zero transfer at a band point). Every
  /// element is trialed then.
  bool screened = false;
};

/// Greedy SBG against the interpolated reference.
SbgResult simplify_before_generation(const netlist::Circuit& circuit,
                                     const mna::TransferSpec& spec,
                                     const refgen::NumericalReference& reference,
                                     const SbgOptions& options = {});

}  // namespace symref::symbolic
