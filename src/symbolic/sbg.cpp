#include "symbolic/sbg.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <optional>
#include <set>

#include "mna/ac.h"
#include "mna/sensitivity.h"
#include "netlist/canonical.h"

namespace symref::symbolic {

namespace {

/// Worst-case relative error of `candidate`'s transfer function against the
/// reference values on the grid; nullopt when the candidate cannot be
/// simulated (singular system).
std::optional<double> worst_error(const netlist::Circuit& candidate,
                                  const mna::TransferSpec& spec,
                                  const std::vector<double>& grid,
                                  const std::vector<std::complex<double>>& reference_values) {
  const mna::AcSimulator simulator(candidate);
  double worst = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::complex<double> value;
    try {
      value = simulator.transfer(spec, grid[i]);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    const double scale = std::abs(reference_values[i]);
    const double error = scale > 0.0 ? std::abs(value - reference_values[i]) / scale
                                     : std::abs(value);
    worst = std::max(worst, error);
  }
  return worst;
}

/// Shorting an element that bridges two distinct spec nodes would destroy
/// the port definition; skip those candidates.
bool short_would_merge_ports(const netlist::Circuit& circuit, const netlist::Element& element,
                             const mna::TransferSpec& spec) {
  const auto resolve = [&](const std::string& name) {
    const auto node = circuit.find_node(name);
    return node ? *node : -1;
  };
  const int ports[4] = {resolve(spec.in_pos), resolve(spec.in_neg), resolve(spec.out_pos),
                        resolve(spec.out_neg)};
  const int a = element.node_pos;
  const int b = element.node_neg;
  if (a == b) return false;
  bool a_is_port = false;
  bool b_is_port = false;
  for (const int p : ports) {
    if (p == a) a_is_port = true;
    if (p == b) b_is_port = true;
  }
  return a_is_port && b_is_port;
}

}  // namespace

SbgResult simplify_before_generation(const netlist::Circuit& circuit,
                                     const mna::TransferSpec& spec,
                                     const refgen::NumericalReference& reference,
                                     const SbgOptions& options) {
  SbgResult result;
  result.simplified = circuit;
  result.original_elements = circuit.element_count();

  const std::vector<double> grid =
      mna::log_frequency_grid(options.f_start_hz, options.f_stop_hz, options.points_per_decade);
  std::vector<std::complex<double>> reference_values;
  reference_values.reserve(grid.size());
  for (const double f : grid) reference_values.push_back(reference.transfer_at_hz(f));

  // Optional adjoint pre-screening: elements whose first-order influence on
  // H already exceeds the budget can never be removed — skip trialing them.
  std::set<std::string> never_trial;
  if (options.sensitivity_screening && netlist::is_canonical(circuit)) {
    try {
      const auto band = mna::band_sensitivities(circuit, spec, options.f_start_hz,
                                                options.f_stop_hz,
                                                options.points_per_decade);
      for (const auto& s : band) {
        if (std::abs(s.normalized) > options.screening_factor * options.epsilon) {
          never_trial.insert(s.element);
        }
      }
      result.screened = true;
    } catch (const std::exception&) {
      // Screening only prunes the trial list: when the adjoint solves fail,
      // every element is trialed and `screened` stays false.
    }
  }

  while (result.actions.size() < options.max_removals) {
    double best_error = std::numeric_limits<double>::infinity();
    std::string best_element;
    SbgAction::Op best_op = SbgAction::Op::Open;
    netlist::Circuit best_circuit;

    for (const netlist::Element& element : result.simplified.elements()) {
      if (never_trial.count(element.name) != 0) continue;
      // Try opening.
      {
        netlist::Circuit candidate = result.simplified;
        candidate.remove_element(element.name);
        const auto error = worst_error(candidate, spec, grid, reference_values);
        if (error && *error < best_error) {
          best_error = *error;
          best_element = element.name;
          best_op = SbgAction::Op::Open;
          best_circuit = std::move(candidate);
        }
      }
      // Try shorting two-terminal passives (shorting controlled sources has
      // no physical meaning in this simplification).
      const bool shortable = element.kind == netlist::ElementKind::Resistor ||
                             element.kind == netlist::ElementKind::Conductance ||
                             element.kind == netlist::ElementKind::Capacitor ||
                             element.kind == netlist::ElementKind::Inductor;
      if (shortable && !short_would_merge_ports(result.simplified, element, spec)) {
        netlist::Circuit candidate = result.simplified;
        candidate.short_element(element.name);
        const auto error = worst_error(candidate, spec, grid, reference_values);
        if (error && *error < best_error) {
          best_error = *error;
          best_element = element.name;
          best_op = SbgAction::Op::Short;
          best_circuit = std::move(candidate);
        }
      }
    }

    if (best_element.empty() || best_error > options.epsilon) break;

    result.simplified = std::move(best_circuit);
    result.actions.push_back({best_element, best_op, best_error});
    result.final_error = best_error;
  }

  result.remaining_elements = result.simplified.element_count();
  return result;
}

}  // namespace symref::symbolic
