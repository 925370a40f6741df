#include "dc/newton.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>

#include "dc/stamps.h"
#include "devices/models.h"
#include "mna/errors.h"
#include "support/fault_injection.h"
#include "support/timer.h"

namespace symref::dc {

using netlist::Circuit;
using netlist::Device;
using netlist::DeviceKind;
using netlist::Element;
using netlist::ElementKind;
using sparse::PatternStamp;

// The stamping machinery (Layout, build_layout, stamp_device, junction
// limiting, newton_update) lives in dc/stamps.{h,cpp}, shared with the
// transient integrator.

OpSolver::OpSolver(OpOptions options) : options_(std::move(options)) {}

OpResult OpSolver::solve(const Circuit& circuit) {
  const support::Timer timer;
  auto layout_ptr = build_layout(circuit);
  const Layout& layout = *layout_ptr;

  OpResult result;
  for (int n = 1; n < circuit.node_count(); ++n) result.node_names.push_back(circuit.node_name(n));
  result.branch_names = layout.branch_names;
  if (layout.dim == 0) {
    result.seconds = timer.seconds();
    return result;
  }

  const std::size_t dim = static_cast<std::size_t>(layout.dim);
  std::vector<double> x(dim, 0.0);
  std::vector<DeviceState> state(layout.devices.size());
  std::vector<PatternStamp> stamps;
  std::vector<double> rhs(dim, 0.0);
  std::vector<std::complex<double>> rhs_c(dim);
  const NewtonLimits limits{options_.max_voltage_step, options_.reltol, options_.abstol_v,
                            options_.abstol_i};
  int iterations = 0;
  sparse::FactorCounters counters;
  bool degraded = false;
  sparse::SparseLu no_plan;  // replay source of a forced fresh factorization

  auto reset_start = [&] {
    std::fill(x.begin(), x.end(), 0.0);
    for (std::size_t i = 0; i < state.size(); ++i) state[i] = initial_state(*layout.devices[i]);
  };

  // One damped Newton stage at a fixed (gmin, source scale). Returns true on
  // convergence; x/state carry the last iterate either way.
  auto newton_stage = [&](double gmin, double alpha) -> bool {
    bool converged = false;
    for (int iter = 0; iter < options_.max_iterations; ++iter) {
      if (options_.cancel.cancelled()) throw support::CancelledError();
      ++iterations;

      // Assemble: base stamps + device companions at the current state.
      stamps.assign(layout.base_stamps.begin(), layout.base_stamps.end());
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (const Layout::Source& s : layout.sources) {
        rhs[static_cast<std::size_t>(s.row)] += alpha * s.value;
      }
      for (std::size_t i = 0; i < layout.devices.size(); ++i) {
        stamp_device(stamps, *layout.devices[i], state[i], gmin, layout, &rhs);
      }
      if (!assembly_.rebind(layout.dim, stamps)) {
        // New merged structure (first solve, or a different circuit): a
        // fresh pattern invalidates any recorded plan.
        assembly_ = sparse::PatternedMatrix(layout.dim, stamps);
      }
      const sparse::CompressedMatrix& matrix = assembly_.assemble(0.0);

      // Factor: replay the recorded plan; fresh factorization only when the
      // replay is refused, or when the newton_step fault site forces one on
      // a replayable iterate.
      const bool forced = lu_.can_replay(matrix) && support::fault("newton_step");
      const sparse::FactorResult step = sparse::replay_or_factor(
          forced ? no_plan : lu_, lu_, matrix, sparse::PivotRung::kLoose, &counters);
      if (step.outcome == sparse::FactorOutcome::kSingular) {
        throw mna::SingularSystemError(
            "dc: singular Jacobian (floating node or degenerate DC path?)");
      }
      degraded = degraded || step.degraded;

      if (newton_update(lu_, rhs, layout, limits, rhs_c, x, state) && iter > 0) {
        converged = true;
        break;
      }
    }
    return converged;
  };

  // --- Homotopy ladder ----------------------------------------------------
  int gmin_steps = 0;
  int source_steps = 0;
  reset_start();
  bool converged = newton_stage(options_.gmin, 1.0);

  if (!converged) {
    // gmin stepping: walk the junction shunt down geometrically; the stamp
    // pattern (and hence the plan) is identical at every rung.
    reset_start();
    bool ladder_ok = true;
    for (double g = options_.gmin_start; ladder_ok && g > options_.gmin * 0.999; g *= 0.1) {
      ++gmin_steps;
      ladder_ok = newton_stage(g, 1.0);
    }
    if (ladder_ok) {
      ++gmin_steps;
      converged = newton_stage(options_.gmin, 1.0);
    }
  }

  if (!converged && options_.source_steps > 0) {
    // Source stepping: ramp every DC source from zero (where x = 0 solves
    // the system exactly) up to full scale.
    reset_start();
    bool ramp_ok = true;
    for (int k = 1; ramp_ok && k <= options_.source_steps; ++k) {
      ++source_steps;
      ramp_ok = newton_stage(options_.gmin, static_cast<double>(k) /
                                                static_cast<double>(options_.source_steps));
    }
    converged = ramp_ok;
  }

  result.newton_iterations = iterations;
  result.gmin_steps = gmin_steps;
  result.source_steps = source_steps;
  counters_ += counters;
  result.fresh_factorizations = counters.fresh_factorizations;
  result.pivot_escalations = counters.pivot_escalations;
  result.degraded = degraded;

  if (!converged) {
    std::ostringstream os;
    os << "dc: no convergence after " << iterations << " Newton iterations ("
       << gmin_steps << " gmin steps, " << source_steps << " source steps)";
    throw NoConvergenceError(os.str());
  }

  // Final residual (infinity norm over the KCL rows, in amps) from the last
  // assembled system: F = A*x - b.
  {
    std::vector<double> f(dim, 0.0);
    for (const PatternStamp& s : stamps) {
      f[static_cast<std::size_t>(s.row)] +=
          s.conductance * x[static_cast<std::size_t>(s.col)];
    }
    double max_res = 0.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(layout.node_rows); ++i) {
      max_res = std::max(max_res, std::fabs(f[i] - rhs[i]));
    }
    result.max_residual = max_res;
  }

  result.node_voltages.assign(x.begin(), x.begin() + layout.node_rows);
  result.branch_currents.assign(x.begin() + layout.node_rows, x.end());

  // Device operating-point table (terminal frame: voltages/currents carry
  // the device's sign; small-signal magnitudes are positive).
  for (std::size_t i = 0; i < layout.devices.size(); ++i) {
    const Device& d = *layout.devices[i];
    const double pol = static_cast<double>(d.polarity);
    OpDeviceInfo info;
    info.name = d.name;
    info.kind = netlist::device_kind_name(d.kind);
    switch (d.kind) {
      case DeviceKind::kDiode: {
        const devices::DiodeEval e = devices::eval_diode(d.model, state[i].v1);
        const devices::DiodeSmallSignal ss = devices::diode_small_signal(d.model, state[i].v1);
        info.values = {{"vd", pol * state[i].v1},
                       {"id", pol * e.id},
                       {"gd", ss.gd},
                       {"c", ss.c}};
        break;
      }
      case DeviceKind::kBjt: {
        const devices::BjtEval e = devices::eval_bjt(d.model, state[i].v1, state[i].v2);
        const netlist::BjtParams p = devices::bjt_small_signal(d.model, e.ic);
        info.values = {{"vbe", pol * state[i].v1}, {"vbc", pol * state[i].v2},
                       {"ic", pol * e.ic},         {"ib", pol * e.ib},
                       {"gm", p.gm},               {"rpi", p.gm > 0.0 ? p.beta / p.gm : 0.0},
                       {"ro", p.ro}};
        break;
      }
      case DeviceKind::kMos: {
        const devices::MosEval e = devices::eval_mos(d.model, state[i].v1, state[i].v2);
        info.values = {{"vgs", pol * state[i].v1},
                       {"vds", pol * state[i].v2},
                       {"id", pol * e.id},
                       {"gm", e.did_dvgs},
                       {"gds", e.did_dvds}};
        break;
      }
    }
    result.devices.push_back(std::move(info));
  }

  result.seconds = timer.seconds();
  return result;
}

double OpDeviceInfo::value(std::string_view key) const {
  for (const auto& [k, v] : values) {
    if (k == key) return v;
  }
  return 0.0;
}

double OpResult::voltage_of(std::string_view node) const {
  if (node == "0" || node == "gnd" || node == "GND" || node == "Gnd") return 0.0;
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == node) return node_voltages[i];
  }
  throw std::invalid_argument("OpResult: unknown node '" + std::string(node) + "'");
}

OpResult solve_op(const Circuit& circuit, const OpOptions& options) {
  OpSolver solver(options);
  return solver.solve(circuit);
}

}  // namespace symref::dc
