#include "transient/transient.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dc/stamps.h"
#include "mna/errors.h"
#include "support/fault_injection.h"
#include "support/timer.h"

namespace symref::transient {

using dc::DeviceState;
using dc::Layout;
using netlist::Circuit;
using netlist::Element;
using sparse::PatternStamp;

namespace {

/// Bucket key of the single non-dyadic step that lands exactly on tstop when
/// the remaining window is shorter than the current dyadic step.
constexpr int kFinalPartialBucket = -2;

/// Bucket key of the consistent-initialization solve: a BDF1 "step" of
/// near-zero length at t = 0. The huge companion conductances pin every
/// capacitor voltage and inductor current at its initial value while the
/// purely algebraic unknowns relax to a consistent t = 0+ state — and the
/// BDF1 current recovery i = geq * (v - v0) reads off the TRUE initial
/// capacitor currents, which the trapezoidal history needs (an inconsistent
/// initial current error alternates sign forever under trap instead of
/// decaying).
constexpr int kInitBucket = -3;

/// Norton forcing applied to each .ic node during the initialization solve
/// (its stamp position is kept in every later assembly with value 0 so the
/// pattern stays pinned). Strong against ordinary circuit conductances but
/// WEAK against the initialization companions (~1e12x the working geq), so a
/// capacitor at an .ic node keeps sinking essentially all of the node's
/// imbalance current — the pin must not skew the recovered i_C(0).
constexpr double kIcPinConductance = 1e6;

/// Per-reactive-element integration history at the last accepted points.
struct ReactiveHistory {
  double v = 0.0;       // across-voltage at t_n
  double v_prev = 0.0;  // at t_{n-1} (BDF2)
  double i = 0.0;       // through-current at t_n
  double i_prev = 0.0;  // at t_{n-1} (BDF2)
};

/// Companion-model coefficients of one step. For a capacitor the model is
/// i = geq * v - hist (hist injected into the node rows of the RHS); for an
/// inductor the branch row reads (vp - vn) - req * i = rhs_b.
struct CompanionCoeffs {
  double geq_scale = 0.0;  // geq = geq_scale * C / h ; req = geq_scale * L / h
};

double capacitor_hist(Method m, double c, double h, const ReactiveHistory& s) {
  switch (m) {
    case Method::kTrapezoidal:
      return (2.0 * c / h) * s.v + s.i;
    case Method::kBdf1:
      return (c / h) * s.v;
    case Method::kBdf2:
      return (c / (2.0 * h)) * (4.0 * s.v - s.v_prev);
  }
  return 0.0;
}

double inductor_rhs(Method m, double l, double h, const ReactiveHistory& s) {
  switch (m) {
    case Method::kTrapezoidal:
      return -((2.0 * l / h) * s.i + s.v);
    case Method::kBdf1:
      return -(l / h) * s.i;
    case Method::kBdf2:
      return -(l / (2.0 * h)) * (4.0 * s.i - s.i_prev);
  }
  return 0.0;
}

double companion_scale(Method m) {
  switch (m) {
    case Method::kTrapezoidal:
      return 2.0;
    case Method::kBdf1:
      return 1.0;
    case Method::kBdf2:
      return 1.5;
  }
  return 2.0;
}

}  // namespace

const char* method_name(Method method) noexcept {
  switch (method) {
    case Method::kTrapezoidal:
      return "trap";
    case Method::kBdf1:
      return "bdf1";
    case Method::kBdf2:
      return "bdf2";
  }
  return "trap";
}

Method method_from_name(std::string_view name) {
  if (name == "trap" || name == "trapezoidal") return Method::kTrapezoidal;
  if (name == "bdf1" || name == "be" || name == "euler") return Method::kBdf1;
  if (name == "bdf2" || name == "gear2") return Method::kBdf2;
  throw std::invalid_argument("transient: unknown method '" + std::string(name) +
                              "' (expected trap | bdf1 | bdf2)");
}

std::vector<double> TransientResult::waveform_of(std::string_view node) const {
  if (node == "0" || node == "gnd" || node == "GND" || node == "Gnd") {
    return std::vector<double>(times.size(), 0.0);
  }
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == node) {
      std::vector<double> wave(times.size());
      for (std::size_t k = 0; k < times.size(); ++k) wave[k] = states[k][i];
      return wave;
    }
  }
  throw std::invalid_argument("TransientResult: unknown node '" + std::string(node) + "'");
}

double TransientResult::voltage_at(std::string_view node, std::size_t k) const {
  if (node == "0" || node == "gnd" || node == "GND" || node == "Gnd") return 0.0;
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == node) return states.at(k)[i];
  }
  throw std::invalid_argument("TransientResult: unknown node '" + std::string(node) + "'");
}

TransientSolver::TransientSolver(TransientOptions options) : options_(std::move(options)) {}

TransientResult TransientSolver::solve(const Circuit& circuit) {
  const support::Timer timer;
  if (!(options_.tstop > 0.0) || !std::isfinite(options_.tstop)) {
    throw std::invalid_argument("transient: tstop must be finite and > 0");
  }
  if (options_.tstep < 0.0 || !std::isfinite(options_.tstep)) {
    throw std::invalid_argument("transient: tstep must be finite and >= 0");
  }
  if (options_.tstep > options_.tstop) {
    throw std::invalid_argument("transient: tstep exceeds tstop");
  }
  if (options_.max_halvings < 0 || options_.max_halvings > 60) {
    throw std::invalid_argument("transient: max_halvings must be in [0, 60]");
  }

  auto layout_ptr = dc::build_layout(circuit);
  const Layout& layout = *layout_ptr;

  TransientResult result;
  for (int n = 1; n < circuit.node_count(); ++n) result.node_names.push_back(circuit.node_name(n));
  result.branch_names = layout.branch_names;
  if (layout.dim == 0) {
    result.times.push_back(0.0);
    result.states.emplace_back();
    result.seconds = timer.seconds();
    return result;
  }
  const std::size_t dim = static_cast<std::size_t>(layout.dim);
  const std::size_t node_rows = static_cast<std::size_t>(layout.node_rows);

  // --- t = 0 bias point: the DC operating point of the circuit with every
  // source held at its waveform's t = 0 level, then .ic node overrides. ----
  std::vector<double> x(dim, 0.0);
  {
    Circuit bias_circuit = circuit;
    for (const Element& e : circuit.elements()) {
      if (e.is_source()) {
        Element* mutable_e = bias_circuit.mutable_element(e.name);
        mutable_e->dc_value = e.transient_value(0.0);
        mutable_e->waveform = netlist::Waveform{};
      }
    }
    dc::OpOptions bias_options = options_.bias;
    bias_options.cancel = options_.cancel;
    const dc::OpResult bias = dc::solve_op(bias_circuit, bias_options);
    result.fresh_factorizations += bias.fresh_factorizations;
    result.pivot_escalations += bias.pivot_escalations;
    result.degraded = result.degraded || bias.degraded;
    for (std::size_t i = 0; i < node_rows; ++i) x[i] = bias.node_voltages[i];
    for (std::size_t i = node_rows; i < dim; ++i) x[i] = bias.branch_currents[i - node_rows];
  }
  for (const auto& [node, volts] : circuit.initial_conditions()) {
    x[static_cast<std::size_t>(layout.row_of_node(node))] = volts;
  }

  // Reactive histories at t = 0: capacitor voltages from the (possibly
  // .ic-overridden) bias state with zero current (a capacitor is open at
  // DC); inductor currents from their bias branch rows.
  auto across = [&](const Layout::Reactive& r, const std::vector<double>& v) {
    const double vp = r.row_pos >= 0 ? v[static_cast<std::size_t>(r.row_pos)] : 0.0;
    const double vn = r.row_neg >= 0 ? v[static_cast<std::size_t>(r.row_neg)] : 0.0;
    return vp - vn;
  };
  std::vector<ReactiveHistory> cap_hist(layout.capacitors.size());
  std::vector<ReactiveHistory> ind_hist(layout.inductors.size());
  for (std::size_t i = 0; i < layout.capacitors.size(); ++i) {
    cap_hist[i].v = cap_hist[i].v_prev = across(layout.capacitors[i], x);
  }
  for (std::size_t i = 0; i < layout.inductors.size(); ++i) {
    ind_hist[i].i = ind_hist[i].i_prev = x[static_cast<std::size_t>(layout.inductors[i].branch)];
    ind_hist[i].v = across(layout.inductors[i], x);
  }
  std::vector<DeviceState> dev_state(layout.devices.size());
  for (std::size_t i = 0; i < layout.devices.size(); ++i) {
    dev_state[i] = dc::proposed_state(*layout.devices[i], x, layout);
  }

  result.times.push_back(0.0);
  result.states.push_back(x);

  // --- Step grid ----------------------------------------------------------
  // Fixed mode snaps the whole window onto n equal steps of ~tstep (exactly
  // reaching tstop, one bucket). Adaptive mode walks the dyadic grid
  // h = h_ref / 2^k under LTE control.
  const double h_ref = options_.tstep > 0.0 ? options_.tstep : options_.tstop / 1000.0;
  long fixed_steps = 0;
  double fixed_h = 0.0;
  if (!options_.adaptive) {
    fixed_steps = std::lround(std::ceil(options_.tstop / h_ref - 1e-9));
    fixed_steps = std::max<long>(fixed_steps, 1);
    fixed_h = options_.tstop / static_cast<double>(fixed_steps);
  }

  // --- Per-step machinery -------------------------------------------------
  std::vector<PatternStamp> stamps;
  std::vector<double> rhs(dim, 0.0);
  std::vector<std::complex<double>> rhs_c(dim);
  std::vector<double> x_new(dim, 0.0);
  std::vector<DeviceState> state_new(dev_state);
  std::set<int> buckets_used;

  // Factor-or-replay against one bucket's plan: the first visit records the
  // bucket's plan fresh; every later visit replays it (a refused replay, or
  // the newton_step fault site, factors afresh from the kLoose rung like
  // the DC solver).
  const dc::NewtonLimits limits{options_.bias.max_voltage_step, options_.newton_reltol,
                                options_.newton_abstol_v, options_.newton_abstol_i};
  sparse::FactorCounters counters;
  sparse::SparseLu no_plan;  // replay source of a forced fresh factorization
  auto factor_bucket = [&](int key, const sparse::CompressedMatrix& matrix,
                           double t_new) -> sparse::SparseLu& {
    // A bucket counts as used the moment its plan is touched — including a
    // trial step later rejected by LTE control — so the replay invariant
    // "fresh factorizations == buckets + bias + init" holds exactly. The
    // initialization micro-step is accounted separately (it is not a step
    // size the run ever revisits).
    if (key != kInitBucket) buckets_used.insert(key);
    sparse::SparseLu& lu = buckets_[key];
    const bool forced = lu.can_replay(matrix) && support::fault("newton_step");
    const sparse::FactorResult step = sparse::replay_or_factor(
        forced ? no_plan : lu, lu, matrix, sparse::PivotRung::kLoose, &counters);
    if (step.outcome == sparse::FactorOutcome::kSingular) {
      std::ostringstream os;
      os << "transient: singular system at t = " << t_new
         << " (floating node or degenerate companion network?)";
      throw mna::SingularSystemError(os.str());
    }
    if (step.degraded) result.degraded = true;
    return lu;
  };

  // Assemble the step system at time t_new with step h: base stamps, then
  // reactive companions, then device companions, then the .ic pin positions
  // — ALWAYS in this order so the merged pattern is pinned for the whole
  // run (the .ic pins carry a nonzero value only during the t = 0
  // initialization solve).
  bool pin_ic = false;
  auto assemble_step = [&](Method m, double t_new, double h,
                           const std::vector<DeviceState>& dstate)
      -> const sparse::CompressedMatrix& {
    stamps.assign(layout.base_stamps.begin(), layout.base_stamps.end());
    std::fill(rhs.begin(), rhs.end(), 0.0);
    const double scale = companion_scale(m);
    for (const Layout::Source& s : layout.sources) {
      const Element& e = circuit.elements()[static_cast<std::size_t>(s.element)];
      rhs[static_cast<std::size_t>(s.row)] += s.scale * e.transient_value(t_new);
    }
    for (std::size_t i = 0; i < layout.capacitors.size(); ++i) {
      const Layout::Reactive& r = layout.capacitors[i];
      const double geq = scale * r.value / h;
      dc::stamp_conductance(stamps, r.row_pos, r.row_neg, geq);
      const double hist = capacitor_hist(m, r.value, h, cap_hist[i]);
      if (r.row_pos >= 0) rhs[static_cast<std::size_t>(r.row_pos)] += hist;
      if (r.row_neg >= 0) rhs[static_cast<std::size_t>(r.row_neg)] -= hist;
    }
    for (std::size_t i = 0; i < layout.inductors.size(); ++i) {
      const Layout::Reactive& r = layout.inductors[i];
      const double req = scale * r.value / h;
      stamps.push_back({r.branch, r.branch, -req, 0.0});
      rhs[static_cast<std::size_t>(r.branch)] += inductor_rhs(m, r.value, h, ind_hist[i]);
    }
    for (std::size_t i = 0; i < layout.devices.size(); ++i) {
      dc::stamp_device(stamps, *layout.devices[i], dstate[i], options_.gmin, layout, &rhs);
    }
    for (const auto& [node, volts] : circuit.initial_conditions()) {
      const int row = layout.row_of_node(node);
      const double g_pin = pin_ic ? kIcPinConductance : 0.0;
      stamps.push_back({row, row, g_pin, 0.0});
      rhs[static_cast<std::size_t>(row)] += g_pin * volts;
    }
    if (!assembly_.rebind(layout.dim, stamps)) {
      // First assembly of this pattern (or a different circuit): every
      // recorded bucket plan belongs to the old structure.
      assembly_ = sparse::PatternedMatrix(layout.dim, stamps);
      buckets_.clear();
    }
    return assembly_.assemble(0.0);
  };

  // One step candidate t -> t_new = t + h against bucket `key`. Fills x_new /
  // state_new; returns false when the per-step Newton fails to converge
  // (never for a linear circuit — one replayed solve is exact).
  auto step_once = [&](Method m, double t_new, double h, int key) -> bool {
    if (layout.devices.empty()) {
      const sparse::CompressedMatrix& matrix = assemble_step(m, t_new, h, dev_state);
      sparse::SparseLu& lu = factor_bucket(key, matrix, t_new);
      rhs_c.assign(rhs.begin(), rhs.end());
      lu.solve(rhs_c);
      for (std::size_t i = 0; i < dim; ++i) x_new[i] = rhs_c[i].real();
      return true;
    }

    // Newton-per-step, warm-started at the previous accepted point; the
    // convergence criterion mirrors the DC solver's (clamp + junction limit
    // + per-unknown step tolerance).
    x_new = x;
    state_new = dev_state;
    for (int iter = 0; iter < options_.max_newton_iterations; ++iter) {
      if (options_.cancel.cancelled()) throw support::CancelledError();
      ++result.newton_iterations;
      const sparse::CompressedMatrix& matrix = assemble_step(m, t_new, h, state_new);
      const sparse::SparseLu& lu = factor_bucket(key, matrix, t_new);
      if (dc::newton_update(lu, rhs, layout, limits, rhs_c, x_new, state_new) && iter > 0) {
        return true;
      }
    }
    return false;
  };

  // Roll the reactive histories onto the freshly solved x_new: the new
  // across-voltages, and the element currents recovered from the companion
  // relation i = geq * v - hist of the step that was just taken.
  auto roll_histories = [&](Method m, double h) {
    const double scale = companion_scale(m);
    for (std::size_t i = 0; i < layout.capacitors.size(); ++i) {
      const Layout::Reactive& r = layout.capacitors[i];
      const double v1 = across(r, x_new);
      const double geq = scale * r.value / h;
      const double i1 = geq * v1 - capacitor_hist(m, r.value, h, cap_hist[i]);
      cap_hist[i].v_prev = cap_hist[i].v;
      cap_hist[i].i_prev = cap_hist[i].i;
      cap_hist[i].v = v1;
      cap_hist[i].i = i1;
    }
    for (std::size_t i = 0; i < layout.inductors.size(); ++i) {
      const Layout::Reactive& r = layout.inductors[i];
      ind_hist[i].i_prev = ind_hist[i].i;
      ind_hist[i].v_prev = ind_hist[i].v;
      ind_hist[i].i = x_new[static_cast<std::size_t>(r.branch)];
      ind_hist[i].v = across(r, x_new);
    }
  };

  // Accept a step: roll the histories forward and record the point.
  double h_last = 0.0;
  auto accept_step = [&](Method m, double t_new, double h) {
    roll_histories(m, h);
    x = x_new;
    dev_state = state_new;
    h_last = h;
    result.times.push_back(t_new);
    result.states.push_back(x);
    ++result.steps;
  };

  // BDF2 needs two accepted points at the SAME step size; startup steps and
  // the first step after a bucket change fall back to BDF1 for one step.
  auto effective_method = [&](double h) {
    if (options_.method == Method::kBdf2 &&
        (result.steps < 1 || std::fabs(h - h_last) > 1e-12 * h)) {
      return Method::kBdf1;
    }
    return options_.method;
  };

  // Quadratic-extrapolation LTE estimate of the freshly computed x_new
  // against the last three accepted points; <= 1 accepts.
  auto lte_ratio = [&](double t_new) -> double {
    const std::size_t n = result.times.size();
    if (n < 3) return 0.0;  // not enough history: accept
    const double t0 = result.times[n - 1];
    const double t1 = result.times[n - 2];
    const double t2 = result.times[n - 3];
    const double c0 = ((t_new - t1) * (t_new - t2)) / ((t0 - t1) * (t0 - t2));
    const double c1 = ((t_new - t0) * (t_new - t2)) / ((t1 - t0) * (t1 - t2));
    const double c2 = ((t_new - t0) * (t_new - t1)) / ((t2 - t0) * (t2 - t1));
    const std::vector<double>& s0 = result.states[n - 1];
    const std::vector<double>& s1 = result.states[n - 2];
    const std::vector<double>& s2 = result.states[n - 3];
    double worst = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double predicted = c0 * s0[i] + c1 * s1[i] + c2 * s2[i];
      const double tol = options_.lte_abstol +
                         options_.lte_reltol * std::max(std::fabs(x_new[i]), std::fabs(predicted));
      worst = std::max(worst, std::fabs(x_new[i] - predicted) / tol);
    }
    return worst;
  };

  // --- Consistent initialization ------------------------------------------
  // The bias point plus .ic overrides fixes the differential state
  // (capacitor voltages, inductor currents) but leaves the algebraic
  // unknowns inconsistent: an .ic-forced node drags its neighbours, and the
  // initial capacitor CURRENTS are not part of the DC solution at all. One
  // near-zero-length BDF1 step pins the differential state (companion
  // conductances ~ 1e9x the working ones) and relaxes everything else; the
  // companion current recovery then reads off the true t = 0+ capacitor
  // currents the trapezoidal history needs.
  if (!layout.capacitors.empty() || !layout.inductors.empty() ||
      !circuit.initial_conditions().empty()) {
    const double h_first = options_.adaptive ? h_ref : fixed_h;
    const double h_init = h_first * 1e-12;
    pin_ic = true;
    const bool init_ok = step_once(Method::kBdf1, 0.0, h_init, kInitBucket);
    pin_ic = false;
    if (!init_ok) {
      throw NoConvergenceError(
          "transient: Newton failed to converge on the t = 0 initialization solve");
    }
    roll_histories(Method::kBdf1, h_init);
    // Startup duplicates: BDF2's two-point history starts uniform.
    for (ReactiveHistory& s : cap_hist) {
      s.v_prev = s.v;
      s.i_prev = s.i;
    }
    for (ReactiveHistory& s : ind_hist) {
      s.v_prev = s.v;
      s.i_prev = s.i;
    }
    x = x_new;
    dev_state = state_new;
    result.states[0] = x;
  }

  // --- Time loop ----------------------------------------------------------
  int attempts = 0;
  auto check_budget = [&] {
    if (options_.cancel.cancelled()) throw support::CancelledError();
    if (++attempts > options_.max_steps) {
      std::ostringstream os;
      os << "transient: step budget exhausted (" << options_.max_steps << " attempts, "
         << result.steps << " accepted, t = " << result.times.back() << " of "
         << options_.tstop << ")";
      throw NoConvergenceError(os.str());
    }
  };

  if (!options_.adaptive) {
    for (long n = 1; n <= fixed_steps; ++n) {
      check_budget();
      const double t_new = n == fixed_steps
                               ? options_.tstop
                               : options_.tstop * static_cast<double>(n) /
                                     static_cast<double>(fixed_steps);
      const Method m = effective_method(fixed_h);
      if (!step_once(m, t_new, fixed_h, 0)) {
        std::ostringstream os;
        os << "transient: Newton failed to converge at t = " << t_new
           << " with fixed step " << fixed_h << " (try a smaller tstep or adaptive control)";
        throw NoConvergenceError(os.str());
      }
      accept_step(m, t_new, fixed_h);
    }
  } else {
    int k = 0;  // current halving depth: h = h_ref / 2^k
    int calm_streak = 0;
    double t = 0.0;
    while (t < options_.tstop * (1.0 - 1e-12)) {
      check_budget();
      double h = std::ldexp(h_ref, -k);
      int key = k;
      if (t + h > options_.tstop) {
        h = options_.tstop - t;
        key = kFinalPartialBucket;
      }
      const double t_new = key == kFinalPartialBucket ? options_.tstop : t + h;
      const Method m = effective_method(h);

      const bool newton_ok = step_once(m, t_new, h, key);
      const double err = newton_ok ? lte_ratio(t_new) : 0.0;
      if (!newton_ok || err > 1.0) {
        if (newton_ok) ++result.lte_rejections;
        if (k >= options_.max_halvings) {
          if (!newton_ok) {
            std::ostringstream os;
            os << "transient: Newton failed to converge at t = " << t_new
               << " with the minimum step " << h;
            throw NoConvergenceError(os.str());
          }
          // LTE floor: the grid cannot be refined further — accept the best
          // available step rather than spinning (SPICE's trtol escape).
        } else {
          ++k;
          calm_streak = 0;
          continue;
        }
      }
      accept_step(m, t_new, h);
      t = t_new;
      // Sustained headroom grows the step back toward h_ref (the predictor
      // error scales ~h^3, so a generous margin is required before doubling).
      if (err < 0.05 && key == k) {
        if (++calm_streak >= 3 && k > 0) {
          --k;
          calm_streak = 0;
        }
      } else {
        calm_streak = 0;
      }
    }
  }

  result.fresh_factorizations += counters.fresh_factorizations;
  result.pivot_escalations += counters.pivot_escalations;
  result.step_size_buckets = static_cast<int>(buckets_used.size());
  result.seconds = timer.seconds();
  return result;
}

TransientResult solve_transient(const Circuit& circuit, const TransientOptions& options) {
  TransientSolver solver(options);
  return solver.solve(circuit);
}

}  // namespace symref::transient
