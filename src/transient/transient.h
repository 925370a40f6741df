// Time-domain (transient) analysis with plan-reusing time stepping.
//
// The integrator discretizes every capacitor and inductor into a companion
// conductance + history source (trapezoidal, BDF1 or BDF2). The companion
// stamps occupy the same matrix positions at every step, so the MNA pattern
// is fixed for the whole run: each accepted step is a PatternedMatrix
// rebind() + SparseLu refactor() replay of a recorded plan. The companion
// conductances scale with 1/h, so the plan is keyed by the *step-size
// bucket*: allowed step sizes are h_ref / 2^k, each bucket owns one
// factorization plan (recorded the first time the controller lands in it and
// replayed forever after), and a constant-step run performs exactly three
// fresh factorizations end to end — the t = 0 bias pattern, the
// consistent-initialization solve, and the single step bucket.
// `TransientResult::fresh_factorizations` probes the contract.
//
// Device-bearing netlists run a damped Newton iteration per step (the
// OpSolver machinery from dc/stamps.h: fixed-pattern device companions,
// pnjlim junction limiting, the damped Newton update), factoring through
// sparse::replay_or_factor from the kLoose pivot rung like the DC solver;
// the previous step's solution is the warm start, so a handful of
// iterations per step suffice and every iterate replays the bucket's plan.
//
// Step control: the local truncation error is estimated per accepted
// candidate by comparing the corrector against a quadratic predictor
// extrapolated through the last three accepted points. A step whose estimate
// exceeds the tolerance is rejected (counted in lte_rejections) and retried
// in the next-smaller bucket; sustained headroom grows the step back toward
// h_ref. Fixed-step runs (adaptive = false) skip the controller entirely.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dc/newton.h"
#include "dc/stamps.h"
#include "netlist/circuit.h"
#include "sparse/lu.h"
#include "sparse/matrix.h"
#include "support/cancellation.h"

namespace symref::transient {

enum class Method {
  kTrapezoidal,  // 2nd order, A-stable, the default
  kBdf1,         // backward Euler: 1st order, L-stable
  kBdf2,         // 2nd order, L-stable (BDF1 startup step)
};

/// "trap" / "bdf1" / "bdf2".
const char* method_name(Method method) noexcept;

/// Parse a method name; throws std::invalid_argument on anything else.
Method method_from_name(std::string_view name);

struct TransientOptions {
  Method method = Method::kTrapezoidal;

  /// End of the simulated window (seconds, > 0 required).
  double tstop = 0.0;

  /// Reference (maximum) step size. 0 picks tstop / 1000. With adaptive
  /// control the allowed steps are tstep / 2^k, k in [0, max_halvings].
  double tstep = 0.0;

  /// LTE step control on/off. Off = constant tstep steps (one bucket).
  bool adaptive = true;

  /// LTE acceptance: |x - predictor| <= lte_abstol + lte_reltol * |x| per
  /// unknown, with a safety factor applied on rejection.
  double lte_reltol = 1e-3;
  double lte_abstol = 1e-6;

  /// Deepest allowed bucket: h_min = tstep / 2^max_halvings.
  int max_halvings = 20;

  /// Hard cap on accepted + rejected steps (runaway guard).
  int max_steps = 1 << 20;

  /// Newton-per-step controls (device-bearing netlists).
  int max_newton_iterations = 100;
  double newton_reltol = 1e-6;
  double newton_abstol_v = 1e-9;
  double newton_abstol_i = 1e-12;
  double gmin = 1e-12;

  /// Options for the t = 0 bias solve (homotopy ladder etc.); tstep-shaped
  /// fields are ignored. The cancel token below is threaded into it.
  dc::OpOptions bias;

  /// Cooperative cancellation, polled at every step (and every Newton
  /// iterate): a tripped token throws support::CancelledError.
  support::CancellationToken cancel;
};

struct TransientResult {
  /// Unknown layout: node names (rows 0..) then branch names.
  std::vector<std::string> node_names;
  std::vector<std::string> branch_names;

  /// Accepted time points, t = 0 first; states[k] holds the full unknown
  /// vector (node voltages then branch currents) at times[k].
  std::vector<double> times;
  std::vector<std::vector<double>> states;

  int steps = 0;               // accepted steps (times.size() - 1)
  int lte_rejections = 0;      // rejected step candidates
  int newton_iterations = 0;   // total over all steps (0 for linear runs)
  int step_size_buckets = 0;   // distinct h buckets used by accepted steps

  /// Fresh factorizations, including the t = 0 bias solve's and the
  /// consistent-initialization solve's. The plan-replay contract for a
  /// linear reactive circuit: step_size_buckets + 2 (one bias factor, one
  /// initialization factor) under healthy replay; faults/degradation only
  /// add to it.
  std::uint64_t fresh_factorizations = 0;
  std::uint64_t pivot_escalations = 0;
  bool degraded = false;

  double seconds = 0.0;

  /// Waveform of one node ("0"/"gnd" = all-zero ground) across times.
  /// Throws std::invalid_argument for an unknown node.
  [[nodiscard]] std::vector<double> waveform_of(std::string_view node) const;

  /// One node's voltage at point index k.
  [[nodiscard]] double voltage_at(std::string_view node, std::size_t k) const;
};

class NoConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TransientSolver {
 public:
  explicit TransientSolver(TransientOptions options);

  /// Integrate `circuit` over [0, tstop]. The circuit must outlive the call.
  /// Throws mna::SingularSystemError (degenerate system),
  /// transient::NoConvergenceError (Newton or step-control breakdown),
  /// support::CancelledError, std::invalid_argument (bad options).
  [[nodiscard]] TransientResult solve(const netlist::Circuit& circuit);

 private:
  TransientOptions options_;
  sparse::PatternedMatrix assembly_;
  /// One factorization plan per step-size bucket (key: halving count k, or
  /// the final-partial / initialization bucket keys).
  std::map<int, sparse::SparseLu> buckets_;
};

/// One-shot convenience wrapper.
[[nodiscard]] TransientResult solve_transient(const netlist::Circuit& circuit,
                                              const TransientOptions& options);

}  // namespace symref::transient
