// Shared MNA stamping machinery for the time-invariant solvers (dc::OpSolver
// and transient::TransientSolver).
//
// Both solvers live on the same contract: the stamp vector handed to
// sparse::PatternedMatrix::rebind() is rebuilt every iterate as base stamps
// followed by per-device companion stamps appended in device order, so the
// (row, col) sequence — and with it the merged structure and the recorded
// symbolic plan — is pinned across iterations. This header extracts that
// machinery (row assignment, linear stamps, device companion stamps, junction
// limiting and the damped Newton update) out of the Newton solver so the
// transient integrator reuses it verbatim instead of forking a second copy
// of the stamp conventions. Both factor through sparse::replay_or_factor
// starting at sparse::PivotRung::kLoose.
#pragma once

#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "sparse/lu.h"
#include "sparse/matrix.h"

namespace symref::dc {

/// Per-device Newton state: the (limited) junction voltages the companion
/// models were last evaluated at, in the positive-polarity model frame.
struct DeviceState {
  double v1 = 0.0;  // diode vd / BJT vbe / MOS vgs
  double v2 = 0.0;  // BJT vbc / MOS vds
};

/// Stamping layout of one circuit: row assignment, the constant linear
/// stamps, the alpha-scaled source terms, and per-device bookkeeping.
struct Layout {
  int node_rows = 0;  // non-ground node count
  int dim = 0;        // node rows + auxiliary branch rows

  /// Linear stamps that are constant across Newton iterations. The DC layout
  /// treats capacitors as open and inductors as shorts; the transient layout
  /// appends companion stamps after these (see reactive_* below).
  std::vector<sparse::PatternStamp> base_stamps;

  struct Source {
    int row = 0;  // branch row (V) or node row (I)
    double value = 0.0;
    bool branch = false;
    int element = -1;  // index into Circuit::elements() (waveform lookup)
    /// Sign of this row's contribution: value == scale * dc_value always, but
    /// the transient path re-derives the level from the element's waveform at
    /// each time point and needs the sign even when dc_value is 0.
    double scale = 1.0;
  };
  std::vector<Source> sources;  // rhs += alpha * value at row

  /// Reactive elements (for the transient companion models; the DC solver
  /// ignores these — a capacitor is already open in base_stamps and an
  /// inductor branch row already reads v_p - v_n = 0).
  struct Reactive {
    int element = -1;  // index into Circuit::elements()
    int row_pos = -1;  // node rows (-1 = ground)
    int row_neg = -1;
    int branch = -1;   // inductor auxiliary current row
    double value = 0.0;  // farads / henries
  };
  std::vector<Reactive> capacitors;
  std::vector<Reactive> inductors;

  std::vector<std::string> branch_names;
  std::vector<const netlist::Device*> devices;

  [[nodiscard]] int row_of_node(int node) const noexcept { return node - 1; }
};

void stamp_conductance(std::vector<sparse::PatternStamp>& stamps, int ra, int rb, double g);
void stamp_entry(std::vector<sparse::PatternStamp>& stamps, int row, int col, double g);

/// Transconductance block: current g*(v_cp - v_cn) leaving node rp (entering
/// rn) — four entries, ground rows/columns skipped.
void stamp_vccs(std::vector<sparse::PatternStamp>& stamps, int rp, int rn, int rcp, int rcn,
                double g);

/// Row assignment + constant linear stamps + source terms for `circuit`.
/// Throws std::invalid_argument when a CCCS/CCVS senses a branchless element.
std::unique_ptr<Layout> build_layout(const netlist::Circuit& circuit);

/// Append one device's companion stamps for the given evaluation (device
/// conductances + the junction gmin shunts) and subtract its equivalent
/// currents from `rhs`. MUST emit the same (row, col) sequence for every
/// call — the pattern pin.
void stamp_device(std::vector<sparse::PatternStamp>& stamps, const netlist::Device& d,
                  const DeviceState& state, double gmin, const Layout& layout,
                  std::vector<double>* rhs);

/// Junction voltages proposed by the unknown vector x, in the
/// positive-polarity model frame.
DeviceState proposed_state(const netlist::Device& d, const std::vector<double>& x,
                           const Layout& layout);

/// Initial junction guesses: forward junctions at vcrit (the classic SPICE
/// warm start that also makes the FIRST factorization see on-state
/// conductances, so the recorded pivot order stays acceptable for every
/// later replay), reverse junctions at zero.
DeviceState initial_state(const netlist::Device& d);

/// pnjlim applied to the exponential junctions of one device; MOS voltages
/// pass through (polynomial model, handled by the global damping clamp).
DeviceState limit_state(const netlist::Device& d, const DeviceState& proposed,
                        const DeviceState& old, bool* limited);

/// Step-acceptance limits of one damped Newton iteration.
struct NewtonLimits {
  double max_voltage_step = 0.0;  // per-node step clamp [V]
  double reltol = 0.0;            // per-unknown relative tolerance
  double abstol_v = 0.0;          // node-row absolute tolerance [V]
  double abstol_i = 0.0;          // branch-row absolute tolerance [A]
};

/// The damped Newton update of the DC and transient solvers: solve the
/// factored system for `rhs` (through `scratch`), clamp each node-voltage
/// step to +-max_voltage_step, move `x` onto the accepted iterate and
/// re-limit every device's junctions against `state`. Returns true when
/// nothing was clamped or limited and every unknown moved within
/// abstol + reltol * max(|new|, |old|).
bool newton_update(const sparse::SparseLu& lu, const std::vector<double>& rhs,
                   const Layout& layout, const NewtonLimits& limits,
                   std::vector<std::complex<double>>& scratch, std::vector<double>& x,
                   std::vector<DeviceState>& state);

}  // namespace symref::dc
