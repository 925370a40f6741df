#include "dc/stamps.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "devices/models.h"

namespace symref::dc {

using netlist::Circuit;
using netlist::Device;
using netlist::DeviceKind;
using netlist::Element;
using netlist::ElementKind;
using sparse::PatternStamp;

void stamp_conductance(std::vector<PatternStamp>& stamps, int ra, int rb, double g) {
  if (ra >= 0) stamps.push_back({ra, ra, g, 0.0});
  if (rb >= 0) stamps.push_back({rb, rb, g, 0.0});
  if (ra >= 0 && rb >= 0) {
    stamps.push_back({ra, rb, -g, 0.0});
    stamps.push_back({rb, ra, -g, 0.0});
  }
}

void stamp_entry(std::vector<PatternStamp>& stamps, int row, int col, double g) {
  if (row >= 0 && col >= 0) stamps.push_back({row, col, g, 0.0});
}

void stamp_vccs(std::vector<PatternStamp>& stamps, int rp, int rn, int rcp, int rcn, double g) {
  stamp_entry(stamps, rp, rcp, g);
  stamp_entry(stamps, rp, rcn, -g);
  stamp_entry(stamps, rn, rcp, -g);
  stamp_entry(stamps, rn, rcn, g);
}

std::unique_ptr<Layout> build_layout(const Circuit& circuit) {
  auto layout = std::make_unique<Layout>();
  layout->node_rows = circuit.unknown_count();

  // Pass 1: assign branch rows.
  std::map<std::string, int> branch_row;
  int next_row = layout->node_rows;
  for (const Element& e : circuit.elements()) {
    if (e.needs_branch_current()) {
      branch_row[e.name] = next_row++;
      layout->branch_names.push_back(e.name);
    }
  }
  layout->dim = next_row;

  auto row = [&](int node) { return node - 1; };  // ground (0) -> -1
  auto ctrl_row = [&](const Element& e) {
    const auto it = branch_row.find(e.ctrl_branch);
    if (it == branch_row.end()) {
      throw std::invalid_argument("dc: element '" + e.name + "' senses branch '" +
                                  e.ctrl_branch +
                                  "' which is not a branch-current element");
    }
    return it->second;
  };

  // Pass 2: constant linear stamps + alpha-scaled source terms.
  std::vector<PatternStamp>& stamps = layout->base_stamps;
  for (std::size_t index = 0; index < circuit.elements().size(); ++index) {
    const Element& e = circuit.elements()[index];
    const int rp = row(e.node_pos);
    const int rn = row(e.node_neg);
    switch (e.kind) {
      case ElementKind::Resistor:
        stamp_conductance(stamps, rp, rn, 1.0 / e.value);
        break;
      case ElementKind::Conductance:
        stamp_conductance(stamps, rp, rn, e.value);
        break;
      case ElementKind::Capacitor:
        // Open at DC; the transient integrator appends its companion stamps.
        layout->capacitors.push_back({static_cast<int>(index), rp, rn, -1, e.value});
        break;
      case ElementKind::Vccs:
        stamp_vccs(stamps, rp, rn, row(e.ctrl_pos), row(e.ctrl_neg), e.value);
        break;
      case ElementKind::Cccs: {
        const int rb = ctrl_row(e);
        stamp_entry(stamps, rp, rb, e.value);
        stamp_entry(stamps, rn, rb, -e.value);
        break;
      }
      case ElementKind::VoltageSource:
      case ElementKind::Inductor:
      case ElementKind::Vcvs:
      case ElementKind::Ccvs: {
        const int rb = branch_row.at(e.name);
        stamp_entry(stamps, rp, rb, 1.0);
        stamp_entry(stamps, rn, rb, -1.0);
        stamp_entry(stamps, rb, rp, 1.0);
        stamp_entry(stamps, rb, rn, -1.0);
        if (e.kind == ElementKind::Vcvs) {
          stamp_entry(stamps, rb, row(e.ctrl_pos), -e.value);
          stamp_entry(stamps, rb, row(e.ctrl_neg), e.value);
        } else if (e.kind == ElementKind::Ccvs) {
          stamps.push_back({branch_row.at(e.name), ctrl_row(e), -e.value, 0.0});
        } else if (e.kind == ElementKind::VoltageSource) {
          layout->sources.push_back({rb, e.dc_value, true, static_cast<int>(index), 1.0});
        } else {  // Inductor: short at DC, companion resistance in transient.
          layout->inductors.push_back({static_cast<int>(index), rp, rn, rb, e.value});
        }
        break;
      }
      case ElementKind::CurrentSource:
        // Positive current flows from node_pos through the source to
        // node_neg: extracted at pos, injected at neg.
        if (rp >= 0) {
          layout->sources.push_back({rp, -e.dc_value, false, static_cast<int>(index), -1.0});
        }
        if (rn >= 0) {
          layout->sources.push_back({rn, e.dc_value, false, static_cast<int>(index), 1.0});
        }
        break;
      case ElementKind::IdealOpAmp: {
        const int rb = branch_row.at(e.name);
        stamp_entry(stamps, rp, rb, 1.0);
        stamp_entry(stamps, rn, rb, -1.0);
        stamp_entry(stamps, rb, row(e.ctrl_pos), 1.0);
        stamp_entry(stamps, rb, row(e.ctrl_neg), -1.0);
        break;
      }
    }
  }

  for (const Device& d : circuit.devices()) layout->devices.push_back(&d);
  return layout;
}

void stamp_device(std::vector<PatternStamp>& stamps, const Device& d, const DeviceState& state,
                  double gmin, const Layout& layout,
                  std::vector<double>* rhs) {
  const double pol = static_cast<double>(d.polarity);
  switch (d.kind) {
    case DeviceKind::kDiode: {
      const int ra = layout.row_of_node(d.nodes[0]);
      const int rc = layout.row_of_node(d.nodes[1]);
      const devices::DiodeEval e = devices::eval_diode(d.model, state.v1);
      stamp_conductance(stamps, ra, rc, e.gd + gmin);
      if (ra >= 0) (*rhs)[static_cast<std::size_t>(ra)] -= pol * e.ieq;
      if (rc >= 0) (*rhs)[static_cast<std::size_t>(rc)] += pol * e.ieq;
      break;
    }
    case DeviceKind::kBjt: {
      const int rc = layout.row_of_node(d.nodes[0]);
      const int rb = layout.row_of_node(d.nodes[1]);
      const int re = layout.row_of_node(d.nodes[2]);
      const devices::BjtEval e = devices::eval_bjt(d.model, state.v1, state.v2);
      // Terminal-frame Jacobian (polarity cancels in every derivative):
      //   d ic/dVb = dic_dvbe + dic_dvbc, d ic/dVe = -dic_dvbe,
      //   d ic/dVc = -dic_dvbc; the base row likewise, and the emitter row
      //   is the negated column-wise sum of the two.
      // Collector row.
      stamp_entry(stamps, rc, rb, e.dic_dvbe + e.dic_dvbc);
      stamp_entry(stamps, rc, re, -e.dic_dvbe);
      stamp_entry(stamps, rc, rc, -e.dic_dvbc);
      // Base row.
      stamp_entry(stamps, rb, rb, e.dib_dvbe + e.dib_dvbc);
      stamp_entry(stamps, rb, re, -e.dib_dvbe);
      stamp_entry(stamps, rb, rc, -e.dib_dvbc);
      // Emitter row: ie = -(ic + ib).
      stamp_entry(stamps, re, rb, -(e.dic_dvbe + e.dic_dvbc + e.dib_dvbe + e.dib_dvbc));
      stamp_entry(stamps, re, re, e.dic_dvbe + e.dib_dvbe);
      stamp_entry(stamps, re, rc, e.dic_dvbc + e.dib_dvbc);
      // Junction gmin shunts.
      stamp_conductance(stamps, rb, re, gmin);
      stamp_conductance(stamps, rb, rc, gmin);
      if (rc >= 0) (*rhs)[static_cast<std::size_t>(rc)] -= pol * e.ic_eq;
      if (rb >= 0) (*rhs)[static_cast<std::size_t>(rb)] -= pol * e.ib_eq;
      if (re >= 0) (*rhs)[static_cast<std::size_t>(re)] += pol * (e.ic_eq + e.ib_eq);
      break;
    }
    case DeviceKind::kMos: {
      const int rd = layout.row_of_node(d.nodes[0]);
      const int rg = layout.row_of_node(d.nodes[1]);
      const int rs = layout.row_of_node(d.nodes[2]);
      const devices::MosEval e = devices::eval_mos(d.model, state.v1, state.v2);
      // Drain row: id depends on vgs = Vg - Vs and vds = Vd - Vs.
      stamp_entry(stamps, rd, rg, e.did_dvgs);
      stamp_entry(stamps, rd, rd, e.did_dvds);
      stamp_entry(stamps, rd, rs, -(e.did_dvgs + e.did_dvds));
      // Source row: is = -id.
      stamp_entry(stamps, rs, rg, -e.did_dvgs);
      stamp_entry(stamps, rs, rd, -e.did_dvds);
      stamp_entry(stamps, rs, rs, e.did_dvgs + e.did_dvds);
      // Channel gmin (keeps a cut-off device's drain/source rows alive).
      stamp_conductance(stamps, rd, rs, gmin);
      if (rd >= 0) (*rhs)[static_cast<std::size_t>(rd)] -= pol * e.id_eq;
      if (rs >= 0) (*rhs)[static_cast<std::size_t>(rs)] += pol * e.id_eq;
      break;
    }
  }
}

DeviceState proposed_state(const Device& d, const std::vector<double>& x,
                           const Layout& layout) {
  auto v = [&](int node) {
    const int r = layout.row_of_node(node);
    return r < 0 ? 0.0 : x[static_cast<std::size_t>(r)];
  };
  const double pol = static_cast<double>(d.polarity);
  DeviceState s;
  switch (d.kind) {
    case DeviceKind::kDiode:
      s.v1 = pol * (v(d.nodes[0]) - v(d.nodes[1]));
      break;
    case DeviceKind::kBjt:
      s.v1 = pol * (v(d.nodes[1]) - v(d.nodes[2]));  // vbe
      s.v2 = pol * (v(d.nodes[1]) - v(d.nodes[0]));  // vbc
      break;
    case DeviceKind::kMos:
      s.v1 = pol * (v(d.nodes[1]) - v(d.nodes[2]));  // vgs
      s.v2 = pol * (v(d.nodes[0]) - v(d.nodes[2]));  // vds
      break;
  }
  return s;
}

DeviceState initial_state(const Device& d) {
  DeviceState s;
  const double n_vt = d.model.n * devices::kThermalVoltage;
  switch (d.kind) {
    case DeviceKind::kDiode:
      s.v1 = devices::junction_vcrit(d.model.is, n_vt);
      break;
    case DeviceKind::kBjt:
      s.v1 = devices::junction_vcrit(d.model.is, n_vt);
      s.v2 = 0.0;
      break;
    case DeviceKind::kMos:
      s.v1 = d.model.vto;  // edge of conduction
      s.v2 = 0.0;
      break;
  }
  return s;
}

DeviceState limit_state(const Device& d, const DeviceState& proposed, const DeviceState& old,
                        bool* limited) {
  DeviceState next = proposed;
  const double n_vt = d.model.n * devices::kThermalVoltage;
  const double vcrit = devices::junction_vcrit(d.model.is, n_vt);
  switch (d.kind) {
    case DeviceKind::kDiode:
      next.v1 = devices::pnjlim(proposed.v1, old.v1, n_vt, vcrit, limited);
      break;
    case DeviceKind::kBjt:
      next.v1 = devices::pnjlim(proposed.v1, old.v1, n_vt, vcrit, limited);
      next.v2 = devices::pnjlim(proposed.v2, old.v2, n_vt, vcrit, limited);
      break;
    case DeviceKind::kMos:
      break;
  }
  return next;
}

bool newton_update(const sparse::SparseLu& lu, const std::vector<double>& rhs,
                   const Layout& layout, const NewtonLimits& limits,
                   std::vector<std::complex<double>>& scratch, std::vector<double>& x,
                   std::vector<DeviceState>& state) {
  const std::size_t node_rows = static_cast<std::size_t>(layout.node_rows);
  scratch.assign(rhs.begin(), rhs.end());
  lu.solve(scratch);
  bool clamped = false;
  double max_rel = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double delta = scratch[i].real() - x[i];
    if (i < node_rows && std::fabs(delta) > limits.max_voltage_step) {
      delta = delta > 0 ? limits.max_voltage_step : -limits.max_voltage_step;
      clamped = true;
    }
    const double accepted = x[i] + delta;
    const double abstol = i < node_rows ? limits.abstol_v : limits.abstol_i;
    const double tol = abstol + limits.reltol * std::max(std::fabs(accepted), std::fabs(x[i]));
    max_rel = std::max(max_rel, std::fabs(delta) / tol);
    x[i] = accepted;
  }
  // Junction limiting against the previous evaluation point.
  bool limited = false;
  for (std::size_t i = 0; i < layout.devices.size(); ++i) {
    const DeviceState proposed = proposed_state(*layout.devices[i], x, layout);
    state[i] = limit_state(*layout.devices[i], proposed, state[i], &limited);
  }
  return !clamped && !limited && max_rel <= 1.0;
}

}  // namespace symref::dc
