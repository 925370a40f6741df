#include "symbolic/sdg.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "symbolic/errors.h"

namespace symref::symbolic {

using numeric::ScaledDouble;

namespace {

struct SearchState {
  int position = 0;            // index into the row list
  std::uint64_t used_cols = 0; // columns already taken (absolute indices)
  int caps = 0;                // capacitor atoms chosen so far
  double sign = 1.0;           // permutation parity * atom signs
  double log_magnitude = 0.0;  // log10 of |partial product|
  double bound = 0.0;          // log10 upper bound on any completion
  /// Last link of this state's atom chain in the path arena (-1 = root).
  /// Keeping the chosen symbols out of line keeps the state POD-sized, so
  /// multi-million-state frontiers stay in the hundreds of megabytes.
  std::int32_t path = -1;
};

/// One link of a state's atom chain: the symbol chosen at this level plus
/// the parent link. Links are append-only for the lifetime of one search;
/// completed terms reconstruct their symbol list by walking the chain.
struct PathLink {
  std::int32_t parent = -1;
  std::int32_t symbol = 0;
};

/// One admissible child of a state at a given level: the atom's column bit,
/// stamp sign, log10 |value|, symbol id and kind. A level's candidates are
/// listed once per search in column-then-atom order, so expansion walks
/// only the non-zero atoms of its row and reuses their logarithms.
struct Candidate {
  std::uint64_t bit = 0;
  double sign = 1.0;
  double log_value = 0.0;
  std::int32_t symbol = 0;
  bool is_capacitor = false;
};

/// Pops between two cancellation checks: rare enough to cost nothing next
/// to the heap work, frequent enough that a cancelled search stops within
/// milliseconds.
constexpr std::size_t kCancelCheckPops = 4096;

struct BoundOrder {
  bool operator()(const SearchState& a, const SearchState& b) const noexcept {
    // Max-heap on the admissible bound; equal bounds prefer the deeper
    // state, so near-flat frontiers (common on large matrices, where many
    // atoms share a value) drive toward completions instead of stalling in
    // breadth. Neither tweak affects the output order: a completed product
    // still pops only once no open state can beat its exact magnitude.
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.position < b.position;
  }
};

/// Best-first generation over the (sub)matrix given by `rows` x the columns
/// in `allowed_cols` — the determinant itself or any minor of it.
SdgResult run_search(const SymbolicNodalMatrix& matrix, std::vector<int> rows,
                     std::uint64_t allowed_cols, double base_sign, int k,
                     const ScaledDouble& reference, const SdgOptions& options) {
  SdgResult result;
  result.reference = reference;
  const std::size_t levels = rows.size();

  // Capacitor-aware admissible bound. A term of coefficient k must place
  // exactly k capacitor atoms, each typically ~10 decades below the
  // conductance atoms sharing its row — a bound that ignores this admits
  // astronomically many cap-free prefixes and the frontier explodes before
  // a single k>=1 product completes (the failure mode on >15-row amplifier
  // matrices). Instead, bound the completion of a state at `position` that
  // still owes `c` capacitors by the DP
  //
  //   B[pos][c] = max( gmax[pos] + B[pos+1][c],  cmax[pos] + B[pos+1][c-1] )
  //
  // where gmax/cmax are the per-row log10 maxima over conductance/capacitor
  // atoms in the allowed columns. B charges the k mandatory capacitor
  // placements to the rows where they hurt least; it is still admissible
  // (column exclusivity is relaxed) but tracks real completions closely.
  const double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> row_gmax_log(levels, kNegInf);
  std::vector<double> row_cmax_log(levels, kNegInf);
  std::vector<std::vector<Candidate>> candidates(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    const int row = rows[level];
    for (int col = 0; col < matrix.dim(); ++col) {
      const std::uint64_t bit = std::uint64_t{1} << col;
      if (!(allowed_cols & bit)) continue;
      for (const MatrixAtom& atom : matrix.entry(row, col)) {
        const Symbol& symbol = matrix.symbols().at(atom.symbol);
        if (symbol.value == 0.0) continue;
        const double log_value = std::log10(std::fabs(symbol.value));
        candidates[level].push_back(Candidate{bit, atom.sign, log_value,
                                              static_cast<std::int32_t>(atom.symbol),
                                              symbol.is_capacitor});
        double& slot = symbol.is_capacitor ? row_cmax_log[level] : row_gmax_log[level];
        slot = std::max(slot, log_value);
      }
    }
  }
  // bound_dp[pos * (k+1) + c]: best log10 completion from row `pos` with `c`
  // capacitor atoms still to place; -inf when infeasible.
  const std::size_t caps_slots = static_cast<std::size_t>(k) + 1;
  std::vector<double> bound_dp((levels + 1) * caps_slots, kNegInf);
  bound_dp[levels * caps_slots] = 0.0;
  for (std::size_t level = levels; level-- > 0;) {
    for (std::size_t c = 0; c < caps_slots; ++c) {
      double best = kNegInf;
      const double take_g = bound_dp[(level + 1) * caps_slots + c];
      if (row_gmax_log[level] != kNegInf && take_g != kNegInf) {
        best = row_gmax_log[level] + take_g;
      }
      if (c > 0 && row_cmax_log[level] != kNegInf) {
        const double take_c = bound_dp[(level + 1) * caps_slots + (c - 1)];
        if (take_c != kNegInf) best = std::max(best, row_cmax_log[level] + take_c);
      }
      bound_dp[level * caps_slots + c] = best;
    }
  }
  auto suffix_bound = [&](int position, int caps_needed) {
    return bound_dp[static_cast<std::size_t>(position) * caps_slots +
                    static_cast<std::size_t>(caps_needed)];
  };

  // Explicit binary heap (push_heap/pop_heap) instead of priority_queue so
  // the overflow policy below can restructure the container in place.
  std::vector<SearchState> frontier;
  std::vector<PathLink> arena;
  if (suffix_bound(0, k) != kNegInf) {
    SearchState root;
    root.bound = suffix_bound(0, k);
    frontier.push_back(root);
  }

  ScaledDouble accumulated(0.0);
  const ScaledDouble target = reference.abs();
  auto error_now = [&]() {
    if (target.is_zero()) return accumulated.is_zero() ? 0.0 : 1.0;
    return ((reference - accumulated).abs() / target).to_double();
  };

  const BoundOrder order;
  std::size_t pops = 0;
  while (!frontier.empty()) {
    if (pops++ % kCancelCheckPops == 0 && options.cancel.cancelled()) {
      throw support::CancelledError();
    }
    if (frontier.size() > options.max_queue) {
      // Discard the weakest-bound half and keep generating on the strong
      // half. Everything above the discarded bound still streams out exact
      // and in order; if the stop rule fires up there, the overflow cost
      // the search nothing. Only an un-met end reports "queue_overflow".
      const std::size_t keep = options.max_queue / 2;
      std::nth_element(frontier.begin(), frontier.begin() + static_cast<std::ptrdiff_t>(keep),
                       frontier.end(),
                       [&](const SearchState& a, const SearchState& b) { return order(b, a); });
      frontier.resize(keep);
      std::make_heap(frontier.begin(), frontier.end(), order);
      result.frontier_pruned = true;
    }
    std::pop_heap(frontier.begin(), frontier.end(), order);
    SearchState state = frontier.back();
    frontier.pop_back();

    if (state.position == static_cast<int>(levels)) {
      // Completed permutation product. Only products with exactly k
      // capacitor atoms belong to coefficient k.
      if (state.caps != k) continue;
      Term term;
      term.coefficient = base_sign * state.sign;
      for (std::int32_t link = state.path; link != -1;
           link = arena[static_cast<std::size_t>(link)].parent) {
        term.symbols.push_back(static_cast<int>(arena[static_cast<std::size_t>(link)].symbol));
      }
      std::sort(term.symbols.begin(), term.symbols.end());
      term.s_power = k;
      accumulated += term.value(matrix.symbols());
      result.terms.push_back(std::move(term));

      result.relative_error = error_now();
      if (result.relative_error < options.epsilon) {
        result.met = true;
        result.termination = "met";
        break;
      }
      if (result.terms.size() >= options.max_terms) {
        result.termination = "max_terms";
        break;
      }
      continue;
    }

    // Feasibility pruning on the capacitor count.
    const int caps_needed = k - state.caps;
    if (caps_needed < 0) continue;
    if (suffix_bound(state.position, caps_needed) == kNegInf) continue;

    std::uint64_t last_bit = 0;
    double parity = 1.0;
    for (const Candidate& candidate : candidates[static_cast<std::size_t>(state.position)]) {
      if (state.used_cols & candidate.bit) continue;
      if (candidate.bit != last_bit) {
        // Permutation parity: inversions added by assigning this column at
        // this level equal the number of already-used columns above it
        // (relative order within the allowed set is what matters, and used
        // is a subset of allowed).
        last_bit = candidate.bit;
        const int inversions =
            std::popcount(state.used_cols & ~((candidate.bit << 1) - std::uint64_t{1}));
        parity = (inversions % 2 == 0) ? 1.0 : -1.0;
      }
      if (candidate.is_capacitor && state.caps + 1 > k) continue;
      const int child_caps = state.caps + (candidate.is_capacitor ? 1 : 0);
      const double tail = suffix_bound(state.position + 1, k - child_caps);
      if (tail == kNegInf) continue;  // cannot reach exactly k capacitors
      SearchState child;
      child.position = state.position + 1;
      child.used_cols = state.used_cols | candidate.bit;
      child.caps = child_caps;
      // The symbol's own sign is applied at evaluation time (Term::value
      // multiplies the signed design-point values), so the coefficient
      // carries only the permutation parity and the stamp sign.
      child.sign = state.sign * parity * candidate.sign;
      child.log_magnitude = state.log_magnitude + candidate.log_value;
      child.bound = child.log_magnitude + tail;
      arena.push_back(PathLink{state.path, candidate.symbol});
      child.path = static_cast<std::int32_t>(arena.size()) - 1;
      frontier.push_back(child);
      std::push_heap(frontier.begin(), frontier.end(), order);
    }
  }

  if (result.termination.empty()) {
    if (result.frontier_pruned) {
      // The tail was cut and the stop rule never fired above the cut: the
      // stream is incomplete below the discarded bound.
      result.termination = "queue_overflow";
    } else {
      // Frontier exhausted: every term was generated; the sum is exact.
      result.termination = "exhausted";
    }
    result.relative_error = error_now();
    result.met = !result.frontier_pruned && result.relative_error < options.epsilon;
  }
  result.accumulated = accumulated;
  return result;
}

std::vector<int> all_rows(int dim, int skip) {
  std::vector<int> rows;
  rows.reserve(static_cast<std::size_t>(dim));
  for (int r = 0; r < dim; ++r) {
    if (r != skip) rows.push_back(r);
  }
  return rows;
}

/// Bitmask of every column; the search mask is 64 bits wide, so matrices
/// beyond 64 rows are outside what the generator admits.
std::uint64_t full_mask(const SymbolicNodalMatrix& matrix, const char* who) {
  if (matrix.dim() > 64) {
    throw NonAdmissibleError(std::string(who) + ": nodal matrix dimension " +
                             std::to_string(matrix.dim()) +
                             " exceeds the 64-column search mask");
  }
  if (matrix.dim() == 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << matrix.dim()) - std::uint64_t{1};
}

}  // namespace

SdgResult generate_determinant_terms(const SymbolicNodalMatrix& matrix, int k,
                                     const ScaledDouble& reference,
                                     const SdgOptions& options) {
  const std::uint64_t full = full_mask(matrix, "generate_determinant_terms");
  return run_search(matrix, all_rows(matrix.dim(), -1), full, 1.0, k, reference, options);
}

SdgResult generate_cofactor_terms(const SymbolicNodalMatrix& matrix, int row, int col,
                                  int k, const ScaledDouble& reference,
                                  const SdgOptions& options) {
  if (row < 0 || col < 0 || row >= matrix.dim() || col >= matrix.dim()) {
    throw std::out_of_range("generate_cofactor_terms: index outside matrix");
  }
  const std::uint64_t allowed =
      full_mask(matrix, "generate_cofactor_terms") & ~(std::uint64_t{1} << col);
  const double base_sign = ((row + col) % 2 == 0) ? 1.0 : -1.0;
  return run_search(matrix, all_rows(matrix.dim(), row), allowed, base_sign, k, reference,
                    options);
}

SdgResult generate_transfer_terms(const SymbolicNodalMatrix& matrix,
                                  const mna::TransferSpec& spec, TransferSide side, int k,
                                  const ScaledDouble& reference, const SdgOptions& options) {
  auto must_be_grounded = [&](const std::string& name, const char* what) {
    if (!matrix.row_of_node(name).has_value() && name != "0") {
      // row_of_node also returns nullopt for ground; distinguish via name.
      throw NonAdmissibleError(std::string("generate_transfer_terms: unknown ") + what +
                               " node '" + name + "'");
    }
  };
  if (spec.in_neg != "0" || spec.out_neg != "0") {
    throw NonAdmissibleError(
        "generate_transfer_terms: differential specs need four merged cofactor "
        "generators; ground in_neg/out_neg or use generate_cofactor_terms directly");
  }
  must_be_grounded(spec.in_pos, "input");
  must_be_grounded(spec.out_pos, "output");
  const int in_row = *matrix.row_of_node(spec.in_pos);

  if (side == TransferSide::Numerator) {
    const int out_row = *matrix.row_of_node(spec.out_pos);
    return generate_cofactor_terms(matrix, in_row, out_row, k, reference, options);
  }
  if (spec.kind == mna::TransferSpec::Kind::VoltageGain) {
    return generate_cofactor_terms(matrix, in_row, in_row, k, reference, options);
  }
  return generate_determinant_terms(matrix, k, reference, options);
}

}  // namespace symref::symbolic
