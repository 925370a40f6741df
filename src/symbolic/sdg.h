// Simplification During Generation (SDG).
//
// Refs. [2]-[4] of the paper generate the symbolic terms of each
// network-function coefficient strictly in decreasing order of design-point
// magnitude, stopping when the accumulated sum reproduces the coefficient's
// numerical reference to within epsilon (paper eq. (3)):
//
//   | h_k(x0) - sum_{l=1..P} h_kl(x0) |  <  eps_k * | h_k(x0) |
//
// That reference h_k(x0) is exactly what the adaptive interpolation engine
// produces — this module is the consumer that motivates the whole paper.
//
// The generator here is a best-first (A*-style) search over determinant
// expansions: states assign one matrix row at a time to an unused column and
// one admittance atom of that entry; the priority is the partial product's
// magnitude times an admissible bound (product of per-row maxima), so
// completed terms pop in exactly decreasing magnitude order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "numeric/scaled.h"
#include "support/cancellation.h"
#include "symbolic/det.h"
#include "symbolic/expr.h"

namespace symref::symbolic {

struct SdgOptions {
  /// eq. (3) error-control parameter eps_k.
  double epsilon = 1e-3;
  std::size_t max_terms = 200000;
  /// Search-frontier cap. When the frontier outgrows it, the weakest-bound
  /// half is discarded and generation continues on the strong half: the
  /// stream stays exact and magnitude-ordered down to the discarded bound,
  /// below which terms may be missing (frontier_pruned records this). A
  /// search that ends un-met after pruning reports "queue_overflow".
  std::size_t max_queue = 2000000;
  /// Checked every few thousand frontier pops; a cancelled search throws
  /// support::CancelledError. The default token never cancels.
  support::CancellationToken cancel;
};

struct SdgResult {
  /// Terms in generation order (non-increasing design-point magnitude).
  std::vector<Term> terms;
  /// Signed partial sum of the generated terms at the design point.
  numeric::ScaledDouble accumulated;
  /// The reference h_k(x0) the stop rule compared against.
  numeric::ScaledDouble reference;
  /// |reference - accumulated| / |reference| when the generator stopped.
  double relative_error = 1.0;
  bool met = false;
  std::string termination;  // "met", "exhausted", "max_terms", "queue_overflow"
  /// True when the frontier cap forced the weakest-bound states to be
  /// discarded at least once; terms below the discarded bound may be
  /// missing from the stream (harmless when the stop rule met above it).
  bool frontier_pruned = false;

  [[nodiscard]] std::size_t generated() const noexcept { return terms.size(); }
};

/// Generate the magnitude-ordered terms of determinant coefficient k (the
/// coefficient of s^k) until eq. (3) holds against `reference`.
SdgResult generate_determinant_terms(const SymbolicNodalMatrix& matrix, int k,
                                     const numeric::ScaledDouble& reference,
                                     const SdgOptions& options = {});

/// Same generator over the signed cofactor C_{row,col} =
/// (-1)^(row+col) * minor(row, col). With Lin's formulation the numerator of
/// a (grounded) transfer function is exactly such a cofactor, so SDG covers
/// both sides of eq. (1).
SdgResult generate_cofactor_terms(const SymbolicNodalMatrix& matrix, int row, int col,
                                  int k, const numeric::ScaledDouble& reference,
                                  const SdgOptions& options = {});

/// Convenience front-end for single-ended transfer specs (in_neg and
/// out_neg grounded): numerator terms come from C_{in,out}; denominator
/// terms from C_{in,in} (VoltageGain) or the full determinant
/// (Transimpedance). Throws std::invalid_argument for differential specs —
/// their N/D are sums of four cofactors, which this generator does not
/// merge.
enum class TransferSide { Numerator, Denominator };
SdgResult generate_transfer_terms(const SymbolicNodalMatrix& matrix,
                                  const mna::TransferSpec& spec, TransferSide side, int k,
                                  const numeric::ScaledDouble& reference,
                                  const SdgOptions& options = {});

}  // namespace symref::symbolic
