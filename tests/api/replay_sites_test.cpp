// Every plan-replay site routes through sparse::replay_or_factor: under
// REFGEN_FAULT=lu_pivot (every replay refused) each site factors afresh
// once per replay attempt, a near-singular deck escalates exactly at the
// sites whose starting rung is the default one, and a singular deck fails
// with the same typed Status everywhere.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "api/status.h"
#include "dc/newton.h"
#include "mna/ac.h"
#include "mna/nodal.h"
#include "mna/sensitivity.h"
#include "netlist/circuit.h"
#include "sparse/lu.h"
#include "support/fault_injection.h"
#include "support/thread_pool.h"
#include "transient/transient.h"

namespace symref {
namespace {

using api::StatusCode;
using sparse::PivotRung;

enum class Deck { kHealthy, kNearSingular, kSingular };

/// Conductances and VCCSs only, so the nodal, MNA, DC and transient
/// matrices of a deck coincide (transimpedance spec: no drive stamps).
netlist::Circuit deck(Deck kind) {
  netlist::Circuit c;
  switch (kind) {
    case Deck::kHealthy:
      c.add_conductance("g1", "a", "0", 1e-3);
      c.add_conductance("g2", "a", "c", 2e-3);
      c.add_vccs("gm", "c", "0", "a", "0", 1e-2);
      c.add_conductance("g3", "c", "0", 3e-3);
      break;
    case Deck::kNearSingular:
      // Nonsingular (det = -2^-54 exactly), but the default rung cancels in
      // rounding: it pivots on gac first, which turns c's b-entry into
      // 1/3 + 2/3, rounded to exactly 1, and then on gb, which leaves c's
      // a-entry 2^-12 - 2 * 2^-13 = 0. The 1e-6 rung may pivot on gba
      // first and does not cancel. Every product in either pivot order has
      // a power-of-two factor and is exact, so only IEEE-rounded additions
      // and divisions remain: the outcome is the same with or without
      // fused multiply-add contraction.
      c.add_vccs("gab", "a", "0", "b", "0", -1.0 / 3.0);
      c.add_vccs("gac", "a", "0", "c", "0", 0.5);
      c.add_vccs("gba", "b", "0", "a", "0", 2.0);
      c.add_conductance("gb", "b", "0", 8192.0);
      c.add_vccs("gca", "c", "0", "a", "0", 1.0 / 4096.0);
      c.add_vccs("gcb", "c", "0", "b", "0", 1.0 / 3.0);
      c.add_conductance("gc", "c", "0", 1.0);
      break;
    case Deck::kSingular:
      // Node x hangs off c through a capacitor only: at DC its row vanishes.
      c.add_conductance("g1", "a", "0", 1e-3);
      c.add_conductance("g2", "a", "c", 1e-3);
      c.add_capacitor("cx", "c", "x", 1e-9);
      break;
  }
  return c;
}

const mna::TransferSpec kSpec = mna::TransferSpec::transimpedance("a", "c");

/// What one site reported for one measured operation.
struct Observation {
  StatusCode code = StatusCode::kOk;
  /// Factorizations the measured operation ran against the site's
  /// counters (a replay or a fresh walk each).
  std::uint64_t attempts = 0;
  /// Counter deltas and degraded flag; nullopt where the site exposes
  /// neither.
  std::optional<sparse::FactorCounters> counters;
  bool degraded = false;
};

struct Site {
  std::string name;
  PivotRung start;
  /// Record a plan fault-free (where the site keeps one across calls), arm
  /// `fault` and run the measured operation.
  std::function<Observation(const netlist::Circuit&, const std::string& fault)> run;
};

void PrintTo(const Site& site, std::ostream* os) { *os << site.name; }

void arm(const std::string& fault) {
  ASSERT_TRUE(support::FaultInjector::instance().configure(fault));
}

sparse::FactorCounters delta(std::uint64_t fresh0, std::uint64_t esc0, std::uint64_t fresh1,
                             std::uint64_t esc1) {
  return {fresh1 - fresh0, esc1 - esc0};
}

/// Runs `body`, mapping a thrown exception onto its api Status code.
Observation guarded(const std::function<Observation()>& body) {
  try {
    return body();
  } catch (...) {
    Observation failed;
    failed.code = api::status_from_current_exception().code();
    return failed;
  }
}

/// A CofactorEvaluator site: `measure` runs the operation and returns its
/// samples and the number of counted factorizations.
Site evaluator_site(
    std::string name,
    std::function<std::vector<mna::CofactorEvaluator::Sample>(const mna::CofactorEvaluator&,
                                                              std::uint64_t*)>
        measure) {
  return {std::move(name), PivotRung::kDefault,
          [measure](const netlist::Circuit& circuit, const std::string& fault) {
            return guarded([&] {
              const mna::NodalSystem system(circuit);
              const mna::CofactorEvaluator evaluator(system, kSpec);
              (void)evaluator.evaluate({0.0, 0.0}, 1.0, 1.0);  // records the plan
              const std::uint64_t fresh0 = evaluator.fresh_factor_count();
              const std::uint64_t esc0 = evaluator.pivot_escalation_count();
              arm(fault);
              Observation out;
              for (const auto& sample : measure(evaluator, &out.attempts)) {
                if (!sample.ok) out.code = StatusCode::kSingularSystem;
                out.degraded = out.degraded || sample.degraded;
              }
              out.counters = delta(fresh0, esc0, evaluator.fresh_factor_count(),
                                   evaluator.pivot_escalation_count());
              return out;
            });
          }};
}

const std::vector<std::complex<double>> kPoints(5, {0.0, 0.0});

/// An AcSimulator site: `measure` runs the operation and returns the number
/// of factorizations it ran.
Site simulator_site(std::string name,
                    std::function<std::uint64_t(const mna::AcSimulator&)> measure) {
  return {std::move(name), PivotRung::kDefault,
          [measure](const netlist::Circuit& circuit, const std::string& fault) {
            return guarded([&] {
              const mna::AcSimulator simulator(circuit);
              (void)simulator.transfer(kSpec, 0.0);  // records the plan
              const sparse::FactorCounters before = simulator.counters();
              arm(fault);
              Observation out;
              out.attempts = measure(simulator);
              out.counters = delta(before.fresh_factorizations, before.pivot_escalations,
                                   simulator.counters().fresh_factorizations,
                                   simulator.counters().pivot_escalations);
              out.degraded = simulator.last_call_degraded();
              return out;
            });
          }};
}

std::vector<Site> all_sites() {
  std::vector<Site> sites;
  sites.push_back(evaluator_site("evaluate", [](const auto& evaluator, std::uint64_t* attempts) {
    *attempts = 1;
    return std::vector{evaluator.evaluate({0.0, 0.0}, 1.0, 1.0)};
  }));
  sites.push_back(
      evaluator_site("evaluate_pinned", [](const auto& evaluator, std::uint64_t* attempts) {
        *attempts = 1;
        return std::vector{evaluator.evaluate_pinned({0.0, 0.0}, 1.0, 1.0)};
      }));
  sites.push_back(evaluator_site(
      "evaluate_pinned_batch_refused_lane", [](const auto& evaluator, std::uint64_t* attempts) {
        *attempts = kPoints.size();
        return evaluator.evaluate_pinned_batch(kPoints, 1.0, 1.0, sparse::ReplayKernel::kBatched);
      }));
  // Pool lanes of evaluate_batch tally their fallbacks per lane and the
  // batch sums them into the evaluator, so every point is counted.
  for (const auto kernel : {sparse::ReplayKernel::kScalar, sparse::ReplayKernel::kBatched}) {
    sites.push_back(evaluator_site(
        kernel == sparse::ReplayKernel::kScalar ? "evaluate_batch_lane"
                                                : "evaluate_batch_refused_lane",
        [kernel](const auto& evaluator, std::uint64_t* attempts) {
          *attempts = kPoints.size();
          support::ThreadPool pool(2);
          return evaluator.evaluate_batch(kPoints, 1.0, 1.0, &pool, kernel);
        }));
  }
  sites.push_back(simulator_site("ac_solve_point", [](const mna::AcSimulator& simulator) {
    (void)simulator.transfer(kSpec, 0.0);
    return std::uint64_t{1};
  }));
  sites.push_back(simulator_site("bode_refused_lane", [](const mna::AcSimulator& simulator) {
    const auto points = simulator.bode(kSpec, 1.0, 1e4, 1, 2, {}, sparse::ReplayKernel::kBatched);
    return static_cast<std::uint64_t>(points.size());
  }));
  // Counters are internal to ac_sensitivities: only the Status is observable.
  sites.push_back({"ac_sensitivities", PivotRung::kDefault,
                   [](const netlist::Circuit& circuit, const std::string& fault) {
                     return guarded([&] {
                       arm(fault);
                       (void)mna::ac_sensitivities(circuit, kSpec, 0.0);
                       return Observation{};
                     });
                   }});
  sites.push_back({"dc_op_solver", PivotRung::kLoose,
                   [](const netlist::Circuit& circuit, const std::string& fault) {
                     return guarded([&] {
                       dc::OpSolver solver;
                       (void)solver.solve(circuit);  // records the plan
                       const std::uint64_t fresh0 = solver.fresh_factor_count();
                       const std::uint64_t esc0 = solver.pivot_escalation_count();
                       arm(fault);
                       const dc::OpResult op = solver.solve(circuit);
                       Observation out;
                       out.attempts = static_cast<std::uint64_t>(op.newton_iterations);
                       out.counters = delta(fresh0, esc0, solver.fresh_factor_count(),
                                            solver.pivot_escalation_count());
                       out.degraded = op.degraded;
                       return out;
                     });
                   }});
  sites.push_back({"transient_factor_bucket", PivotRung::kLoose,
                   [](const netlist::Circuit& circuit, const std::string& fault) {
                     return guarded([&] {
                       arm(fault);
                       // The run's t = 0 bias solve is the dc site; subtract it.
                       const dc::OpResult bias = dc::solve_op(circuit);
                       transient::TransientOptions options;
                       options.tstop = 4e-6;
                       options.tstep = 1e-6;
                       options.adaptive = false;
                       const transient::TransientResult run =
                           transient::solve_transient(circuit, options);
                       Observation out;
                       out.attempts = static_cast<std::uint64_t>(run.steps);
                       out.counters = delta(bias.fresh_factorizations, bias.pivot_escalations,
                                            run.fresh_factorizations, run.pivot_escalations);
                       out.degraded = run.degraded;
                       return out;
                     });
                   }});
  return sites;
}

class ReplaySiteTest : public ::testing::TestWithParam<Site> {
 protected:
  void TearDown() override { support::FaultInjector::instance().reset(); }

  /// Every factorization of the measured operation is a refused replay
  /// that walks the ladder from the site's start rung.
  void expect_refused_replays(Deck kind, bool escalates) {
    const Observation seen = GetParam().run(deck(kind), "lu_pivot:1");
    ASSERT_EQ(seen.code, StatusCode::kOk) << api::status_code_name(seen.code);
    if (!seen.counters) return;
    EXPECT_EQ(seen.degraded, escalates);
    EXPECT_GT(seen.attempts, 0u);
    EXPECT_EQ(seen.counters->fresh_factorizations, seen.attempts);
    EXPECT_EQ(seen.counters->pivot_escalations, escalates ? seen.attempts : 0u);
  }
};

TEST_P(ReplaySiteTest, RefusedReplayFactorsAfreshAtTheStartRung) {
  expect_refused_replays(Deck::kHealthy, /*escalates=*/false);
}

TEST_P(ReplaySiteTest, NearSingularDeckEscalatesOnlyBelowTheStartRung) {
  expect_refused_replays(Deck::kNearSingular,
                         /*escalates=*/GetParam().start == PivotRung::kDefault);
}

TEST_P(ReplaySiteTest, SingularDeckIsATypedSingularSystem) {
  EXPECT_EQ(GetParam().run(deck(Deck::kSingular), "").code, StatusCode::kSingularSystem);
}

INSTANTIATE_TEST_SUITE_P(AllSites, ReplaySiteTest, ::testing::ValuesIn(all_sites()),
                         [](const ::testing::TestParamInfo<Site>& info) {
                           return info.param.name;
                         });

TEST(ReplayOrFactor, RungsAreWalkedFromTheCallersStart) {
  // The near-singular matrix factors only from the 1e-6 rung down: from the
  // default start that is an escalation, from kLoose it is not.
  const netlist::Circuit circuit = deck(Deck::kNearSingular);
  const mna::NodalSystem system(circuit);
  sparse::PatternedMatrix assembly(system.dim(), system.stamps());
  const sparse::CompressedMatrix& matrix = assembly.assemble(0.0);

  sparse::FactorCounters counters;
  sparse::SparseLu from_default;
  sparse::FactorResult step =
      sparse::replay_or_factor(from_default, from_default, matrix, PivotRung::kDefault, &counters);
  EXPECT_EQ(step.outcome, sparse::FactorOutcome::kFresh);
  EXPECT_TRUE(step.degraded);
  sparse::SparseLu from_loose;
  step = sparse::replay_or_factor(from_loose, from_loose, matrix, PivotRung::kLoose, &counters);
  EXPECT_EQ(step.outcome, sparse::FactorOutcome::kFresh);
  EXPECT_FALSE(step.degraded);
  EXPECT_EQ(counters.fresh_factorizations, 2u);
  EXPECT_EQ(counters.pivot_escalations, 1u);

  // Both plans replay the matrix; a throwaway target keeps the plan pinned.
  // A replay inherits the rung that recorded its plan, relative to the
  // caller's start, without counting an escalation.
  sparse::SparseLu throwaway;
  step = sparse::replay_or_factor(from_default, throwaway, matrix, PivotRung::kDefault, &counters);
  EXPECT_EQ(step.outcome, sparse::FactorOutcome::kReplayed);
  EXPECT_TRUE(step.degraded);
  EXPECT_FALSE(throwaway.has_plan());
  step = sparse::replay_or_factor(from_default, throwaway, matrix, PivotRung::kLoose, &counters);
  EXPECT_EQ(step.outcome, sparse::FactorOutcome::kReplayed);
  EXPECT_FALSE(step.degraded);
  EXPECT_EQ(counters.pivot_escalations, 1u);

  // A plan-less replay source forces a fresh walk.
  sparse::SparseLu no_plan;
  step = sparse::replay_or_factor(no_plan, throwaway, matrix, PivotRung::kDefault, &counters);
  EXPECT_EQ(step.outcome, sparse::FactorOutcome::kFresh);
  EXPECT_TRUE(step.degraded);
  EXPECT_FALSE(no_plan.has_plan());
  EXPECT_TRUE(throwaway.has_plan());
  EXPECT_EQ(counters.fresh_factorizations, 3u);
}

}  // namespace
}  // namespace symref
