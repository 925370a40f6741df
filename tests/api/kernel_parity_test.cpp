// Replay-kernel parity at the service boundary: every request type must
// return BIT-IDENTICAL responses under ReplayKernel::kScalar and kBatched,
// the degradation-ladder counters of engine_stats must agree (including
// under injected lu_pivot faults — the REFGEN_FAULT=lu_pivot scenario), and
// the kernel choice must stay out of the response-cache key.
#include <gtest/gtest.h>

#include <string>

#include "api/serialize.h"
#include "api/service.h"
#include "support/fault_injection.h"
#include "support/strings.h"

namespace symref::api {
namespace {

/// RC ladder with enough stages that refgen runs real interpolation batches
/// (the batched kernel's SoA groups actually fill).
std::string ladder_netlist(int stages) {
  std::string text = ".title rc ladder\n";
  std::string prev = "in";
  for (int i = 0; i < stages; ++i) {
    const std::string node = support::numbered("n", i);
    text += support::numbered("R", i) + " " + prev + " " + node + " 1k\n";
    text += support::numbered("C", i) + " " + node + " 0 1n\n";
    prev = node;
  }
  text += "Rload " + prev + " out 1k\nCload out 0 1n\n";
  return text;
}

constexpr const char* kParamNetlist = R"(
.title parameterized ladder
.param r=1k c=100n
R1 in n1 {r}
C1 n1 0 {c}
R2 n1 n2 {r}
C2 n2 0 {c}
R3 n2 out {r}
C3 out 0 {c}
)";

CircuitHandle compile(const Service& service, const std::string& netlist) {
  auto compiled = service.compile_netlist(netlist);
  EXPECT_TRUE(compiled.ok()) << compiled.status().to_string();
  return compiled.take();
}

/// Response tree minus wall-clock fields — everything else must match.
Json without_timing(const Json& value) {
  if (value.is_object()) {
    Json out = Json::object();
    for (const auto& [key, member] : value.members()) {
      if (key == "seconds" || key == "engine_seconds") continue;
      out.set(key, without_timing(member));
    }
    return out;
  }
  if (value.is_array()) {
    Json out = Json::array();
    for (const Json& item : value.items()) out.push_back(without_timing(item));
    return out;
  }
  return value;
}

/// An encoded response minus wall-clock fields: its text is parsed first,
/// because to_json's node is opaque to members()/items().
Json strip_timing(const Json& payload) {
  Result<Json> tree = Json::parse(payload.dump());
  EXPECT_TRUE(tree.ok()) << tree.status().to_string();
  return tree.ok() ? without_timing(tree.value()) : Json();
}

mna::TransferSpec ladder_spec() { return mna::TransferSpec::voltage_gain("in", "out"); }

/// Process-global injector: every test starts and ends disarmed.
class KernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override { support::FaultInjector::instance().reset(); }
  void TearDown() override { support::FaultInjector::instance().reset(); }
};

TEST_F(KernelParityTest, RefgenResponseAndEngineStatsMatch) {
  const std::string netlist = ladder_netlist(12);
  RefgenRequest scalar_request{ladder_spec(), {}};
  scalar_request.options.kernel = sparse::ReplayKernel::kScalar;
  RefgenRequest batched_request = scalar_request;
  batched_request.options.kernel = sparse::ReplayKernel::kBatched;

  const Service scalar_service;
  const CircuitHandle scalar_handle = compile(scalar_service, netlist);
  const auto scalar = scalar_service.refgen(scalar_handle, scalar_request);
  ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();

  const Service batched_service;
  const CircuitHandle batched_handle = compile(batched_service, netlist);
  const auto batched = batched_service.refgen(batched_handle, batched_request);
  ASSERT_TRUE(batched.ok()) << batched.status().to_string();

  EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
            strip_timing(to_json(batched.value())).dump());

  const auto scalar_stats = scalar_service.engine_stats(scalar_handle);
  const auto batched_stats = batched_service.engine_stats(batched_handle);
  ASSERT_TRUE(scalar_stats.ok());
  ASSERT_TRUE(batched_stats.ok());
  EXPECT_EQ(scalar_stats.value().fresh_factorizations,
            batched_stats.value().fresh_factorizations);
  EXPECT_EQ(scalar_stats.value().pivot_escalations, batched_stats.value().pivot_escalations);
  EXPECT_EQ(scalar_stats.value().degraded_responses, batched_stats.value().degraded_responses);
  EXPECT_EQ(scalar_stats.value().supernodes, batched_stats.value().supernodes);
  EXPECT_GT(batched_stats.value().supernodes, 0u);
  // The lane counter is the one legitimate difference: it counts points
  // actually routed through SoA lanes.
  EXPECT_EQ(scalar_stats.value().batched_lanes, 0u);
  EXPECT_GT(batched_stats.value().batched_lanes, 0u);
}

TEST_F(KernelParityTest, SweepResponsesMatchAtEveryThreadCount) {
  const std::string netlist = ladder_netlist(10);
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SweepRequest scalar_request;
    scalar_request.spec = ladder_spec();
    scalar_request.f_start_hz = 10.0;
    scalar_request.f_stop_hz = 1e8;
    scalar_request.points_per_decade = 12;
    scalar_request.threads = threads;
    scalar_request.kernel = sparse::ReplayKernel::kScalar;
    SweepRequest batched_request = scalar_request;
    batched_request.kernel = sparse::ReplayKernel::kBatched;

    const Service scalar_service;
    const auto scalar = scalar_service.sweep(compile(scalar_service, netlist), scalar_request);
    ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();
    const Service batched_service;
    const auto batched =
        batched_service.sweep(compile(batched_service, netlist), batched_request);
    ASSERT_TRUE(batched.ok()) << batched.status().to_string();
    EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
              strip_timing(to_json(batched.value())).dump());
  }
}

TEST_F(KernelParityTest, ParamSweepResponsesAndPlanEconomicsMatch) {
  ParamSweepRequest scalar_request;
  scalar_request.spec = ladder_spec();
  scalar_request.mode = ParamSweepRequest::Mode::kGrid;
  scalar_request.axes = {{"r", 500.0, 2000.0, 5, false}, {"c", 50e-9, 200e-9, 3, true}};
  scalar_request.f_start_hz = 10.0;
  scalar_request.f_stop_hz = 1e6;
  scalar_request.points_per_decade = 4;
  scalar_request.kernel = sparse::ReplayKernel::kScalar;
  ParamSweepRequest batched_request = scalar_request;
  batched_request.kernel = sparse::ReplayKernel::kBatched;

  const Service scalar_service;
  const auto scalar =
      scalar_service.param_sweep(compile(scalar_service, kParamNetlist), scalar_request);
  ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();
  const Service batched_service;
  const auto batched =
      batched_service.param_sweep(compile(batched_service, kParamNetlist), batched_request);
  ASSERT_TRUE(batched.ok()) << batched.status().to_string();

  EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
            strip_timing(to_json(batched.value())).dump());
  // The headline plan-reuse economics must not change with the kernel.
  EXPECT_EQ(scalar.value().result.fresh_factorizations,
            batched.value().result.fresh_factorizations);
}

TEST_F(KernelParityTest, InjectedLuPivotFaultsKeepKernelsIdentical) {
  // REFGEN_FAULT=lu_pivot scenario: every replay refused, every point falls
  // back through the degradation ladder. Both kernels draw the fault site
  // once per point, so responses AND the ladder counters stay identical.
  const std::string netlist = ladder_netlist(8);
  RefgenRequest scalar_request{ladder_spec(), {}};
  scalar_request.options.kernel = sparse::ReplayKernel::kScalar;
  RefgenRequest batched_request = scalar_request;
  batched_request.options.kernel = sparse::ReplayKernel::kBatched;

  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
  const Service scalar_service;
  const CircuitHandle scalar_handle = compile(scalar_service, netlist);
  const auto scalar = scalar_service.refgen(scalar_handle, scalar_request);
  ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();
  support::FaultInjector::instance().reset();

  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
  const Service batched_service;
  const CircuitHandle batched_handle = compile(batched_service, netlist);
  const auto batched = batched_service.refgen(batched_handle, batched_request);
  ASSERT_TRUE(batched.ok()) << batched.status().to_string();
  support::FaultInjector::instance().reset();

  EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
            strip_timing(to_json(batched.value())).dump());
  const auto scalar_stats = scalar_service.engine_stats(scalar_handle);
  const auto batched_stats = batched_service.engine_stats(batched_handle);
  ASSERT_TRUE(scalar_stats.ok());
  ASSERT_TRUE(batched_stats.ok());
  EXPECT_GT(scalar_stats.value().fresh_factorizations, 0u);
  EXPECT_EQ(scalar_stats.value().fresh_factorizations,
            batched_stats.value().fresh_factorizations);
  EXPECT_EQ(scalar_stats.value().pivot_escalations, batched_stats.value().pivot_escalations);
  EXPECT_EQ(scalar_stats.value().degraded_responses, batched_stats.value().degraded_responses);
}

TEST_F(KernelParityTest, KernelIsNotPartOfTheResponseCacheKey) {
  // Bit-identical results mean a batched request may be served from a
  // response the scalar kernel computed (and vice versa) — like threads.
  const Service service;
  const CircuitHandle handle = compile(service, ladder_netlist(6));
  RefgenRequest scalar_request{ladder_spec(), {}};
  scalar_request.options.kernel = sparse::ReplayKernel::kScalar;
  const auto cold = service.refgen(handle, scalar_request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.value().from_cache);

  RefgenRequest batched_request = scalar_request;
  batched_request.options.kernel = sparse::ReplayKernel::kBatched;
  const auto warm = service.refgen(handle, batched_request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_cache);
  RefgenResponse replayed = warm.value();
  replayed.from_cache = cold.value().from_cache;  // compare payloads, not provenance
  EXPECT_EQ(strip_timing(to_json(cold.value())).dump(),
            strip_timing(to_json(replayed)).dump());
}

}  // namespace
}  // namespace symref::api
