// Golden wire bytes: synthetic responses (seeded and extreme values, no
// engine run) must encode to exactly the recorded compact dump().
//
// The refgen, sweep, simplify, transient and op fixtures under tests/data/
// were recorded with the snprintf-based encoder the wire format was
// defined by; the poles_zeros, param_sweep, batch, error and job_error
// fixtures with the tree encoder (Json::Object/Array builders plus dump())
// that preceded JsonWriter. Every other byte-compare in the
// repo (CLI vs daemon, threads, kernels, the benchmark oracle) runs the
// same encoder on both sides, so only this test sees an encoder drift.
// Never re-record the fixtures from the encoder under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "api/jobs.h"
#include "api/serialize.h"
#include "wire_fixtures.h"

namespace symref::api {
namespace {

std::string golden(const std::string& name) {
  const std::string path = std::string(SYMREF_SOURCE_DIR) + "/tests/data/wire_" + name + ".json";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream text;
  text << in.rdbuf();
  std::string bytes = text.str();
  if (!bytes.empty() && bytes.back() == '\n') bytes.pop_back();  // one trailing newline
  return bytes;
}

void expect_golden(const std::string& name, const Json& payload) {
  const std::string want = golden(name);
  const std::string got = payload.dump();
  if (got == want) return;
  const auto mismatch = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  const std::size_t at = static_cast<std::size_t>(mismatch.first - got.begin());
  const std::size_t from = at < 40 ? 0 : at - 40;
  ADD_FAILURE() << name << ": wire bytes differ at offset " << at << " (sizes " << got.size()
                << " vs " << want.size() << ")\n  got:  ..." << got.substr(from, 80)
                << "\n  want: ..." << want.substr(from, 80);
}

TEST(WireGolden, Refgen) { expect_golden("refgen", to_json(wire_fixtures::refgen_response())); }

TEST(WireGolden, Sweep) { expect_golden("sweep", to_json(wire_fixtures::sweep_response())); }

TEST(WireGolden, Simplify) {
  expect_golden("simplify", to_json(wire_fixtures::simplify_response()));
}

TEST(WireGolden, Transient) {
  expect_golden("transient", to_json(wire_fixtures::transient_response()));
}

TEST(WireGolden, Op) { expect_golden("op", to_json(wire_fixtures::op_response())); }

TEST(WireGolden, PolesZeros) {
  expect_golden("poles_zeros", to_json(wire_fixtures::poles_zeros_response()));
}

TEST(WireGolden, ParamSweepWithFailedSample) {
  expect_golden("param_sweep", to_json(wire_fixtures::param_sweep_response()));
}

TEST(WireGolden, BatchWithErrorItem) {
  expect_golden("batch", to_json(wire_fixtures::batch_response()));
}

TEST(WireGolden, ErrorResponseWithLocation) {
  expect_golden("error", error_response("simplify", wire_fixtures::located_error()));
}

TEST(WireGolden, ErrorJobOutcome) {
  expect_golden("job_error", to_json(wire_fixtures::error_outcome()));
}

}  // namespace
}  // namespace symref::api
