// JSON wire mapping: encode shapes, strict request decoding, round trips.
#include "api/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "api/service.h"
#include "wire_fixtures.h"

namespace symref::api {
namespace {

/// The hex-float encoder the wire format was defined by, kept as the oracle.
std::string oracle_hex(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

/// The tree of an encoded payload. to_json's node is opaque (find() sees
/// nothing), so a test that walks a payload parses its text first.
Json parsed(const Json& payload) {
  Result<Json> tree = Json::parse(payload.dump());
  EXPECT_TRUE(tree.ok()) << tree.status().to_string();
  return tree.ok() ? tree.take() : Json();
}

TEST(SerializeHexDouble, MatchesPrintfPercentA) {
  std::vector<double> inputs = wire_fixtures::seeded_doubles(1'000'000, 0x5eed);
  for (const double value : wire_fixtures::special_doubles()) inputs.push_back(value);
  for (const double value : wire_fixtures::non_finite_doubles()) inputs.push_back(value);
  for (const double value : wire_fixtures::powers_of_two()) inputs.push_back(value);
  std::vector<std::string> examples;
  const std::size_t mismatches =
      wire_fixtures::differential_mismatches(inputs, hex_double, oracle_hex, &examples);
  EXPECT_EQ(mismatches, 0u) << "of " << inputs.size() << " inputs";
  for (const std::string& example : examples) ADD_FAILURE() << example;
}

TEST(SerializeHexDouble, EveryClassOfValue) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(hex_double(0.0), "0x0p+0");
  EXPECT_EQ(hex_double(-0.0), "-0x0p+0");
  EXPECT_EQ(hex_double(1.0), "0x1p+0");
  EXPECT_EQ(hex_double(-3.0), "-0x1.8p+1");
  EXPECT_EQ(hex_double(0.1), "0x1.999999999999ap-4");
  EXPECT_EQ(hex_double(5e-324), "0x0.0000000000001p-1022");
  EXPECT_EQ(hex_double(std::nextafter(std::numeric_limits<double>::min(), 0.0)),
            "0x0.fffffffffffffp-1022");
  EXPECT_EQ(hex_double(std::numeric_limits<double>::max()), "0x1.fffffffffffffp+1023");
  EXPECT_EQ(hex_double(inf), "inf");
  EXPECT_EQ(hex_double(-inf), "-inf");
  EXPECT_EQ(hex_double(nan), "nan");
  EXPECT_EQ(hex_double(std::copysign(nan, -1.0)), "-nan");
}

TEST(SerializeStatus, OkAndErrorShapes) {
  EXPECT_EQ(to_json(Status()).dump(), R"({"code":"ok"})");
  const Status error =
      Status::error(StatusCode::kParseError, "bad card", SourceLocation{3, 7});
  EXPECT_EQ(to_json(error).dump(),
            R"({"code":"parse_error","message":"bad card","line":3,"column":7})");
}

TEST(SerializeSpec, RoundTrip) {
  const auto spec = mna::TransferSpec::transimpedance("inp", "vo", "inn", "ref");
  const auto parsed = spec_from_json(to_json(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().kind, spec.kind);
  EXPECT_EQ(parsed.value().in_pos, "inp");
  EXPECT_EQ(parsed.value().in_neg, "inn");
  EXPECT_EQ(parsed.value().out_pos, "vo");
  EXPECT_EQ(parsed.value().out_neg, "ref");
}

TEST(SerializeSpec, StrictDecoding) {
  EXPECT_EQ(spec_from_json(Json::parse(R"({"in":"a"})").take()).status().code(),
            StatusCode::kInvalidArgument);  // missing "out"
  EXPECT_EQ(
      spec_from_json(Json::parse(R"({"in":"a","out":"b","typo":1})").take()).status().code(),
      StatusCode::kInvalidArgument);  // unknown key
  EXPECT_EQ(spec_from_json(Json::parse(R"({"in":"a","out":"b","kind":"nonsense"})").take())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(spec_from_json(Json(3.0)).status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeOptions, RoundTripNonDefaults) {
  refgen::AdaptiveOptions options;
  options.sigma = 9;
  options.tuning_r = -0.5;
  options.use_deflation = false;
  options.initial_f = 2.5e9;
  options.threads = 4;
  const auto parsed = options_from_json(to_json(options));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().sigma, 9);
  EXPECT_EQ(parsed.value().tuning_r, -0.5);
  EXPECT_FALSE(parsed.value().use_deflation);
  EXPECT_EQ(parsed.value().initial_f, 2.5e9);
  EXPECT_EQ(parsed.value().threads, 4);
  // Untouched fields keep their defaults.
  EXPECT_EQ(parsed.value().no_progress_limit, 3);
}

TEST(SerializeRequest, ParsesEveryType) {
  const auto refgen_req = request_from_json(
      Json::parse(R"({"type":"refgen","spec":{"in":"a","out":"b"},"options":{"sigma":7}})")
          .take());
  ASSERT_TRUE(refgen_req.ok()) << refgen_req.status().to_string();
  EXPECT_EQ(refgen_req.value().type, AnyRequest::Type::kRefgen);
  EXPECT_EQ(refgen_req.value().refgen.options.sigma, 7);

  const auto sweep_req = request_from_json(
      Json::parse(
          R"({"type":"sweep","spec":{"in":"a","out":"b"},"f_start_hz":10,"f_stop_hz":1e6,"points_per_decade":5})")
          .take());
  ASSERT_TRUE(sweep_req.ok());
  EXPECT_EQ(sweep_req.value().type, AnyRequest::Type::kSweep);
  EXPECT_EQ(sweep_req.value().sweep.f_start_hz, 10.0);
  EXPECT_EQ(sweep_req.value().sweep.points_per_decade, 5);

  const auto pz_req = request_from_json(
      Json::parse(R"({"type":"poles_zeros","spec":{"in":"a","out":"b"}})").take());
  ASSERT_TRUE(pz_req.ok());
  EXPECT_EQ(pz_req.value().type, AnyRequest::Type::kPolesZeros);

  EXPECT_EQ(request_from_json(Json::parse(R"({"type":"bogus"})").take()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(request_from_json(Json::parse(R"({"type":"refgen"})").take()).status().code(),
            StatusCode::kInvalidArgument);  // missing spec
}

TEST(SerializeRequest, SessionAcceptsObjectOrArray) {
  const auto one = requests_from_json(
      Json::parse(R"({"type":"poles_zeros","spec":{"in":"a","out":"b"}})").take());
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().size(), 1u);

  const auto many = requests_from_json(
      Json::parse(R"([{"type":"refgen","spec":{"in":"a","out":"b"}},
                      {"type":"sweep","spec":{"in":"a","out":"b"}}])")
          .take());
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many.value().size(), 2u);
  EXPECT_EQ(many.value()[1].type, AnyRequest::Type::kSweep);
}

TEST(SerializeRequest, SimplifyRoundTrip) {
  AnyRequest request;
  request.type = AnyRequest::Type::kSimplify;
  request.simplify.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.simplify.options.error_budget = 0.02;
  request.simplify.options.f_start_hz = 5.0;
  request.simplify.options.f_stop_hz = 5e4;
  request.simplify.options.band_points = 11;
  request.simplify.options.prune = false;
  request.simplify.options.prune_share = 0.25;
  request.simplify.options.max_terms_per_coefficient = 1234;
  request.simplify.options.max_queue = 9999;
  request.simplify.options.coefficient_skip_factor = 1e-4;
  request.simplify.options.engine.sigma = 8;

  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().type, AnyRequest::Type::kSimplify);
  const auto& options = parsed.value().simplify.options;
  EXPECT_EQ(options.error_budget, 0.02);
  EXPECT_EQ(options.f_start_hz, 5.0);
  EXPECT_EQ(options.f_stop_hz, 5e4);
  EXPECT_EQ(options.band_points, 11);
  EXPECT_FALSE(options.prune);
  EXPECT_EQ(options.prune_share, 0.25);
  EXPECT_EQ(options.max_terms_per_coefficient, 1234u);
  EXPECT_EQ(options.max_queue, 9999u);
  EXPECT_EQ(options.coefficient_skip_factor, 1e-4);
  EXPECT_EQ(options.engine.sigma, 8);
  EXPECT_EQ(parsed.value().simplify.spec.out_pos, "out");
}

TEST(SerializeRequest, SimplifyStrictness) {
  // Minimal form: spec only, everything else defaulted.
  const auto minimal = request_from_json(
      Json::parse(R"({"type":"simplify","spec":{"in":"a","out":"b"}})").take());
  ASSERT_TRUE(minimal.ok()) << minimal.status().to_string();
  EXPECT_EQ(minimal.value().simplify.options.error_budget, 0.01);

  // Unknown keys are rejected, not ignored.
  EXPECT_EQ(request_from_json(
                Json::parse(
                    R"({"type":"simplify","spec":{"in":"a","out":"b"},"bogus_knob":1})")
                    .take())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Non-positive caps are rejected.
  EXPECT_EQ(request_from_json(
                Json::parse(
                    R"({"type":"simplify","spec":{"in":"a","out":"b"},"max_terms":0})")
                    .take())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializeResponse, SimplifyPayloadShape) {
  const Service service;
  const CircuitHandle handle =
      service.compile_netlist("R1 in n1 1k\nC1 n1 0 100n\nR2 n1 out 10k\nC2 out 0 10n\n")
          .take();
  SimplifyRequest request;
  request.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.options.f_start_hz = 10.0;
  request.options.f_stop_hz = 1e5;
  request.options.band_points = 5;
  const auto response = service.simplify(handle, request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();

  const Json payload = parsed(to_json(response.value()));
  EXPECT_EQ(payload.find("type")->as_string(), "simplify");
  EXPECT_EQ(payload.find("status")->find("code")->as_string(), "ok");
  const Json* certificate = payload.find("certificate");
  ASSERT_NE(certificate, nullptr);
  EXPECT_EQ(certificate->find("points")->size(), 5u);
  // Certificate errors are hex-float strings: bit-exact across the wire
  // (the daemon-vs-CLI byte compare rides on this).
  EXPECT_EQ(certificate->find("max_relative_error")->as_string().substr(0, 2), "0x");
  const Json* terms = payload.find("denominator_terms");
  ASSERT_NE(terms, nullptr);
  ASSERT_GT(terms->size(), 0u);
  const Json& term = terms->items()[0];
  EXPECT_TRUE(term.find("symbols")->is_array());
  EXPECT_EQ(term.find("value")->find("mantissa")->as_string().substr(0, 2), "0x");

  const auto reparsed = Json::parse(payload.dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), payload.dump());
}

TEST(SerializeResponse, RefgenPayloadShape) {
  const Service service;
  const CircuitHandle handle = service
                                   .compile_netlist("R1 in out 1k\nC1 out 0 1u\n")
                                   .take();
  const auto response =
      service.refgen(handle, {mna::TransferSpec::voltage_gain("in", "out"), {}});
  ASSERT_TRUE(response.ok()) << response.status().to_string();

  const Json payload = parsed(to_json(response.value()));
  EXPECT_EQ(payload.find("type")->as_string(), "refgen");
  EXPECT_EQ(payload.find("status")->find("code")->as_string(), "ok");
  EXPECT_TRUE(payload.find("complete")->as_bool());
  const Json* denominator = payload.find("reference")->find("denominator");
  ASSERT_NE(denominator, nullptr);
  EXPECT_EQ(denominator->find("coefficients")->size(),
            static_cast<std::size_t>(denominator->find("order_bound")->as_int()) + 1);
  // Coefficient values carry a bit-exact hex mantissa + binary exponent.
  const Json& c0 = denominator->find("coefficients")->items()[0];
  EXPECT_EQ(c0.find("value")->find("mantissa")->as_string().substr(0, 2), "0x");
  EXPECT_TRUE(c0.find("value")->find("exp2")->is_number());
  EXPECT_EQ(c0.find("status")->as_string(), "interpolated");

  // The document survives a dump/parse cycle unchanged.
  const auto reparsed = Json::parse(payload.dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), payload.dump());
}

TEST(SerializeRequest, ParamSweepGridRoundTrip) {
  AnyRequest request;
  request.type = AnyRequest::Type::kParamSweep;
  request.param_sweep.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.param_sweep.mode = ParamSweepRequest::Mode::kGrid;
  request.param_sweep.axes = {{"r1", 1e3, 1e4, 5, true}, {"c1", 1e-12, 4e-12, 4, false}};
  request.param_sweep.f_start_hz = 10.0;
  request.param_sweep.f_stop_hz = 1e7;
  request.param_sweep.points_per_decade = 3;
  request.param_sweep.threads = 4;

  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const ParamSweepRequest& round = parsed.value().param_sweep;
  ASSERT_EQ(parsed.value().type, AnyRequest::Type::kParamSweep);
  EXPECT_EQ(round.mode, ParamSweepRequest::Mode::kGrid);
  ASSERT_EQ(round.axes.size(), 2u);
  EXPECT_EQ(round.axes[0].name, "r1");
  EXPECT_DOUBLE_EQ(round.axes[0].from, 1e3);
  EXPECT_DOUBLE_EQ(round.axes[0].to, 1e4);
  EXPECT_EQ(round.axes[0].count, 5);
  EXPECT_TRUE(round.axes[0].log_scale);
  EXPECT_FALSE(round.axes[1].log_scale);
  EXPECT_DOUBLE_EQ(round.f_start_hz, 10.0);
  EXPECT_EQ(round.points_per_decade, 3);
  EXPECT_EQ(round.threads, 4);
}

TEST(SerializeRequest, ParamSweepMonteCarloRoundTrip) {
  AnyRequest request;
  request.type = AnyRequest::Type::kParamSweep;
  request.param_sweep.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.param_sweep.mode = ParamSweepRequest::Mode::kMonteCarlo;
  request.param_sweep.dists = {{"gm", 1e-3, 0.05, mna::ParamDist::Kind::kGaussian},
                               {"cl", 1e-11, 0.1, mna::ParamDist::Kind::kUniform}};
  request.param_sweep.samples = 256;
  request.param_sweep.seed = 424242;

  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const ParamSweepRequest& round = parsed.value().param_sweep;
  EXPECT_EQ(round.mode, ParamSweepRequest::Mode::kMonteCarlo);
  ASSERT_EQ(round.dists.size(), 2u);
  EXPECT_EQ(round.dists[0].name, "gm");
  EXPECT_EQ(round.dists[0].kind, mna::ParamDist::Kind::kGaussian);
  EXPECT_EQ(round.dists[1].kind, mna::ParamDist::Kind::kUniform);
  EXPECT_DOUBLE_EQ(round.dists[1].rel_sigma, 0.1);
  EXPECT_EQ(round.samples, 256);
  EXPECT_EQ(round.seed, 424242u);
}

TEST(SerializeRequest, ParamSweepStrictness) {
  // Unknown keys, bad modes, bad dists and bad seeds are all rejected.
  auto parse = [](const char* text) {
    const auto json = Json::parse(text);
    EXPECT_TRUE(json.ok());
    return request_from_json(json.value());
  };
  EXPECT_FALSE(parse(R"({"type":"param_sweep"})").ok());  // no spec/params
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "mode":"bogus","params":[{"name":"r","from":1,"to":2,"count":2}]})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "params":[{"name":"r","from":1,"to":2,"count":2,"zzz":1}]})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "mode":"monte_carlo","params":[{"name":"r","nominal":1,"rel_sigma":0.1,
    "dist":"exotic"}],"samples":4})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "mode":"monte_carlo","params":[{"name":"r","nominal":1,"rel_sigma":0.1}],
    "samples":4,"seed":-1})")
                   .ok());
  EXPECT_TRUE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "params":[{"name":"r","from":1,"to":2,"count":2}]})")
                  .ok());  // grid is the default mode
  // Range/nominal fields are required — a forgotten "from" must not
  // silently sweep from 0.
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "params":[{"name":"r","to":2,"count":2}]})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "params":[{"name":"r","from":1,"to":2}]})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "mode":"monte_carlo","params":[{"name":"r","rel_sigma":0.1}],"samples":4})")
                   .ok());
}

TEST(SerializeResponse, ParamSweepCarriesHexFloatPoints) {
  ParamSweepResponse response;
  response.result.names = {"r"};
  response.result.frequencies_hz = {1.0, 10.0};
  response.result.values = {1e3, 2e3};
  response.result.response = {{0.5, -0.25}, {0.1, 0.0}, {0.4, -0.2}, {0.05, 0.0}};
  response.result.ok = {1, 1};
  response.result.fresh_factorizations = 1;

  const Json payload = parsed(to_json(response));
  EXPECT_EQ(payload.find("type")->as_string(), "param_sweep");
  EXPECT_EQ(payload.find("fresh_factorizations")->as_number(), 1.0);
  ASSERT_EQ(payload.find("samples")->size(), 2u);
  const Json& sample = payload.find("samples")->items()[0];
  EXPECT_DOUBLE_EQ(sample.find("values")->items()[0].as_number(), 1e3);
  EXPECT_TRUE(sample.find("ok")->as_bool());
  const Json& point = sample.find("response")->items()[0];
  EXPECT_EQ(point.find("real")->as_string(), "0x1p-1");
  EXPECT_EQ(point.find("imag")->as_string(), "-0x1p-2");
  EXPECT_TRUE(point.find("magnitude_db")->is_number());
}

TEST(SerializeRequest, OpRoundTripAndStrictness) {
  AnyRequest request;
  request.type = AnyRequest::Type::kOp;
  request.op.threads = 4;
  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().type, AnyRequest::Type::kOp);
  EXPECT_EQ(parsed.value().op.threads, 4);

  // Minimal form: just the type.
  const auto minimal = request_from_json(Json::parse(R"({"type":"op"})").take());
  ASSERT_TRUE(minimal.ok()) << minimal.status().to_string();
  EXPECT_EQ(minimal.value().op.threads, 1);

  // An op request has no spec or options; unknown keys are rejected.
  EXPECT_EQ(request_from_json(Json::parse(R"({"type":"op","spec":{"in":"a","out":"b"}})").take())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializeRequest, AutoLinearizeRoundTripsOnAcFamilyRequests) {
  AnyRequest request;
  request.type = AnyRequest::Type::kRefgen;
  request.refgen.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.refgen.auto_linearize = true;
  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed.value().refgen.auto_linearize);

  // Omitted on the wire -> false, so device-bearing handles fail closed.
  const auto bare = request_from_json(
      Json::parse(R"({"type":"refgen","spec":{"in":"a","out":"b"}})").take());
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(bare.value().refgen.auto_linearize);
}

TEST(SerializeResponse, OpPayloadShape) {
  const Service service;
  const CircuitHandle handle =
      service
          .compile_netlist(
              ".model nd d is=1e-14\nV1 in 0 dc 5\nR1 in d 1k\nD1 d 0 nd\n")
          .take();
  const auto response = service.op(handle, {});
  ASSERT_TRUE(response.ok()) << response.status().to_string();

  const Json payload = parsed(to_json(response.value()));
  EXPECT_EQ(payload.find("type")->as_string(), "op");
  EXPECT_EQ(payload.find("status")->find("code")->as_string(), "ok");
  EXPECT_GT(payload.find("newton_iterations")->as_int(), 0);
  EXPECT_EQ(payload.find("fresh_factorizations")->as_number(), 1.0);
  ASSERT_GT(payload.find("nodes")->size(), 0u);
  const Json& node = payload.find("nodes")->items()[0];
  // Voltages carry a bit-exact hex form next to the human-readable one —
  // the 1-vs-8-thread byte compare in the CLI smoke rides on this.
  const std::string v = node.find("v")->as_string();
  EXPECT_TRUE(v.rfind("0x", 0) == 0 || v.rfind("-0x", 0) == 0) << v;
  ASSERT_EQ(payload.find("devices")->size(), 1u);
  EXPECT_EQ(payload.find("devices")->items()[0].find("kind")->as_string(), "diode");

  const auto reparsed = Json::parse(payload.dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), payload.dump());
}

TEST(SerializeResponse, ErrorEnvelope) {
  const Json payload =
      parsed(error_response("sweep", Status::error(StatusCode::kSingularSystem, "no pivot")));
  EXPECT_EQ(payload.find("type")->as_string(), "sweep");
  EXPECT_EQ(payload.find("status")->find("code")->as_string(), "singular_system");
  EXPECT_EQ(payload.find("points"), nullptr);
}

TEST(SerializeResponse, OpRepeatedDeviceValueKeepsFirstPositionAndLastValue) {
  OpResponse response;
  dc::OpDeviceInfo device;
  device.name = "q1";
  device.kind = "bjt";
  device.values = {{"ic", 1.0}, {"gm", 2.0}, {"ic", 3.0}, {"ro", 4.0}, {"gm", 0.5}};
  response.result.devices.push_back(device);
  const Json payload = parsed(to_json(response));
  const Json* values = payload.find("devices")->items()[0].find("values");
  ASSERT_NE(values, nullptr);
  EXPECT_EQ(values->dump(), R"({"ic":"0x1.8p+1","gm":"0x1p-1","ro":"0x1p+2"})");
}

}  // namespace
}  // namespace symref::api
