#include "api/serialize.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace symref::api {

std::string hex_double(double value) {
  std::string out;
  append_hex_double(out, value);
  return out;
}

namespace {

// --- Response writers ---------------------------------------------------------
//
// Every response goes straight into one JsonWriter, members in wire order.
// The size hints are rough per-entry byte counts, so a multi-megabyte
// payload is not regrown on its way out.

void write_status(JsonWriter& out, const Status& status) {
  out.begin_object().member("code", status_code_name(status.code()));
  if (!status.message().empty()) out.member("message", status.message());
  if (status.location().known()) {
    out.member("line", status.location().line);
    if (status.location().column > 0) out.member("column", status.location().column);
  }
  out.end_object();
}

/// Shared response header: opens the object, which the caller closes after
/// appending its fields (an error payload is the header alone).
void begin_envelope(JsonWriter& out, const char* type, const Status& status) {
  out.begin_object().member("type", type).key("status");
  write_status(out, status);
}

void write_error(JsonWriter& out, const char* type, const Status& status) {
  begin_envelope(out, type, status);
  out.end_object();
}

void write_scaled(JsonWriter& out, const numeric::ScaledDouble& value) {
  out.begin_object()
      .hex_member("mantissa", value.mantissa())
      .member("exp2", static_cast<double>(value.exponent2()))
      .key("approx");
  // Convenience double for consumers that do not need the extended range;
  // null when the value over/underflows IEEE double (saturated to_double()
  // would be misleading, and JSON cannot carry the inf anyway).
  const double approx = value.to_double();
  if (std::isfinite(approx) && (approx != 0.0 || value.is_zero())) {
    out.value(approx);
  } else {
    out.null();
  }
  out.end_object();
}

void write_complex(JsonWriter& out, std::complex<double> value) {
  out.begin_object().member("real", value.real()).member("imag", value.imag()).end_object();
}

void write_polynomial(JsonWriter& out, const refgen::PolynomialReference& poly) {
  out.begin_object()
      .member("order_bound", poly.order_bound())
      .member("effective_order", poly.effective_order())
      .member("complete", poly.complete())
      .key("coefficients")
      .begin_array();
  for (int i = 0; i <= poly.order_bound(); ++i) {
    const refgen::Coefficient& c = poly.at(i);
    out.begin_object().member("index", i).key("value");
    write_scaled(out, c.value);
    out.member("status", refgen::coefficient_status_name(c.status))
        .member("accuracy", c.relative_accuracy)
        .end_object();
  }
  out.end_array().end_object();
}

void write_reference(JsonWriter& out, const refgen::NumericalReference& reference) {
  out.begin_object().key("numerator");
  write_polynomial(out, reference.numerator());
  out.key("denominator");
  write_polynomial(out, reference.denominator());
  out.end_object();
}

std::size_t reference_size_hint(const refgen::NumericalReference& reference) {
  constexpr std::size_t kCoefficientBytes = 160;
  return 512 + kCoefficientBytes * static_cast<std::size_t>(reference.numerator().order_bound() +
                                                            reference.denominator().order_bound() +
                                                            2);
}

void write_refgen(JsonWriter& out, const RefgenResponse& response) {
  const refgen::AdaptiveResult& result = response.result;
  begin_envelope(out, "refgen", Status());
  out.member("from_cache", response.from_cache)
      .member("seconds", response.seconds)
      .member("termination", result.termination)
      .member("complete", result.complete)
      .member("iterations", static_cast<double>(result.iterations.size()))
      .member("total_evaluations", result.total_evaluations)
      .member("engine_seconds", result.seconds)
      .member("numerator_degree", result.numerator_degree)
      .member("denominator_degree", result.denominator_degree)
      .member("degraded", result.degraded)
      .member("degraded_points", static_cast<double>(result.degraded_points))
      .key("reference");
  write_reference(out, result.reference);
  out.end_object();
}

void write_simplified_terms(JsonWriter& out, const std::vector<refgen::SimplifiedTerm>& terms) {
  out.begin_array();
  for (const refgen::SimplifiedTerm& term : terms) {
    out.begin_object().member("coefficient", term.coefficient).key("symbols").begin_array();
    for (const std::string& symbol : term.symbols) out.value(symbol);
    out.end_array().member("s_power", term.s_power).key("value");
    write_scaled(out, term.value);
    out.end_object();
  }
  out.end_array();
}

/// A term is ~150 bytes of fixed text plus its quoted, comma-separated
/// symbol names.
std::size_t terms_size_hint(const std::vector<refgen::SimplifiedTerm>& terms) {
  std::size_t bytes = 0;
  for (const refgen::SimplifiedTerm& term : terms) {
    bytes += 160;
    for (const std::string& symbol : term.symbols) bytes += symbol.size() + 3;
  }
  return bytes;
}

// --- Strict decoding helpers ------------------------------------------------

/// Verifies every member of `json` is in the allowed list.
Status check_keys(const Json& json, std::initializer_list<const char*> allowed,
                  const char* what) {
  if (!json.is_object()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": expected a JSON object");
  }
  for (const auto& [key, value] : json.members()) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::error(StatusCode::kInvalidArgument,
                           std::string(what) + ": unknown key \"" + key + "\"");
    }
  }
  return Status();
}

Status read_string(const Json& json, const char* key, bool required, std::string* out,
                   const char* what) {
  const Json* value = json.find(key);
  if (value == nullptr) {
    if (!required) return Status();
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": missing required key \"" + key + "\"");
  }
  if (!value->is_string()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be a string");
  }
  *out = value->as_string();
  return Status();
}

Status read_number(const Json& json, const char* key, double* out, const char* what) {
  const Json* value = json.find(key);
  if (value == nullptr) return Status();
  if (!value->is_number()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be a number");
  }
  *out = value->as_number();
  return Status();
}

/// read_number that treats an absent key as an error — for fields where a
/// silent default would change the study (sweep ranges, nominals).
Status read_required_number(const Json& json, const char* key, double* out,
                            const char* what) {
  if (json.find(key) == nullptr) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": missing required key \"" + key + "\"");
  }
  return read_number(json, key, out, what);
}

Status read_int(const Json& json, const char* key, int* out, const char* what) {
  double value = *out;
  const Status status = read_number(json, key, &value, what);
  if (!status.ok()) return status;
  // Reject rather than cast out-of-range doubles: the cast would be UB,
  // and these fields come from untrusted request files.
  if (!(value >= static_cast<double>(INT_MIN) && value <= static_cast<double>(INT_MAX)) ||
      value != static_cast<double>(static_cast<int>(value))) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be an integer");
  }
  *out = static_cast<int>(value);
  return Status();
}

const char* kernel_name(sparse::ReplayKernel kernel) noexcept {
  return kernel == sparse::ReplayKernel::kBatched ? "batched" : "scalar";
}

/// Optional "kernel" member: "scalar" (default) or "batched". Results are
/// bit-identical either way, so an absent key is never an error.
Status read_kernel(const Json& json, const char* key, sparse::ReplayKernel* out,
                   const char* what) {
  const Json* value = json.find(key);
  if (value == nullptr) return Status();
  if (!value->is_string()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be a string");
  }
  const std::string& name = value->as_string();
  if (name == "scalar") {
    *out = sparse::ReplayKernel::kScalar;
  } else if (name == "batched") {
    *out = sparse::ReplayKernel::kBatched;
  } else {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": unknown kernel \"" + name +
                             "\" (expected scalar or batched)");
  }
  return Status();
}

Status read_bool(const Json& json, const char* key, bool* out, const char* what) {
  const Json* value = json.find(key);
  if (value == nullptr) return Status();
  if (!value->is_bool()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be a boolean");
  }
  *out = value->as_bool();
  return Status();
}

}  // namespace

Json to_json(const Status& status) {
  JsonWriter out(64 + status.message().size());
  write_status(out, status);
  return out.take();
}

Json to_json(const mna::TransferSpec& spec) {
  Json out = Json::object();
  out.set("kind", spec.kind == mna::TransferSpec::Kind::VoltageGain ? "voltage_gain"
                                                                    : "transimpedance");
  out.set("in", spec.in_pos);
  out.set("in_neg", spec.in_neg);
  out.set("out", spec.out_pos);
  out.set("out_neg", spec.out_neg);
  return out;
}

Json to_json(const refgen::AdaptiveOptions& options) {
  Json out = Json::object();
  out.set("sigma", options.sigma);
  out.set("noise_decades", options.noise_decades);
  out.set("tuning_r", options.tuning_r);
  out.set("max_iterations", options.max_iterations);
  out.set("use_deflation", options.use_deflation);
  out.set("conjugate_symmetry", options.conjugate_symmetry);
  out.set("simultaneous_scaling", options.simultaneous_scaling);
  out.set("geometric_mean_heuristic", options.geometric_mean_heuristic);
  out.set("initial_f", options.initial_f);
  out.set("initial_g", options.initial_g);
  out.set("no_progress_limit", options.no_progress_limit);
  out.set("threads", options.threads);
  out.set("kernel", kernel_name(options.kernel));
  return out;
}

Json to_json(const refgen::NumericalReference& reference) {
  JsonWriter out(reference_size_hint(reference));
  write_reference(out, reference);
  return out.take();
}

Json to_json(const RefgenResponse& response) {
  JsonWriter out(reference_size_hint(response.result.reference));
  write_refgen(out, response);
  return out.take();
}

Json to_json(const OpResponse& response) {
  const dc::OpResult& result = response.result;
  JsonWriter out(1024 + 96 * (result.node_names.size() + result.branch_names.size()) +
                 256 * result.devices.size());
  begin_envelope(out, "op", Status());
  out.member("from_cache", response.from_cache)
      .member("seconds", response.seconds)
      .key("nodes")
      .begin_array();
  for (std::size_t i = 0; i < result.node_names.size(); ++i) {
    // Hex floats: the 1-vs-N-thread byte-compare of the CLI smoke rides on
    // bit-exactness, like the reference coefficients.
    out.begin_object()
        .member("name", result.node_names[i])
        .hex_member("v", result.node_voltages[i])
        .member("volts", result.node_voltages[i])
        .end_object();
  }
  out.end_array().key("branches").begin_array();
  for (std::size_t i = 0; i < result.branch_names.size(); ++i) {
    out.begin_object()
        .member("name", result.branch_names[i])
        .hex_member("i", result.branch_currents[i])
        .member("amps", result.branch_currents[i])
        .end_object();
  }
  out.end_array().key("devices").begin_array();
  for (const dc::OpDeviceInfo& device : result.devices) {
    out.begin_object()
        .member("name", device.name)
        .member("kind", device.kind)
        .key("values")
        .begin_object();
    // The only member names that come from data: a repeated name keeps its
    // first position and takes its last value, one member per name.
    const auto& values = device.values;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::string& name = values[i].first;
      const auto same_name = [&](const auto& entry) { return entry.first == name; };
      if (std::any_of(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(i),
                      same_name)) {
        continue;
      }
      const auto last = std::find_if(values.rbegin(), values.rend(), same_name);
      out.hex_member(name, last->second);
    }
    out.end_object().end_object();
  }
  out.end_array()
      .member("newton_iterations", result.newton_iterations)
      .member("gmin_steps", result.gmin_steps)
      .member("source_steps", result.source_steps)
      .member("fresh_factorizations", static_cast<double>(result.fresh_factorizations))
      .member("pivot_escalations", static_cast<double>(result.pivot_escalations))
      .member("degraded", result.degraded)
      .hex_member("max_residual", result.max_residual)
      .member("engine_seconds", result.seconds)
      .end_object();
  return out.take();
}

Json to_json(const SweepResponse& response) {
  JsonWriter out(256 + 128 * response.points.size());
  begin_envelope(out, "sweep", Status());
  out.member("from_cache", response.from_cache)
      .member("seconds", response.seconds)
      .member("degraded", response.degraded)
      .key("points")
      .begin_array();
  for (const mna::BodePoint& point : response.points) {
    out.begin_object()
        .member("frequency_hz", point.frequency_hz)
        .member("real", point.value.real())
        .member("imag", point.value.imag())
        .member("magnitude_db", point.magnitude_db)
        .member("phase_deg", point.phase_deg)
        .end_object();
  }
  out.end_array().end_object();
  return out.take();
}

Json to_json(const PolesZerosResponse& response) {
  JsonWriter out(256 + 64 * (response.poles.size() + response.zeros.size()));
  begin_envelope(out, "poles_zeros", Status());
  out.member("from_cache", response.from_cache)
      .member("seconds", response.seconds)
      .key("poles")
      .begin_array();
  for (const auto& pole : response.poles) write_complex(out, pole);
  out.end_array().key("zeros").begin_array();
  for (const auto& zero : response.zeros) write_complex(out, zero);
  out.end_array()
      .member("poles_converged", response.poles_converged)
      .member("zeros_converged", response.zeros_converged)
      .end_object();
  return out.take();
}

Json to_json(const BatchResponse& response) {
  std::size_t size_hint = 256;
  for (const BatchItemResponse& item : response.items) {
    size_hint += item.status.ok() ? reference_size_hint(item.response.result.reference) : 256;
  }
  JsonWriter out(size_hint);
  begin_envelope(out, "batch", Status());
  out.member("seconds", response.seconds).key("items").begin_array();
  for (const BatchItemResponse& item : response.items) {
    if (item.status.ok()) {
      write_refgen(out, item.response);
    } else {
      write_error(out, "refgen", item.status);
    }
  }
  out.end_array().end_object();
  return out.take();
}

Json to_json(const ParamSweepResponse& response) {
  const mna::ParamSweepResult& result = response.result;
  const std::size_t width = result.names.size();
  const std::size_t points = result.frequencies_hz.size();
  const std::size_t count = width == 0 ? 0 : result.values.size() / width;
  JsonWriter out(512 + 32 * (width + points) + count * (32 + 24 * width + 96 * points));
  begin_envelope(out, "param_sweep", Status());
  out.member("from_cache", response.from_cache)
      .member("seconds", response.seconds)
      .key("names")
      .begin_array();
  for (const std::string& name : result.names) out.value(name);
  out.end_array().key("frequencies_hz").begin_array();
  for (const double f : result.frequencies_hz) out.value(f);
  out.end_array()
      .member("fresh_factorizations", static_cast<double>(result.fresh_factorizations))
      .member("op_solves", static_cast<double>(result.op_solves))
      .member("newton_iterations", static_cast<double>(result.newton_iterations))
      .member("engine_seconds", result.seconds)
      .key("samples")
      .begin_array();
  for (std::size_t i = 0; i < count; ++i) {
    out.begin_object().key("values").begin_array();
    for (std::size_t j = 0; j < width; ++j) out.value(result.values[i * width + j]);
    out.end_array()
        .member("ok", i < result.ok.size() && result.ok[i] != 0)
        .key("response")
        .begin_array();
    for (std::size_t k = 0; k < points; ++k) {
      const std::complex<double> h = result.response[i * points + k];
      // Hex floats: bit-exact across the wire (and hex "nan" for the
      // points of a failed sample), like the reference coefficients.
      out.begin_object()
          .hex_member("real", h.real())
          .hex_member("imag", h.imag())
          .member("magnitude_db", mna::magnitude_db(h))
          .end_object();
    }
    out.end_array().end_object();
  }
  out.end_array().end_object();
  return out.take();
}

Json to_json(const TransientResponse& response) {
  const transient::TransientResult& result = response.result;
  const std::size_t width = result.states.empty() ? 0 : result.states.front().size();
  JsonWriter out(1024 + 32 * (result.node_names.size() + result.branch_names.size()) +
                 result.times.size() * (64 + 24 * width));
  begin_envelope(out, "transient", Status());
  out.member("from_cache", response.from_cache)
      .member("seconds", response.seconds)
      .member("steps", result.steps)
      .member("lte_rejections", result.lte_rejections)
      .member("newton_iterations", result.newton_iterations)
      .member("step_size_buckets", result.step_size_buckets)
      .member("fresh_factorizations", static_cast<double>(result.fresh_factorizations))
      .member("pivot_escalations", static_cast<double>(result.pivot_escalations))
      .member("degraded", result.degraded)
      .member("engine_seconds", result.seconds)
      .key("nodes")
      .begin_array();
  for (const std::string& name : result.node_names) out.value(name);
  out.end_array().key("branches").begin_array();
  for (const std::string& name : result.branch_names) out.value(name);
  out.end_array().key("points").begin_array();
  for (std::size_t k = 0; k < result.times.size(); ++k) {
    // Hex floats: the 1-vs-N-thread and daemon-vs-CLI byte-compares ride on
    // bit-exactness; "time" is the plot-friendly approximation.
    out.begin_object()
        .hex_member("t", result.times[k])
        .member("time", result.times[k])
        .key("v")
        .begin_array();
    for (const double x : result.states[k]) out.hex(x);
    out.end_array().end_object();
  }
  out.end_array().end_object();
  return out.take();
}

Json to_json(const SimplifyResponse& response) {
  const refgen::SimplifyResult& result = response.result;
  JsonWriter out(4096 + 64 * result.prune_actions.size() +
                 64 * result.certificate.frequencies_hz.size() +
                 result.numerator_expression.size() + result.denominator_expression.size() +
                 terms_size_hint(result.numerator_terms) +
                 terms_size_hint(result.denominator_terms));
  begin_envelope(out, "simplify", Status());
  out.member("from_cache", response.from_cache)
      .member("seconds", response.seconds)
      .member("engine_seconds", result.seconds)
      .member("reduced_dim", result.reduced_dim)
      .member("reduced_elements", static_cast<double>(result.reduced_elements))
      .member("original_elements", static_cast<double>(result.original_elements))
      .member("enumerated_terms", static_cast<double>(result.enumerated_terms))
      .member("kept_terms", static_cast<double>(result.kept_terms))
      .member("terms_dropped", static_cast<double>(result.terms_dropped))
      .member("term_evals", static_cast<double>(result.term_evals))
      .member("ranking_fresh_factorizations",
              static_cast<double>(result.ranking_fresh_factorizations))
      .key("prune_actions")
      .begin_array();
  for (const refgen::SimplifyPruneAction& action : result.prune_actions) {
    out.begin_object()
        .member("element", action.element)
        .member("op", action.op)
        .member("error_after", action.error_after)
        .end_object();
  }
  out.end_array()
      .key("certificate")
      .begin_object()
      .member("error_budget", result.certificate.error_budget)
      .hex_member("max_relative_error", result.certificate.max_relative_error)
      .key("points")
      .begin_array();
  for (std::size_t i = 0; i < result.certificate.frequencies_hz.size(); ++i) {
    // Hex floats: the daemon-vs-CLI byte-compare rides on bit-exactness.
    out.begin_object()
        .member("frequency_hz", result.certificate.frequencies_hz[i])
        .hex_member("relative_error", result.certificate.relative_error[i])
        .end_object();
  }
  out.end_array()
      .end_object()
      .member("numerator_expression", result.numerator_expression)
      .member("denominator_expression", result.denominator_expression)
      .key("numerator_terms");
  write_simplified_terms(out, result.numerator_terms);
  out.key("denominator_terms");
  write_simplified_terms(out, result.denominator_terms);
  out.end_object();
  return out.take();
}

Json error_response(const char* type, const Status& status) {
  JsonWriter out(96 + status.message().size());
  write_error(out, type, status);
  return out.take();
}

Result<mna::TransferSpec> spec_from_json(const Json& json) {
  constexpr const char* kWhat = "spec";
  Status status = check_keys(json, {"kind", "in", "in_neg", "out", "out_neg"}, kWhat);
  if (!status.ok()) return status;

  mna::TransferSpec spec;
  std::string kind = "voltage_gain";
  if (!(status = read_string(json, "kind", false, &kind, kWhat)).ok()) return status;
  if (kind == "voltage_gain") {
    spec.kind = mna::TransferSpec::Kind::VoltageGain;
  } else if (kind == "transimpedance") {
    spec.kind = mna::TransferSpec::Kind::Transimpedance;
  } else {
    return Status::error(StatusCode::kInvalidArgument,
                         "spec: unknown kind \"" + kind +
                             "\" (expected voltage_gain or transimpedance)");
  }
  if (!(status = read_string(json, "in", true, &spec.in_pos, kWhat)).ok()) return status;
  if (!(status = read_string(json, "out", true, &spec.out_pos, kWhat)).ok()) return status;
  if (!(status = read_string(json, "in_neg", false, &spec.in_neg, kWhat)).ok()) return status;
  if (!(status = read_string(json, "out_neg", false, &spec.out_neg, kWhat)).ok()) return status;
  return spec;
}

Result<refgen::AdaptiveOptions> options_from_json(const Json& json) {
  constexpr const char* kWhat = "options";
  Status status = check_keys(json,
                             {"sigma", "noise_decades", "tuning_r", "max_iterations",
                              "use_deflation", "conjugate_symmetry", "simultaneous_scaling",
                              "geometric_mean_heuristic", "initial_f", "initial_g",
                              "no_progress_limit", "threads", "kernel"},
                             kWhat);
  if (!status.ok()) return status;

  refgen::AdaptiveOptions options;
  if (!(status = read_int(json, "sigma", &options.sigma, kWhat)).ok()) return status;
  if (!(status = read_number(json, "noise_decades", &options.noise_decades, kWhat)).ok()) {
    return status;
  }
  if (!(status = read_number(json, "tuning_r", &options.tuning_r, kWhat)).ok()) return status;
  if (!(status = read_int(json, "max_iterations", &options.max_iterations, kWhat)).ok()) {
    return status;
  }
  if (!(status = read_bool(json, "use_deflation", &options.use_deflation, kWhat)).ok()) {
    return status;
  }
  if (!(status = read_bool(json, "conjugate_symmetry", &options.conjugate_symmetry, kWhat))
           .ok()) {
    return status;
  }
  if (!(status = read_bool(json, "simultaneous_scaling", &options.simultaneous_scaling, kWhat))
           .ok()) {
    return status;
  }
  if (!(status = read_bool(json, "geometric_mean_heuristic",
                           &options.geometric_mean_heuristic, kWhat))
           .ok()) {
    return status;
  }
  if (!(status = read_number(json, "initial_f", &options.initial_f, kWhat)).ok()) return status;
  if (!(status = read_number(json, "initial_g", &options.initial_g, kWhat)).ok()) return status;
  if (!(status = read_int(json, "no_progress_limit", &options.no_progress_limit, kWhat)).ok()) {
    return status;
  }
  if (!(status = read_int(json, "threads", &options.threads, kWhat)).ok()) return status;
  if (!(status = read_kernel(json, "kernel", &options.kernel, kWhat)).ok()) return status;
  return options;
}

const char* request_type_name(AnyRequest::Type type) noexcept {
  switch (type) {
    case AnyRequest::Type::kRefgen: return "refgen";
    case AnyRequest::Type::kSweep: return "sweep";
    case AnyRequest::Type::kPolesZeros: return "poles_zeros";
    case AnyRequest::Type::kBatch: return "batch";
    case AnyRequest::Type::kParamSweep: return "param_sweep";
    case AnyRequest::Type::kSimplify: return "simplify";
    case AnyRequest::Type::kOp: return "op";
    case AnyRequest::Type::kTransient: return "transient";
  }
  return "refgen";
}

Json to_json(const AnyRequest& request) {
  Json out = Json::object();
  out.set("type", request_type_name(request.type));
  switch (request.type) {
    case AnyRequest::Type::kRefgen:
      out.set("spec", to_json(request.refgen.spec));
      out.set("options", to_json(request.refgen.options));
      out.set("auto_linearize", request.refgen.auto_linearize);
      break;
    case AnyRequest::Type::kPolesZeros:
      out.set("spec", to_json(request.poles_zeros.spec));
      out.set("options", to_json(request.poles_zeros.options));
      out.set("auto_linearize", request.poles_zeros.auto_linearize);
      break;
    case AnyRequest::Type::kOp:
      out.set("threads", request.op.threads);
      break;
    case AnyRequest::Type::kTransient:
      out.set("tstop", request.transient.tstop);
      out.set("tstep", request.transient.tstep);
      out.set("method", transient::method_name(request.transient.method));
      out.set("adaptive", request.transient.adaptive);
      out.set("threads", request.transient.threads);
      break;
    case AnyRequest::Type::kSweep:
      out.set("spec", to_json(request.sweep.spec));
      out.set("f_start_hz", request.sweep.f_start_hz);
      out.set("f_stop_hz", request.sweep.f_stop_hz);
      out.set("points_per_decade", request.sweep.points_per_decade);
      out.set("threads", request.sweep.threads);
      out.set("kernel", kernel_name(request.sweep.kernel));
      out.set("auto_linearize", request.sweep.auto_linearize);
      break;
    case AnyRequest::Type::kBatch: {
      Json items = Json::array();
      for (const RefgenRequest& item : request.batch.items) {
        Json entry = Json::object();
        entry.set("spec", to_json(item.spec));
        entry.set("options", to_json(item.options));
        items.push_back(std::move(entry));
      }
      out.set("items", std::move(items));
      out.set("threads", request.batch.threads);
      break;
    }
    case AnyRequest::Type::kSimplify: {
      const refgen::SimplifyOptions& options = request.simplify.options;
      out.set("spec", to_json(request.simplify.spec));
      out.set("error_budget", options.error_budget);
      out.set("f_start_hz", options.f_start_hz);
      out.set("f_stop_hz", options.f_stop_hz);
      out.set("band_points", options.band_points);
      out.set("prune", options.prune);
      out.set("prune_share", options.prune_share);
      out.set("max_terms", static_cast<double>(options.max_terms_per_coefficient));
      out.set("max_queue", static_cast<double>(options.max_queue));
      out.set("skip_factor", options.coefficient_skip_factor);
      out.set("options", to_json(options.engine));
      out.set("auto_linearize", request.simplify.auto_linearize);
      break;
    }
    case AnyRequest::Type::kParamSweep: {
      const ParamSweepRequest& sweep = request.param_sweep;
      out.set("spec", to_json(sweep.spec));
      const bool grid = sweep.mode == ParamSweepRequest::Mode::kGrid;
      out.set("mode", grid ? "grid" : "monte_carlo");
      Json params = Json::array();
      if (grid) {
        for (const mna::ParamAxis& axis : sweep.axes) {
          Json entry = Json::object();
          entry.set("name", axis.name);
          entry.set("from", axis.from);
          entry.set("to", axis.to);
          entry.set("count", axis.count);
          entry.set("log", axis.log_scale);
          params.push_back(std::move(entry));
        }
      } else {
        for (const mna::ParamDist& dist : sweep.dists) {
          Json entry = Json::object();
          entry.set("name", dist.name);
          entry.set("nominal", dist.nominal);
          entry.set("rel_sigma", dist.rel_sigma);
          entry.set("dist",
                    dist.kind == mna::ParamDist::Kind::kGaussian ? "gaussian" : "uniform");
          params.push_back(std::move(entry));
        }
        out.set("samples", sweep.samples);
        out.set("seed", static_cast<double>(sweep.seed));
      }
      out.set("params", std::move(params));
      out.set("f_start_hz", sweep.f_start_hz);
      out.set("f_stop_hz", sweep.f_stop_hz);
      out.set("points_per_decade", sweep.points_per_decade);
      out.set("threads", sweep.threads);
      out.set("kernel", kernel_name(sweep.kernel));
      out.set("auto_linearize", sweep.auto_linearize);
      break;
    }
  }
  return out;
}

Result<AnyRequest> request_from_json(const Json& json) {
  constexpr const char* kWhat = "request";
  if (!json.is_object()) {
    return Status::error(StatusCode::kInvalidArgument, "request: expected a JSON object");
  }
  std::string type;
  Status status = read_string(json, "type", true, &type, kWhat);
  if (!status.ok()) return status;

  AnyRequest request;
  if (type == "refgen" || type == "poles_zeros") {
    status = check_keys(json, {"type", "spec", "options", "auto_linearize"}, kWhat);
    if (!status.ok()) return status;
    const Json* spec = json.find("spec");
    if (spec == nullptr) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: missing required key \"spec\"");
    }
    Result<mna::TransferSpec> parsed_spec = spec_from_json(*spec);
    if (!parsed_spec.ok()) return parsed_spec.status();
    refgen::AdaptiveOptions options;
    if (const Json* options_json = json.find("options"); options_json != nullptr) {
      Result<refgen::AdaptiveOptions> parsed = options_from_json(*options_json);
      if (!parsed.ok()) return parsed.status();
      options = parsed.take();
    }
    bool auto_linearize = false;
    if (!(status = read_bool(json, "auto_linearize", &auto_linearize, kWhat)).ok()) {
      return status;
    }
    if (type == "refgen") {
      request.type = AnyRequest::Type::kRefgen;
      request.refgen = {parsed_spec.take(), std::move(options), auto_linearize};
    } else {
      request.type = AnyRequest::Type::kPolesZeros;
      request.poles_zeros = {parsed_spec.take(), std::move(options), auto_linearize};
    }
    return request;
  }
  if (type == "sweep") {
    status = check_keys(
        json,
        {"type", "spec", "f_start_hz", "f_stop_hz", "points_per_decade", "threads", "kernel",
         "auto_linearize"},
        kWhat);
    if (!status.ok()) return status;
    const Json* spec = json.find("spec");
    if (spec == nullptr) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: missing required key \"spec\"");
    }
    Result<mna::TransferSpec> parsed_spec = spec_from_json(*spec);
    if (!parsed_spec.ok()) return parsed_spec.status();
    request.type = AnyRequest::Type::kSweep;
    request.sweep.spec = parsed_spec.take();
    if (!(status = read_number(json, "f_start_hz", &request.sweep.f_start_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "f_stop_hz", &request.sweep.f_stop_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status =
              read_int(json, "points_per_decade", &request.sweep.points_per_decade, kWhat))
             .ok()) {
      return status;
    }
    if (!(status = read_int(json, "threads", &request.sweep.threads, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_kernel(json, "kernel", &request.sweep.kernel, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_bool(json, "auto_linearize", &request.sweep.auto_linearize, kWhat))
             .ok()) {
      return status;
    }
    return request;
  }
  if (type == "op") {
    status = check_keys(json, {"type", "threads"}, kWhat);
    if (!status.ok()) return status;
    request.type = AnyRequest::Type::kOp;
    if (!(status = read_int(json, "threads", &request.op.threads, kWhat)).ok()) return status;
    return request;
  }
  if (type == "transient") {
    status = check_keys(json, {"type", "tstop", "tstep", "method", "adaptive", "threads"},
                        kWhat);
    if (!status.ok()) return status;
    request.type = AnyRequest::Type::kTransient;
    TransientRequest& tran = request.transient;
    if (!(status = read_required_number(json, "tstop", &tran.tstop, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "tstep", &tran.tstep, kWhat)).ok()) return status;
    std::string method;
    if (!(status = read_string(json, "method", false, &method, kWhat)).ok()) return status;
    if (!method.empty()) {
      try {
        tran.method = transient::method_from_name(method);
      } catch (const std::invalid_argument& e) {
        return Status::error(StatusCode::kInvalidArgument, std::string("request: ") + e.what());
      }
    }
    if (!(status = read_bool(json, "adaptive", &tran.adaptive, kWhat)).ok()) return status;
    if (!(status = read_int(json, "threads", &tran.threads, kWhat)).ok()) return status;
    return request;
  }
  if (type == "batch") {
    status = check_keys(json, {"type", "items", "threads"}, kWhat);
    if (!status.ok()) return status;
    const Json* items = json.find("items");
    if (items == nullptr || !items->is_array()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: batch requires an \"items\" array");
    }
    request.type = AnyRequest::Type::kBatch;
    for (const Json& item : items->items()) {
      status = check_keys(item, {"spec", "options"}, "batch item");
      if (!status.ok()) return status;
      const Json* spec = item.find("spec");
      if (spec == nullptr) {
        return Status::error(StatusCode::kInvalidArgument,
                             "batch item: missing required key \"spec\"");
      }
      Result<mna::TransferSpec> parsed_spec = spec_from_json(*spec);
      if (!parsed_spec.ok()) return parsed_spec.status();
      refgen::AdaptiveOptions options;
      if (const Json* options_json = item.find("options"); options_json != nullptr) {
        Result<refgen::AdaptiveOptions> parsed = options_from_json(*options_json);
        if (!parsed.ok()) return parsed.status();
        options = parsed.take();
      }
      request.batch.items.push_back({parsed_spec.take(), std::move(options)});
    }
    if (!(status = read_int(json, "threads", &request.batch.threads, kWhat)).ok()) {
      return status;
    }
    return request;
  }
  if (type == "simplify") {
    status = check_keys(json,
                        {"type", "spec", "error_budget", "f_start_hz", "f_stop_hz",
                         "band_points", "prune", "prune_share", "max_terms", "max_queue",
                         "skip_factor", "options", "auto_linearize"},
                        kWhat);
    if (!status.ok()) return status;
    const Json* spec = json.find("spec");
    if (spec == nullptr) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: missing required key \"spec\"");
    }
    Result<mna::TransferSpec> parsed_spec = spec_from_json(*spec);
    if (!parsed_spec.ok()) return parsed_spec.status();
    request.type = AnyRequest::Type::kSimplify;
    request.simplify.spec = parsed_spec.take();
    refgen::SimplifyOptions& options = request.simplify.options;
    if (!(status = read_number(json, "error_budget", &options.error_budget, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "f_start_hz", &options.f_start_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "f_stop_hz", &options.f_stop_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_int(json, "band_points", &options.band_points, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_bool(json, "prune", &options.prune, kWhat)).ok()) return status;
    if (!(status = read_number(json, "prune_share", &options.prune_share, kWhat)).ok()) {
      return status;
    }
    int max_terms = static_cast<int>(options.max_terms_per_coefficient);
    int max_queue = static_cast<int>(options.max_queue);
    if (!(status = read_int(json, "max_terms", &max_terms, kWhat)).ok()) return status;
    if (!(status = read_int(json, "max_queue", &max_queue, kWhat)).ok()) return status;
    if (max_terms <= 0 || max_queue <= 0) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: \"max_terms\"/\"max_queue\" must be positive");
    }
    options.max_terms_per_coefficient = static_cast<std::size_t>(max_terms);
    options.max_queue = static_cast<std::size_t>(max_queue);
    if (!(status = read_number(json, "skip_factor", &options.coefficient_skip_factor, kWhat))
             .ok()) {
      return status;
    }
    if (const Json* options_json = json.find("options"); options_json != nullptr) {
      Result<refgen::AdaptiveOptions> parsed = options_from_json(*options_json);
      if (!parsed.ok()) return parsed.status();
      options.engine = parsed.take();
    }
    if (!(status = read_bool(json, "auto_linearize", &request.simplify.auto_linearize, kWhat))
             .ok()) {
      return status;
    }
    return request;
  }
  if (type == "param_sweep") {
    status = check_keys(json,
                        {"type", "spec", "mode", "params", "samples", "seed", "f_start_hz",
                         "f_stop_hz", "points_per_decade", "threads", "kernel",
                         "auto_linearize"},
                        kWhat);
    if (!status.ok()) return status;
    const Json* spec = json.find("spec");
    if (spec == nullptr) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: missing required key \"spec\"");
    }
    Result<mna::TransferSpec> parsed_spec = spec_from_json(*spec);
    if (!parsed_spec.ok()) return parsed_spec.status();
    request.type = AnyRequest::Type::kParamSweep;
    ParamSweepRequest& sweep = request.param_sweep;
    sweep.spec = parsed_spec.take();

    std::string mode = "grid";
    if (!(status = read_string(json, "mode", false, &mode, kWhat)).ok()) return status;
    const bool grid = mode == "grid";
    if (!grid && mode != "monte_carlo") {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: unknown param_sweep mode \"" + mode +
                               "\" (expected grid or monte_carlo)");
    }
    sweep.mode = grid ? ParamSweepRequest::Mode::kGrid : ParamSweepRequest::Mode::kMonteCarlo;

    const Json* params = json.find("params");
    if (params == nullptr || !params->is_array() || params->items().empty()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: param_sweep requires a non-empty \"params\" array");
    }
    for (const Json& entry : params->items()) {
      if (grid) {
        status = check_keys(entry, {"name", "from", "to", "count", "log"}, "param axis");
        if (!status.ok()) return status;
        mna::ParamAxis axis;
        if (!(status = read_string(entry, "name", true, &axis.name, "param axis")).ok()) {
          return status;
        }
        if (!(status = read_required_number(entry, "from", &axis.from, "param axis")).ok()) {
          return status;
        }
        if (!(status = read_required_number(entry, "to", &axis.to, "param axis")).ok()) {
          return status;
        }
        if (entry.find("count") == nullptr) {
          return Status::error(StatusCode::kInvalidArgument,
                               "param axis: missing required key \"count\"");
        }
        if (!(status = read_int(entry, "count", &axis.count, "param axis")).ok()) return status;
        if (!(status = read_bool(entry, "log", &axis.log_scale, "param axis")).ok()) {
          return status;
        }
        sweep.axes.push_back(std::move(axis));
      } else {
        status = check_keys(entry, {"name", "nominal", "rel_sigma", "dist"}, "param dist");
        if (!status.ok()) return status;
        mna::ParamDist dist;
        if (!(status = read_string(entry, "name", true, &dist.name, "param dist")).ok()) {
          return status;
        }
        if (!(status = read_required_number(entry, "nominal", &dist.nominal, "param dist"))
                 .ok()) {
          return status;
        }
        if (!(status =
                  read_required_number(entry, "rel_sigma", &dist.rel_sigma, "param dist"))
                 .ok()) {
          return status;
        }
        std::string kind = "gaussian";
        if (!(status = read_string(entry, "dist", false, &kind, "param dist")).ok()) {
          return status;
        }
        if (kind == "gaussian") {
          dist.kind = mna::ParamDist::Kind::kGaussian;
        } else if (kind == "uniform") {
          dist.kind = mna::ParamDist::Kind::kUniform;
        } else {
          return Status::error(StatusCode::kInvalidArgument,
                               "param dist: unknown dist \"" + kind +
                                   "\" (expected gaussian or uniform)");
        }
        sweep.dists.push_back(std::move(dist));
      }
    }
    if (!(status = read_int(json, "samples", &sweep.samples, kWhat)).ok()) return status;
    double seed = 0.0;
    if (!(status = read_number(json, "seed", &seed, kWhat)).ok()) return status;
    // Seeds ride a JSON number: integers up to 2^53 round-trip exactly.
    if (!(seed >= 0.0) || seed != static_cast<double>(static_cast<std::uint64_t>(seed)) ||
        seed > 9007199254740992.0) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: \"seed\" must be a non-negative integer <= 2^53");
    }
    sweep.seed = static_cast<std::uint64_t>(seed);
    if (!(status = read_number(json, "f_start_hz", &sweep.f_start_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "f_stop_hz", &sweep.f_stop_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_int(json, "points_per_decade", &sweep.points_per_decade, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_int(json, "threads", &sweep.threads, kWhat)).ok()) return status;
    if (!(status = read_kernel(json, "kernel", &sweep.kernel, kWhat)).ok()) return status;
    if (!(status = read_bool(json, "auto_linearize", &sweep.auto_linearize, kWhat)).ok()) {
      return status;
    }
    return request;
  }
  return Status::error(StatusCode::kInvalidArgument,
                       "request: unknown type \"" + type +
                           "\" (expected refgen, sweep, poles_zeros, batch, param_sweep, "
                           "simplify, op, or transient)");
}

Result<std::vector<AnyRequest>> requests_from_json(const Json& json) {
  std::vector<AnyRequest> out;
  if (json.is_array()) {
    for (const Json& item : json.items()) {
      Result<AnyRequest> parsed = request_from_json(item);
      if (!parsed.ok()) return parsed.status();
      out.push_back(parsed.take());
    }
    return out;
  }
  Result<AnyRequest> parsed = request_from_json(json);
  if (!parsed.ok()) return parsed.status();
  out.push_back(parsed.take());
  return out;
}

}  // namespace symref::api
