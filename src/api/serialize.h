// JSON wire mapping of the facade's requests and responses.
//
// One schema for every front end: tools/refgen emits these payloads with
// --json, request files drive multi-request sessions, and a future RPC
// server reuses the exact same encode/decode path. The schema is documented
// in docs/api.md.
//
// Numbers that must survive a round trip bit-exactly (reference
// coefficients, extended-range values) are carried as hex-float mantissa
// strings plus a binary exponent — JSON doubles would silently round or
// reject inf/nan. Everything else is plain JSON numbers.
#pragma once

#include <string>

#include "api/json.h"
#include "api/requests.h"
#include "api/status.h"
#include "mna/transfer.h"
#include "refgen/reference.h"

namespace symref::api {

// --- Encoding ---------------------------------------------------------------

/// Hex-float text of a double as a string (append_hex_double in
/// api/json.h has the grammar; the encoders append in place).
std::string hex_double(double value);

/// {"code": "parse_error", "message": "...", "line": 3, "column": 7}
/// (message/line/column omitted when empty/unknown; ok status is
/// {"code": "ok"}).
Json to_json(const Status& status);

Json to_json(const mna::TransferSpec& spec);
Json to_json(const refgen::AdaptiveOptions& options);
Json to_json(const refgen::NumericalReference& reference);

/// Response payloads. Every response object carries "type" and "status";
/// the remaining fields are type-specific and only present on success.
/// Responses are written straight to wire text (JsonWriter) and come back
/// as an encoded node: dump() gives the text, an indented dump() re-parses
/// it, and find()/members() see nothing — parse the dump() to walk one.
/// The Status and NumericalReference encoders above return the same kind.
Json to_json(const RefgenResponse& response);
/// Node voltages, branch currents and the per-device operating-point table
/// are hex-float strings (bit-exact across the wire — the 1-vs-N-thread
/// byte-compare of the CLI smoke rides on this).
Json to_json(const OpResponse& response);
Json to_json(const SweepResponse& response);
Json to_json(const PolesZerosResponse& response);
Json to_json(const BatchResponse& response);
/// Term values and certificate errors are hex-float (bit-exact across the
/// wire — the daemon-vs-CLI byte-compare of the simplify smoke rides on
/// this).
Json to_json(const SimplifyResponse& response);
/// Per-sample transfer values are hex-float strings (bit-exact across the
/// wire — the 1-vs-N-thread byte-compare of CI's smoke jobs rides on this).
Json to_json(const ParamSweepResponse& response);
/// Time points and waveform samples are hex-float strings (bit-exact across
/// the wire — the 1-vs-N-thread byte-compare of the CLI transient smoke and
/// the daemon-vs-CLI byte-compare ride on this).
Json to_json(const TransientResponse& response);

/// Uniform failure payload: {"type": <type>, "status": {...}}.
Json error_response(const char* type, const Status& status);

// --- Decoding ---------------------------------------------------------------

Result<mna::TransferSpec> spec_from_json(const Json& json);
Result<refgen::AdaptiveOptions> options_from_json(const Json& json);

/// A request of any type, as parsed from a JSON payload.
struct AnyRequest {
  enum class Type {
    kRefgen,
    kSweep,
    kPolesZeros,
    kBatch,
    kParamSweep,
    kSimplify,
    kOp,
    kTransient
  };
  Type type = Type::kRefgen;
  RefgenRequest refgen;
  OpRequest op;
  SweepRequest sweep;
  PolesZerosRequest poles_zeros;
  BatchRequest batch;
  ParamSweepRequest param_sweep;
  SimplifyRequest simplify;
  TransientRequest transient;
};

/// Stable wire token of a request type: "refgen", "sweep", "poles_zeros",
/// "batch", "param_sweep", "simplify", "op", "transient".
const char* request_type_name(AnyRequest::Type type) noexcept;

/// Encode a request in the exact schema request_from_json accepts — the
/// client half of the wire (tools/refgen --connect, request-file writers).
Json to_json(const AnyRequest& request);

/// Parse {"type": "refgen"|"sweep"|"poles_zeros"|"batch"|"param_sweep"|
/// "simplify"|"op", ...}. Strict: unknown keys and missing required fields fail
/// with kInvalidArgument, so typos in hand-written request files surface
/// instead of silently using defaults. A batch request carries "items": an
/// array of {"spec", "options"} refgen items, plus optional "threads". A
/// param_sweep request carries "mode" ("grid"|"monte_carlo") and "params":
/// grid axes {"name", "from", "to", "count", "log"} or Monte-Carlo
/// dimensions {"name", "nominal", "rel_sigma", "dist"} plus
/// "samples"/"seed". A transient request carries "tstop" plus optional
/// "tstep", "method" ("trap"|"bdf1"|"bdf2"), "adaptive" and "threads". A
/// simplify request carries "error_budget", the band
/// ("f_start_hz"/"f_stop_hz"/"band_points") and optional tuning knobs
/// ("prune", "prune_share", "max_terms", "max_queue", "skip_factor") plus
/// the nested reference-engine "options". An op request carries only an
/// optional "threads". Every AC-family request accepts an optional boolean
/// "auto_linearize" (required true on device-bearing handles).
Result<AnyRequest> request_from_json(const Json& json);

/// Parse a request *session*: either one request object or an array of
/// them (the multi-request form of tools/refgen --requests).
Result<std::vector<AnyRequest>> requests_from_json(const Json& json);

}  // namespace symref::api
