// Minimal self-contained JSON value — the wire format of the service facade.
//
// The repo deliberately carries no third-party dependencies, and the facade
// needs both directions (parse requests, emit responses), which the flat
// metric writer in support/bench_json.h cannot do. This is a small strict
// JSON implementation: objects preserve insertion order (stable wire output
// for diffs and golden tests), numbers are IEEE doubles, and parse errors
// come back as api::Status with line/column.
//
// Wire contract (docs/api.md "Number grammar"): a finite number encodes as
// the shortest printf("%.{p}g") text, p <= 17, that reads back as the same
// double; non-finite numbers encode as null (RFC 8259 has no inf/nan;
// payloads that must round-trip extreme values carry them as hex-float
// strings, exactly glibc's "%a" — see hex_double in api/serialize.h). Strings
// escape the quote, the backslash and bytes below 0x20; other bytes pass
// through raw.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "api/status.h"

namespace symref::api {

class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered key/value list. Lookup is linear — facade payloads
  /// have tens of keys, not thousands.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() noexcept : value_(nullptr) {}
  Json(std::nullptr_t) noexcept : value_(nullptr) {}  // NOLINT
  Json(bool value) noexcept : value_(value) {}        // NOLINT
  Json(double value) noexcept : value_(value) {}      // NOLINT
  Json(int value) noexcept : value_(static_cast<double>(value)) {}  // NOLINT
  Json(const char* value) : value_(std::string(value)) {}           // NOLINT
  Json(std::string value) : value_(std::move(value)) {}             // NOLINT
  Json(Array value) : value_(std::move(value)) {}                   // NOLINT
  Json(Object value) : value_(std::move(value)) {}                  // NOLINT

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }
  /// Already-encoded value: `text` (non-null) is the compact dump() of some
  /// value. A compact dump appends it verbatim, so one encoded payload can
  /// be spliced into several envelopes without building or walking its tree
  /// again; an indented dump gives the bytes of the parsed equivalent. The
  /// node is opaque: every is_*() is false and find()/items()/members() see
  /// nothing.
  static Json encoded(std::shared_ptr<const std::string> text);

  [[nodiscard]] bool is_null() const noexcept { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const noexcept { return holds<bool>(); }
  [[nodiscard]] bool is_number() const noexcept { return holds<double>(); }
  [[nodiscard]] bool is_string() const noexcept { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const noexcept { return holds<Array>(); }
  [[nodiscard]] bool is_object() const noexcept { return holds<Object>(); }

  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
    return is_bool() ? std::get<bool>(value_) : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0.0) const noexcept {
    return is_number() ? std::get<double>(value_) : fallback;
  }
  /// Integer view of a number; `fallback` when absent, non-numeric, or
  /// outside int range (the raw cast would be undefined behavior).
  [[nodiscard]] int as_int(int fallback = 0) const noexcept;
  [[nodiscard]] const std::string& as_string() const;  // empty string when not a string

  [[nodiscard]] const Array& items() const;    // empty when not an array
  [[nodiscard]] const Object& members() const; // empty when not an object
  [[nodiscard]] std::size_t size() const noexcept;

  /// Object member by key; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  /// Set (or replace) an object member. Converts a null value to an empty
  /// object first, so building payloads reads linearly.
  Json& set(std::string_view key, Json value);

  /// Append to an array (null converts to an empty array first).
  Json& push_back(Json value);

  /// Serialize. indent < 0: compact one-line; indent >= 0: pretty-printed
  /// with that many spaces per level. Non-finite numbers become null.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Strict RFC 8259 parse of a complete document; kParseError Status
  /// carries the 1-based line/column of the first offending character.
  static Result<Json> parse(std::string_view text);

 private:
  template <typename T>
  [[nodiscard]] bool holds() const noexcept {
    return std::holds_alternative<T>(value_);
  }

  void dump_to(std::string& out, int indent, int depth) const;

  using Encoded = std::shared_ptr<const std::string>;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object, Encoded> value_;
};

}  // namespace symref::api
