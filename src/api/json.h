// Minimal self-contained JSON — the wire format of the service facade.
//
// The repo deliberately carries no third-party dependencies, so this is a
// small strict JSON implementation in two halves. Requests parse into the
// tree (Json): they are read, hashed and round-tripped. Responses are
// written by the writer (JsonWriter): every response encoder appends
// straight into one wire string, with no tree built in between. Objects
// preserve insertion order (stable wire output for diffs and golden
// tests), numbers are IEEE doubles, and parse errors come back as
// api::Status with line/column.
//
// Wire contract (docs/api.md "Number grammar"): a finite number encodes as
// the shortest printf("%.{p}g") text, p <= 17, that reads back as the same
// double; non-finite numbers encode as null (RFC 8259 has no inf/nan;
// payloads that must round-trip extreme values carry them as hex-float
// strings, exactly glibc's "%a" — see append_hex_double). Strings escape the
// quote, the backslash and bytes below 0x20; other bytes pass through raw.
// The tree's dump() and the writer share these formatters, so both produce
// the same bytes for the same value.
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
  /// again; an indented dump lays the text out as the equivalent tree's
  /// would, without parsing it. The node is opaque: every is_*() is false
  /// and find()/items()/members() see nothing.
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

  /// Compact dump() as a shared string. An encoded node hands out its text
  /// without copying it; any other node is dumped.
  [[nodiscard]] std::shared_ptr<const std::string> dump_shared() const;

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

/// Appends the hex-float text of `value` to `out`, byte for byte what
/// glibc's "%a" prints: "0x1.<hex>p±e" (trailing zero nibbles trimmed) for
/// normal values, "0x0p+0"/"-0x0p+0" for zeros, "0x0.<hex>p-1022" for
/// subnormals, and "inf"/"-inf"/"nan"/"-nan" for the non-finite values.
/// Bit-exact and readable by strtod / Python's float.fromhex.
void append_hex_double(std::string& out, double value);

/// Append-only JSON text writer: the one encoder of response payloads.
/// Values go straight into one string in call order, in exactly the bytes a
/// compact dump() of the equivalent tree gives. The writer only places the
/// commas; the caller keeps the nesting balanced and writes a key() before
/// each object member.
class JsonWriter {
 public:
  /// `reserve`: expected text size, so a large payload is not regrown.
  explicit JsonWriter(std::size_t reserve = 0);

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Object member key; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& null();
  JsonWriter& value(bool flag);
  JsonWriter& value(int number) { return value(static_cast<double>(number)); }
  /// Number grammar of the wire contract; non-finite values write null.
  JsonWriter& value(double number);
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  /// Hex-float string of `number` (append_hex_double, quoted).
  JsonWriter& hex(double number);

  template <typename T>
  JsonWriter& member(std::string_view name, const T& member_value) {
    return key(name).value(member_value);
  }
  JsonWriter& hex_member(std::string_view name, double number) { return key(name).hex(number); }

  /// The finished text as an encoded Json node (Json::encoded); the writer
  /// starts over empty.
  [[nodiscard]] Json take();

 private:
  /// Writable space for `bytes` more bytes after the text.
  char* room(std::size_t bytes) {
    if (buffer_.size() - size_ < bytes) grow(bytes);
    return buffer_.data() + size_;
  }
  /// The text now ends at `end` (a pointer into the room just handed out).
  void commit(const char* end) noexcept {
    size_ = static_cast<std::size_t>(end - buffer_.data());
  }
  void grow(std::size_t bytes);
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// A value whose text needs no escaping.
  JsonWriter& literal(std::string_view text);

  /// The text is buffer_[0, size_); the bytes after it are spare room, so
  /// values are formatted in place instead of appended piecewise.
  std::string buffer_;
  std::size_t size_ = 0;
  /// A value ends the text, so the next value or key needs a comma.
  bool after_value_ = false;
};

}  // namespace symref::api
