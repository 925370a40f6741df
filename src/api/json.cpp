#include "api/json.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "support/fault_injection.h"

namespace symref::api {

namespace {

const std::string kEmptyString;
const Json::Array kEmptyArray;
const Json::Object kEmptyObject;

/// Upper bound on the text of one number: the longest "%.17g" of a double
/// ("-2.2250738585072014e-308") and the longest "%a" (24 bytes each).
constexpr std::size_t kMaxNumberBytes = 32;

/// Named two-byte escape of `c`, or 0 when it takes the \u00XX form.
constexpr char short_escape(char c) noexcept {
  switch (c) {
    case '"': return '"';
    case '\\': return '\\';
    case '\b': return 'b';
    case '\f': return 'f';
    case '\n': return 'n';
    case '\r': return 'r';
    case '\t': return 't';
    default: return 0;
  }
}

/// Extra bytes each byte takes once escaped: 1 for the named escapes, 5
/// for the other control bytes (\u00XX), 0 for the bytes that pass raw.
constexpr std::array<std::uint8_t, 256> kEscapeExtra = [] {
  std::array<std::uint8_t, 256> extra{};
  for (int c = 0; c < 0x20; ++c) extra[c] = short_escape(static_cast<char>(c)) != 0 ? 1 : 5;
  extra['"'] = 1;
  extra['\\'] = 1;
  return extra;
}();

/// Bytes of the quoted, escaped form of `text`.
std::size_t escaped_size(std::string_view text) noexcept {
  std::size_t size = text.size() + 2;
  for (const char c : text) size += kEscapeExtra[static_cast<unsigned char>(c)];
  return size;
}

/// Writes the quoted, escaped form of `text` at `at`, given its
/// escaped_size. Clean text goes out in one copy; otherwise clean runs
/// do, and only '"', '\\' and control bytes stop one.
char* write_escaped(char* at, std::string_view text, std::size_t size) noexcept {
  *at++ = '"';
  if (size == text.size() + 2) {
    std::memcpy(at, text.data(), text.size());
    at += text.size();
    *at++ = '"';
    return at;
  }
  const char* run = text.data();
  const char* const end = run + text.size();
  for (const char* c = run; c != end; ++c) {
    if (kEscapeExtra[static_cast<unsigned char>(*c)] == 0) continue;
    std::memcpy(at, run, static_cast<std::size_t>(c - run));
    at += c - run;
    run = c + 1;
    *at++ = '\\';
    if (const char named = short_escape(*c); named != 0) {
      *at++ = named;
    } else {
      constexpr char kHex[] = "0123456789abcdef";
      const auto u = static_cast<unsigned char>(*c);
      const char escape[] = {'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
      std::memcpy(at, escape, sizeof(escape));
      at += sizeof(escape);
    }
  }
  std::memcpy(at, run, static_cast<std::size_t>(end - run));
  at += end - run;
  *at++ = '"';
  return at;
}

/// Shortest "%.{p}g" text (p <= 17) that reads back as `value`, written at
/// `at` (kMaxNumberBytes of room). The shortest round-trip digit count of
/// to_chars(scientific) is a lower bound on p: a p-digit %g text that
/// round-trips is itself a p-digit round-trip representation. Correct
/// rounding may still miss at that count, so step up until the round trip
/// holds (%.17g always does).
char* write_number(char* at, double value) noexcept {
  if (!std::isfinite(value)) {
    std::memcpy(at, "null", 4);
    return at + 4;
  }
  char* const end = at + kMaxNumberBytes;
  // Integer fast path. Below 2^53 an integer's shortest round trip is all
  // of its d digits, and with no trailing zero %.{d}g prints it in the
  // fixed style as exactly those digits. An integer with a trailing zero
  // switches to the exponent style (300 -> "3e+02"), and -0 prints "-0":
  // both stay on the general path below.
  if (std::fabs(value) < 0x1p53) {
    const auto integer = static_cast<std::int64_t>(value);
    if (static_cast<double>(integer) == value &&
        (integer % 10 != 0 || (integer == 0 && !std::signbit(value)))) {
      return std::to_chars(at, end, integer).ptr;
    }
  }
  char* const shortest_end = std::to_chars(at, end, value, std::chars_format::scientific).ptr;
  int precision = static_cast<int>(std::count_if(
      at, std::find(at, shortest_end, 'e'), [](char c) { return c >= '0' && c <= '9'; }));
  for (;; ++precision) {
    char* const text_end = std::to_chars(at, end, value, std::chars_format::general, precision).ptr;
    double reparsed = 0.0;
    const std::from_chars_result parsed = std::from_chars(at, text_end, reparsed);
    if (precision >= 17 || (parsed.ec == std::errc() && reparsed == value)) return text_end;
  }
}

/// "%a" text of `value` written at `at` (kMaxNumberBytes of room).
char* write_hex_double(char* at, double value) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int biased_exponent = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  if ((bits >> 63) != 0) *at++ = '-';
  if (biased_exponent == 0x7ff) {
    std::memcpy(at, fraction == 0 ? "inf" : "nan", 3);
    return at + 3;
  }
  // Zeros print as 0x0p+0; subnormals keep the leading 0 at exponent -1022.
  int exponent = biased_exponent - 1023;
  if (biased_exponent == 0) exponent = fraction == 0 ? 0 : -1022;
  *at++ = '0';
  *at++ = 'x';
  *at++ = biased_exponent == 0 ? '0' : '1';
  if (fraction != 0) {
    int digits = 13;  // 52 fraction bits, trailing zero nibbles trimmed
    for (; (fraction & 0xf) == 0; fraction >>= 4) --digits;
    *at++ = '.';
    for (int shift = 4 * (digits - 1); shift >= 0; shift -= 4) {
      *at++ = "0123456789abcdef"[(fraction >> shift) & 0xf];
    }
  }
  *at++ = 'p';
  *at++ = exponent < 0 ? '-' : '+';
  return std::to_chars(at, at + 8, exponent < 0 ? -exponent : exponent).ptr;
}

void append_escaped(std::string& out, std::string_view text) {
  const std::size_t at = out.size();
  const std::size_t size = escaped_size(text);
  out.resize(at + size);
  write_escaped(out.data() + at, text, size);
}

void append_number(std::string& out, double value) {
  char buffer[kMaxNumberBytes];
  out.append(buffer, static_cast<std::size_t>(write_number(buffer, value) - buffer));
}

/// Lays out compact JSON text (an encoder's own output: no whitespace
/// outside strings) exactly as Json::dump_to lays out the equivalent tree,
/// starting at nesting `depth`, without building the tree.
void append_indented(std::string& out, std::string_view text, int indent, int depth) {
  const auto newline = [&](int level) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    switch (c) {
      case '"': {
        // Through the closing quote; an escaped quote does not end it.
        std::size_t end = i + 1;
        while (end < text.size() && text[end] != '"') end += text[end] == '\\' ? 2 : 1;
        end = std::min(end + 1, text.size());
        out.append(text.data() + i, end - i);
        i = end - 1;
        break;
      }
      case '{':
      case '[':
        out += c;
        if (i + 1 < text.size() && (text[i + 1] == '}' || text[i + 1] == ']')) {
          out += text[++i];  // empty: "{}" / "[]" stay on one line
        } else {
          newline(++depth);
        }
        break;
      case '}':
      case ']':
        newline(--depth);
        out += c;
        break;
      case ',':
        out += ',';
        newline(depth);
        break;
      case ':': out += ": "; break;
      default: out += c;
    }
  }
}

/// Recursive-descent parser over the raw text, tracking line/column.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<Json> run() {
    skip_whitespace();
    Json value;
    if (!parse_value(value)) return take_error();
    skip_whitespace();
    if (at_ < text_.size()) {
      error("trailing characters after JSON document");
      return take_error();
    }
    return value;
  }

 private:
  [[nodiscard]] bool eof() const noexcept { return at_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[at_]; }

  char advance() noexcept {
    const char c = text_[at_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void skip_whitespace() noexcept {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) {
      advance();
    }
  }

  bool error(const std::string& message) {
    if (error_.ok()) {
      error_ = Status::error(StatusCode::kParseError, "json: " + message, {line_, column_});
    }
    return false;
  }

  Status take_error() {
    return error_.ok() ? Status::error(StatusCode::kParseError, "json: parse failed") : error_;
  }

  bool expect(char c) {
    if (eof() || peek() != c) return error(std::string("expected '") + c + "'");
    advance();
    return true;
  }

  bool parse_literal(const char* word, Json value, Json& out) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (eof() || peek() != *p) return error(std::string("bad literal (expected ") + word + ")");
      advance();
    }
    out = std::move(value);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (true) {
      if (eof()) return error("unterminated string");
      const char c = advance();
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return error("control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return error("unterminated escape");
      const char esc = advance();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) return error("truncated \\u escape");
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return error("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences; facade payloads are ASCII).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return error("unknown escape sequence");
      }
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = at_;
    if (!eof() && peek() == '-') advance();
    if (eof() || peek() < '0' || peek() > '9') return error("bad number");
    const char first_digit = peek();
    advance();
    if (first_digit == '0' && !eof() && peek() >= '0' && peek() <= '9') {
      return error("leading zeros are not allowed");
    }
    while (!eof() && peek() >= '0' && peek() <= '9') advance();
    if (!eof() && peek() == '.') {
      advance();
      if (eof() || peek() < '0' || peek() > '9') return error("digits required after '.'");
      while (!eof() && peek() >= '0' && peek() <= '9') advance();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!eof() && (peek() == '+' || peek() == '-')) advance();
      if (eof() || peek() < '0' || peek() > '9') return error("digits required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') advance();
    }
    const std::string token(text_.substr(start, at_ - start));
    out = Json(std::strtod(token.c_str(), nullptr));
    return true;
  }

  bool parse_value(Json& out) {
    if (++depth_ > kMaxDepth) return error("nesting too deep");
    skip_whitespace();
    if (eof()) return error("unexpected end of input");
    bool ok = false;
    switch (peek()) {
      case '{': ok = parse_object(out); break;
      case '[': ok = parse_array(out); break;
      case '"': {
        std::string text;
        ok = parse_string(text);
        if (ok) out = Json(std::move(text));
        break;
      }
      case 't': ok = parse_literal("true", Json(true), out); break;
      case 'f': ok = parse_literal("false", Json(false), out); break;
      case 'n': ok = parse_literal("null", Json(nullptr), out); break;
      default: ok = parse_number(out); break;
    }
    --depth_;
    return ok;
  }

  bool parse_object(Json& out) {
    if (!expect('{')) return false;
    Json::Object members;
    skip_whitespace();
    if (!eof() && peek() == '}') {
      advance();
      out = Json(std::move(members));
      return true;
    }
    while (true) {
      skip_whitespace();
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!expect(':')) return false;
      Json value;
      if (!parse_value(value)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (eof()) return error("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == '}') {
        advance();
        out = Json(std::move(members));
        return true;
      }
      return error("expected ',' or '}' in object");
    }
  }

  bool parse_array(Json& out) {
    if (!expect('[')) return false;
    Json::Array items;
    skip_whitespace();
    if (!eof() && peek() == ']') {
      advance();
      out = Json(std::move(items));
      return true;
    }
    while (true) {
      Json value;
      if (!parse_value(value)) return false;
      items.push_back(std::move(value));
      skip_whitespace();
      if (eof()) return error("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == ']') {
        advance();
        out = Json(std::move(items));
        return true;
      }
      return error("expected ',' or ']' in array");
    }
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  std::size_t at_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;
  Status error_;
};

}  // namespace

void append_hex_double(std::string& out, double value) {
  char buffer[kMaxNumberBytes];
  out.append(buffer, static_cast<std::size_t>(write_hex_double(buffer, value) - buffer));
}

JsonWriter::JsonWriter(std::size_t reserve) { buffer_.resize(reserve); }

void JsonWriter::grow(std::size_t bytes) {
  buffer_.resize(std::max({2 * buffer_.size(), size_ + bytes, std::size_t{256}}));
}

JsonWriter& JsonWriter::open(char bracket) {
  char* at = room(2);
  if (after_value_) *at++ = ',';
  *at++ = bracket;
  commit(at);
  after_value_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  *room(1) = bracket;
  ++size_;
  after_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  const std::size_t size = escaped_size(name);
  char* at = room(size + 2);
  if (after_value_) *at++ = ',';
  at = write_escaped(at, name, size);
  *at++ = ':';
  commit(at);
  after_value_ = false;
  return *this;
}

JsonWriter& JsonWriter::literal(std::string_view text) {
  char* at = room(text.size() + 1);
  if (after_value_) *at++ = ',';
  std::memcpy(at, text.data(), text.size());
  commit(at + text.size());
  after_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() { return literal("null"); }

JsonWriter& JsonWriter::value(bool flag) { return literal(flag ? "true" : "false"); }

JsonWriter& JsonWriter::value(double number) {
  char* at = room(kMaxNumberBytes + 1);
  if (after_value_) *at++ = ',';
  commit(write_number(at, number));
  after_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  const std::size_t size = escaped_size(text);
  char* at = room(size + 1);
  if (after_value_) *at++ = ',';
  commit(write_escaped(at, text, size));
  after_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::hex(double number) {
  char* at = room(kMaxNumberBytes + 3);
  if (after_value_) *at++ = ',';
  *at++ = '"';
  at = write_hex_double(at, number);
  *at++ = '"';
  commit(at);
  after_value_ = true;
  return *this;
}

Json JsonWriter::take() {
  buffer_.resize(size_);
  size_ = 0;
  after_value_ = false;
  return Json::encoded(std::make_shared<const std::string>(std::move(buffer_)));
}

int Json::as_int(int fallback) const noexcept {
  if (!is_number()) return fallback;
  const double value = std::get<double>(value_);
  if (!(value >= -2147483648.0 && value <= 2147483647.0)) return fallback;
  return static_cast<int>(value);
}

const std::string& Json::as_string() const {
  return is_string() ? std::get<std::string>(value_) : kEmptyString;
}

Json Json::encoded(std::shared_ptr<const std::string> text) {
  Json node;
  node.value_ = std::move(text);
  return node;
}

const Json::Array& Json::items() const {
  return is_array() ? std::get<Array>(value_) : kEmptyArray;
}

const Json::Object& Json::members() const {
  return is_object() ? std::get<Object>(value_) : kEmptyObject;
}

std::size_t Json::size() const noexcept {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  return 0;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : std::get<Object>(value_)) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json& Json::set(std::string_view key, Json value) {
  if (!is_object()) value_ = Object{};
  auto& members = std::get<Object>(value_);
  for (auto& [name, existing] : members) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  members.emplace_back(std::string(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  if (!is_array()) value_ = Array{};
  std::get<Array>(value_).push_back(std::move(value));
  return *this;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(out, as_number());
  } else if (is_string()) {
    append_escaped(out, as_string());
  } else if (holds<Encoded>()) {
    const Encoded& text = std::get<Encoded>(value_);
    if (indent < 0) {
      out += *text;
    } else {
      append_indented(out, *text, indent, depth);
    }
  } else if (is_array()) {
    const Array& items = std::get<Array>(value_);
    if (items.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ',';
      newline(depth + 1);
      items[i].dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out += ']';
  } else {
    const Object& members = std::get<Object>(value_);
    if (members.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ',';
      newline(depth + 1);
      append_escaped(out, members[i].first);
      out += indent < 0 ? ":" : ": ";
      members[i].second.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::shared_ptr<const std::string> Json::dump_shared() const {
  if (holds<Encoded>()) return std::get<Encoded>(value_);
  return std::make_shared<const std::string>(dump());
}

Result<Json> Json::parse(std::string_view text) {
  // Fault site "json_parse": malformed-input handling is exercised by
  // chaos runs without needing actually-malformed bytes on the wire.
  if (support::fault("json_parse")) {
    return Status::error(StatusCode::kParseError, "injected fault at site json_parse");
  }
  return JsonParser(text).run();
}

}  // namespace symref::api
