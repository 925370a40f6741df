#include "api/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

#include "support/fault_injection.h"

namespace symref::api {

namespace {

const std::string kEmptyString;
const Json::Array kEmptyArray;
const Json::Object kEmptyObject;

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  // Clean runs go out in one append; only '"', '\\' and control bytes stop one.
  const char* run = text.data();
  const char* const end = run + text.size();
  for (const char* at = run; at != end; ++at) {
    const auto u = static_cast<unsigned char>(*at);
    if (u >= 0x20 && u != '"' && u != '\\') continue;
    out.append(run, at);
    run = at + 1;
    switch (*at) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(run, end);
  out += '"';
}

/// Shortest "%.{p}g" text (p <= 17) that reads back as `value`. The
/// shortest round-trip digit count of to_chars(scientific) is a lower bound
/// on p: a p-digit %g text that round-trips is itself a p-digit round-trip
/// representation. Correct rounding may still miss at that count, so step
/// up until the round trip holds (%.17g always does).
void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  char* const end = buffer + sizeof(buffer);
  char* const shortest_end = std::to_chars(buffer, end, value, std::chars_format::scientific).ptr;
  int precision = static_cast<int>(std::count_if(
      buffer, std::find(buffer, shortest_end, 'e'), [](char c) { return c >= '0' && c <= '9'; }));
  for (;; ++precision) {
    char* const text_end =
        std::to_chars(buffer, end, value, std::chars_format::general, precision).ptr;
    double reparsed = 0.0;
    const std::from_chars_result parsed = std::from_chars(buffer, text_end, reparsed);
    if (precision >= 17 || (parsed.ec == std::errc() && reparsed == value)) {
      out.append(buffer, text_end);
      return;
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
      // The parser directly, not Json::parse: re-indenting an encoder's own
      // output is not an input path, so the json_parse fault site stays out.
      Result<Json> parsed = JsonParser(*text).run();
      if (parsed.ok()) {
        parsed.value().dump_to(out, indent, depth);
      } else {
        out += *text;
      }
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

Result<Json> Json::parse(std::string_view text) {
  // Fault site "json_parse": malformed-input handling is exercised by
  // chaos runs without needing actually-malformed bytes on the wire.
  if (support::fault("json_parse")) {
    return Status::error(StatusCode::kParseError, "injected fault at site json_parse");
  }
  return JsonParser(text).run();
}

}  // namespace symref::api
