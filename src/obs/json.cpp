#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>

#include "check/contract.hpp"

namespace parsched::obs {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  PARSCHED_CHECK(res.ec == std::errc(), "double render overflow");
  return std::string(buf, res.ptr);
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(os), indent_(indent) {}

JsonWriter::~JsonWriter() {
  // Do not throw from a destructor; unbalanced writers are caught by the
  // explicit done() assertion at call sites (and by json_syntax_valid).
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(
                                                  indent_);
       ++i) {
    os_ << ' ';
  }
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    PARSCHED_CHECK(!wrote_root_, "JSON: second root value");
    return;
  }
  if (stack_.back() == Frame::kObject) {
    PARSCHED_CHECK(expecting_value_,
                   "JSON: object member needs key() before its value");
    expecting_value_ = false;
    return;  // key() already emitted the separator and the key
  }
  if (!first_.back()) os_ << ',';
  first_.back() = false;
  newline_indent();
}

JsonWriter& JsonWriter::key(std::string_view name) {
  PARSCHED_CHECK(!stack_.empty() && stack_.back() == Frame::kObject,
                 "JSON: key() outside an object");
  PARSCHED_CHECK(!expecting_value_, "JSON: key() while a value is pending");
  if (!first_.back()) os_ << ',';
  first_.back() = false;
  newline_indent();
  os_ << json_quote(name) << (indent_ > 0 ? ": " : ":");
  expecting_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Frame::kObject);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  PARSCHED_CHECK(!stack_.empty() && stack_.back() == Frame::kObject,
                 "JSON: end_object() without begin_object()");
  PARSCHED_CHECK(!expecting_value_, "JSON: dangling key at end_object()");
  const bool empty = first_.back();
  stack_.pop_back();
  first_.pop_back();
  if (!empty) newline_indent();
  os_ << '}';
  if (stack_.empty()) wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Frame::kArray);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  PARSCHED_CHECK(!stack_.empty() && stack_.back() == Frame::kArray,
                 "JSON: end_array() without begin_array()");
  const bool empty = first_.back();
  stack_.pop_back();
  first_.pop_back();
  if (!empty) newline_indent();
  os_ << ']';
  if (stack_.empty()) wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  os_ << json_quote(s);
  if (stack_.empty()) wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  os_ << json_number(v);
  if (stack_.empty()) wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  if (stack_.empty()) wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
  if (stack_.empty()) wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  if (stack_.empty()) wrote_root_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  os_ << "null";
  if (stack_.empty()) wrote_root_ = true;
  return *this;
}

// ----------------------------------------------------------------- parser

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const JsonValue* hit = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) hit = &v;  // last duplicate wins, like most readers
  }
  return hit;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->string : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->boolean : fallback;
}

namespace {

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Strict RFC-8259 recursive-descent parser building a JsonValue tree.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool run(JsonValue& out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) return fail(error);
    skip_ws();
    if (pos_ != text_.size()) {
      reason_ = "trailing characters after value";
      return fail(error);
    }
    return true;
  }

 private:
  bool fail(std::string* error) {
    if (error != nullptr) {
      *error = "offset " + std::to_string(pos_) + ": " + reason_;
    }
    return false;
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      reason_ = "invalid literal";
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (++depth_ > 512) {
      reason_ = "nesting too deep";
      return false;
    }
    bool ok = false;
    if (eof()) {
      reason_ = "unexpected end of input";
    } else {
      switch (peek()) {
        case '{': ok = parse_object(out); break;
        case '[': ok = parse_array(out); break;
        case '"':
          out.kind = JsonValue::Kind::kString;
          ok = parse_string(out.string);
          break;
        case 't':
          out.kind = JsonValue::Kind::kBool;
          out.boolean = true;
          ok = literal("true");
          break;
        case 'f':
          out.kind = JsonValue::Kind::kBool;
          out.boolean = false;
          ok = literal("false");
          break;
        case 'n':
          out.kind = JsonValue::Kind::kNull;
          ok = literal("null");
          break;
        default: ok = parse_number(out); break;
      }
    }
    --depth_;
    return ok;
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') {
        reason_ = "expected object key string";
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (eof() || peek() != ':') {
        reason_ = "expected ':' after object key";
        return false;
      }
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!parse_value(member)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == '}') {
        ++pos_;
        return true;
      }
      reason_ = "expected ',' or '}' in object";
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == ']') {
        ++pos_;
        return true;
      }
      reason_ = "expected ',' or ']' in array";
      return false;
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      if (eof() ||
          std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        reason_ = "bad \\u escape";
        return false;
      }
      const char c = text_[pos_];
      std::uint32_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a') + 10;
      } else {
        digit = static_cast<std::uint32_t>(c - 'A') + 10;
      }
      out = (out << 4) | digit;
    }
    return true;
  }

  bool parse_string(std::string& out) {
    out.clear();
    ++pos_;  // opening quote
    while (!eof()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        reason_ = "raw control character in string";
        return false;
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (eof()) break;
        const char esc = text_[pos_];
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
            std::uint32_t cp = 0;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xDC00 && cp <= 0xDFFF) {
              reason_ = "unpaired surrogate";
              return false;
            }
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // A high surrogate is only valid as half of a pair.
              if (text_.substr(pos_ + 1, 2) != "\\u") {
                reason_ = "unpaired surrogate";
                return false;
              }
              pos_ += 2;
              std::uint32_t lo = 0;
              if (!parse_hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                reason_ = "unpaired surrogate";
                return false;
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            append_utf8(out, cp);
            break;
          }
          default:
            reason_ = "bad escape character";
            return false;
        }
      } else {
        out += c;
      }
      ++pos_;
    }
    reason_ = "unterminated string";
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    bool literal = true;  // no fraction, no exponent
    if (!eof() && peek() == '-') ++pos_;
    const std::size_t digits_at = pos_;
    if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
      reason_ = "invalid number";
      return false;
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    const std::size_t digits = pos_ - digits_at;
    if (!eof() && peek() == '.') {
      literal = false;
      ++pos_;
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        reason_ = "digit required after decimal point";
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      literal = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        reason_ = "digit required in exponent";
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    out.kind = JsonValue::Kind::kNumber;
    // from_chars is the inverse of json_number's to_chars: shortest
    // round-trip renderings parse back to the identical double.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto res = std::from_chars(first, last, out.number);
    if (res.ec != std::errc() || res.ptr != last) {
      reason_ = "number out of range";
      return false;
    }
    // 15 digits stay below 2^53; a longer literal is bounded exactly.
    std::int64_t whole = 0;
    out.integer =
        literal && (digits <= 15 ||
                    (std::from_chars(first, last, whole).ec == std::errc() &&
                     whole >= -(std::int64_t{1} << 53) &&
                     whole <= (std::int64_t{1} << 53)));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string reason_ = "invalid JSON";
};

}  // namespace

bool json_parse(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue{};
  return JsonParser(text).run(out, error);
}

bool json_syntax_valid(std::string_view text, std::string* error) {
  JsonValue discarded;
  return json_parse(text, discarded, error);
}

}  // namespace parsched::obs
