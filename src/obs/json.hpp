// parsched — minimal streaming JSON emission and a strict parser.
//
// The trace exporter and report writers need deterministic, correctly
// escaped JSON without any third-party dependency. JsonWriter is a
// stack-based streaming emitter: it tracks container nesting, inserts
// commas, escapes strings, and renders doubles with std::to_chars
// (shortest round-trip form — stable across runs, so golden-file tests
// are byte-exact). Misuse (a value where a key is required, unbalanced
// end_*) trips a PARSCHED_CHECK rather than emitting malformed output.
//
// json_parse() is the read side (the serve NDJSON protocol), one strict
// RFC-8259 grammar; json_syntax_valid() runs it to prove emitted
// artifacts parse cleanly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace parsched::obs {

/// Render a double the way JsonWriter does: shortest round-trip decimal;
/// NaN/Inf (not representable in JSON) become null.
[[nodiscard]] std::string json_number(double v);

/// Escape and quote a string literal.
[[nodiscard]] std::string json_quote(std::string_view s);

class JsonWriter {
 public:
  /// `indent` > 0 pretty-prints with that many spaces per level;
  /// 0 emits compact single-line JSON.
  explicit JsonWriter(std::ostream& os, int indent = 0);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned int v) {
    return value(static_cast<std::uint64_t>(v));
  }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// True once the root container has been closed.
  [[nodiscard]] bool done() const { return stack_.empty() && wrote_root_; }

 private:
  enum class Frame : std::uint8_t { kObject, kArray };
  void before_value();
  void newline_indent();

  std::ostream& os_;
  int indent_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;     // per frame: no element emitted yet
  bool expecting_value_ = false;  // a key() awaits its value
  bool wrote_root_ = false;
};

/// Strict JSON syntax check: json_parse() into a discarded value (full
/// RFC-8259 grammar, no extensions; a lone surrogate escape or a number
/// outside double range is rejected). On failure returns false and, when
/// `error` is non-null, sets a human-readable "offset N: reason" message.
[[nodiscard]] bool json_syntax_valid(std::string_view text,
                                     std::string* error = nullptr);

/// A parsed JSON document (the read-side mirror of JsonWriter; consumed
/// by the serve/ NDJSON protocol). Numbers are stored as doubles parsed
/// with std::from_chars, so values rendered by json_number() round-trip
/// bit-exactly. Object member order is preserved; duplicate keys keep
/// the last occurrence (find() returns it).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A number written as an integer literal (no fraction, no exponent)
  /// of magnitude at most 2^53, every one of which `number` holds
  /// exactly. Past 2^53 a double no longer tells the integers apart:
  /// 2^53 + 1 parses to 2^53, so a reader of integral members takes a
  /// number of magnitude 2^53 only when this is set.
  bool integer = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Typed member access with defaults (absent / wrong kind falls back).
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      const std::string& fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
};

/// Parse one JSON document (strict RFC-8259). On failure returns false
/// and, when `error` is non-null, sets an "offset N: reason" message;
/// `out` is unspecified.
[[nodiscard]] bool json_parse(std::string_view text, JsonValue& out,
                              std::string* error = nullptr);

}  // namespace parsched::obs
