// Minimal JSON support shared across the library:
//
//  * json_writer -- streaming writer (objects, arrays, strings, numbers)
//    with correct escaping. Used by the flow-result and staged-API
//    serializers (api/pipeline.h, api/serialize.h), the serve protocol
//    (api/protocol.h), and the bench harnesses.
//  * json_value  -- a parsed document tree with a recursive-descent reader,
//    the counterpart that lets schedules, chips, and pipeline stage values
//    cross a process boundary (api/serialize.h) and lets the serve
//    protocol read line-delimited requests.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace transtore {

class json_writer {
public:
  json_writer& begin_object();
  json_writer& end_object();
  json_writer& begin_array(const std::string& key = {});
  json_writer& end_array();
  json_writer& key(const std::string& name);
  json_writer& value(const std::string& v);
  json_writer& value(const char* v);
  json_writer& value(double v);
  json_writer& value(long v);
  json_writer& value(int v);
  json_writer& value(bool v);
  json_writer& value_null();

  /// Shortest-round-trip double rendering (std::to_chars): parsing the
  /// emitted text recovers the exact bit pattern, so serialize -> parse ->
  /// serialize is byte-identical. The plain value(double) keeps the
  /// human-oriented %.12g rendering used by reports and bench JSON.
  json_writer& value_exact(double v);

  /// Appends `json` verbatim (after the separator bookkeeping). The caller
  /// guarantees it is one complete, valid JSON value -- used to embed an
  /// already-serialized document without reparsing it.
  json_writer& value_raw(const std::string& json);

  /// Convenience: key + scalar value.
  template <typename T>
  json_writer& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }
  json_writer& field_exact(const std::string& name, double v) {
    key(name);
    return value_exact(v);
  }

  [[nodiscard]] std::string str() const { return out_; }

private:
  void separator();
  void append_quoted(const std::string& v);
  std::string out_;
  std::vector<bool> need_comma_;
  bool pending_key_ = false;
};

/// One parsed JSON value (the reader counterpart of json_writer). Objects
/// keep their members in document order; numbers keep their source text so
/// re-emitting a parsed value is byte-faithful.
class json_value {
public:
  enum class kind { null, boolean, number, string, array, object };

  /// Parses one complete JSON document (trailing whitespace allowed).
  /// Throws invalid_input_error with a byte offset on malformed input.
  [[nodiscard]] static json_value parse(const std::string& text);

  json_value() = default;

  [[nodiscard]] kind type() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == kind::null; }
  [[nodiscard]] bool is_bool() const { return kind_ == kind::boolean; }
  [[nodiscard]] bool is_number() const { return kind_ == kind::number; }
  [[nodiscard]] bool is_string() const { return kind_ == kind::string; }
  [[nodiscard]] bool is_array() const { return kind_ == kind::array; }
  [[nodiscard]] bool is_object() const { return kind_ == kind::object; }

  /// Scalar accessors; throw invalid_input_error on a kind mismatch (and,
  /// for as_long/as_int, on non-integral or out-of-range numbers).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] long as_long() const;
  [[nodiscard]] int as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  /// The number's source text (e.g. for byte-faithful re-emission).
  [[nodiscard]] const std::string& number_text() const;

  /// Array access.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const json_value& operator[](std::size_t index) const;
  [[nodiscard]] const std::vector<json_value>& elements() const;

  /// Object access. find() returns nullptr when the key is absent; at()
  /// throws invalid_input_error instead.
  [[nodiscard]] const json_value* find(const std::string& key) const;
  [[nodiscard]] const json_value& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const {
    return find(key) != nullptr;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, json_value>>&
  members() const;

private:
  kind kind_ = kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_; // string payload, or a number's source text
  std::vector<json_value> elements_;
  std::vector<std::pair<std::string, json_value>> members_;
  friend class json_parser;
};

/// Re-emit a parsed value through a writer (numbers byte-faithful via their
/// source text). `w` must be positioned where a value is expected.
void write_value(json_writer& w, const json_value& v);

} // namespace transtore
