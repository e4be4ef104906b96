#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.h"

namespace transtore {

void json_writer::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_ += ',';
    need_comma_.back() = true;
  }
}

json_writer& json_writer::begin_object() {
  separator();
  out_ += '{';
  need_comma_.push_back(false);
  return *this;
}

json_writer& json_writer::end_object() {
  check(!need_comma_.empty(), "json_writer: unbalanced end_object");
  need_comma_.pop_back();
  out_ += '}';
  return *this;
}

json_writer& json_writer::begin_array(const std::string& name) {
  if (!name.empty()) key(name);
  separator();
  out_ += '[';
  need_comma_.push_back(false);
  return *this;
}

json_writer& json_writer::end_array() {
  check(!need_comma_.empty(), "json_writer: unbalanced end_array");
  need_comma_.pop_back();
  out_ += ']';
  return *this;
}

json_writer& json_writer::key(const std::string& name) {
  separator();
  append_quoted(name);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

json_writer& json_writer::value(const std::string& v) {
  separator();
  append_quoted(v);
  return *this;
}

void json_writer::append_quoted(const std::string& v) {
  out_ += '"';
  for (char c : v) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out_ += buffer;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

json_writer& json_writer::value(const char* v) {
  return value(std::string(v));
}

json_writer& json_writer::value(double v) {
  separator();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.12g", v);
  out_ += buffer;
  return *this;
}

json_writer& json_writer::value_exact(double v) {
  separator();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buffer[40];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, v);
  check(ec == std::errc(), "json_writer: to_chars failed");
  out_.append(buffer, end);
  return *this;
}

json_writer& json_writer::value_raw(const std::string& json) {
  separator();
  out_ += json;
  return *this;
}

json_writer& json_writer::value(long v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

json_writer& json_writer::value(int v) { return value(static_cast<long>(v)); }

json_writer& json_writer::value(bool v) {
  separator();
  out_ += v ? "true" : "false";
  return *this;
}

json_writer& json_writer::value_null() {
  separator();
  out_ += "null";
  return *this;
}

// ------------------------------------------------------------- json_value

namespace {

[[noreturn]] void parse_fail(const std::string& what, std::size_t offset) {
  throw invalid_input_error("json: " + what + " at offset " +
                            std::to_string(offset));
}

} // namespace

/// Single-pass recursive-descent parser over the document text.
class json_parser {
public:
  explicit json_parser(const std::string& text) : text_(text) {}

  json_value run() {
    json_value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) parse_fail("trailing content", pos_);
    return v;
  }

private:
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  static constexpr int max_depth = 256;

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) parse_fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  void expect(char c) {
    if (peek() != c)
      parse_fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  json_value parse_value() {
    skip_whitespace();
    if (++depth_ > max_depth) parse_fail("nesting too deep", pos_);
    json_value v;
    switch (peek()) {
      case '{': parse_object(v); break;
      case '[': parse_array(v); break;
      case '"':
        v.kind_ = json_value::kind::string;
        v.text_ = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) parse_fail("bad literal", pos_);
        v.kind_ = json_value::kind::boolean;
        v.bool_ = true;
        break;
      case 'f':
        if (!consume_literal("false")) parse_fail("bad literal", pos_);
        v.kind_ = json_value::kind::boolean;
        v.bool_ = false;
        break;
      case 'n':
        if (!consume_literal("null")) parse_fail("bad literal", pos_);
        v.kind_ = json_value::kind::null;
        break;
      default: parse_number(v); break;
    }
    --depth_;
    return v;
  }

  void parse_object(json_value& v) {
    v.kind_ = json_value::kind::object;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(json_value& v) {
    v.kind_ = json_value::kind::array;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      v.elements_.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) parse_fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) parse_fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          auto hex4 = [this]() -> unsigned {
            if (pos_ + 4 > text_.size()) parse_fail("bad \\u escape", pos_);
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                parse_fail("bad \\u escape", pos_);
            }
            return code;
          };
          unsigned code = hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: RFC 8259 clients (e.g. json.dumps with
            // ensure_ascii) encode non-BMP characters as a \uXXXX\uXXXX
            // pair; combine it into the real code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              parse_fail("unpaired high surrogate", pos_);
            pos_ += 2;
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF)
              parse_fail("invalid low surrogate", pos_);
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            parse_fail("unpaired low surrogate", pos_);
          }
          // UTF-8 encode the code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: parse_fail("bad escape", pos_ - 1);
      }
    }
  }

  void parse_number(json_value& v) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) parse_fail("expected a value", start);
    v.kind_ = json_value::kind::number;
    v.text_ = text_.substr(start, pos_ - start);
    // from_chars is locale-independent (strtod honours LC_NUMERIC, which
    // would break parsing -- and the byte-identity round trip -- in a host
    // process running under a comma-decimal locale).
    const char* const first = v.text_.data();
    const char* const last = first + v.text_.size();
    const auto [end, ec] = std::from_chars(first, last, v.number_);
    if (ec != std::errc() || end != last) parse_fail("malformed number", start);
  }
};

json_value json_value::parse(const std::string& text) {
  return json_parser(text).run();
}

namespace {
[[nodiscard]] const char* kind_name(json_value::kind k) {
  switch (k) {
    case json_value::kind::null: return "null";
    case json_value::kind::boolean: return "boolean";
    case json_value::kind::number: return "number";
    case json_value::kind::string: return "string";
    case json_value::kind::array: return "array";
    case json_value::kind::object: return "object";
  }
  return "unknown";
}

void require_kind(const json_value& v, json_value::kind want) {
  if (v.type() != want)
    throw invalid_input_error(std::string("json: expected ") +
                              kind_name(want) + ", got " +
                              kind_name(v.type()));
}
} // namespace

bool json_value::as_bool() const {
  require_kind(*this, kind::boolean);
  return bool_;
}

double json_value::as_double() const {
  require_kind(*this, kind::number);
  return number_;
}

long json_value::as_long() const {
  require_kind(*this, kind::number);
  const double rounded = std::nearbyint(number_);
  // Upper bound is exclusive: double(LONG_MAX) rounds UP to 2^63, so the
  // <= comparison would admit 2^63 itself and the cast below would
  // overflow (UB) instead of reporting the structured error.
  if (!(rounded == number_ &&
        number_ >= static_cast<double>(std::numeric_limits<long>::min()) &&
        number_ < 9223372036854775808.0 /* 2^63 */))
    throw invalid_input_error("json: number " + text_ +
                              " is not an integral long");
  return static_cast<long>(number_);
}

int json_value::as_int() const {
  const long v = as_long();
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    throw invalid_input_error("json: number " + text_ + " does not fit an int");
  return static_cast<int>(v);
}

const std::string& json_value::as_string() const {
  require_kind(*this, kind::string);
  return text_;
}

const std::string& json_value::number_text() const {
  require_kind(*this, kind::number);
  return text_;
}

std::size_t json_value::size() const {
  require_kind(*this, kind::array);
  return elements_.size();
}

const json_value& json_value::operator[](std::size_t index) const {
  require_kind(*this, kind::array);
  if (index >= elements_.size())
    throw invalid_input_error("json: array index " + std::to_string(index) +
                              " out of range");
  return elements_[index];
}

const std::vector<json_value>& json_value::elements() const {
  require_kind(*this, kind::array);
  return elements_;
}

const json_value* json_value::find(const std::string& key) const {
  require_kind(*this, kind::object);
  for (const auto& [name, member] : members_)
    if (name == key) return &member;
  return nullptr;
}

const json_value& json_value::at(const std::string& key) const {
  const json_value* v = find(key);
  if (v == nullptr)
    throw invalid_input_error("json: missing key \"" + key + "\"");
  return *v;
}

const std::vector<std::pair<std::string, json_value>>& json_value::members()
    const {
  require_kind(*this, kind::object);
  return members_;
}

void write_value(json_writer& w, const json_value& v) {
  switch (v.type()) {
    case json_value::kind::null: w.value_null(); break;
    case json_value::kind::boolean: w.value(v.as_bool()); break;
    case json_value::kind::number: w.value_raw(v.number_text()); break;
    case json_value::kind::string: w.value(v.as_string()); break;
    case json_value::kind::array:
      w.begin_array();
      for (const json_value& e : v.elements()) write_value(w, e);
      w.end_array();
      break;
    case json_value::kind::object:
      w.begin_object();
      for (const auto& [name, member] : v.members()) {
        w.key(name);
        write_value(w, member);
      }
      w.end_object();
      break;
  }
}

} // namespace transtore
