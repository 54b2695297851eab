#include "scenario/json.hpp"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"

namespace fedbiad::scenario::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    FEDBIAD_CHECK(pos_ >= text_.size(),
                  "json: trailing content at offset " + std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    FEDBIAD_CHECK(false, "json: " + what + " at offset " +
                             std::to_string(pos_));
    std::abort();  // unreachable; FEDBIAD_CHECK(false, ...) throws
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) fail("nesting deeper than the maximum");
        ++depth_;
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Value::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value::null();
      default:
        return Value::number(parse_number());
    }
  }

  Value parse_object() {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    if (peek() == '}') {
      ++pos_;
      return Value::object(std::move(members));
    }
    while (true) {
      std::string key = parse_string_at_peek();
      expect(':');
      Value v = parse_value();
      for (const auto& [k, unused] : members) {
        (void)unused;
        if (k == key) fail("duplicate object key \"" + key + "\"");
      }
      members.emplace_back(std::move(key), std::move(v));
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value::object(std::move(members));
      }
      fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    if (peek() == ']') {
      ++pos_;
      return Value::array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value::array(std::move(items));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string_at_peek() {
    if (peek() != '"') fail("expected string key");
    return parse_string();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          // Basic-multilingual-plane escapes only; encoded as UTF-8.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t at = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > at;
    };
    if (!digits()) fail("expected number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail("expected exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    return std::strtod(token.c_str(), nullptr);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays and objects around pos_
};

}  // namespace

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

double Value::as_number() const {
  FEDBIAD_CHECK(kind_ == Kind::kNumber, "json: value is not a number");
  return num_;
}

bool Value::as_bool() const {
  FEDBIAD_CHECK(kind_ == Kind::kBool, "json: value is not a bool");
  return bool_;
}

const std::string& Value::as_string() const {
  FEDBIAD_CHECK(kind_ == Kind::kString, "json: value is not a string");
  return str_;
}

const std::vector<Value>& Value::as_array() const {
  FEDBIAD_CHECK(kind_ == Kind::kArray, "json: value is not an array");
  return arr_;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object() const {
  FEDBIAD_CHECK(kind_ == Kind::kObject, "json: value is not an object");
  return obj_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value Value::null() { return Value{}; }

Value Value::boolean(bool v) {
  Value out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

Value Value::number(double v) {
  Value out;
  out.kind_ = Kind::kNumber;
  out.num_ = v;
  return out;
}

Value Value::string(std::string v) {
  Value out;
  out.kind_ = Kind::kString;
  out.str_ = std::move(v);
  return out;
}

Value Value::array(std::vector<Value> items) {
  Value out;
  out.kind_ = Kind::kArray;
  out.arr_ = std::move(items);
  return out;
}

Value Value::object(std::vector<std::pair<std::string, Value>> members) {
  Value out;
  out.kind_ = Kind::kObject;
  out.obj_ = std::move(members);
  return out;
}

}  // namespace fedbiad::scenario::json
