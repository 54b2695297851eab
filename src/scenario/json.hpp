// Minimal self-contained JSON reader for the scenario subsystem.
//
// Parses the full JSON value grammar (objects, arrays, strings with the
// standard escapes, numbers, true/false/null) into an ordered value tree.
// Object keys keep their file order so error messages and config
// round-trips are stable. Strictness lives one layer up: scenario::Config
// walks the tree and rejects unknown keys and out-of-range values; this
// layer only rejects malformed JSON (with a byte offset in the message).
//
// Deliberately tiny — no third-party dependency, mirroring the golden-trace
// parser in tests/golden_util.hpp but reusable from the library proper.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fedbiad::scenario::json {

/// Deepest nesting parse() accepts (it recurses per level, so this bounds
/// its stack); checked-in scenarios nest three levels deep.
inline constexpr std::size_t kMaxDepth = 256;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document; trailing non-whitespace is an error.
  /// Throws fedbiad::CheckError with a byte offset on malformed input,
  /// including nesting deeper than kMaxDepth.
  static Value parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  /// Checked accessors: throw CheckError on kind mismatch.
  [[nodiscard]] double as_number() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& as_object()
      const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;

  // Construction helpers (used by tests and Config::to_json round-trips).
  static Value null();
  static Value boolean(bool v);
  static Value number(double v);
  static Value string(std::string v);
  static Value array(std::vector<Value> items);
  static Value object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

}  // namespace fedbiad::scenario::json
