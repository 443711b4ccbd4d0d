// Minimal JSON document model and recursive-descent parser.
//
// Exists so the telemetry reports written by obs::Report can be validated
// and read back (tests, CI smoke checks, future report-diffing tools)
// without an external dependency.  Scope is deliberately small: UTF-8
// pass-through, \uXXXX escapes preserved verbatim rather than decoded,
// numbers parsed as double.  Not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sks::obs {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  // Throws sks::Error (with byte offset context) on malformed input,
  // trailing garbage, or arrays/objects nested deeper than 512 levels.
  static Json parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  // Typed accessors; throw sks::Error on kind mismatch.
  bool boolean() const;
  double number() const;
  const std::string& str() const;
  const std::vector<Json>& array() const;
  const std::vector<std::pair<std::string, Json>>& object() const;

  // Object lookup: nullptr when absent (or when not an object).
  const Json* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  // Object lookup that throws sks::Error when the key is missing.
  const Json& at(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;

  friend class JsonParser;
};

// Escape a string for embedding in a JSON document (quotes not included).
std::string json_escape(const std::string& s);

// Format a double as a JSON-legal number (NaN/inf clamp to null-safe 0,
// integers print without exponent noise).
std::string json_number(double v);

}  // namespace sks::obs
