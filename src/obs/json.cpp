#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace sks::obs {

bool Json::boolean() const {
  sks::check(kind_ == Kind::kBool, "Json: not a bool");
  return bool_;
}

double Json::number() const {
  sks::check(kind_ == Kind::kNumber, "Json: not a number");
  return number_;
}

const std::string& Json::str() const {
  sks::check(kind_ == Kind::kString, "Json: not a string");
  return string_;
}

const std::vector<Json>& Json::array() const {
  sks::check(kind_ == Kind::kArray, "Json: not an array");
  return array_;
}

const std::vector<std::pair<std::string, Json>>& Json::object() const {
  sks::check(kind_ == Kind::kObject, "Json: not an object");
  return object_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  sks::check(v != nullptr, "Json: missing key '", key, "'");
  return *v;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    check_here(pos_ == text_.size(), "trailing characters");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 512;

  void check_here(bool condition, const std::string& what) {
    sks::check(condition, "Json::parse: ", what, " at offset ", pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    check_here(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    check_here(pos_ < text_.size() && text_[pos_] == c,
               std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Bounded recursion: a hostile file of a million '[' must fail with
      // a positioned error, not overflow the stack.
      check_here(depth_ < kMaxDepth, "nesting deeper than " +
                                         std::to_string(kMaxDepth) + " levels");
      ++depth_;
      Json v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      Json v;
      v.kind_ = Json::Kind::kString;
      v.string_ = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      Json v;
      v.kind_ = Json::Kind::kBool;
      v.bool_ = true;
      return v;
    }
    if (consume_literal("false")) {
      Json v;
      v.kind_ = Json::Kind::kBool;
      v.bool_ = false;
      return v;
    }
    if (consume_literal("null")) return Json{};
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json v;
    v.kind_ = Json::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array() {
    expect('[');
    Json v;
    v.kind_ = Json::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      check_here(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        check_here(pos_ < text_.size(), "unterminated escape");
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
            check_here(pos_ + 4 <= text_.size(), "truncated \\u escape");
            // Preserved verbatim (see header): enough for validation.
            out += "\\u";
            out += text_.substr(pos_, 4);
            pos_ += 4;
            break;
          }
          default:
            check_here(false, "bad escape");
        }
      } else {
        check_here(static_cast<unsigned char>(c) >= 0x20,
                   "control character in string");
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    check_here(pos_ > start, "expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    check_here(end != nullptr && *end == '\0' && end != token.c_str(),
               "malformed number '" + token + "'");
    Json v;
    v.kind_ = Json::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

Json Json::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
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
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace sks::obs
