#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace nsflow {
namespace {

[[noreturn]] void TypeMismatch(const char* wanted, Json::Type got) {
  static const char* kNames[] = {"null",   "bool",  "number",
                                 "string", "array", "object"};
  throw ParseError(std::string("JSON type mismatch: wanted ") + wanted +
                   ", got " + kNames[static_cast<int>(got)]);
}

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json ParseDocument() {
    Json value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Json ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return Json(ParseString());
      case 't':
        Expect("true");
        return Json(true);
      case 'f':
        Expect("false");
        return Json(false);
      case 'n':
        Expect("null");
        return Json(nullptr);
      default:
        return ParseNumber();
    }
  }

  Json ParseObject() {
    Consume('{');
    JsonObject object;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Consume(':');
      object[std::move(key)] = ParseValue();
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == '}') {
        return Json(std::move(object));
      }
      if (c != ',') {
        Fail("expected ',' or '}' in object");
      }
    }
  }

  Json ParseArray() {
    Consume('[');
    JsonArray array;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(ParseValue());
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == ']') {
        return Json(std::move(array));
      }
      if (c != ',') {
        Fail("expected ',' or ']' in array");
      }
    }
  }

  std::string ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
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
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("invalid hex digit in \\u escape");
            }
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          Fail("unknown escape character");
      }
    }
  }

  Json ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto result =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (result.ec != std::errc() || result.ptr != text_.data() + pos_) {
      Fail("malformed number");
    }
    return Json(value);
  }

  static void AppendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char Peek() const {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Consume(char expected) {
    if (Peek() != expected) {
      Fail(std::string("expected '") + expected + "'");
    }
    ++pos_;
  }

  void Expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      Fail(std::string("expected literal '") + std::string(literal) + "'");
    }
    pos_ += literal.size();
  }

  [[noreturn]] void Fail(const std::string& message) const {
    throw ParseError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + message);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void EscapeString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// An integral |d| < 1e15 prints as an integer, anything else as printf's
/// "%.17g", which std::to_chars with general format and precision 17 is
/// specified to match.
void FormatNumber(std::string& out, double d) {
  char buf[32];
  const std::to_chars_result printed =
      d == std::floor(d) && std::abs(d) < 1e15
          ? std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d))
          : std::to_chars(buf, buf + sizeof buf, d,
                          std::chars_format::general, 17);
  out.append(buf, printed.ptr);
}

bool Json::AsBool() const {
  if (!is_bool()) {
    TypeMismatch("bool", type());
  }
  return std::get<bool>(value_);
}

double Json::AsDouble() const {
  if (!is_number()) {
    TypeMismatch("number", type());
  }
  return std::get<double>(value_);
}

std::int64_t Json::AsInt() const {
  const double d = AsDouble();
  if (d != std::floor(d)) {
    throw ParseError("JSON number is not an integer: " + std::to_string(d));
  }
  return static_cast<std::int64_t>(d);
}

const std::string& Json::AsString() const {
  if (!is_string()) {
    TypeMismatch("string", type());
  }
  return std::get<std::string>(value_);
}

const JsonArray& Json::AsArray() const {
  if (!is_array()) {
    TypeMismatch("array", type());
  }
  return std::get<JsonArray>(value_);
}

JsonArray& Json::AsArray() {
  if (!is_array()) {
    TypeMismatch("array", type());
  }
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::AsObject() const {
  if (!is_object()) {
    TypeMismatch("object", type());
  }
  return std::get<JsonObject>(value_);
}

JsonObject& Json::AsObject() {
  if (!is_object()) {
    TypeMismatch("object", type());
  }
  return std::get<JsonObject>(value_);
}

const Json& Json::At(const std::string& key) const {
  const auto& object = AsObject();
  const auto it = object.find(key);
  if (it == object.end()) {
    throw ParseError("JSON object has no member '" + key + "'");
  }
  return it->second;
}

bool Json::Contains(const std::string& key) const {
  return is_object() && AsObject().count(key) > 0;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) {
    value_ = JsonObject{};
  }
  return AsObject()[key];
}

double Json::GetNumberOr(const std::string& key, double fallback) const {
  return Contains(key) ? At(key).AsDouble() : fallback;
}

std::string Json::GetStringOr(const std::string& key,
                              const std::string& fallback) const {
  return Contains(key) ? At(key).AsString() : fallback;
}

const Json& Json::At(std::size_t index) const {
  const auto& array = AsArray();
  if (index >= array.size()) {
    throw ParseError("JSON array index out of range: " + std::to_string(index));
  }
  return array[index];
}

std::size_t Json::size() const {
  if (is_array()) {
    return AsArray().size();
  }
  if (is_object()) {
    return AsObject().size();
  }
  TypeMismatch("array or object", type());
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent) * d, ' ');
    }
  };
  switch (type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::kNumber:
      FormatNumber(out, std::get<double>(value_));
      break;
    case Type::kString:
      EscapeString(out, std::get<std::string>(value_));
      break;
    case Type::kArray: {
      const auto& array = std::get<JsonArray>(value_);
      if (array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        newline(depth + 1);
        array[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const auto& object = std::get<JsonObject>(value_);
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        newline(depth + 1);
        EscapeString(out, key);
        out += indent > 0 ? ": " : ":";
        value.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

Json Json::Parse(std::string_view text) { return Parser(text).ParseDocument(); }

}  // namespace nsflow
