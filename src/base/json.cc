#include "base/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "base/strings.h"

namespace ldl::json {

/// Recursive-descent reader for RFC 8259 text, bounded by kMaxDepth.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    Value root;
    LDL_RETURN_NOT_OK(ParseValue(&root, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing content after the value");
    return root;
  }

 private:
  using Kind = Value::Kind;

  Status Fail(std::string_view what) const {
    std::string message = StrCat("json: ", what);
    if (key_ != nullptr) StrAppend(&message, " in \"", JsonEscape(*key_), "\"");
    StrAppend(&message, " at offset ", pos_);
    return Status::InvalidArgument(std::move(message));
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// One or more decimal digits.
  bool Digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  /// `depth` counts the arrays and objects already open around this value.
  Status ParseValue(Value* out, size_t depth) {
    SkipSpace();
    out->offset_ = pos_;
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[':
        if (depth >= kMaxDepth) {
          return Fail(StrCat("nesting deeper than ", kMaxDepth, " levels"));
        }
        return text_[pos_] == '{' ? ParseObject(out, depth + 1)
                                  : ParseArray(out, depth + 1);
      case '"':
        out->kind_ = Kind::kString;
        return ParseString(&out->text_);
      case 't':
        return ParseLiteral(out, Kind::kBool, "true");
      case 'f':
        return ParseLiteral(out, Kind::kBool, "false");
      case 'n':
        return ParseLiteral(out, Kind::kNull, "null");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out, size_t depth) {
    out->kind_ = Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return Status::OK();
    const std::string* outer = key_;
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected a string key");
      }
      std::string key;
      LDL_RETURN_NOT_OK(ParseString(&key));
      out->keys_.push_back(std::move(key));
      key_ = &out->keys_.back();
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      out->items_.emplace_back();
      LDL_RETURN_NOT_OK(ParseValue(&out->items_.back(), depth));
      SkipSpace();
      const bool more = Consume(',');
      if (!more && !Consume('}')) return Fail("expected ',' or '}'");
      key_ = outer;
      if (!more) return Status::OK();
    }
  }

  Status ParseArray(Value* out, size_t depth) {
    out->kind_ = Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      out->items_.emplace_back();
      LDL_RETURN_NOT_OK(ParseValue(&out->items_.back(), depth));
      SkipSpace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  Status ParseLiteral(Value* out, Kind kind, std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail(StrCat("invalid literal, expected ", word));
    }
    out->kind_ = kind;
    out->text_ = word;
    pos_ += word.size();
    return Status::OK();
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, kept as written.
  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !Digits()) return Fail("invalid value");
    if (Consume('.') && !Digits()) return Fail("expected a digit after '.'");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!Digits()) return Fail("expected a digit in the exponent");
    }
    out->kind_ = Kind::kNumber;
    out->text_ = text_.substr(start, pos_ - start);
    return Status::OK();
  }

  /// Positioned on the opening quote; leaves pos_ after the closing one.
  Status ParseString(std::string* out) {
    ++pos_;
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      ++pos_;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u':
          LDL_RETURN_NOT_OK(ParseUnicodeEscape(out));
          break;
        default:
          --pos_;
          return Fail("invalid escape character");
      }
    }
  }

  /// Four hex digits of a \u escape.
  bool Hex4(uint32_t* out) {
    if (text_.size() - pos_ < 4) return false;
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + i];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    pos_ += 4;
    *out = code;
    return true;
  }

  /// After "\u": one code point, or a surrogate pair spelled as two escapes,
  /// appended as UTF-8. A surrogate without its partner has no encoding.
  Status ParseUnicodeEscape(std::string* out) {
    uint32_t cp = 0;
    if (!Hex4(&cp)) return Fail("invalid \\u escape");
    if (cp >= 0xDC00 && cp <= 0xDFFF) return Fail("lone low surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      uint32_t low = 0;
      if (!Consume('\\') || !Consume('u') || !Hex4(&low) || low < 0xDC00 ||
          low > 0xDFFF) {
        return Fail("lone high surrogate");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  /// Key of the innermost object member being parsed, named in errors.
  const std::string* key_ = nullptr;
};

namespace {

Status Mismatch(std::string_view key, const Value& v, const char* expected) {
  std::string got;
  switch (v.kind()) {
    case Value::Kind::kString:
      got = "a string";
      break;
    case Value::Kind::kArray:
      got = "an array";
      break;
    case Value::Kind::kObject:
      got = "an object";
      break;
    default:
      got = v.text();
  }
  return Status::InvalidArgument(StrCat("json: \"", JsonEscape(key),
                                        "\": expected ", expected, ", got ",
                                        got, " at offset ", v.offset()));
}

}  // namespace

const Value* Value::Find(std::string_view key) const {
  for (size_t i = keys_.size(); i-- > 0;) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

Status Value::Get(std::string_view key, uint64_t* out) const {
  const Value* v = Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind_ == Kind::kNumber && ParseUnsigned(v->text_, out)) {
    return Status::OK();
  }
  return Mismatch(key, *v, "an unsigned 64-bit integer");
}

Status Value::Get(std::string_view key, double* out) const {
  const Value* v = Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind_ == Kind::kNumber && ParseDouble(v->text_, out)) {
    return Status::OK();
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (v->kind_ == Kind::kString && v->text_ == "inf") {
    *out = kInf;
  } else if (v->kind_ == Kind::kString && v->text_ == "-inf") {
    *out = -kInf;
  } else if (v->kind_ == Kind::kString && v->text_ == "nan") {
    *out = std::numeric_limits<double>::quiet_NaN();
  } else {
    return Mismatch(key, *v, "a finite number, \"inf\", \"-inf\" or \"nan\"");
  }
  return Status::OK();
}

Status Value::Get(std::string_view key, bool* out) const {
  const Value* v = Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind_ != Kind::kBool) return Mismatch(key, *v, "true or false");
  *out = v->text_ == "true";
  return Status::OK();
}

Status Value::Get(std::string_view key, std::string* out) const {
  const Value* v = Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind_ != Kind::kString) return Mismatch(key, *v, "a string");
  *out = v->text_;
  return Status::OK();
}

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string Number(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  return FormatDouble(v);
}

void AppendField(std::string* out, std::string_view key, std::string_view v) {
  StrAppend(out, "\"", key, "\":\"", JsonEscape(v), "\",");
}

void AppendField(std::string* out, std::string_view key, uint64_t v) {
  StrAppend(out, "\"", key, "\":", v, ",");
}

void AppendField(std::string* out, std::string_view key, double v) {
  StrAppend(out, "\"", key, "\":", Number(v), ",");
}

void AppendField(std::string* out, std::string_view key, bool v) {
  StrAppend(out, "\"", key, "\":", v ? "true" : "false", ",");
}

}  // namespace ldl::json
