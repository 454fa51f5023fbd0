#ifndef LDLOPT_BASE_JSON_H_
#define LDLOPT_BASE_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

/// The one JSON reader and number writer every ldlopt format goes through:
/// the query log, the statistics catalog, the observability exports and the
/// tools that check them.
namespace ldl::json {

/// Deepest array/object nesting Parse accepts (the .ldl parser's limit too).
/// Deeper input gets a typed error instead of overflowing the stack.
inline constexpr size_t kMaxDepth = 1024;

/// One parsed JSON value (RFC 8259). A number keeps its lexeme, so a u64
/// field reads back exactly and a malformed one is reported, not coerced.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  /// Byte offset of the value's first character in the parsed text.
  size_t offset() const { return offset_; }
  /// kString: the decoded text (escapes become UTF-8). Other scalars: the
  /// literal as written ("12.5", "true", "null"). Containers: empty.
  const std::string& text() const { return text_; }
  /// kArray: the elements. kObject: the member values in document order.
  const std::vector<Value>& items() const { return items_; }

  /// kObject: the value of the member named `key` (the last one when a key
  /// repeats, as in JavaScript's JSON.parse), or nullptr.
  const Value* Find(std::string_view key) const;

  /// Reads member `key` of an object into `*out`. A missing key leaves
  /// `*out` alone and is OK; a present one of the wrong type, or a number
  /// that does not fit (a sign or fraction for u64, overflow), is an
  /// InvalidArgument naming the key and its offset. The double overload
  /// also reads the strings "inf", "-inf" and "nan" that Number writes.
  Status Get(std::string_view key, uint64_t* out) const;
  Status Get(std::string_view key, double* out) const;
  Status Get(std::string_view key, bool* out) const;
  Status Get(std::string_view key, std::string* out) const;

 private:
  friend class Parser;

  Kind kind_ = Kind::kNull;
  size_t offset_ = 0;
  std::string text_;
  std::vector<Value> items_;
  std::vector<std::string> keys_;  ///< kObject: keys_[i] names items_[i]
};

/// Parses `text` as exactly one JSON value surrounded by optional
/// whitespace. Errors are InvalidArgument with the byte offset, and name
/// the innermost object key they occurred under.
Result<Value> Parse(std::string_view text);

/// The shortest of %.15g and %.17g that reads back as exactly `v`, which
/// must be finite.
std::string FormatDouble(double v);

/// `v` as a JSON value: FormatDouble(v) when finite, otherwise the quoted
/// string "inf", "-inf" or "nan" (JSON has no non-finite numbers).
std::string Number(double v);

/// Append `"key":value,` to an object under construction in `*out`; the
/// caller replaces the final comma with the closing brace.
void AppendField(std::string* out, std::string_view key, std::string_view v);
void AppendField(std::string* out, std::string_view key, uint64_t v);
void AppendField(std::string* out, std::string_view key, double v);
void AppendField(std::string* out, std::string_view key, bool v);
/// A string literal would otherwise convert to bool.
void AppendField(std::string* out, std::string_view key, const char* v) =
    delete;

}  // namespace ldl::json

#endif  // LDLOPT_BASE_JSON_H_
