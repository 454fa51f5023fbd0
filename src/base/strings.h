#ifndef LDLOPT_BASE_STRINGS_H_
#define LDLOPT_BASE_STRINGS_H_

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ldl {
namespace strings_internal {

// Fast single-argument append. The non-template overloads win resolution
// for the common pieces (string-likes, single characters); the template
// formats integers via to_string and floating point via %.6g (the same
// digits default-formatted ostream insertion produces), and falls back to
// an ostringstream only for types that merely provide operator<<.
inline void AppendPiece(std::string* out, const std::string& v) {
  out->append(v);
}
inline void AppendPiece(std::string* out, std::string_view v) {
  out->append(v);
}
inline void AppendPiece(std::string* out, const char* v) { out->append(v); }
inline void AppendPiece(std::string* out, char v) { out->push_back(v); }
inline void AppendPiece(std::string* out, signed char v) {
  out->push_back(static_cast<char>(v));
}
inline void AppendPiece(std::string* out, unsigned char v) {
  out->push_back(static_cast<char>(v));
}

template <typename T>
void AppendPiece(std::string* out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out->push_back(v ? '1' : '0');
  } else if constexpr (std::is_integral_v<T>) {
    out->append(std::to_string(v));
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(v));
    out->append(buf);
  } else {
    std::ostringstream os;
    os << v;
    out->append(os.str());
  }
}

}  // namespace strings_internal

/// Concatenates the string representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (strings_internal::AppendPiece(&out, args), ...);
  return out;
}

/// Appends the string representations of all arguments to `*dest`.
template <typename... Args>
void StrAppend(std::string* dest, const Args&... args) {
  (strings_internal::AppendPiece(dest, args), ...);
}

/// Joins `parts` with `sep`, applying `fmt` to each element.
template <typename Container, typename Formatter>
std::string StrJoin(const Container& parts, std::string_view sep,
                    Formatter fmt) {
  std::ostringstream os;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) os << sep;
    first = false;
    os << fmt(p);
  }
  return os.str();
}

/// Joins string-like `parts` with `sep`.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  return StrJoin(parts, sep, [](const auto& s) { return s; });
}

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Escapes `text` for inclusion inside a double-quoted JSON string
/// (quotes, backslashes, control characters). Does not add the quotes.
std::string JsonEscape(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Parses all of `text` as a base-10 unsigned integer. Returns false, and
/// leaves `*out` untouched, on empty input, a sign, surrounding whitespace,
/// trailing characters or overflow.
bool ParseUnsigned(std::string_view text, uint64_t* out);

/// Parses all of `text` as a finite decimal double. Returns false, and
/// leaves `*out` untouched, on empty input, trailing characters, overflow,
/// inf or nan.
bool ParseDouble(std::string_view text, double* out);

}  // namespace ldl

#endif  // LDLOPT_BASE_STRINGS_H_
