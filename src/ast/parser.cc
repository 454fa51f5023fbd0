#include "ast/parser.h"

#include <cctype>
#include <charconv>
#include <optional>
#include <vector>

#include "base/strings.h"

namespace ldl {

namespace {

enum class TokenKind {
  kEnd,
  kError,    // a character no token starts with, or an unterminated string
  kIdent,    // lower-case identifier: predicate, symbol, functor
  kVar,      // upper-case / underscore identifier
  kInt,
  kReal,
  kString,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kDot,
  kBar,
  kQuestion,
  kArrow,    // <- or :-
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kMod,      // the identifier `mod`
  kNot,      // the identifier `not`
};

/// One token: a span of the input. A kString span is the whole literal,
/// quotes included and escapes still encoded; a kError span starts at the
/// offending character (a `"` for an unterminated string).
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  size_t line = 1;
};

struct Punct {
  std::string_view spelling;
  TokenKind kind;
};

/// Every punctuation token, longest spellings first so `<-` is not read as
/// `<` followed by `-`.
constexpr Punct kPuncts[] = {
    {"<-", TokenKind::kArrow},    {":-", TokenKind::kArrow},
    {"<=", TokenKind::kLe},       {">=", TokenKind::kGe},
    {"!=", TokenKind::kNe},       {"\\=", TokenKind::kNe},
    {"(", TokenKind::kLParen},    {")", TokenKind::kRParen},
    {",", TokenKind::kComma},     {".", TokenKind::kDot},
    {"[", TokenKind::kLBracket},  {"]", TokenKind::kRBracket},
    {"|", TokenKind::kBar},       {"?", TokenKind::kQuestion},
    {"=", TokenKind::kEq},        {"<", TokenKind::kLt},
    {">", TokenKind::kGt},        {"+", TokenKind::kPlus},
    {"-", TokenKind::kMinus},     {"*", TokenKind::kStar},
    {"/", TokenKind::kSlash},
};

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// The value of a closed string literal, quotes included: `\n` and `\t`
/// decode to newline and tab, any other escaped character stands for
/// itself.
std::string Unescape(std::string_view literal) {
  std::string value;
  value.reserve(literal.size());
  for (size_t i = 1; i + 1 < literal.size(); ++i) {
    char c = literal[i];
    if (c == '\\') {
      c = literal[++i];  // in range: the closing quote is never escaped
      c = c == 'n' ? '\n' : c == 't' ? '\t' : c;
    }
    value += c;
  }
  return value;
}

/// Recursive-descent parser that lexes as it goes: it holds the current
/// token and lexes the next one when it advances, so the input is read
/// once, front to back, and the first error in reading order is the one
/// reported.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) { Advance(); }

  Result<Program> ParseProgram() {
    Program program;
    while (tok_.kind != TokenKind::kEnd) {
      const size_t vars_before = vars_read_;
      LDL_ASSIGN_OR_RETURN(Literal head, ParseLiteralInternal());
      if (Accept(TokenKind::kQuestion)) {
        program.AddQuery(QueryForm{std::move(head)});
        continue;
      }
      if (Accept(TokenKind::kDot)) {
        if (head.IsBuiltin()) {
          return Err("builtin cannot stand alone as a clause");
        }
        // Head-only clause: a fact if no variable was read in it, else a
        // bodiless rule.
        if (vars_read_ == vars_before) {
          program.AddFact(std::move(head));
        } else {
          program.AddRule(Rule(std::move(head), {}));
        }
        continue;
      }
      LDL_RETURN_NOT_OK(Expect(TokenKind::kArrow, "'<-', '.' or '?'"));
      std::vector<Literal> body;
      do {
        LDL_ASSIGN_OR_RETURN(Literal lit, ParseLiteralInternal());
        body.push_back(std::move(lit));
      } while (Accept(TokenKind::kComma));
      LDL_RETURN_NOT_OK(Expect(TokenKind::kDot, "'.'"));
      program.AddRule(Rule(std::move(head), std::move(body)));
    }
    LDL_RETURN_NOT_OK(program.Validate());
    return program;
  }

  Result<Literal> ParseSingleLiteral() {
    LDL_ASSIGN_OR_RETURN(Literal lit, ParseLiteralInternal());
    LDL_RETURN_NOT_OK(Expect(TokenKind::kEnd, "end of input"));
    return lit;
  }

  Result<Term> ParseSingleTerm() {
    LDL_ASSIGN_OR_RETURN(Term t, ParseExpr());
    LDL_RETURN_NOT_OK(Expect(TokenKind::kEnd, "end of input"));
    return t;
  }

 private:
  // --- lexing ---------------------------------------------------------------

  /// Makes the next token of the input current. The parser never advances
  /// past a kError token: every parse step that reaches one fails.
  void Advance() {
    SkipWhitespaceAndComments();
    tok_.line = line_;
    const size_t start = pos_;
    if (pos_ >= text_.size()) {
      tok_.kind = TokenKind::kEnd;
    } else if (const char c = text_[pos_]; IsDigit(c)) {
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
      tok_.kind = TokenKind::kInt;
      if (pos_ + 1 < text_.size() && text_[pos_] == '.' &&
          IsDigit(text_[pos_ + 1])) {
        ++pos_;
        while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
        tok_.kind = TokenKind::kReal;
      }
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (pos_ < text_.size() && IsWordChar(text_[pos_])) ++pos_;
      const std::string_view word = text_.substr(start, pos_ - start);
      tok_.kind = word == "not"   ? TokenKind::kNot
                  : word == "mod" ? TokenKind::kMod
                  : std::isupper(static_cast<unsigned char>(c)) || c == '_'
                      ? TokenKind::kVar
                      : TokenKind::kIdent;
    } else if (c == '"') {
      // Newlines inside a string literal do not advance the line count.
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        pos_ += text_[pos_] == '\\' && pos_ + 1 < text_.size() ? 2 : 1;
      }
      tok_.kind = pos_ < text_.size() ? TokenKind::kString : TokenKind::kError;
      if (pos_ < text_.size()) ++pos_;  // closing quote
    } else {
      tok_.kind = TokenKind::kError;
      ++pos_;
      for (const Punct& p : kPuncts) {
        if (p.spelling[0] == c &&
            text_.compare(start, p.spelling.size(), p.spelling) == 0) {
          tok_.kind = p.kind;
          pos_ = start + p.spelling.size();
          break;
        }
      }
    }
    tok_.text = text_.substr(start, pos_ - start);
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%' || (c == '/' && pos_ + 1 < text_.size() &&
                              text_[pos_ + 1] == '/')) {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  // --- parsing helpers ------------------------------------------------------

  /// Consumes the current token if it is of `kind`.
  bool Accept(TokenKind kind) {
    if (tok_.kind != kind) return false;
    Advance();
    return true;
  }

  /// An error at the current token. When that token is a lexical error,
  /// the lexical error is what the parser has reached, so it is reported
  /// instead of `what`.
  Status Err(std::string_view what) const {
    if (tok_.kind == TokenKind::kError) {
      return Status::InvalidArgument(
          tok_.text[0] == '"'
              ? StrCat("line ", tok_.line, ": unterminated string literal")
              : StrCat("line ", tok_.line, ": unexpected character '",
                       tok_.text[0], "'"));
    }
    return Status::InvalidArgument(StrCat("line ", tok_.line, ": ", what));
  }

  Status Expect(TokenKind kind, std::string_view what) {
    return Accept(kind) ? Status::OK() : Err(StrCat("expected ", what));
  }

  static std::optional<BuiltinKind> AsComparison(TokenKind kind) {
    switch (kind) {
      case TokenKind::kEq:
        return BuiltinKind::kEq;
      case TokenKind::kNe:
        return BuiltinKind::kNe;
      case TokenKind::kLt:
        return BuiltinKind::kLt;
      case TokenKind::kLe:
        return BuiltinKind::kLe;
      case TokenKind::kGt:
        return BuiltinKind::kGt;
      case TokenKind::kGe:
        return BuiltinKind::kGe;
      default:
        return std::nullopt;
    }
  }

  /// Deepest nesting the parser accepts: function terms, parentheses,
  /// unary minus, `not`, and chained binary operators (each one nests its
  /// left operand a level deeper). Deeper input gets a typed error instead
  /// of overflowing the stack here or in a later recursive term walk. List
  /// length does not count: list items are parsed side by side.
  static constexpr size_t kMaxNesting = 1024;

  /// The levels one parse call descends, given back when the call returns.
  class Nesting {
   public:
    explicit Nesting(size_t* depth) : depth_(depth), entry_(*depth) {}
    ~Nesting() { *depth_ = entry_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    /// One level deeper; false once past kMaxNesting.
    bool Descend() { return ++*depth_ <= kMaxNesting; }

   private:
    size_t* depth_;
    size_t entry_;
  };

  Status TooDeep() const {
    return Err(StrCat("nesting deeper than ", kMaxNesting, " levels"));
  }

  // --- grammar --------------------------------------------------------------

  // literal := "not" atom | atom | expr relop expr
  Result<Literal> ParseLiteralInternal() {
    Nesting nesting(&depth_);
    if (!nesting.Descend()) return TooDeep();
    if (Accept(TokenKind::kNot)) {
      LDL_ASSIGN_OR_RETURN(Literal lit, ParseLiteralInternal());
      if (lit.IsBuiltin()) {
        return Status::InvalidArgument("'not' cannot be applied to a builtin");
      }
      return Literal::MakeNegated(lit.predicate_name(), lit.TakeArgs());
    }
    LDL_ASSIGN_OR_RETURN(Term lhs, ParseExpr());
    if (auto cmp = AsComparison(tok_.kind)) {
      Advance();
      LDL_ASSIGN_OR_RETURN(Term rhs, ParseExpr());
      return Literal::MakeBuiltin(*cmp, std::move(lhs), std::move(rhs));
    }
    // Not a comparison: the expression itself must denote an atom.
    if (lhs.kind() == TermKind::kSymbol) {
      return Literal::Make(lhs.text(), {});
    }
    if (lhs.kind() == TermKind::kFunction) {
      return Literal::Make(lhs.text(), lhs.TakeArgs());
    }
    return Err(StrCat("expected a literal, got term ", lhs.ToString()));
  }

  // expr := addend (("+"|"-") addend)*
  Result<Term> ParseExpr() {
    Nesting nesting(&depth_);
    LDL_ASSIGN_OR_RETURN(Term lhs, ParseAddend());
    while (tok_.kind == TokenKind::kPlus || tok_.kind == TokenKind::kMinus) {
      if (!nesting.Descend()) return TooDeep();
      std::string op(tok_.text);
      Advance();
      LDL_ASSIGN_OR_RETURN(Term rhs, ParseAddend());
      lhs = Term::MakeFunction(std::move(op), {std::move(lhs), std::move(rhs)});
    }
    return lhs;
  }

  // addend := factor (("*"|"/"|"mod") factor)*
  Result<Term> ParseAddend() {
    Nesting nesting(&depth_);
    LDL_ASSIGN_OR_RETURN(Term lhs, ParseFactor());
    while (tok_.kind == TokenKind::kStar || tok_.kind == TokenKind::kSlash ||
           tok_.kind == TokenKind::kMod) {
      if (!nesting.Descend()) return TooDeep();
      std::string op(tok_.text);
      Advance();
      LDL_ASSIGN_OR_RETURN(Term rhs, ParseFactor());
      lhs = Term::MakeFunction(std::move(op), {std::move(lhs), std::move(rhs)});
    }
    return lhs;
  }

  /// Reads the current number token into `*value`.
  template <typename T>
  Status ReadNumber(T* value) const {
    const char* end = tok_.text.data() + tok_.text.size();
    if (std::from_chars(tok_.text.data(), end, *value).ec != std::errc()) {
      return Err("number out of range");
    }
    return Status::OK();
  }

  // factor := "-" factor | "(" expr ")" | list | scalar | ident [ "(" args ")" ]
  Result<Term> ParseFactor() {
    Nesting nesting(&depth_);
    if (!nesting.Descend()) return TooDeep();
    switch (tok_.kind) {
      case TokenKind::kMinus: {
        Advance();
        LDL_ASSIGN_OR_RETURN(Term inner, ParseFactor());
        if (inner.kind() == TermKind::kInt) {
          return Term::MakeInt(-inner.int_value());
        }
        if (inner.kind() == TermKind::kReal) {
          return Term::MakeReal(-inner.real_value());
        }
        return Term::MakeFunction("-", {Term::MakeInt(0), std::move(inner)});
      }
      case TokenKind::kLParen: {
        Advance();
        LDL_ASSIGN_OR_RETURN(Term inner, ParseExpr());
        LDL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      case TokenKind::kLBracket:
        return ParseList();
      case TokenKind::kInt: {
        int64_t v = 0;
        LDL_RETURN_NOT_OK(ReadNumber(&v));
        Advance();
        return Term::MakeInt(v);
      }
      case TokenKind::kReal: {
        double v = 0;
        LDL_RETURN_NOT_OK(ReadNumber(&v));
        Advance();
        return Term::MakeReal(v);
      }
      case TokenKind::kString: {
        Term t = Term::MakeString(Unescape(tok_.text));
        Advance();
        return t;
      }
      case TokenKind::kVar: {
        Term t = Term::MakeVariable(std::string(tok_.text));
        ++vars_read_;
        Advance();
        return t;
      }
      case TokenKind::kIdent: {
        std::string name(tok_.text);
        Advance();
        if (!Accept(TokenKind::kLParen)) return Term::MakeSymbol(std::move(name));
        std::vector<Term> args;
        if (tok_.kind != TokenKind::kRParen) {
          do {
            LDL_ASSIGN_OR_RETURN(Term arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (Accept(TokenKind::kComma));
        }
        LDL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
        return Term::MakeFunction(std::move(name), std::move(args));
      }
      default:
        return Err("expected a term");
    }
  }

  // list := "[" "]" | "[" expr ("," expr)* ("|" expr)? "]"
  Result<Term> ParseList() {
    Advance();  // "["
    if (Accept(TokenKind::kRBracket)) return Term::MakeSymbol("[]");
    std::vector<Term> items;
    do {
      LDL_ASSIGN_OR_RETURN(Term item, ParseExpr());
      items.push_back(std::move(item));
    } while (Accept(TokenKind::kComma));
    Term tail = Term::MakeSymbol("[]");
    if (Accept(TokenKind::kBar)) {
      LDL_ASSIGN_OR_RETURN(tail, ParseExpr());
    }
    LDL_RETURN_NOT_OK(Expect(TokenKind::kRBracket, "']'"));
    return Term::MakeList(items, std::move(tail));
  }

  std::string_view text_;
  size_t pos_ = 0;        ///< first byte not yet lexed
  size_t line_ = 1;       ///< line of pos_
  Token tok_;             ///< the current token
  size_t depth_ = 0;      ///< current recursive-descent nesting
  size_t vars_read_ = 0;  ///< variable tokens consumed so far
};

}  // namespace

Result<Program> ParseProgram(std::string_view text) {
  return Parser(text).ParseProgram();
}

Result<Literal> ParseLiteral(std::string_view text) {
  return Parser(text).ParseSingleLiteral();
}

Result<Term> ParseTerm(std::string_view text) {
  return Parser(text).ParseSingleTerm();
}

}  // namespace ldl
