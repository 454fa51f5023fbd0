#include "ast/parser.h"

#include <cctype>
#include <cstdlib>
#include <optional>
#include <vector>

#include "base/strings.h"

namespace ldl {

namespace {

enum class TokenKind {
  kEnd,
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
  kMod,      // `mod` keyword is lexed as kIdent and promoted by the parser
  kNot,      // `not` keyword (promoted from kIdent)
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  int64_t int_value = 0;
  double real_value = 0.0;
  size_t line = 1;
};

/// Converts program text into a token stream. Reports the first lexical
/// error through status().
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Status Tokenize(std::vector<Token>* out) {
    while (true) {
      SkipWhitespaceAndComments();
      if (pos_ >= text_.size()) break;
      Token tok;
      tok.line = line_;
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        LDL_RETURN_NOT_OK(LexNumber(&tok));
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        LexIdent(&tok);
      } else if (c == '"') {
        LDL_RETURN_NOT_OK(LexString(&tok));
      } else {
        LDL_RETURN_NOT_OK(LexPunct(&tok));
      }
      out->push_back(std::move(tok));
    }
    Token end;
    end.kind = TokenKind::kEnd;
    end.line = line_;
    out->push_back(end);
    return Status::OK();
  }

 private:
  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Status LexNumber(Token* tok) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_real = false;
    if (pos_ + 1 < text_.size() && text_[pos_] == '.' &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
      is_real = true;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string num(text_.substr(start, pos_ - start));
    if (is_real) {
      tok->kind = TokenKind::kReal;
      tok->real_value = std::strtod(num.c_str(), nullptr);
    } else {
      tok->kind = TokenKind::kInt;
      tok->int_value = std::strtoll(num.c_str(), nullptr, 10);
    }
    return Status::OK();
  }

  void LexIdent(Token* tok) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    tok->text = std::string(text_.substr(start, pos_ - start));
    char first = tok->text[0];
    if (tok->text == "not") {
      tok->kind = TokenKind::kNot;
    } else if (tok->text == "mod") {
      tok->kind = TokenKind::kMod;
    } else if (std::isupper(static_cast<unsigned char>(first)) ||
               first == '_') {
      tok->kind = TokenKind::kVar;
    } else {
      tok->kind = TokenKind::kIdent;
    }
  }

  Status LexString(Token* tok) {
    ++pos_;  // opening quote
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        ++pos_;
        char esc = text_[pos_];
        value += (esc == 'n') ? '\n' : (esc == 't') ? '\t' : esc;
      } else {
        value += text_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument(
          StrCat("line ", line_, ": unterminated string literal"));
    }
    ++pos_;  // closing quote
    tok->kind = TokenKind::kString;
    tok->text = std::move(value);
    return Status::OK();
  }

  Status LexPunct(Token* tok) {
    auto two = [this](char a, char b) {
      return pos_ + 1 < text_.size() && text_[pos_] == a &&
             text_[pos_ + 1] == b;
    };
    if (two('<', '-') || two(':', '-')) {
      tok->kind = TokenKind::kArrow;
      pos_ += 2;
      return Status::OK();
    }
    if (two('<', '=')) {
      tok->kind = TokenKind::kLe;
      pos_ += 2;
      return Status::OK();
    }
    if (two('>', '=')) {
      tok->kind = TokenKind::kGe;
      pos_ += 2;
      return Status::OK();
    }
    if (two('!', '=') || two('\\', '=')) {
      tok->kind = TokenKind::kNe;
      pos_ += 2;
      return Status::OK();
    }
    char c = text_[pos_];
    ++pos_;
    switch (c) {
      case '(':
        tok->kind = TokenKind::kLParen;
        return Status::OK();
      case ')':
        tok->kind = TokenKind::kRParen;
        return Status::OK();
      case '[':
        tok->kind = TokenKind::kLBracket;
        return Status::OK();
      case ']':
        tok->kind = TokenKind::kRBracket;
        return Status::OK();
      case ',':
        tok->kind = TokenKind::kComma;
        return Status::OK();
      case '.':
        tok->kind = TokenKind::kDot;
        return Status::OK();
      case '|':
        tok->kind = TokenKind::kBar;
        return Status::OK();
      case '?':
        tok->kind = TokenKind::kQuestion;
        return Status::OK();
      case '=':
        tok->kind = TokenKind::kEq;
        return Status::OK();
      case '<':
        tok->kind = TokenKind::kLt;
        return Status::OK();
      case '>':
        tok->kind = TokenKind::kGt;
        return Status::OK();
      case '+':
        tok->kind = TokenKind::kPlus;
        return Status::OK();
      case '-':
        tok->kind = TokenKind::kMinus;
        return Status::OK();
      case '*':
        tok->kind = TokenKind::kStar;
        return Status::OK();
      case '/':
        tok->kind = TokenKind::kSlash;
        return Status::OK();
      default:
        return Status::InvalidArgument(
            StrCat("line ", line_, ": unexpected character '", c, "'"));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> ParseProgram() {
    Program program;
    while (Peek().kind != TokenKind::kEnd) {
      LDL_ASSIGN_OR_RETURN(Literal head, ParseLiteralInternal());
      if (Peek().kind == TokenKind::kQuestion) {
        Advance();
        program.AddQuery(QueryForm{std::move(head)});
        continue;
      }
      if (Peek().kind == TokenKind::kDot) {
        Advance();
        // Head-only clause: a fact if ground, else a bodiless rule.
        bool ground = true;
        for (const Term& t : head.args()) ground = ground && t.IsGround();
        if (head.IsBuiltin()) {
          return Err("builtin cannot stand alone as a clause");
        }
        if (ground) {
          program.AddFact(std::move(head));
        } else {
          program.AddRule(Rule(std::move(head), {}));
        }
        continue;
      }
      LDL_RETURN_NOT_OK(Expect(TokenKind::kArrow, "'<-', '.' or '?'"));
      std::vector<Literal> body;
      while (true) {
        LDL_ASSIGN_OR_RETURN(Literal lit, ParseLiteralInternal());
        body.push_back(std::move(lit));
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
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
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Err(std::string_view what) const {
    return Status::InvalidArgument(
        StrCat("line ", Peek().line, ": ", what));
  }

  Status Expect(TokenKind kind, std::string_view what) {
    if (Peek().kind != kind) {
      return Err(StrCat("expected ", what));
    }
    Advance();
    return Status::OK();
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

  // literal := "not" atom | atom | expr relop expr
  Result<Literal> ParseLiteralInternal() {
    Nesting nesting(&depth_);
    if (!nesting.Descend()) return TooDeep();
    if (Peek().kind == TokenKind::kNot) {
      Advance();
      LDL_ASSIGN_OR_RETURN(Literal lit, ParseLiteralInternal());
      if (lit.IsBuiltin()) {
        return Status::InvalidArgument("'not' cannot be applied to a builtin");
      }
      return Literal::MakeNegated(lit.predicate_name(),
                                  std::vector<Term>(lit.args()));
    }
    LDL_ASSIGN_OR_RETURN(Term lhs, ParseExpr());
    if (auto cmp = AsComparison(Peek().kind)) {
      Advance();
      LDL_ASSIGN_OR_RETURN(Term rhs, ParseExpr());
      return Literal::MakeBuiltin(*cmp, std::move(lhs), std::move(rhs));
    }
    // Not a comparison: the expression itself must denote an atom.
    if (lhs.kind() == TermKind::kSymbol) {
      return Literal::Make(lhs.text(), {});
    }
    if (lhs.kind() == TermKind::kFunction) {
      return Literal::Make(lhs.text(), std::vector<Term>(lhs.args()));
    }
    return Err(StrCat("expected a literal, got term ", lhs.ToString()));
  }

  // expr := addend (("+"|"-") addend)*
  Result<Term> ParseExpr() {
    Nesting nesting(&depth_);
    LDL_ASSIGN_OR_RETURN(Term lhs, ParseAddend());
    while (Peek().kind == TokenKind::kPlus ||
           Peek().kind == TokenKind::kMinus) {
      if (!nesting.Descend()) return TooDeep();
      std::string op = Peek().kind == TokenKind::kPlus ? "+" : "-";
      Advance();
      LDL_ASSIGN_OR_RETURN(Term rhs, ParseAddend());
      lhs = Term::MakeFunction(op, {std::move(lhs), std::move(rhs)});
    }
    return lhs;
  }

  // addend := factor (("*"|"/"|"mod") factor)*
  Result<Term> ParseAddend() {
    Nesting nesting(&depth_);
    LDL_ASSIGN_OR_RETURN(Term lhs, ParseFactor());
    while (Peek().kind == TokenKind::kStar ||
           Peek().kind == TokenKind::kSlash ||
           Peek().kind == TokenKind::kMod) {
      if (!nesting.Descend()) return TooDeep();
      std::string op = Peek().kind == TokenKind::kStar    ? "*"
                       : Peek().kind == TokenKind::kSlash ? "/"
                                                          : "mod";
      Advance();
      LDL_ASSIGN_OR_RETURN(Term rhs, ParseFactor());
      lhs = Term::MakeFunction(op, {std::move(lhs), std::move(rhs)});
    }
    return lhs;
  }

  // factor := "-" factor | "(" expr ")" | list | scalar | ident [ "(" args ")" ]
  Result<Term> ParseFactor() {
    Nesting nesting(&depth_);
    if (!nesting.Descend()) return TooDeep();
    const Token& tok = Peek();
    switch (tok.kind) {
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
        int64_t v = tok.int_value;
        Advance();
        return Term::MakeInt(v);
      }
      case TokenKind::kReal: {
        double v = tok.real_value;
        Advance();
        return Term::MakeReal(v);
      }
      case TokenKind::kString: {
        std::string v = tok.text;
        Advance();
        return Term::MakeString(std::move(v));
      }
      case TokenKind::kVar: {
        std::string v = tok.text;
        Advance();
        return Term::MakeVariable(std::move(v));
      }
      case TokenKind::kIdent: {
        std::string name = tok.text;
        Advance();
        if (Peek().kind == TokenKind::kLParen) {
          Advance();
          std::vector<Term> args;
          if (Peek().kind != TokenKind::kRParen) {
            while (true) {
              LDL_ASSIGN_OR_RETURN(Term arg, ParseExpr());
              args.push_back(std::move(arg));
              if (Peek().kind == TokenKind::kComma) {
                Advance();
                continue;
              }
              break;
            }
          }
          LDL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
          return Term::MakeFunction(std::move(name), std::move(args));
        }
        return Term::MakeSymbol(std::move(name));
      }
      default:
        return Err("expected a term");
    }
  }

  // list := "[" "]" | "[" expr ("," expr)* ("|" expr)? "]"
  Result<Term> ParseList() {
    LDL_RETURN_NOT_OK(Expect(TokenKind::kLBracket, "'['"));
    if (Peek().kind == TokenKind::kRBracket) {
      Advance();
      return Term::MakeSymbol("[]");
    }
    std::vector<Term> items;
    while (true) {
      LDL_ASSIGN_OR_RETURN(Term item, ParseExpr());
      items.push_back(std::move(item));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    Term tail = Term::MakeSymbol("[]");
    if (Peek().kind == TokenKind::kBar) {
      Advance();
      LDL_ASSIGN_OR_RETURN(tail, ParseExpr());
    }
    LDL_RETURN_NOT_OK(Expect(TokenKind::kRBracket, "']'"));
    return Term::MakeList(items, std::move(tail));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;  ///< current recursive-descent nesting
};

Result<std::vector<Token>> TokenizeAll(std::string_view text) {
  Lexer lexer(text);
  std::vector<Token> tokens;
  LDL_RETURN_NOT_OK(lexer.Tokenize(&tokens));
  return tokens;
}

}  // namespace

Result<Program> ParseProgram(std::string_view text) {
  LDL_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeAll(text));
  Parser parser(std::move(tokens));
  return parser.ParseProgram();
}

Result<Literal> ParseLiteral(std::string_view text) {
  LDL_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeAll(text));
  Parser parser(std::move(tokens));
  return parser.ParseSingleLiteral();
}

Result<Term> ParseTerm(std::string_view text) {
  LDL_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeAll(text));
  Parser parser(std::move(tokens));
  return parser.ParseSingleTerm();
}

}  // namespace ldl
