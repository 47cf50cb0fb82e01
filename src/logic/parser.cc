#include "logic/parser.h"

#include <cctype>
#include <charconv>
#include <optional>
#include <utility>
#include <vector>

#include "logic/term.h"

namespace ipdb {
namespace logic {

namespace {

enum class TokenKind {
  kEnd,
  kIdent,    // identifier (variable, relation or keyword)
  kInt,      // integer literal
  kSymbol,   // 'quoted' symbol constant
  kLParen,
  kRParen,
  kComma,
  kDot,
  kEq,       // =
  kNeq,      // !=
  kNot,      // !
  kAnd,      // &
  kOr,       // |
  kImplies,  // ->
  kIff,      // <->
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // for kIdent / kSymbol
  int64_t int_value = 0;  // for kInt
  size_t position = 0;  // offset in the input, for error messages
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespace();
      Token token;
      token.position = pos_;
      if (pos_ >= text_.size()) {
        token.kind = TokenKind::kEnd;
        tokens.push_back(token);
        return tokens;
      }
      char c = text_[pos_];
      if (c == '(') {
        token.kind = TokenKind::kLParen;
        ++pos_;
      } else if (c == ')') {
        token.kind = TokenKind::kRParen;
        ++pos_;
      } else if (c == ',') {
        token.kind = TokenKind::kComma;
        ++pos_;
      } else if (c == '.') {
        token.kind = TokenKind::kDot;
        ++pos_;
      } else if (c == '=') {
        token.kind = TokenKind::kEq;
        ++pos_;
      } else if (c == '&') {
        token.kind = TokenKind::kAnd;
        ++pos_;
      } else if (c == '|') {
        token.kind = TokenKind::kOr;
        ++pos_;
      } else if (c == '!') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
          token.kind = TokenKind::kNeq;
          pos_ += 2;
        } else {
          token.kind = TokenKind::kNot;
          ++pos_;
        }
      } else if (c == '-') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
          token.kind = TokenKind::kImplies;
          pos_ += 2;
        } else if (pos_ + 1 < text_.size() && std::isdigit(text_[pos_ + 1])) {
          IPDB_RETURN_IF_ERROR(LexInt(&token));
        } else {
          return Error("unexpected '-'");
        }
      } else if (c == '<') {
        if (pos_ + 2 < text_.size() && text_[pos_ + 1] == '-' &&
            text_[pos_ + 2] == '>') {
          token.kind = TokenKind::kIff;
          pos_ += 3;
        } else {
          return Error("unexpected '<'");
        }
      } else if (c == '\'') {
        size_t end = text_.find('\'', pos_ + 1);
        if (end == std::string::npos) {
          return Error("unterminated symbol literal");
        }
        token.kind = TokenKind::kSymbol;
        token.text = text_.substr(pos_ + 1, end - pos_ - 1);
        pos_ = end + 1;
      } else if (std::isdigit(c)) {
        IPDB_RETURN_IF_ERROR(LexInt(&token));
      } else if (std::isalpha(c) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(text_[pos_]) || text_[pos_] == '_' ||
                text_[pos_] == '\'')) {
          // Allow primes inside identifiers only when not starting a
          // symbol literal; a prime directly after an identifier char is
          // part of the identifier (e.g. x').
          if (text_[pos_] == '\'') {
            ++pos_;
            continue;
          }
          ++pos_;
        }
        token.kind = TokenKind::kIdent;
        token.text = text_.substr(start, pos_ - start);
      } else {
        return Error(std::string("unexpected character '") + c + "'");
      }
      tokens.push_back(std::move(token));
    }
  }

 private:
  /// An optionally negative decimal literal; one outside the int64_t
  /// range is an error, not an exception.
  Status LexInt(Token* token) {
    const size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(text_[pos_])) ++pos_;
    token->kind = TokenKind::kInt;
    const std::from_chars_result parsed = std::from_chars(
        text_.data() + start, text_.data() + pos_, token->int_value);
    if (parsed.ec != std::errc()) {
      pos_ = start;
      return Error("integer literal out of the 64-bit range");
    }
    return Status::Ok();
  }

  Status Error(const std::string& message) {
    return InvalidArgumentError(message + " at offset " +
                                std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const rel::Schema& schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  StatusOr<Formula> Parse() {
    StatusOr<Formula> formula = ParseIff();
    if (!formula.ok()) return formula;
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input");
    }
    return formula;
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  Token Next() { return tokens_[index_++]; }
  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      ++index_;
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    return InvalidArgumentError(message + " at offset " +
                                std::to_string(Peek().position));
  }

  // Nesting is bounded twice over: each construct that recurses before
  // its formula exists ('(', '!', a quantified variable, the right side
  // of '->') is counted in open_ before the recursion, and each formula
  // built is checked against its depth(), which also catches the long
  // left-nested chains that '&', '|' and '<->' build in a loop. Hostile
  // input is refused before it can exhaust the stack.
  Status TooDeep() const {
    return Error("formula nests deeper than " +
                 std::to_string(kMaxFormulaDepth) + " levels");
  }

  /// `parse()` run `levels` constructs deeper. The count is not restored
  /// on failure, which ends the whole parse anyway.
  template <typename Parse>
  StatusOr<Formula> Nested(size_t levels, Parse parse) {
    if (levels > static_cast<size_t>(kMaxFormulaDepth - open_)) {
      return TooDeep();
    }
    open_ += static_cast<int>(levels);
    StatusOr<Formula> formula = parse();
    open_ -= static_cast<int>(levels);
    return formula;
  }

  StatusOr<Formula> Bounded(Formula formula) const {
    if (formula.depth() > kMaxFormulaDepth) return TooDeep();
    return formula;
  }

  StatusOr<Formula> ParseIff() {
    StatusOr<Formula> lhs = ParseImplies();
    if (!lhs.ok()) return lhs;
    Formula result = std::move(lhs).value();
    while (Accept(TokenKind::kIff)) {
      StatusOr<Formula> rhs = ParseImplies();
      if (!rhs.ok()) return rhs;
      result = Iff(std::move(result), std::move(rhs).value());
      if (result.depth() > kMaxFormulaDepth) return TooDeep();
    }
    return result;
  }

  StatusOr<Formula> ParseImplies() {
    StatusOr<Formula> lhs = ParseOr();
    if (!lhs.ok()) return lhs;
    if (Accept(TokenKind::kImplies)) {
      // Right associative.
      StatusOr<Formula> rhs = Nested(1, [this] { return ParseImplies(); });
      if (!rhs.ok()) return rhs;
      return Bounded(Implies(std::move(lhs).value(), std::move(rhs).value()));
    }
    return lhs;
  }

  StatusOr<Formula> ParseOr() {
    StatusOr<Formula> lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    Formula result = std::move(lhs).value();
    while (Accept(TokenKind::kOr)) {
      StatusOr<Formula> rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      result = Or(std::move(result), std::move(rhs).value());
      if (result.depth() > kMaxFormulaDepth) return TooDeep();
    }
    return result;
  }

  StatusOr<Formula> ParseAnd() {
    StatusOr<Formula> lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    Formula result = std::move(lhs).value();
    while (Accept(TokenKind::kAnd)) {
      StatusOr<Formula> rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      result = And(std::move(result), std::move(rhs).value());
      if (result.depth() > kMaxFormulaDepth) return TooDeep();
    }
    return result;
  }

  StatusOr<Formula> ParseUnary() {
    if (Accept(TokenKind::kNot)) {
      StatusOr<Formula> operand = Nested(1, [this] { return ParseUnary(); });
      if (!operand.ok()) return operand;
      return Bounded(Not(std::move(operand).value()));
    }
    if (Peek().kind == TokenKind::kIdent &&
        (Peek().text == "exists" || Peek().text == "forall")) {
      bool is_exists = Peek().text == "exists";
      Next();
      std::vector<std::string> vars;
      while (Peek().kind == TokenKind::kIdent && Peek().text != "exists" &&
             Peek().text != "forall") {
        vars.push_back(Next().text);
        if (Accept(TokenKind::kDot)) break;
      }
      if (vars.empty()) return Error("quantifier without variables");
      StatusOr<Formula> body =
          Nested(vars.size(), [this] { return ParseIff(); });
      if (!body.ok()) return body;
      return Bounded(is_exists ? ExistsAll(vars, std::move(body).value())
                               : ForallAll(vars, std::move(body).value()));
    }
    return ParsePrimary();
  }

  StatusOr<Formula> ParsePrimary() {
    if (Accept(TokenKind::kLParen)) {
      StatusOr<Formula> inner = Nested(1, [this] { return ParseIff(); });
      if (!inner.ok()) return inner;
      if (!Accept(TokenKind::kRParen)) return Error("expected ')'");
      return inner;
    }
    if (Peek().kind == TokenKind::kIdent) {
      if (Peek().text == "true") {
        Next();
        return Truth();
      }
      if (Peek().text == "false") {
        Next();
        return Falsity();
      }
      // Atom if the identifier is a known relation followed by '('.
      if (index_ + 1 < tokens_.size() &&
          tokens_[index_ + 1].kind == TokenKind::kLParen &&
          schema_.FindRelation(Peek().text).ok()) {
        return ParseAtom();
      }
    }
    // Otherwise: term (= | !=) term.
    StatusOr<Term> lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    if (Accept(TokenKind::kEq)) {
      StatusOr<Term> rhs = ParseTerm();
      if (!rhs.ok()) return rhs.status();
      return Eq(std::move(lhs).value(), std::move(rhs).value());
    }
    if (Accept(TokenKind::kNeq)) {
      StatusOr<Term> rhs = ParseTerm();
      if (!rhs.ok()) return rhs.status();
      return Not(Eq(std::move(lhs).value(), std::move(rhs).value()));
    }
    return Error("expected '=' or '!=' after term");
  }

  StatusOr<Formula> ParseAtom() {
    std::string name = Next().text;
    StatusOr<rel::RelationId> relation = schema_.FindRelation(name);
    if (!relation.ok()) return relation.status();
    if (!Accept(TokenKind::kLParen)) return Error("expected '('");
    std::vector<Term> terms;
    if (!Accept(TokenKind::kRParen)) {
      while (true) {
        StatusOr<Term> term = ParseTerm();
        if (!term.ok()) return term.status();
        terms.push_back(std::move(term).value());
        if (Accept(TokenKind::kRParen)) break;
        if (!Accept(TokenKind::kComma)) return Error("expected ',' or ')'");
      }
    }
    if (static_cast<int>(terms.size()) != schema_.arity(relation.value())) {
      return InvalidArgumentError(
          "arity mismatch for relation " + name + ": expected " +
          std::to_string(schema_.arity(relation.value())) + " got " +
          std::to_string(terms.size()));
    }
    return Atom(relation.value(), std::move(terms));
  }

  StatusOr<Term> ParseTerm() {
    // Copy the token up front (indexing into tokens_ is invalidated by
    // nothing here, but the by-value copy also sidesteps a GCC
    // maybe-uninitialized false positive on the moved-from string).
    Token token = Peek();
    switch (token.kind) {
      case TokenKind::kInt:
        ++index_;
        return Term::Int(token.int_value);
      case TokenKind::kSymbol:
        ++index_;
        return Term::Const(rel::Value::Symbol(std::move(token.text)));
      case TokenKind::kIdent:
        ++index_;
        if (token.text == "null") return Term::Const(rel::Value::Null());
        return Term::Var(std::move(token.text));
      default:
        return Error("expected a term");
    }
  }

  std::vector<Token> tokens_;
  const rel::Schema& schema_;
  size_t index_ = 0;
  int open_ = 0;  // constructs entered whose formula is not built yet
};

}  // namespace

StatusOr<Formula> ParseFormula(const std::string& text,
                               const rel::Schema& schema) {
  Lexer lexer(text);
  StatusOr<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), schema);
  return parser.Parse();
}

StatusOr<Formula> ParseSentence(const std::string& text,
                                const rel::Schema& schema) {
  StatusOr<Formula> formula = ParseFormula(text, schema);
  if (!formula.ok()) return formula;
  std::vector<std::string> free = formula.value().FreeVariables();
  if (!free.empty()) {
    return InvalidArgumentError("formula is not a sentence; free variable " +
                                free.front());
  }
  return formula;
}

}  // namespace logic
}  // namespace ipdb
