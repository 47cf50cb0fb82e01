#include "relational/parse.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <vector>

namespace ipdb {
namespace rel {

namespace {

/// A minimal cursor over the input.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }
  bool AtEnd() {
    SkipWhitespace();
    return pos_ >= text_.size();
  }
  bool Accept(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  char Peek() {
    SkipWhitespace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Status Error(const std::string& message) const {
    return InvalidArgumentError(message + " at offset " +
                                std::to_string(pos_));
  }

  StatusOr<std::string> Identifier() {
    SkipWhitespace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(text_[pos_]) || text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected an identifier");
    return text_.substr(start, pos_ - start);
  }

  StatusOr<Value> Term() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("expected a term");
    char c = text_[pos_];
    if (c == '\'') {
      size_t end = text_.find('\'', pos_ + 1);
      if (end == std::string::npos) {
        return Error("unterminated symbol literal");
      }
      Value value = Value::Symbol(text_.substr(pos_ + 1, end - pos_ - 1));
      pos_ = end + 1;
      return value;
    }
    if (c == '-' || std::isdigit(c)) {
      size_t start = pos_;
      if (c == '-') ++pos_;
      while (pos_ < text_.size() && std::isdigit(text_[pos_])) ++pos_;
      if (pos_ == start + (c == '-' ? 1u : 0u)) {
        return Error("expected digits");
      }
      int64_t number = 0;
      const std::from_chars_result parsed =
          std::from_chars(text_.data() + start, text_.data() + pos_, number);
      if (parsed.ec != std::errc()) {
        pos_ = start;
        return Error("integer literal out of the 64-bit range");
      }
      return Value::Int(number);
    }
    StatusOr<std::string> word = Identifier();
    if (!word.ok()) return word.status();
    if (word.value() == "null") return Value::Null();
    return Error("unknown term '" + word.value() +
                 "' (symbols need quotes)");
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

StatusOr<Fact> ParseOneFact(Cursor& cursor, const Schema& schema) {
  StatusOr<std::string> name = cursor.Identifier();
  if (!name.ok()) return name.status();
  StatusOr<RelationId> relation = schema.FindRelation(name.value());
  if (!relation.ok()) return relation.status();
  if (!cursor.Accept('(')) return cursor.Error("expected '('");
  std::vector<Value> args;
  if (!cursor.Accept(')')) {
    while (true) {
      StatusOr<Value> value = cursor.Term();
      if (!value.ok()) return value.status();
      args.push_back(std::move(value).value());
      if (cursor.Accept(')')) break;
      if (!cursor.Accept(',')) return cursor.Error("expected ',' or ')'");
    }
  }
  if (static_cast<int>(args.size()) != schema.arity(relation.value())) {
    return InvalidArgumentError(
        "arity mismatch for " + name.value() + ": expected " +
        std::to_string(schema.arity(relation.value())) + " got " +
        std::to_string(args.size()));
  }
  return Fact(relation.value(), std::move(args));
}

}  // namespace

StatusOr<Fact> ParseFact(const std::string& text, const Schema& schema) {
  Cursor cursor(text);
  StatusOr<Fact> fact = ParseOneFact(cursor, schema);
  if (!fact.ok()) return fact;
  if (!cursor.AtEnd()) return cursor.Error("trailing input");
  return fact;
}

StatusOr<Instance> ParseInstance(const std::string& text,
                                 const Schema& schema) {
  Cursor cursor(text);
  std::vector<Fact> facts;
  while (!cursor.AtEnd()) {
    StatusOr<Fact> fact = ParseOneFact(cursor, schema);
    if (!fact.ok()) return fact.status();
    facts.push_back(std::move(fact).value());
    if (!cursor.Accept(';')) {
      if (!cursor.AtEnd()) return cursor.Error("expected ';'");
      break;
    }
  }
  return Instance(std::move(facts));
}

}  // namespace rel
}  // namespace ipdb
