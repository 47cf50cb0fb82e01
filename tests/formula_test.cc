#include "logic/formula.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "logic/parser.h"
#include "pdb/ti_pdb.h"
#include "pqe/wmc.h"
#include "relational/schema.h"

namespace ipdb {
namespace logic {
namespace {

rel::Schema TestSchema() { return rel::Schema({{"R", 2}, {"S", 1}}); }

TEST(FormulaTest, DefaultIsTrue) {
  Formula f;
  EXPECT_EQ(f.kind(), FormulaKind::kTrue);
}

TEST(FormulaTest, FreeVariables) {
  Formula f = Exists(
      "x", And(Atom(0, {Term::Var("x"), Term::Var("y")}),
               Atom(1, {Term::Var("z")})));
  std::vector<std::string> free = f.FreeVariables();
  ASSERT_EQ(free.size(), 2u);
  EXPECT_EQ(free[0], "y");
  EXPECT_EQ(free[1], "z");
}

TEST(FormulaTest, ShadowedVariableNotFree) {
  Formula f = Exists("x", Exists("x", Atom(1, {Term::Var("x")})));
  EXPECT_TRUE(f.FreeVariables().empty());
}

TEST(FormulaTest, Constants) {
  Formula f = And(Atom(0, {Term::Int(3), Term::Var("x")}),
                  Eq(Term::Var("x"), Term::Const(rel::Value::Symbol("a"))));
  std::vector<rel::Value> constants = f.Constants();
  ASSERT_EQ(constants.size(), 2u);
  EXPECT_EQ(constants[0], rel::Value::Int(3));
  EXPECT_EQ(constants[1], rel::Value::Symbol("a"));
}

TEST(FormulaTest, QuantifierRank) {
  EXPECT_EQ(Truth().QuantifierRank(), 0);
  Formula f = Exists("x", Forall("y", Atom(0, {Term::Var("x"),
                                               Term::Var("y")})));
  EXPECT_EQ(f.QuantifierRank(), 2);
  Formula g = And(f, Exists("z", Atom(1, {Term::Var("z")})));
  EXPECT_EQ(g.QuantifierRank(), 2);
}

TEST(FormulaTest, MatchesSchema) {
  rel::Schema schema = TestSchema();
  EXPECT_TRUE(Atom(0, {Term::Int(1), Term::Int(2)}).MatchesSchema(schema));
  EXPECT_FALSE(Atom(0, {Term::Int(1)}).MatchesSchema(schema));
  EXPECT_FALSE(Atom(9, {Term::Int(1)}).MatchesSchema(schema));
}

TEST(FormulaTest, SubstituteFreeOnly) {
  // (∃x R(x, y))[y := 5] replaces y, leaves the bound x alone.
  Formula f = Exists("x", Atom(0, {Term::Var("x"), Term::Var("y")}));
  Formula g = f.Substitute("y", Term::Int(5));
  EXPECT_EQ(g, Exists("x", Atom(0, {Term::Var("x"), Term::Int(5)})));
  // Substituting the bound variable is a no-op.
  EXPECT_EQ(f.Substitute("x", Term::Int(7)), f);
}

TEST(FormulaTest, SubstituteAvoidsCapture) {
  // (∃x R(x, y))[y := x] must rename the bound x.
  Formula f = Exists("x", Atom(0, {Term::Var("x"), Term::Var("y")}));
  Formula g = f.Substitute("y", Term::Var("x"));
  ASSERT_EQ(g.kind(), FormulaKind::kExists);
  EXPECT_NE(g.quantified_var(), "x");
  const Formula& body = g.children()[0];
  EXPECT_EQ(body.terms()[0], Term::Var(g.quantified_var()));
  EXPECT_EQ(body.terms()[1], Term::Var("x"));
  std::vector<std::string> free = g.FreeVariables();
  ASSERT_EQ(free.size(), 1u);
  EXPECT_EQ(free[0], "x");
}

TEST(FormulaTest, CountingQuantifiersExpand) {
  Formula body = Atom(1, {Term::Var("v")});
  EXPECT_EQ(AtLeast(0, "v", body).kind(), FormulaKind::kTrue);
  Formula at_least_2 = AtLeast(2, "v", body);
  EXPECT_TRUE(at_least_2.FreeVariables().empty());
  EXPECT_EQ(at_least_2.QuantifierRank(), 2);
  Formula exactly_1 = Exactly(1, "v", body);
  EXPECT_EQ(exactly_1.kind(), FormulaKind::kAnd);
}

TEST(FormulaTest, StructuralEquality) {
  Formula a = And(Atom(1, {Term::Var("x")}), Truth());
  Formula b = And(Atom(1, {Term::Var("x")}), Truth());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, And(Atom(1, {Term::Var("y")}), Truth()));
  EXPECT_NE(Exists("x", Truth()), Forall("x", Truth()));
}

TEST(FormulaTest, ToStringReadable) {
  rel::Schema schema = TestSchema();
  Formula f = Forall("x", Implies(Atom(1, {Term::Var("x")}),
                                  Eq(Term::Var("x"), Term::Int(1))));
  EXPECT_EQ(f.ToString(schema), "forall x. ((S(x) -> x = 1))");
}

TEST(ParserTest, RoundTripsBasicFormulas) {
  rel::Schema schema = TestSchema();
  const char* cases[] = {
      "R(x, y)",
      "exists x. S(x)",
      "forall x y. R(x, y) -> S(x)",
      "S(1) & !S(2) | S(3)",
      "x = y",
      "x != 'a'",
      "true & false",
      "exists x. (S(x) & x != null)",
  };
  for (const char* text : cases) {
    auto parsed = ParseFormula(text, schema);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    // Printing and reparsing yields the same AST.
    auto reparsed = ParseFormula(parsed.value().ToString(schema), schema);
    ASSERT_TRUE(reparsed.ok()) << parsed.value().ToString(schema);
    EXPECT_EQ(parsed.value(), reparsed.value()) << text;
  }
}

TEST(ParserTest, Precedence) {
  rel::Schema schema = TestSchema();
  Formula f = ParseFormula("S(1) & S(2) | S(3)", schema).value();
  // & binds tighter than |.
  EXPECT_EQ(f.kind(), FormulaKind::kOr);
  Formula g = ParseFormula("S(1) -> S(2) -> S(3)", schema).value();
  // -> is right associative.
  EXPECT_EQ(g.kind(), FormulaKind::kImplies);
  EXPECT_EQ(g.children()[1].kind(), FormulaKind::kImplies);
  Formula h = ParseFormula("!S(1) & S(2)", schema).value();
  EXPECT_EQ(h.kind(), FormulaKind::kAnd);
}

TEST(ParserTest, ConstantsAndTerms) {
  rel::Schema schema = TestSchema();
  Formula f = ParseFormula("R(-3, 'france') & S(null)", schema).value();
  std::vector<rel::Value> constants = f.Constants();
  ASSERT_EQ(constants.size(), 3u);
  EXPECT_EQ(constants[0], rel::Value::Null());
  EXPECT_EQ(constants[1], rel::Value::Int(-3));
  EXPECT_EQ(constants[2], rel::Value::Symbol("france"));
}

TEST(ParserTest, Errors) {
  rel::Schema schema = TestSchema();
  EXPECT_FALSE(ParseFormula("R(x)", schema).ok());       // arity
  EXPECT_FALSE(ParseFormula("T(x)", schema).ok());       // unknown + no '='
  EXPECT_FALSE(ParseFormula("S(x) &", schema).ok());     // dangling
  EXPECT_FALSE(ParseFormula("(S(x)", schema).ok());      // unbalanced
  EXPECT_FALSE(ParseFormula("exists . S(x)", schema).ok());
  EXPECT_FALSE(ParseFormula("S(x) S(y)", schema).ok());  // trailing
  // Integer literals outside int64_t are errors, not exceptions.
  for (const char* text :
       {"S(99999999999999999999)", "S(-99999999999999999999)",
        "S(9223372036854775808)", "S(-9223372036854775809)"}) {
    StatusOr<Formula> overflow = ParseFormula(text, schema);
    ASSERT_FALSE(overflow.ok()) << text;
    EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument)
        << text;
  }
}

TEST(ParserTest, Int64BoundsParseExactly) {
  rel::Schema schema = TestSchema();
  StatusOr<Formula> max = ParseFormula("S(9223372036854775807)", schema);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max.value().terms()[0],
            Term::Int(std::numeric_limits<int64_t>::max()));
  StatusOr<Formula> min = ParseFormula("S(-9223372036854775808)", schema);
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_EQ(min.value().terms()[0],
            Term::Int(std::numeric_limits<int64_t>::min()));
}

/// Hostile nesting is refused as kInvalidArgument before it can exhaust
/// the stack. Each shape nests 100,000 levels; the first four recurse in
/// the parser, the last two build a deep formula in a loop.
TEST(ParserTest, DeepNestingIsInvalidArgument) {
  const rel::Schema schema = TestSchema();
  constexpr int kLevels = 100000;
  std::string quantifiers;
  std::string implications;
  std::string conjunction = "S(1)";
  std::string variables = "exists";
  for (int i = 0; i < kLevels; ++i) {
    quantifiers += "exists x. ";
    implications += "S(1) -> ";
    conjunction += " & S(1)";
    variables += " x" + std::to_string(i);
  }
  quantifiers += "S(x)";
  implications += "S(1)";
  variables += ". S(x0)";
  const std::vector<std::string> shapes = {
      std::string(kLevels, '(') + "S(1)" + std::string(kLevels, ')'),
      std::string(kLevels, '!') + "S(1)",
      quantifiers,
      implications,
      conjunction,
      variables,
  };
  for (const std::string& text : shapes) {
    StatusOr<Formula> parsed = ParseSentence(text, schema);
    ASSERT_FALSE(parsed.ok()) << text.substr(0, 40);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("nests deeper than"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

/// A formula exactly kMaxFormulaDepth levels deep parses and is answered
/// end to end; one level more is refused.
TEST(ParserTest, FormulaAtTheDepthLimitParsesAndIsAnswered) {
  const rel::Schema schema = TestSchema();
  const pdb::TiPdb<double> ti = pdb::TiPdb<double>::CreateOrDie(
      schema, {{rel::Fact(1, {rel::Value::Int(1)}), 0.3},
               {rel::Fact(1, {rel::Value::Int(2)}), 0.6}});
  // `levels` deep: depth() of the first and last, open parentheses of
  // the second.
  const auto shapes = [](int levels) {
    std::string disjunction = "S(1)";
    for (int i = 1; i < levels; ++i) disjunction += " | S(2)";
    return std::vector<std::string>{
        std::string(levels - 1, '!') + "S(1)",
        std::string(levels, '(') + "S(1)" + std::string(levels, ')'),
        disjunction,
    };
  };
  // kMaxFormulaDepth - 1 negations are odd, so the first is ¬S(1); the
  // other two are S(1) and S(1) ∨ S(2).
  const double expected[] = {0.7, 0.3, 1.0 - 0.7 * 0.4};
  const std::vector<std::string> at_limit = shapes(kMaxFormulaDepth);
  for (size_t i = 0; i < at_limit.size(); ++i) {
    StatusOr<Formula> parsed = ParseSentence(at_limit[i], schema);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    StatusOr<double> answer = pqe::QueryProbability(ti, parsed.value());
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_NEAR(answer.value(), expected[i], 1e-12) << i;
  }
  for (const std::string& text : shapes(kMaxFormulaDepth + 1)) {
    EXPECT_EQ(ParseSentence(text, schema).status().code(),
              StatusCode::kInvalidArgument)
        << text.substr(0, 40);
  }
}

TEST(ParserTest, SentenceCheck) {
  rel::Schema schema = TestSchema();
  EXPECT_TRUE(ParseSentence("exists x. S(x)", schema).ok());
  EXPECT_FALSE(ParseSentence("S(x)", schema).ok());
}

}  // namespace
}  // namespace logic
}  // namespace ipdb
