#include "relational/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace ipdb {
namespace rel {
namespace {

Schema TestSchema() { return Schema({{"R", 2}, {"S", 1}, {"E", 0}}); }

TEST(ParseInstanceTest, BasicFacts) {
  Schema schema = TestSchema();
  auto instance =
      ParseInstance("R(1, 'a'); S(-3); E(); S(null)", schema);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance.value().size(), 4);
  EXPECT_TRUE(instance.value().Contains(
      Fact(0, {Value::Int(1), Value::Symbol("a")})));
  EXPECT_TRUE(instance.value().Contains(Fact(1, {Value::Int(-3)})));
  EXPECT_TRUE(instance.value().Contains(Fact(2, {})));
  EXPECT_TRUE(instance.value().Contains(Fact(1, {Value::Null()})));
}

TEST(ParseInstanceTest, WhitespaceAndTrailingSeparator) {
  Schema schema = TestSchema();
  auto instance = ParseInstance("  S( 7 ) ;\n R('x','y') ; ", schema);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance.value().size(), 2);
}

TEST(ParseInstanceTest, DuplicatesCollapse) {
  Schema schema = TestSchema();
  auto instance = ParseInstance("S(1); S(1); S(2)", schema);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance.value().size(), 2);
}

TEST(ParseInstanceTest, EmptyTextIsEmptyInstance) {
  Schema schema = TestSchema();
  auto instance = ParseInstance("   ", schema);
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(instance.value().empty());
}

TEST(ParseInstanceTest, Errors) {
  Schema schema = TestSchema();
  EXPECT_FALSE(ParseInstance("T(1)", schema).ok());       // unknown rel
  EXPECT_FALSE(ParseInstance("S(1, 2)", schema).ok());    // arity
  EXPECT_FALSE(ParseInstance("S(x)", schema).ok());       // bare symbol
  EXPECT_FALSE(ParseInstance("S(1", schema).ok());        // unbalanced
  EXPECT_FALSE(ParseInstance("S(1) S(2)", schema).ok());  // missing ';'
  EXPECT_FALSE(ParseInstance("S('a)", schema).ok());      // unterminated
  EXPECT_FALSE(ParseInstance("S(-)", schema).ok());       // bad number
  // Integer literals outside int64_t are errors, not exceptions.
  for (const char* text :
       {"S(99999999999999999999)", "S(-99999999999999999999)",
        "S(9223372036854775808)", "S(-9223372036854775809)"}) {
    StatusOr<Instance> overflow = ParseInstance(text, schema);
    ASSERT_FALSE(overflow.ok()) << text;
    EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument)
        << text;
  }
  EXPECT_EQ(ParseFact("R(-99999999999999999999, 0)", schema).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParseInstanceTest, Int64BoundsParseExactly) {
  Schema schema = TestSchema();
  auto fact = ParseFact("R(-9223372036854775808, 9223372036854775807)",
                        schema);
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();
  EXPECT_EQ(fact.value(),
            Fact(0, {Value::Int(std::numeric_limits<int64_t>::min()),
                     Value::Int(std::numeric_limits<int64_t>::max())}));
}

TEST(ParseFactTest, SingleFact) {
  Schema schema = TestSchema();
  auto fact = ParseFact("R(0, 'b')", schema);
  ASSERT_TRUE(fact.ok());
  EXPECT_EQ(fact.value(), Fact(0, {Value::Int(0), Value::Symbol("b")}));
  EXPECT_FALSE(ParseFact("R(0, 'b'); S(1)", schema).ok());  // trailing
}

TEST(ParseInstanceTest, RoundTripsWithToString) {
  // ToString output uses the same fact syntax modulo braces/commas; a
  // parsed copy of a hand-built instance compares equal.
  Schema schema = TestSchema();
  Instance original({Fact(0, {Value::Int(1), Value::Int(2)}),
                     Fact(1, {Value::Symbol("q")})});
  auto reparsed = ParseInstance("R(1, 2); S('q')", schema);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(original, reparsed.value());
}

}  // namespace
}  // namespace rel
}  // namespace ipdb
