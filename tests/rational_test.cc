#include "math/rational.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ipdb {
namespace math {
namespace {

TEST(RationalTest, CanonicalForm) {
  Rational r(BigInt(6), BigInt(-8));
  EXPECT_EQ(r.ToString(), "-3/4");
  EXPECT_EQ(Rational(BigInt(0), BigInt(7)).ToString(), "0");
  EXPECT_EQ(Rational(BigInt(10), BigInt(5)).ToString(), "2");
}

TEST(RationalTest, Arithmetic) {
  Rational half = Rational::Ratio(1, 2);
  Rational third = Rational::Ratio(1, 3);
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half / third).ToString(), "3/2");
  EXPECT_EQ((-half).ToString(), "-1/2");
  EXPECT_EQ(half.Abs(), (-half).Abs());
}

TEST(RationalTest, TelescopingSumIsExact) {
  // Σ_{i=1..n} 1/(i(i+1)) = n/(n+1), exactly.
  Rational total;
  const int n = 50;
  for (int i = 1; i <= n; ++i) {
    total += Rational::Ratio(1, static_cast<int64_t>(i) * (i + 1));
  }
  EXPECT_EQ(total, Rational::Ratio(n, n + 1));
}

TEST(RationalTest, Pow) {
  Rational half = Rational::Ratio(1, 2);
  EXPECT_EQ(half.Pow(10).ToString(), "1/1024");
  EXPECT_EQ(half.Pow(0).ToString(), "1");
  EXPECT_EQ(half.Pow(-3).ToString(), "8");
  EXPECT_EQ(Rational::Ratio(-2, 3).Pow(2).ToString(), "4/9");
  EXPECT_EQ(Rational::Ratio(-2, 3).Pow(3).ToString(), "-8/27");
}

TEST(RationalTest, FromDoubleIsExact) {
  EXPECT_EQ(Rational::FromDouble(0.0), Rational(0));
  EXPECT_EQ(Rational::FromDouble(0.375), Rational::Ratio(3, 8));
  EXPECT_EQ(Rational::FromDouble(-6.5), Rational::Ratio(-13, 2));
  EXPECT_EQ(Rational::FromDouble(std::ldexp(1.0, 70)),
            Rational(2).Pow(70));
  // 0.1 is not 1/10 but the nearest dyadic, which ToDouble maps back.
  const Rational tenth = Rational::FromDouble(0.1);
  EXPECT_NE(tenth, Rational::Ratio(1, 10));
  EXPECT_EQ(tenth.ToDouble(), 0.1);
  EXPECT_EQ(Rational::FromDouble(std::ldexp(1.0, -1074)),
            Rational(2).Pow(-1074));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational::Ratio(1, 3), Rational::Ratio(1, 2));
  EXPECT_LT(Rational::Ratio(-1, 2), Rational::Ratio(-1, 3));
  EXPECT_LE(Rational::Ratio(2, 4), Rational::Ratio(1, 2));
  EXPECT_GT(Rational(1), Rational::Ratio(999, 1000));
}

TEST(RationalTest, FromString) {
  EXPECT_EQ(Rational::FromString("3/9").value().ToString(), "1/3");
  EXPECT_EQ(Rational::FromString("-4").value().ToString(), "-4");
  EXPECT_EQ(Rational::FromString("8/-6").value().ToString(), "-4/3");
  EXPECT_FALSE(Rational::FromString("1/0").ok());
  EXPECT_FALSE(Rational::FromString("a/b").ok());
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational::Ratio(1, 2).ToDouble(), 0.5);
  EXPECT_DOUBLE_EQ(Rational::Ratio(-3, 4).ToDouble(), -0.75);
  EXPECT_NEAR(Rational::Ratio(1, 3).ToDouble(), 1.0 / 3.0, 1e-15);
  // Huge numerator/denominator still produce an accurate quotient.
  Rational huge(BigInt(2).Pow(600) + BigInt(1), BigInt(2).Pow(601));
  EXPECT_NEAR(huge.ToDouble(), 0.5, 1e-12);
}

TEST(RationalTest, GeometricSeriesClosedForm) {
  // Σ_{i=0..n-1} (1/2)^i = 2 - 2^{1-n}, exactly.
  Rational total;
  Rational term(1);
  Rational half = Rational::Ratio(1, 2);
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    total += term;
    term *= half;
  }
  EXPECT_EQ(total, Rational(2) - Rational::Ratio(1, int64_t{1} << 29));
}

}  // namespace
}  // namespace math
}  // namespace ipdb
