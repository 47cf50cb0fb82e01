// Randomized property tests for the small-value/limb BigInt and the
// Rational fast paths: every result is cross-checked against a decimal
// string-based schoolbook reference that shares no code with the limb
// kernels, and canonical-form invariants are asserted after every
// operation. Fixed seeds keep the suite deterministic.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "math/bigint.h"
#include "math/rational.h"

namespace ipdb {
namespace math {
namespace {

// --- Decimal-string reference arithmetic (schoolbook, sign + digits) ---

struct RefInt {
  bool negative = false;
  std::string digits = "0";  // most significant first, no leading zeros
};

RefInt RefNormalize(RefInt v) {
  size_t first = v.digits.find_first_not_of('0');
  if (first == std::string::npos) return RefInt{false, "0"};
  v.digits = v.digits.substr(first);
  return v;
}

// Compares magnitudes only.
int RefCompareMag(const RefInt& a, const RefInt& b) {
  if (a.digits.size() != b.digits.size()) {
    return a.digits.size() < b.digits.size() ? -1 : 1;
  }
  if (a.digits != b.digits) return a.digits < b.digits ? -1 : 1;
  return 0;
}

std::string RefAddMag(const std::string& a, const std::string& b) {
  std::string out;
  int carry = 0;
  for (size_t i = 0; i < a.size() || i < b.size() || carry != 0; ++i) {
    int da = i < a.size() ? a[a.size() - 1 - i] - '0' : 0;
    int db = i < b.size() ? b[b.size() - 1 - i] - '0' : 0;
    int sum = da + db + carry;
    out.push_back(static_cast<char>('0' + sum % 10));
    carry = sum / 10;
  }
  return std::string(out.rbegin(), out.rend());
}

// Requires |a| >= |b|.
std::string RefSubMag(const std::string& a, const std::string& b) {
  std::string out;
  int borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int da = a[a.size() - 1 - i] - '0';
    int db = i < b.size() ? b[b.size() - 1 - i] - '0' : 0;
    int diff = da - db - borrow;
    borrow = diff < 0 ? 1 : 0;
    if (diff < 0) diff += 10;
    out.push_back(static_cast<char>('0' + diff));
  }
  return std::string(out.rbegin(), out.rend());
}

RefInt RefAdd(const RefInt& a, const RefInt& b) {
  if (a.negative == b.negative) {
    return RefNormalize(RefInt{a.negative, RefAddMag(a.digits, b.digits)});
  }
  int cmp = RefCompareMag(a, b);
  if (cmp == 0) return RefInt{false, "0"};
  if (cmp > 0) {
    return RefNormalize(RefInt{a.negative, RefSubMag(a.digits, b.digits)});
  }
  return RefNormalize(RefInt{b.negative, RefSubMag(b.digits, a.digits)});
}

RefInt RefNeg(RefInt v) {
  if (v.digits != "0") v.negative = !v.negative;
  return v;
}

RefInt RefMul(const RefInt& a, const RefInt& b) {
  std::vector<int> acc(a.digits.size() + b.digits.size(), 0);
  for (size_t i = 0; i < a.digits.size(); ++i) {
    int da = a.digits[a.digits.size() - 1 - i] - '0';
    for (size_t j = 0; j < b.digits.size(); ++j) {
      int db = b.digits[b.digits.size() - 1 - j] - '0';
      acc[i + j] += da * db;
    }
  }
  std::string out;
  int carry = 0;
  for (size_t i = 0; i < acc.size(); ++i) {
    int v = acc[i] + carry;
    out.push_back(static_cast<char>('0' + v % 10));
    carry = v / 10;
  }
  while (carry != 0) {
    out.push_back(static_cast<char>('0' + carry % 10));
    carry /= 10;
  }
  std::string digits(out.rbegin(), out.rend());
  return RefNormalize(RefInt{a.negative != b.negative, std::move(digits)});
}

std::string RefToString(const RefInt& v) {
  if (v.digits == "0") return "0";
  return (v.negative ? "-" : "") + v.digits;
}

RefInt RefFromBigInt(const BigInt& v) {
  std::string s = v.ToString();
  RefInt out;
  if (!s.empty() && s[0] == '-') {
    out.negative = true;
    s = s.substr(1);
  }
  out.digits = std::move(s);
  return RefNormalize(out);
}

// --- Random value generation spanning the inline/limb boundary ---

class RandomBigInts {
 public:
  explicit RandomBigInts(uint32_t seed) : rng_(seed) {}

  // A value whose magnitude has a random bit length in [0, max_bits],
  // biased toward the int64 boundary, plus occasional special values.
  BigInt Next(int max_bits = 160) {
    switch (rng_() % 16) {
      case 0:
        return BigInt(0);
      case 1:
        return BigInt(INT64_MAX);
      case 2:
        return BigInt(INT64_MIN);
      case 3:
        return BigInt(INT64_MAX) + BigInt(1);
      case 4:
        return -(BigInt(INT64_MAX) + BigInt(2));
      default:
        break;
    }
    int bits = static_cast<int>(rng_() % (max_bits + 1));
    BigInt value(0);
    for (int produced = 0; produced < bits; produced += 32) {
      value *= BigInt(int64_t{1} << 32);
      value += BigInt(static_cast<int64_t>(rng_()));
    }
    if (rng_() % 2 == 0) value = -value;
    return value;
  }

  uint32_t Raw() { return rng_(); }

 private:
  std::mt19937 rng_;
};

TEST(BigIntPropertyTest, AddSubMulMatchDecimalReference) {
  RandomBigInts gen(20250806);
  for (int i = 0; i < 4000; ++i) {
    BigInt a = gen.Next();
    BigInt b = gen.Next();
    RefInt ra = RefFromBigInt(a);
    RefInt rb = RefFromBigInt(b);
    EXPECT_EQ((a + b).ToString(), RefToString(RefAdd(ra, rb)))
        << a << " + " << b;
    EXPECT_EQ((a - b).ToString(), RefToString(RefAdd(ra, RefNeg(rb))))
        << a << " - " << b;
    EXPECT_EQ((a * b).ToString(), RefToString(RefMul(ra, rb)))
        << a << " * " << b;
  }
}

TEST(BigIntPropertyTest, InPlaceOperatorsMatchOutOfPlace) {
  RandomBigInts gen(7);
  for (int i = 0; i < 3000; ++i) {
    BigInt a = gen.Next();
    BigInt b = gen.Next();
    BigInt sum = a;
    sum += b;
    EXPECT_EQ(sum, a + b);
    BigInt diff = a;
    diff -= b;
    EXPECT_EQ(diff, a - b);
    BigInt prod = a;
    prod *= b;
    EXPECT_EQ(prod, a * b);
    // Self-aliasing.
    BigInt twice = a;
    twice += twice;
    EXPECT_EQ(twice, a + a);
    BigInt zero = a;
    zero -= zero;
    EXPECT_TRUE(zero.is_zero());
    BigInt square = a;
    square *= square;
    EXPECT_EQ(square, a * a);
  }
}

TEST(BigIntPropertyTest, DivModRoundTripsAndBoundsRemainder) {
  RandomBigInts gen(99);
  int checked = 0;
  for (int i = 0; i < 4000; ++i) {
    BigInt a = gen.Next();
    BigInt b = gen.Next();
    if (b.is_zero()) continue;
    ++checked;
    BigInt q, r;
    ASSERT_TRUE(BigInt::DivMod(a, b, &q, &r).ok());
    EXPECT_EQ(q * b + r, a) << a << " / " << b;
    EXPECT_LT(r.Abs(), b.Abs());
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), a.sign());
    }
    EXPECT_EQ(a / b, q);
    EXPECT_EQ(a % b, r);
  }
  EXPECT_GT(checked, 3000);
}

TEST(BigIntPropertyTest, GcdDividesBothAndIsMaximal) {
  RandomBigInts gen(1234);
  for (int i = 0; i < 2000; ++i) {
    BigInt a = gen.Next(128);
    BigInt b = gen.Next(128);
    BigInt g = BigInt::Gcd(a, b);
    if (a.is_zero() && b.is_zero()) {
      EXPECT_TRUE(g.is_zero());
      continue;
    }
    ASSERT_FALSE(g.is_zero());
    EXPECT_FALSE(g.is_negative());
    EXPECT_TRUE((a % g).is_zero());
    EXPECT_TRUE((b % g).is_zero());
    // Maximality: a/g and b/g are coprime.
    EXPECT_TRUE(BigInt::Gcd(a / g, b / g).is_one());
  }
}

TEST(BigIntPropertyTest, StringRoundTripAcrossBoundary) {
  RandomBigInts gen(55);
  for (int i = 0; i < 2000; ++i) {
    BigInt a = gen.Next();
    StatusOr<BigInt> parsed = BigInt::FromString(a.ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), a);
    // The representation is canonical: parsing and arithmetic must agree
    // on inline-ness, so field-wise equality implies same form.
    EXPECT_EQ(parsed.value().is_inline(), a.is_inline());
  }
}

TEST(BigIntPropertyTest, CollapsesToInlineExactlyWithinInt64) {
  // Values just inside the int64 range are inline; just outside spill.
  BigInt max(INT64_MAX);
  BigInt min(INT64_MIN);
  EXPECT_TRUE(max.is_inline());
  EXPECT_TRUE(min.is_inline());
  EXPECT_FALSE((max + BigInt(1)).is_inline());
  EXPECT_FALSE((min - BigInt(1)).is_inline());
  // Arithmetic that lands back inside collapses to inline.
  BigInt back = (max + BigInt(1)) - BigInt(1);
  EXPECT_TRUE(back.is_inline());
  EXPECT_EQ(back, max);
  BigInt low = (min - BigInt(1)) + BigInt(1);
  EXPECT_TRUE(low.is_inline());
  EXPECT_EQ(low, min);
  ASSERT_TRUE(low.ToInt64().ok());
  EXPECT_EQ(low.ToInt64().value(), INT64_MIN);
}

TEST(BigIntPropertyTest, ZeroDivisorIsRejectedWithStatus) {
  BigInt q, r;
  Status status = BigInt::DivMod(BigInt(5), BigInt(0), &q, &r);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(BigInt::CheckedDiv(BigInt(5), BigInt(0)).ok());
  EXPECT_FALSE(BigInt::CheckedMod(BigInt(5), BigInt(0)).ok());
  // Non-zero divisors succeed through the same entry points.
  StatusOr<BigInt> ok = BigInt::CheckedDiv(BigInt(7), BigInt(2));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), BigInt(3));
}

// --- Rational invariants -------------------------------------------------

void ExpectCanonical(const Rational& r, const std::string& context) {
  EXPECT_FALSE(r.denominator().is_negative()) << context;
  EXPECT_FALSE(r.denominator().is_zero()) << context;
  if (r.numerator().is_zero()) {
    EXPECT_TRUE(r.denominator().is_one()) << context;
  } else {
    EXPECT_TRUE(BigInt::Gcd(r.numerator(), r.denominator()).is_one())
        << context;
  }
}

TEST(RationalPropertyTest, OperationsPreserveCanonicalForm) {
  RandomBigInts gen(31337);
  for (int i = 0; i < 2500; ++i) {
    BigInt an = gen.Next(96);
    BigInt ad = gen.Next(96);
    BigInt bn = gen.Next(96);
    BigInt bd = gen.Next(96);
    if (ad.is_zero()) ad = BigInt(1);
    if (bd.is_zero()) bd = BigInt(1);
    Rational a(an, ad);
    Rational b(bn, bd);
    ExpectCanonical(a, "construct a");
    ExpectCanonical(b, "construct b");

    Rational sum = a + b;
    ExpectCanonical(sum, "sum");
    Rational diff = a - b;
    ExpectCanonical(diff, "diff");
    Rational prod = a * b;
    ExpectCanonical(prod, "prod");

    // Cross-check the fast paths against the naive textbook formulas fed
    // through the canonicalizing constructor.
    EXPECT_EQ(sum, Rational(a.numerator() * b.denominator() +
                                b.numerator() * a.denominator(),
                            a.denominator() * b.denominator()));
    EXPECT_EQ(prod, Rational(a.numerator() * b.numerator(),
                             a.denominator() * b.denominator()));
    EXPECT_EQ(sum - b, a);
    if (!b.is_zero()) {
      Rational quot = a / b;
      ExpectCanonical(quot, "quot");
      EXPECT_EQ(quot * b, a);
    }

    // Algebraic identities that route through different fast paths.
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a - a, Rational(0));
    Rational doubled = a;
    doubled += doubled;
    EXPECT_EQ(doubled, a * Rational(2));
  }
}

TEST(RationalPropertyTest, EqualAndCoprimeDenominatorFastPaths) {
  // Exercise the special-cased denominators explicitly.
  Rational third = Rational::Ratio(1, 3);
  Rational two_thirds = Rational::Ratio(2, 3);
  EXPECT_EQ(third + two_thirds, Rational(1));  // equal denominators
  ExpectCanonical(third + two_thirds, "equal-denominator sum");
  Rational half = Rational::Ratio(1, 2);
  EXPECT_EQ(half + third, Rational::Ratio(5, 6));  // coprime denominators
  EXPECT_EQ(half + Rational(2), Rational::Ratio(5, 2));  // integer operand
  EXPECT_EQ(Rational(2) + half, Rational::Ratio(5, 2));
  Rational sixth = Rational::Ratio(1, 6);
  EXPECT_EQ(half + sixth, Rational::Ratio(2, 3));  // shared factor
}

TEST(RationalPropertyTest, ZeroDenominatorIsRejectedWithStatus) {
  StatusOr<Rational> bad = Rational::Create(BigInt(3), BigInt(0));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  StatusOr<Rational> good = Rational::Create(BigInt(3), BigInt(-6));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), Rational::Ratio(-1, 2));
  EXPECT_FALSE(Rational::CheckedDiv(Rational(1), Rational(0)).ok());
  StatusOr<Rational> div =
      Rational::CheckedDiv(Rational::Ratio(1, 2), Rational::Ratio(3, 4));
  ASSERT_TRUE(div.ok());
  EXPECT_EQ(div.value(), Rational::Ratio(2, 3));
}

TEST(RationalPropertyTest, PowMatchesRepeatedMultiplication) {
  RandomBigInts gen(777);
  for (int i = 0; i < 200; ++i) {
    BigInt n = gen.Next(40);
    BigInt d = gen.Next(40);
    if (d.is_zero()) d = BigInt(1);
    Rational base(n, d);
    Rational by_mul(1);
    for (int e = 0; e <= 6; ++e) {
      Rational by_pow = base.Pow(e);
      ExpectCanonical(by_pow, "pow");
      EXPECT_EQ(by_pow, by_mul);
      by_mul *= base;
    }
    if (!base.is_zero()) {
      EXPECT_EQ(base.Pow(-3) * base.Pow(3), Rational(1));
    }
  }
}

}  // namespace
}  // namespace math
}  // namespace ipdb
