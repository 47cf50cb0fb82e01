#include "math/rational.h"

#include <cmath>
#include <ostream>
#include <utility>

#include "util/check.h"

namespace ipdb {
namespace math {

Rational::Rational(BigInt numerator, BigInt denominator)
    : numerator_(std::move(numerator)), denominator_(std::move(denominator)) {
  IPDB_CHECK(!denominator_.is_zero()) << "rational with zero denominator";
  Canonicalize();
}

StatusOr<Rational> Rational::Create(BigInt numerator, BigInt denominator) {
  if (denominator.is_zero()) {
    return InvalidArgumentError("rational with zero denominator: " +
                                numerator.ToString() + "/0");
  }
  return Rational(std::move(numerator), std::move(denominator));
}

void Rational::Canonicalize() {
  if (denominator_.is_negative()) {
    numerator_ = -numerator_;
    denominator_ = -denominator_;
  }
  if (numerator_.is_zero()) {
    denominator_ = BigInt(1);
    return;
  }
  if (denominator_.is_one()) return;
  BigInt gcd = BigInt::Gcd(numerator_, denominator_);
  if (!gcd.is_one()) {
    numerator_ /= gcd;
    denominator_ /= gcd;
  }
}

StatusOr<Rational> Rational::FromString(const std::string& text) {
  size_t slash = text.find('/');
  if (slash == std::string::npos) {
    StatusOr<BigInt> value = BigInt::FromString(text);
    if (!value.ok()) return value.status();
    return Rational(std::move(value).value());
  }
  StatusOr<BigInt> numerator = BigInt::FromString(text.substr(0, slash));
  if (!numerator.ok()) return numerator.status();
  StatusOr<BigInt> denominator = BigInt::FromString(text.substr(slash + 1));
  if (!denominator.ok()) return denominator.status();
  if (denominator.value().is_zero()) {
    return InvalidArgumentError("zero denominator in rational: '" + text +
                                "'");
  }
  return Create(std::move(numerator).value(),
                std::move(denominator).value());
}

Rational Rational::operator-() const {
  Rational result = *this;
  result.numerator_ = -result.numerator_;
  return result;
}

Rational Rational::Abs() const {
  Rational result = *this;
  result.numerator_ = result.numerator_.Abs();
  return result;
}

void Rational::AddSigned(const Rational& other, bool negate) {
  if (&other == this) {
    Rational copy = other;
    AddSigned(copy, negate);
    return;
  }
  const BigInt& on = other.numerator_;
  const BigInt& od = other.denominator_;
  const bool d1_one = denominator_.is_one();
  const bool d2_one = od.is_one();
  if (d2_one) {
    if (d1_one) {
      // Integer ± integer.
      if (negate) numerator_ -= on; else numerator_ += on;
      return;
    }
    // a/d ± c = (a ± c·d)/d; gcd(a ± c·d, d) = gcd(a, d) = 1.
    BigInt t = on * denominator_;
    if (negate) numerator_ -= t; else numerator_ += t;
    return;
  }
  if (d1_one) {
    // a ± n/d = (a·d ± n)/d; gcd(a·d ± n, d) = gcd(n, d) = 1.
    numerator_ *= od;
    if (negate) numerator_ -= on; else numerator_ += on;
    denominator_ = od;
    return;
  }
  if (denominator_ == od) {
    // Equal denominators: only the (small) numerator sum can share a
    // factor with d.
    if (negate) numerator_ -= on; else numerator_ += on;
    if (numerator_.is_zero()) {
      denominator_ = BigInt(1);
      return;
    }
    BigInt gcd = BigInt::Gcd(numerator_, denominator_);
    if (!gcd.is_one()) {
      numerator_ /= gcd;
      denominator_ /= gcd;
    }
    return;
  }
  BigInt g = BigInt::Gcd(denominator_, od);
  if (g.is_one()) {
    // Coprime denominators: the result is canonical by construction —
    // any prime of d1·d2 divides exactly one of the cross terms.
    numerator_ *= od;
    BigInt t = on * denominator_;
    if (negate) numerator_ -= t; else numerator_ += t;
    denominator_ *= od;
    return;
  }
  // General Henrici addition: reduce through g = gcd(d1, d2); only
  // gcd(t, g) can still cancel.
  BigInt d1g = denominator_ / g;
  BigInt d2g = od / g;
  BigInt t = numerator_ * d2g;
  BigInt u = on * d1g;
  if (negate) t -= u; else t += u;
  if (t.is_zero()) {
    numerator_ = BigInt(0);
    denominator_ = BigInt(1);
    return;
  }
  BigInt g2 = BigInt::Gcd(t, g);
  if (g2.is_one()) {
    numerator_ = std::move(t);
    denominator_ = d1g * od;  // (d1/g)·d2
  } else {
    numerator_ = t / g2;
    denominator_ = d1g * (od / g2);  // (d1/g)·(d2/g2)
  }
}

Rational& Rational::operator+=(const Rational& other) {
  AddSigned(other, /*negate=*/false);
  return *this;
}

Rational& Rational::operator-=(const Rational& other) {
  AddSigned(other, /*negate=*/true);
  return *this;
}

Rational& Rational::operator*=(const Rational& other) {
  if (is_zero() || other.is_zero()) {
    numerator_ = BigInt(0);
    denominator_ = BigInt(1);
    return *this;
  }
  if (denominator_.is_one() && other.denominator_.is_one()) {
    numerator_ *= other.numerator_;
    return *this;
  }
  // Cross-reduction: divide out gcd(n1, d2) and gcd(n2, d1) up front;
  // the remaining product is coprime, so no final GCD is needed.
  BigInt on = other.numerator_;
  BigInt od = other.denominator_;
  BigInt g1 = BigInt::Gcd(numerator_, od);
  if (!g1.is_one()) {
    numerator_ /= g1;
    od /= g1;
  }
  BigInt g2 = BigInt::Gcd(on, denominator_);
  if (!g2.is_one()) {
    on /= g2;
    denominator_ /= g2;
  }
  numerator_ *= on;
  denominator_ *= od;
  return *this;
}

Rational& Rational::operator/=(const Rational& other) {
  IPDB_CHECK(!other.is_zero()) << "rational division by zero";
  if (&other == this) {
    numerator_ = BigInt(1);
    denominator_ = BigInt(1);
    return *this;
  }
  if (is_zero()) return *this;
  // a/b ÷ c/d = (a·d)/(b·c), cross-reduced like multiplication.
  BigInt on = other.numerator_;
  BigInt od = other.denominator_;
  BigInt g1 = BigInt::Gcd(numerator_, on);
  if (!g1.is_one()) {
    numerator_ /= g1;
    on /= g1;
  }
  BigInt g2 = BigInt::Gcd(od, denominator_);
  if (!g2.is_one()) {
    od /= g2;
    denominator_ /= g2;
  }
  numerator_ *= od;
  denominator_ *= on;
  if (denominator_.is_negative()) {
    numerator_ = -numerator_;
    denominator_ = -denominator_;
  }
  return *this;
}

Rational Rational::operator+(const Rational& other) const {
  Rational result = *this;
  result += other;
  return result;
}

Rational Rational::operator-(const Rational& other) const {
  Rational result = *this;
  result -= other;
  return result;
}

Rational Rational::operator*(const Rational& other) const {
  Rational result = *this;
  result *= other;
  return result;
}

Rational Rational::operator/(const Rational& other) const {
  Rational result = *this;
  result /= other;
  return result;
}

StatusOr<Rational> Rational::CheckedDiv(const Rational& dividend,
                                        const Rational& divisor) {
  if (divisor.is_zero()) {
    return InvalidArgumentError("rational division by zero: " +
                                dividend.ToString() + " / 0");
  }
  Rational result = dividend;
  result /= divisor;
  return result;
}

Rational Rational::Pow(int64_t exponent) const {
  // gcd(n, d) = 1 implies gcd(n^e, d^e) = 1: both results are canonical
  // without re-reduction.
  if (exponent >= 0) {
    uint64_t e = static_cast<uint64_t>(exponent);
    return Rational(numerator_.Pow(e), denominator_.Pow(e), CanonicalTag());
  }
  IPDB_CHECK(!is_zero()) << "0 to a negative power";
  uint64_t e = static_cast<uint64_t>(-exponent);
  BigInt n = denominator_.Pow(e);
  BigInt d = numerator_.Pow(e);
  if (d.is_negative()) {
    n = -n;
    d = -d;
  }
  return Rational(std::move(n), std::move(d), CanonicalTag());
}

Rational Rational::FromDouble(double value) {
  IPDB_CHECK(std::isfinite(value)) << "FromDouble needs a finite double";
  // value = mantissa · 2^exponent with |mantissa| in [0.5, 1), so
  // mantissa · 2^53 is an integer.
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);
  return Rational(static_cast<int64_t>(std::ldexp(mantissa, 53))) *
         Rational(2).Pow(exponent - 53);
}

double Rational::ToDouble() const {
  if (numerator_.is_inline() && denominator_.is_inline()) {
    return static_cast<double>(numerator_.inline_value()) /
           static_cast<double>(denominator_.inline_value());
  }
  // Shift so that the quotient carries ~64 bits of precision even when the
  // plain numerator/denominator doubles would overflow or lose precision.
  size_t num_bits = numerator_.BitLength();
  size_t den_bits = denominator_.BitLength();
  if (num_bits <= 500 && den_bits <= 500) {
    return numerator_.ToDouble() / denominator_.ToDouble();
  }
  int64_t shift = static_cast<int64_t>(den_bits) - static_cast<int64_t>(num_bits) + 64;
  BigInt scaled = shift >= 0
                      ? numerator_ * BigInt::TwoToThe(static_cast<uint64_t>(shift))
                      : numerator_ / BigInt::TwoToThe(static_cast<uint64_t>(-shift));
  double quotient = (scaled / denominator_).ToDouble();
  return quotient * std::pow(2.0, static_cast<double>(-shift));
}

std::string Rational::ToString() const {
  if (denominator_.is_one()) return numerator_.ToString();
  return numerator_.ToString() + "/" + denominator_.ToString();
}

int Rational::Compare(const Rational& a, const Rational& b) {
  int a_sign = a.sign();
  int b_sign = b.sign();
  if (a_sign != b_sign) return a_sign < b_sign ? -1 : 1;
  if (a.denominator_ == b.denominator_) {
    return BigInt::Compare(a.numerator_, b.numerator_);
  }
  if (a.numerator_.is_inline() && a.denominator_.is_inline() &&
      b.numerator_.is_inline() && b.denominator_.is_inline()) {
    // Cross products of int64 values fit in 128 bits.
    __int128 lhs = static_cast<__int128>(a.numerator_.inline_value()) *
                   b.denominator_.inline_value();
    __int128 rhs = static_cast<__int128>(b.numerator_.inline_value()) *
                   a.denominator_.inline_value();
    if (lhs != rhs) return lhs < rhs ? -1 : 1;
    return 0;
  }
  return BigInt::Compare(a.numerator_ * b.denominator_,
                         b.numerator_ * a.denominator_);
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.ToString();
}

}  // namespace math
}  // namespace ipdb
