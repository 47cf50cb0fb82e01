#ifndef IPDB_MATH_RATIONAL_H_
#define IPDB_MATH_RATIONAL_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "math/bigint.h"
#include "util/status.h"

namespace ipdb {
namespace math {

/// Arbitrary-precision rational number, always kept in canonical form
/// (gcd(numerator, denominator) == 1, denominator > 0, zero is 0/1).
///
/// Used wherever the paper's statements are exact equalities between
/// probability distributions (Theorem 4.1, Lemma 5.7, the finite
/// completeness theorem): world probabilities are computed and compared
/// with no rounding at all.
///
/// Normalization uses binary GCD with the Henrici fast paths: integer
/// operands and additions over equal or coprime denominators skip the
/// reduction entirely (canonicality is implied), multiplication cross-
/// reduces gcd(n1,d2) and gcd(n2,d1) so the product needs no final GCD.
/// The compound operators (`+=`, `-=`, `*=`, `/=`) accumulate in place.
class Rational {
 public:
  /// Zero.
  Rational() : numerator_(0), denominator_(1) {}

  /// Conversion from an integer (implicit: Rational is a drop-in numeric
  /// type).
  Rational(int64_t value) : numerator_(value), denominator_(1) {}  // NOLINT
  Rational(BigInt value)  // NOLINT
      : numerator_(std::move(value)), denominator_(1) {}

  /// numerator / denominator; denominator must be non-zero (use
  /// `Create` for untrusted input).
  Rational(BigInt numerator, BigInt denominator);

  /// numerator / denominator; rejects a zero denominator with a Status
  /// instead of aborting.
  static StatusOr<Rational> Create(BigInt numerator, BigInt denominator);

  /// Parses "a/b" or "a" with optional signs.
  static StatusOr<Rational> FromString(const std::string& text);

  /// The exact value of an int ratio, e.g. Ratio(1, 3).
  static Rational Ratio(int64_t numerator, int64_t denominator) {
    return Rational(BigInt(numerator), BigInt(denominator));
  }

  /// The exact value of a finite double (every double is a dyadic
  /// rational m·2^e).
  static Rational FromDouble(double value);

  const BigInt& numerator() const { return numerator_; }
  const BigInt& denominator() const { return denominator_; }

  bool is_zero() const { return numerator_.is_zero(); }
  bool is_negative() const { return numerator_.is_negative(); }
  int sign() const { return numerator_.sign(); }

  Rational operator-() const;
  Rational Abs() const;

  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  /// Division; other must be non-zero (use `CheckedDiv` for untrusted
  /// divisors).
  Rational operator/(const Rational& other) const;

  Rational& operator+=(const Rational& other);
  Rational& operator-=(const Rational& other);
  Rational& operator*=(const Rational& other);
  Rational& operator/=(const Rational& other);

  /// Division that rejects a zero divisor with a Status.
  static StatusOr<Rational> CheckedDiv(const Rational& dividend,
                                       const Rational& divisor);

  /// this^exponent; negative exponents require a non-zero value.
  Rational Pow(int64_t exponent) const;

  /// Nearest double approximation.
  double ToDouble() const;

  /// "a/b", or "a" when the denominator is 1.
  std::string ToString() const;

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.numerator_ == b.numerator_ && a.denominator_ == b.denominator_;
  }
  friend bool operator!=(const Rational& a, const Rational& b) {
    return !(a == b);
  }
  friend bool operator<(const Rational& a, const Rational& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const Rational& a, const Rational& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const Rational& a, const Rational& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const Rational& a, const Rational& b) {
    return Compare(a, b) >= 0;
  }

  static int Compare(const Rational& a, const Rational& b);

 private:
  // Tag for constructing from values already known to be canonical
  // (coprime, positive denominator) — skips the GCD.
  struct CanonicalTag {};
  Rational(BigInt numerator, BigInt denominator, CanonicalTag)
      : numerator_(std::move(numerator)),
        denominator_(std::move(denominator)) {}

  // *this = *this ± other with all Henrici fast paths.
  void AddSigned(const Rational& other, bool negate);

  void Canonicalize();

  BigInt numerator_;
  BigInt denominator_;
};

std::ostream& operator<<(std::ostream& os, const Rational& value);

}  // namespace math
}  // namespace ipdb

#endif  // IPDB_MATH_RATIONAL_H_
