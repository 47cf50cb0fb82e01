#include "pdb/information.h"

#include <cmath>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ipdb {
namespace pdb {

namespace {

double Log2(double x) { return std::log(x) / std::log(2.0); }

/// Binary entropy h(p) in bits (h(0) = h(1) = 0).
double BinaryEntropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * Log2(p) - (1.0 - p) * Log2(1.0 - p);
}

}  // namespace

template <typename P>
double ShannonEntropy(const FinitePdb<P>& pdb) {
  double entropy = 0.0;
  for (const auto& [world, probability] : pdb.worlds()) {
    double p = ProbTraits<P>::ToDouble(probability);
    if (p > 0.0) entropy -= p * Log2(p);
  }
  return entropy;
}

template <typename P>
double TiEntropy(const TiPdb<P>& ti) {
  double entropy = 0.0;
  for (int64_t i = 0; i < ti.num_facts(); ++i) {
    entropy += BinaryEntropy(ti.store()->ProbAt(i));
  }
  return entropy;
}

template <typename P>
StatusOr<double> KlDivergence(const FinitePdb<P>& a, const FinitePdb<P>& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("KL divergence across schemas");
  }
  double divergence = 0.0;
  for (const auto& [world, probability] : a.worlds()) {
    double pa = ProbTraits<P>::ToDouble(probability);
    if (pa <= 0.0) continue;
    double pb = ProbTraits<P>::ToDouble(b.Probability(world));
    if (pb <= 0.0) {
      return FailedPreconditionError(
          "KL divergence infinite: support mismatch at " +
          world.ToString(a.schema()));
    }
    divergence += pa * Log2(pa / pb);
  }
  // Clamp tiny negative rounding residue (KL >= 0 mathematically).
  return divergence < 0.0 && divergence > -1e-12 ? 0.0 : divergence;
}

template <typename P>
StatusOr<double> TryHellingerDistance(const FinitePdb<P>& a,
                                      const FinitePdb<P>& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("Hellinger distance across schemas");
  }
  // Bhattacharyya coefficient over the union of supports.
  double coefficient = 0.0;
  for (const auto& [world, probability] : a.worlds()) {
    double pa = ProbTraits<P>::ToDouble(probability);
    double pb = ProbTraits<P>::ToDouble(b.Probability(world));
    coefficient += std::sqrt(pa * pb);
  }
  double inside = 1.0 - coefficient;
  if (inside < 0.0) inside = 0.0;  // rounding
  return std::sqrt(inside);
}

template <typename P>
double HellingerDistance(const FinitePdb<P>& a, const FinitePdb<P>& b) {
  StatusOr<double> distance = TryHellingerDistance(a, b);
  IPDB_CHECK(distance.ok()) << distance.status().ToString();
  return distance.value();
}

template <typename P>
StatusOr<double> IndependenceGap(const FinitePdb<P>& pdb) {
  // The product approximation with matching marginals.
  std::vector<rel::Fact> facts = pdb.FactSet();
  typename TiPdb<double>::FactList marginals;
  marginals.reserve(facts.size());
  for (const rel::Fact& fact : facts) {
    marginals.emplace_back(fact,
                           ProbTraits<P>::ToDouble(pdb.Marginal(fact)));
  }
  StatusOr<TiPdb<double>> product =
      TiPdb<double>::Create(pdb.schema(), std::move(marginals));
  if (!product.ok()) return product.status();

  double divergence = 0.0;
  for (const auto& [world, probability] : pdb.worlds()) {
    double pa = ProbTraits<P>::ToDouble(probability);
    if (pa <= 0.0) continue;
    double pb = product.value().WorldProbability(world);
    if (pb <= 0.0) {
      return FailedPreconditionError(
          "degenerate marginal zeroes a used world: " +
          world.ToString(pdb.schema()));
    }
    divergence += pa * Log2(pa / pb);
  }
  return divergence < 0.0 && divergence > -1e-12 ? 0.0 : divergence;
}

template double ShannonEntropy(const FinitePdb<double>&);
template double ShannonEntropy(const FinitePdb<math::Rational>&);
template double TiEntropy(const TiPdb<double>&);
template double TiEntropy(const TiPdb<math::Rational>&);
template StatusOr<double> KlDivergence(const FinitePdb<double>&,
                                       const FinitePdb<double>&);
template StatusOr<double> KlDivergence(const FinitePdb<math::Rational>&,
                                       const FinitePdb<math::Rational>&);
template StatusOr<double> TryHellingerDistance(const FinitePdb<double>&,
                                               const FinitePdb<double>&);
template StatusOr<double> TryHellingerDistance(
    const FinitePdb<math::Rational>&, const FinitePdb<math::Rational>&);
template double HellingerDistance(const FinitePdb<double>&,
                                  const FinitePdb<double>&);
template double HellingerDistance(const FinitePdb<math::Rational>&,
                                  const FinitePdb<math::Rational>&);
template StatusOr<double> IndependenceGap(const FinitePdb<double>&);
template StatusOr<double> IndependenceGap(const FinitePdb<math::Rational>&);

}  // namespace pdb
}  // namespace ipdb
