#include "pdb/combinators.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "util/check.h"

namespace ipdb {
namespace pdb {

namespace {

/// Checks that the (positive-marginal) fact sets of the operands are
/// disjoint; returns a description of an offending fact otherwise.
template <typename P>
Status CheckDisjointFactSets(const std::vector<rel::Fact>& a,
                             const std::vector<rel::Fact>& b,
                             const rel::Schema& schema) {
  std::set<rel::Fact> seen(a.begin(), a.end());
  for (const rel::Fact& f : b) {
    if (seen.count(f) != 0) {
      return InvalidArgumentError("fact sets overlap on " +
                                  f.ToString(schema));
    }
  }
  return Status::Ok();
}

}  // namespace

template <typename P>
StatusOr<FinitePdb<P>> IndependentProduct(const FinitePdb<P>& a,
                                          const FinitePdb<P>& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("product requires a common schema");
  }
  Status disjoint = CheckDisjointFactSets<P>(a.FactSet(), b.FactSet(),
                                             a.schema());
  if (!disjoint.ok()) return disjoint;
  typename FinitePdb<P>::WorldList worlds;
  worlds.reserve(a.worlds().size() * b.worlds().size());
  for (const auto& [wa, pa] : a.worlds()) {
    for (const auto& [wb, pb] : b.worlds()) {
      worlds.emplace_back(rel::Instance::Union(wa, wb), pa * pb);
    }
  }
  return FinitePdb<P>::Create(a.schema(), std::move(worlds));
}

template <typename P>
StatusOr<TiPdb<P>> TiUnion(const TiPdb<P>& a, const TiPdb<P>& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("union requires a common schema");
  }
  typename TiPdb<P>::FactList facts;
  std::ranges::copy(a.facts(), std::back_inserter(facts));
  std::ranges::copy(b.facts(), std::back_inserter(facts));
  return TiPdb<P>::Create(a.schema(), std::move(facts));
}

template <typename P>
StatusOr<BidPdb<P>> BidUnion(const BidPdb<P>& a, const BidPdb<P>& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("union requires a common schema");
  }
  std::vector<typename BidPdb<P>::Block> blocks = a.blocks();
  for (const auto& block : b.blocks()) blocks.push_back(block);
  return BidPdb<P>::Create(a.schema(), std::move(blocks));
}

template <typename P>
StatusOr<FinitePdb<P>> Mixture(const FinitePdb<P>& a, const FinitePdb<P>& b,
                               const P& lambda) {
  using Traits = ProbTraits<P>;
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("mixture requires a common schema");
  }
  if (!Traits::IsNonNegative(lambda) || Traits::ToDouble(lambda) > 1.0) {
    return InvalidArgumentError("lambda must lie in [0, 1]");
  }
  typename FinitePdb<P>::WorldList worlds;
  for (const auto& [world, probability] : a.worlds()) {
    worlds.emplace_back(world, lambda * probability);
  }
  P complement = Traits::One() - lambda;
  for (const auto& [world, probability] : b.worlds()) {
    worlds.emplace_back(world, complement * probability);
  }
  return FinitePdb<P>::Create(a.schema(), std::move(worlds));
}

template StatusOr<FinitePdb<double>> IndependentProduct(
    const FinitePdb<double>&, const FinitePdb<double>&);
template StatusOr<FinitePdb<math::Rational>> IndependentProduct(
    const FinitePdb<math::Rational>&, const FinitePdb<math::Rational>&);
template StatusOr<TiPdb<double>> TiUnion(const TiPdb<double>&,
                                         const TiPdb<double>&);
template StatusOr<TiPdb<math::Rational>> TiUnion(
    const TiPdb<math::Rational>&, const TiPdb<math::Rational>&);
template StatusOr<BidPdb<double>> BidUnion(const BidPdb<double>&,
                                           const BidPdb<double>&);
template StatusOr<BidPdb<math::Rational>> BidUnion(
    const BidPdb<math::Rational>&, const BidPdb<math::Rational>&);
template StatusOr<FinitePdb<double>> Mixture(const FinitePdb<double>&,
                                             const FinitePdb<double>&,
                                             const double&);
template StatusOr<FinitePdb<math::Rational>> Mixture(
    const FinitePdb<math::Rational>&, const FinitePdb<math::Rational>&,
    const math::Rational&);

}  // namespace pdb
}  // namespace ipdb
