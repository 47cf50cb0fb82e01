#include "pdb/ti_pdb.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ipdb {
namespace pdb {

namespace {

/// Backs every default-constructed TiPdb, so store() is never null.
const std::shared_ptr<const storage::TiStore>& EmptyStore() {
  static const std::shared_ptr<const storage::TiStore> empty =
      storage::TiStore::Builder(rel::Schema()).Finish().value();
  return empty;
}

}  // namespace

template <typename P>
TiPdb<P>::TiPdb() : store_(EmptyStore()) {}

template <typename P>
StatusOr<TiPdb<P>> TiPdb<P>::Create(rel::Schema schema, FactList facts) {
  // Validation is the columnar build's: the Builder reports the first
  // schema or range error in list order, and Finish detects duplicates
  // by the per-relation sort instead of a std::set probe per fact.
  storage::TiStore::Builder builder(std::move(schema));
  builder.Reserve(static_cast<int64_t>(facts.size()));
  for (const auto& [fact, marginal] : facts) {
    if constexpr (ProbTraits<P>::kExact) {
      builder.AddExact(fact, marginal);
    } else {
      builder.Add(fact, marginal);
    }
  }
  StatusOr<std::shared_ptr<storage::TiStore>> store = builder.Finish();
  if (!store.ok()) return store.status();
  return TiPdb(std::move(store).value());
}

template <typename P>
TiPdb<P> TiPdb<P>::CreateOrDie(rel::Schema schema, FactList facts) {
  StatusOr<TiPdb> pdb = Create(std::move(schema), std::move(facts));
  IPDB_CHECK(pdb.ok()) << pdb.status().ToString();
  return std::move(pdb).value();
}

template <typename P>
StatusOr<TiPdb<P>> TiPdb<P>::FromStore(
    std::shared_ptr<const storage::TiStore> store) {
  if (store == nullptr) return InvalidArgumentError("null store");
  if constexpr (ProbTraits<P>::kExact) {
    for (rel::RelationId r = 0; r < store->schema().num_relations(); ++r) {
      if (store->table(r).num_exact() != store->table(r).num_rows()) {
        return FailedPreconditionError(
            "exact TiPdb view requires an exact marginal for every stored "
            "fact");
      }
    }
  }
  return TiPdb(std::move(store));
}

template <typename P>
P TiPdb<P>::MarginalAt(const storage::TiStore& store, int64_t i) {
  if constexpr (ProbTraits<P>::kExact) {
    const math::Rational* exact = store.ExactAt(i);
    return exact != nullptr ? *exact
                            : math::Rational::FromDouble(store.ProbAt(i));
  } else {
    return store.ProbAt(i);
  }
}

template <typename P>
P TiPdb<P>::Marginal(const rel::Fact& fact) const {
  const int64_t i = store_->FindFact(fact);
  return i < 0 ? ProbTraits<P>::Zero() : MarginalAt(*store_, i);
}

template <typename P>
P TiPdb<P>::WorldProbability(const rel::Instance& instance) const {
  // Every fact of the instance must be in the fact set.
  std::vector<bool> present(static_cast<size_t>(num_facts()), false);
  for (const rel::Fact& f : instance.facts()) {
    const int64_t i = store_->FindFact(f);
    if (i < 0) return ProbTraits<P>::Zero();
    present[static_cast<size_t>(i)] = true;
  }
  P probability = ProbTraits<P>::One();
  for (int64_t i = 0; i < num_facts(); ++i) {
    if (present[static_cast<size_t>(i)]) {
      probability *= MarginalAt(*store_, i);
    } else {
      probability *= ProbTraits<P>::One() - MarginalAt(*store_, i);
    }
  }
  return probability;
}

template <typename P>
P TiPdb<P>::MarginalSum() const {
  P total = ProbTraits<P>::Zero();
  for (int64_t i = 0; i < num_facts(); ++i) total += MarginalAt(*store_, i);
  return total;
}

template <typename P>
StatusOr<FinitePdb<P>> TiPdb<P>::TryExpand() const {
  // Facts with marginal exactly 1 are present in every world and facts
  // with marginal 0 in none, so only "uncertain" facts drive the 2^n
  // expansion.
  std::vector<rel::Fact> certain;
  std::vector<std::pair<rel::Fact, P>> uncertain;
  for (auto [fact, marginal] : facts()) {
    if (ProbTraits<P>::IsZero(marginal)) continue;
    if (ProbTraits<P>::IsOne(marginal) &&
        ProbTraits<P>::ToDouble(marginal) >= 1.0) {
      certain.push_back(std::move(fact));
    } else {
      uncertain.emplace_back(std::move(fact), std::move(marginal));
    }
  }
  if (uncertain.size() > 20u) {
    return ResourceExhaustedError(
        "TI expansion is 2^n: " + std::to_string(uncertain.size()) +
        " uncertain facts exceed the 20-fact enumeration limit");
  }
  typename FinitePdb<P>::WorldList worlds;
  const uint64_t count = 1ULL << uncertain.size();
  worlds.reserve(count);
  for (uint64_t mask = 0; mask < count; ++mask) {
    std::vector<rel::Fact> chosen = certain;
    P probability = ProbTraits<P>::One();
    for (size_t i = 0; i < uncertain.size(); ++i) {
      if ((mask >> i) & 1) {
        chosen.push_back(uncertain[i].first);
        probability *= uncertain[i].second;
      } else {
        probability =
            probability * (ProbTraits<P>::One() - uncertain[i].second);
      }
    }
    worlds.emplace_back(rel::Instance(std::move(chosen)),
                        std::move(probability));
  }
  return FinitePdb<P>::CreateOrDie(schema(), std::move(worlds));
}

template <typename P>
FinitePdb<P> TiPdb<P>::Expand() const {
  StatusOr<FinitePdb<P>> expanded = TryExpand();
  IPDB_CHECK(expanded.ok()) << expanded.status().ToString();
  return std::move(expanded).value();
}

template <typename P>
rel::Instance TiPdb<P>::Sample(Pcg32* rng) const {
  std::vector<rel::Fact> chosen;
  for (int64_t i = 0; i < num_facts(); ++i) {
    if (rng->NextBernoulli(store_->ProbAt(i))) {
      chosen.push_back(store_->FactAt(i));
    }
  }
  return rel::Instance(std::move(chosen));
}

template <typename P>
std::vector<double> TiPdb<P>::SizeDistribution() const {
  std::vector<double> marginals;
  marginals.reserve(static_cast<size_t>(num_facts()));
  for (int64_t i = 0; i < num_facts(); ++i) {
    marginals.push_back(store_->ProbAt(i));
  }
  return prob::PoissonBinomialPmf(marginals);
}

template <typename P>
double TiPdb<P>::SizeMoment(int k) const {
  return prob::MomentFromPmf(SizeDistribution(), k);
}

template <typename P>
std::string TiPdb<P>::ToString() const {
  std::string out;
  for (const auto& [fact, marginal] : facts()) {
    out += fact.ToString(schema()) + " : " +
           ProbTraits<P>::ToString(marginal) + "\n";
  }
  return out;
}

template class TiPdb<double>;
template class TiPdb<math::Rational>;

StatusOr<CountableTiPdb> CountableTiPdb::Create(Family family) {
  if (!family.fact_at || !family.marginal_at) {
    return InvalidArgumentError(
        "countable TI family needs fact_at and marginal_at");
  }
  return CountableTiPdb(std::move(family));
}

Series CountableTiPdb::MarginalSeries() const {
  Series series;
  series.term = family_.marginal_at;
  series.tail_upper_bound = family_.marginal_tail_upper;
  series.tail_lower_bound = family_.marginal_tail_lower;
  series.description = "marginal sum of " + family_.description;
  return series;
}

SumAnalysis CountableTiPdb::CheckWellDefined(const SumOptions& options) const {
  return AnalyzeSum(MarginalSeries(), options);
}

StatusOr<Interval> CountableTiPdb::SizeMomentInterval(int k,
                                                      int64_t prefix) const {
  if (k < 0) return InvalidArgumentError("moment order must be >= 0");
  if (prefix <= 0) return InvalidArgumentError("prefix must be positive");
  if (!family_.marginal_tail_upper) {
    return FailedPreconditionError(
        "size moments need a marginal tail certificate");
  }
  double tail = family_.marginal_tail_upper(prefix);
  if (!std::isfinite(tail)) {
    return FailedPreconditionError("marginal tail certificate is infinite");
  }
  std::vector<double> marginals;
  marginals.reserve(prefix);
  for (int64_t i = 0; i < prefix; ++i) {
    marginals.push_back(family_.marginal_at(i));
  }
  return prob::PoissonBinomialMomentInterval(marginals, tail, k);
}

StatusOr<rel::Instance> CountableTiPdb::Sample(Pcg32* rng,
                                               double epsilon) const {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    return InvalidArgumentError("epsilon must lie in (0, 1)");
  }
  if (!family_.marginal_tail_upper) {
    return FailedPreconditionError("sampling needs a tail certificate");
  }
  // Find a cutoff with tail mass <= epsilon (P(any fact >= N appears) <=
  // sum of their marginals).
  int64_t cutoff = 1;
  while (family_.marginal_tail_upper(cutoff) > epsilon) {
    cutoff *= 2;
    if (cutoff > (1LL << 30)) {
      return FailedPreconditionError(
          "tail certificate does not reach the requested epsilon");
    }
  }
  std::vector<rel::Fact> chosen;
  for (int64_t i = 0; i < cutoff; ++i) {
    if (rng->NextBernoulli(family_.marginal_at(i))) {
      chosen.push_back(family_.fact_at(i));
    }
  }
  return rel::Instance(std::move(chosen));
}

TiPdb<double> CountableTiPdb::Truncate(int64_t n) const {
  TiPdb<double>::FactList facts;
  facts.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    facts.emplace_back(family_.fact_at(i), family_.marginal_at(i));
  }
  return TiPdb<double>::CreateOrDie(family_.schema, std::move(facts));
}

}  // namespace pdb
}  // namespace ipdb
