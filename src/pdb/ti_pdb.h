#ifndef IPDB_PDB_TI_PDB_H_
#define IPDB_PDB_TI_PDB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include "math/rational.h"
#include "pdb/finite_pdb.h"
#include "pdb/prob_traits.h"
#include "prob/poisson_binomial.h"
#include "relational/fact.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "storage/ti_store.h"
#include "util/interval.h"
#include "util/random.h"
#include "util/series.h"
#include "util/status.h"

namespace ipdb {
namespace pdb {

/// A tuple-independent PDB with a *finite* fact set (Definition 2.3): the
/// facts' memberships are independent events with the given marginal
/// probabilities. Represented by the marginals alone; the induced sample
/// space is the power set of the fact set.
///
/// Storage: a TiPdb is a typed view over a shared columnar
/// storage::TiStore and holds no per-fact state of its own. Fact i of the
/// view is global fact i of the store (insertion order across
/// relations), so sampling streams and double accumulation orders follow
/// the order the facts were added. The view reflects its store: a
/// mutation made through another handle to the store (Insert, Erase,
/// UpdateProbability) is seen by every TiPdb that wraps it.
template <typename P>
class TiPdb {
 public:
  using FactList = std::vector<std::pair<rel::Fact, P>>;

  /// The empty TI-PDB over the empty schema.
  TiPdb();

  /// Validates: facts distinct and matching the schema, marginals in
  /// [0, 1].
  static StatusOr<TiPdb> Create(rel::Schema schema, FactList facts);
  static TiPdb CreateOrDie(rel::Schema schema, FactList facts);

  /// Wraps an existing columnar store (e.g. one that went through live
  /// mutators) in O(1). For P = math::Rational every fact must carry an
  /// exact side-table entry (kFailedPrecondition otherwise).
  static StatusOr<TiPdb> FromStore(
      std::shared_ptr<const storage::TiStore> store);

  const rel::Schema& schema() const { return store_->schema(); }
  int64_t num_facts() const { return store_->num_facts(); }

  /// Read-only view of the facts in global order: element i is
  /// materialized from the store's columns as a (fact, marginal) pair
  /// only when it is read. The view shares ownership of the store, so it
  /// may outlive this TiPdb; it spans the facts the store held when it
  /// was taken.
  auto facts() const {
    return std::views::iota(int64_t{0}, num_facts()) |
           std::views::transform([store = store_](int64_t i) {
             return std::pair<rel::Fact, P>(store->FactAt(i),
                                            MarginalAt(*store, i));
           });
  }

  /// The columnar backing store, never null. Hot consumers (grounding,
  /// the lifted engine, benches) scan its columns directly.
  const std::shared_ptr<const storage::TiStore>& store() const {
    return store_;
  }

  /// Marginal of a fact (zero for facts outside the fact set).
  P Marginal(const rel::Fact& fact) const;

  /// Exact probability of a world: Π_{t∈D} p_t Π_{t∉D} (1−p_t);
  /// zero if D contains a fact outside the fact set.
  P WorldProbability(const rel::Instance& instance) const;

  /// Sum of marginals (always finite here; the object of Theorem 2.4).
  P MarginalSum() const;

  /// Enumerates all 2^n worlds as an explicit finite PDB. Returns
  /// kResourceExhausted when more than 20 facts have marginals strictly
  /// between 0 and 1 (the expansion would exceed 2^20 worlds) — a data-
  /// dependent limit, so it is a recoverable Status, not a crash.
  StatusOr<FinitePdb<P>> TryExpand() const;

  /// TryExpand() or die — for callers (tests, fixtures) whose fact sets
  /// are small by construction.
  FinitePdb<P> Expand() const;

  /// Independent coin flips (uses double approximations of marginals).
  rel::Instance Sample(Pcg32* rng) const;

  /// Distribution of the instance size |D| (Poisson binomial), as
  /// doubles.
  std::vector<double> SizeDistribution() const;

  /// E[|D|^k] (exact DP in doubles).
  double SizeMoment(int k) const;

  std::string ToString() const;

 private:
  explicit TiPdb(std::shared_ptr<const storage::TiStore> store)
      : store_(std::move(store)) {}

  /// Marginal of global fact i. For P = math::Rational a fact whose exact
  /// entry a later double-valued mutation cleared reads as the exact
  /// value of its stored double.
  static P MarginalAt(const storage::TiStore& store, int64_t i);

  std::shared_ptr<const storage::TiStore> store_;
};

using TiPdbD = TiPdb<double>;
using TiPdbQ = TiPdb<math::Rational>;

/// A *countably infinite* tuple-independent PDB, presented as an
/// enumerated fact family with certified marginal tails. This is the
/// paper's central infinite object (Theorem 2.4): the family is a
/// well-defined TI-PDB iff the marginal series converges.
class CountableTiPdb {
 public:
  struct Family {
    rel::Schema schema;
    /// fact_at(i) for i >= 0; facts must be pairwise distinct.
    std::function<rel::Fact(int64_t)> fact_at;
    /// marginal_at(i) in [0, 1].
    std::function<double(int64_t)> marginal_at;
    /// Certified upper bound on sum_{i >= N} marginal_at(i); may be null
    /// (then only witness-level statements are possible).
    std::function<double(int64_t)> marginal_tail_upper;
    /// Optional certified lower bound on the marginal tail (+inf certifies
    /// that the family is NOT a TI-PDB).
    std::function<double(int64_t)> marginal_tail_lower;
    std::string description;
  };

  static StatusOr<CountableTiPdb> Create(Family family);

  const rel::Schema& schema() const { return family_.schema; }
  const std::string& description() const { return family_.description; }
  rel::Fact FactAt(int64_t i) const { return family_.fact_at(i); }
  double MarginalAt(int64_t i) const { return family_.marginal_at(i); }

  /// The marginal sum series (Theorem 2.4 condition) with its
  /// certificates.
  Series MarginalSeries() const;

  /// Analyzes Theorem 2.4's condition: converged means the family spans a
  /// well-defined TI-PDB.
  SumAnalysis CheckWellDefined(const SumOptions& options = {}) const;

  /// Certified enclosure of E[|D|^k]: prefix Poisson-binomial DP plus the
  /// Lemma C.1 tail bound (Proposition 3.2 made quantitative). Requires a
  /// marginal tail certificate; `prefix` facts are used.
  StatusOr<Interval> SizeMomentInterval(int k, int64_t prefix = 4096) const;

  /// Samples a world: with probability >= 1 - epsilon the result is exact
  /// (no fact beyond the cutoff N with tail(N) <= epsilon would have
  /// appeared). Requires a tail certificate.
  StatusOr<rel::Instance> Sample(Pcg32* rng, double epsilon = 1e-9) const;

  /// The finite TI-PDB on the first `n` facts.
  TiPdb<double> Truncate(int64_t n) const;

 private:
  explicit CountableTiPdb(Family family) : family_(std::move(family)) {}

  Family family_;
};

}  // namespace pdb
}  // namespace ipdb

#endif  // IPDB_PDB_TI_PDB_H_
