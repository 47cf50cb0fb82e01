#ifndef IPDB_STORAGE_TI_STORE_H_
#define IPDB_STORAGE_TI_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "math/rational.h"
#include "relational/fact.h"
#include "relational/schema.h"
#include "storage/column_table.h"
#include "storage/dictionary.h"
#include "util/status.h"

namespace ipdb {
namespace durability {
class SnapshotCodec;  // storage/../durability: snapshot (de)serialization
}  // namespace durability
namespace storage {

/// The columnar, dictionary-encoded representation of a finite
/// tuple-independent instance: one shared `Dictionary` interning every
/// argument value, one `ColumnTable` per relation, and a global fact
/// numbering (insertion order across relations) that lineage variables
/// and probability vectors index by — fact i lives at table
/// `fact_rel(i)`, row `fact_row(i)`.
///
/// Two generation counters expose mutation to dependents:
///
///  * `structure_generation()` bumps on Insert/Erase — the *fact set*
///    changed and global indices above an erased fact shifted down, so
///    a lineage grounded against this store may be stale and dependents
///    ground again. Compiled circuits need no eviction: the artifact
///    cache keys each one on its lineage over fact indices, so a
///    renumbered lineage gets a new key.
///  * `probability_generation()` bumps on UpdateProbability — the fact
///    set (hence every lineage) is unchanged, so compiled circuits stay
///    valid and dependents only re-evaluate them on the current
///    marginals. This asymmetry is what makes incremental re-query an
///    order of magnitude cheaper than a cold recompile.
///
/// Thread model: concurrent readers are safe against each other; the
/// mutators are single-writer and must not race readers.
class TiStore {
 public:
  /// Accumulates facts and produces a validated store. Validation
  /// matches pdb::TiPdb::Create: facts must match the schema, marginals
  /// lie in [0, 1] (a 1e-12 tolerance above 1 is forgiven and clamped),
  /// and facts are pairwise distinct — duplicates are detected by the
  /// per-relation sort in Finish, not by a per-fact hash probe.
  class Builder {
   public:
    explicit Builder(rel::Schema schema);

    /// Pre-sizes the global index for `n` facts.
    void Reserve(int64_t n);

    /// Appends a fact with a double marginal. Errors (schema mismatch,
    /// out-of-range marginal) are recorded and reported by Finish, so
    /// bulk loads don't pay a Status check per fact.
    void Add(const rel::Fact& fact, double prob);

    /// Appends a fact with an exact marginal: the packed double column
    /// receives the approximation, the exact value goes to the side
    /// table.
    void AddExact(const rel::Fact& fact, const math::Rational& prob);

    /// Validates and freezes the store.
    StatusOr<std::shared_ptr<TiStore>> Finish();

   private:
    std::shared_ptr<TiStore> store_;
    Status deferred_error_;
    std::vector<uint32_t> scratch_ids_;
  };

  const rel::Schema& schema() const { return schema_; }
  const Dictionary& dictionary() const { return dict_; }
  int64_t num_facts() const { return static_cast<int64_t>(fact_loc_.size()); }

  const ColumnTable& table(rel::RelationId relation) const {
    return tables_[static_cast<size_t>(relation)];
  }

  rel::RelationId fact_rel(int64_t i) const {
    return fact_loc_[static_cast<size_t>(i)].first;
  }
  int64_t fact_row(int64_t i) const {
    return static_cast<int64_t>(fact_loc_[static_cast<size_t>(i)].second);
  }
  /// The global index of row `row` of `relation`'s table.
  int64_t global_index(rel::RelationId relation, int64_t row) const {
    return row_global_[static_cast<size_t>(relation)][static_cast<size_t>(row)];
  }

  /// Materializes fact i (allocates a rel::Fact — what an element read
  /// of pdb::TiPdb::facts() costs, not a scan primitive).
  rel::Fact FactAt(int64_t i) const;
  double ProbAt(int64_t i) const;
  /// Exact marginal of fact i, or null when only the double is stored.
  const math::Rational* ExactAt(int64_t i) const;

  /// Global index of a fact, or -1. O(arity · log n): dictionary probes
  /// plus one binary search.
  int64_t FindFact(const rel::Fact& fact) const;
  /// Marginal of a fact (0 for facts outside the store).
  double Marginal(const rel::Fact& fact) const;

  /// Every distinct argument value in the store, in rel::Value order —
  /// the active domain (the grounder iterates the same set as dictionary
  /// ids and never materializes it).
  std::vector<rel::Value> SortedDomain() const;

  // --- Live mutators (single-writer) -------------------------------

  /// Adds a fact at global index num_facts(). Structural: bumps the
  /// structure generation.
  StatusOr<int64_t> Insert(const rel::Fact& fact, double prob);

  /// Removes a fact; global indices above it shift down by one. Costs a
  /// lookup plus the moves of the index arrays' tails and one pass over
  /// the relation's sorted run: O(log n) searches, the rest linear but
  /// branch-free. Structural: bumps the structure generation.
  Status Erase(const rel::Fact& fact);

  /// Replaces a fact's marginal (clearing any exact entry). Bumps only
  /// the probability generation — lineages and compiled circuits remain
  /// valid.
  Status UpdateProbability(const rel::Fact& fact, double prob);
  /// Exact variant: stores the double approximation plus the exact
  /// side-table entry.
  Status UpdateProbabilityExact(const rel::Fact& fact,
                                const math::Rational& prob);

  uint64_t structure_generation() const {
    return structure_generation_.load(std::memory_order_acquire);
  }
  uint64_t probability_generation() const {
    return probability_generation_.load(std::memory_order_acquire);
  }

  /// Estimated heap footprint: dictionary + tables + global index. The
  /// ≤48 bytes/fact budget of the 10M-fact target is measured on this.
  int64_t ApproxBytes() const;

 private:
  friend class Builder;
  /// The snapshot codec rebuilds a store directly from deserialized
  /// columns (same global numbering, hence bit-identical lineage
  /// fingerprints) without re-running the Builder validation path.
  friend class ::ipdb::durability::SnapshotCodec;

  TiStore() = default;

  /// Interns `fact`'s args into scratch; returns false on arity mismatch.
  bool InternArgs(const rel::Fact& fact, std::vector<uint32_t>* ids);
  /// Read-only variant: resolves args into ids[0, arity) without
  /// interning; false when any value is unknown to the dictionary (the
  /// fact cannot be stored).
  bool ResolveArgs(const rel::Fact& fact, uint32_t* ids) const;

  rel::Schema schema_;
  Dictionary dict_;
  std::vector<ColumnTable> tables_;  // indexed by RelationId
  /// Global fact index -> (relation, row).
  std::vector<std::pair<rel::RelationId, uint32_t>> fact_loc_;
  /// Per relation: row -> global fact index, ascending (rows and global
  /// indices both follow insertion order; Erase relies on it).
  std::vector<std::vector<int64_t>> row_global_;

  std::atomic<uint64_t> structure_generation_{0};
  std::atomic<uint64_t> probability_generation_{0};
};

}  // namespace storage
}  // namespace ipdb

#endif  // IPDB_STORAGE_TI_STORE_H_
