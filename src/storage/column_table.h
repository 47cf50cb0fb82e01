#ifndef IPDB_STORAGE_COLUMN_TABLE_H_
#define IPDB_STORAGE_COLUMN_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "math/rational.h"
#include "util/check.h"
#include "util/status.h"

namespace ipdb {
namespace storage {

/// A half-open range [begin, end) of positions in a run of rows.
struct RunRange {
  int64_t begin = 0;
  int64_t end = 0;

  bool empty() const { return begin >= end; }
  int64_t size() const { return end - begin; }
};

/// Columnar storage for one relation: each argument position is a flat
/// `std::vector<uint32_t>` of dictionary ids, probabilities are a packed
/// `double` column, and exactness — needed only by the rational PDB
/// instantiations and by callers that demand exact marginals — lives in
/// a sparse side table keyed by row. A sorted permutation over the rows
/// (the "sorted run") provides binary-search point and prefix lookups
/// without disturbing row identity: row r keeps meaning "the r-th fact
/// appended", which is what lineage variables and probability vectors
/// index by.
///
/// Range API: a `RunRange` is a half-open range of positions in the
/// sorted run (position k holds row `sorted_row(k)`). Once the columns
/// before c are fixed over a range, column c ascends within it, so one
/// `Narrow` call cuts the range down to the rows holding a given id in c
/// — a constant filter, an outer binding or one group of a group-by —
/// and the next column is then fixed in turn. Point lookups
/// (`FindRow`) and key prefixes (`PrefixRange`) are narrowings of the
/// whole run. The API is positions and ids only: it adds no bytes per
/// fact.
///
/// Cost per fact: 4·arity bytes of ids + 8 bytes of probability +
/// 4 bytes of sorted-run entry — e.g. 24 bytes for a binary relation,
/// versus the hundreds of bytes and several pointer chases of the
/// object-per-tuple `std::vector<std::pair<rel::Fact, P>>` it replaces.
///
/// Build protocol: `AppendRow` n times (cheap, no ordering work), then
/// one `FinishBuild` (sort + duplicate detection). Afterwards the table
/// is *live*: `Insert`, `EraseRow` and `SetProbability` keep the sorted
/// run coherent. EraseRow renumbers the rows above the erased one —
/// callers that hand out row-based identities (TiStore) bump their
/// structure generation exactly because of this.
class ColumnTable {
 public:
  explicit ColumnTable(int arity);

  int arity() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return static_cast<int64_t>(probs_.size()); }

  /// Pre-sizes all columns for `rows` rows.
  void Reserve(int64_t rows);

  /// Appends one row (ids[0..arity)); no ordering maintenance — call
  /// FinishBuild before the first lookup.
  void AppendRow(const uint32_t* ids, double prob);

  /// Sorts the run and rejects duplicate rows. On a duplicate, fails
  /// with kInvalidArgument and reports one offending row index through
  /// `duplicate_row` (if non-null) so the caller can render the fact.
  Status FinishBuild(int64_t* duplicate_row = nullptr);

  /// The whole sorted run, [0, num_rows()).
  RunRange whole_run() const { return {0, num_rows()}; }

  /// Narrows `range` of the row sequence `rows` (position k holds row
  /// rows[k]) to the positions whose columns [col, col + len) hold the
  /// ids key[0, len). The rows must ascend in those columns over the
  /// range, as the sorted run does once the columns before `col` are
  /// fixed over it. Without a match the result is empty and begins at
  /// the first position past `key`, where a merge resumes. Costs one
  /// probe when the match starts at range.begin, else one binary search,
  /// plus a gallop over the match; rows are distinct, so a narrowing that
  /// fixes every column is one lower bound and an equality check.
  RunRange Narrow(const uint32_t* rows, RunRange range, int col,
                  const uint32_t* key, int len) const;
  /// Narrowing within the table's own sorted run.
  RunRange Narrow(RunRange range, int col, const uint32_t* key,
                  int len) const {
    return Narrow(sorted_.data(), range, col, key, len);
  }

  /// The row holding exactly `ids` (one narrowing of the whole run on
  /// every column); -1 when absent.
  int64_t FindRow(const uint32_t* ids) const;

  /// Rows whose first `prefix_len` columns equal `prefix`, as a range of
  /// the sorted run; enumerate the matching rows as sorted_row(k) for k
  /// in the range.
  RunRange PrefixRange(const uint32_t* prefix, int prefix_len) const {
    return Narrow(whole_run(), 0, prefix, prefix_len);
  }

  /// The row at sorted-run position k.
  uint32_t sorted_row(int64_t k) const {
    return sorted_[static_cast<size_t>(k)];
  }

  /// Inserts a new row at index num_rows(); fails on duplicates.
  StatusOr<int64_t> Insert(const uint32_t* ids, double prob);

  /// Removes a row; every row index above it shifts down by one.
  void EraseRow(int64_t row);

  void SetProbability(int64_t row, double prob);

  /// Installs / clears / reads the exact-rational marginal of a row.
  void SetExact(int64_t row, math::Rational value);
  void ClearExact(int64_t row);
  /// Null when the row has no exact entry (its probability is the packed
  /// double).
  const math::Rational* ExactAt(int64_t row) const;
  int64_t num_exact() const { return static_cast<int64_t>(exact_.size()); }

  uint32_t id(int col, int64_t row) const {
    return columns_[static_cast<size_t>(col)][static_cast<size_t>(row)];
  }
  const std::vector<uint32_t>& column(int col) const {
    return columns_[static_cast<size_t>(col)];
  }
  double prob(int64_t row) const { return probs_[static_cast<size_t>(row)]; }
  const std::vector<double>& probs() const { return probs_; }
  /// The sorted permutation (row indices in lexicographic column order)
  /// and the sparse exact side table (sorted by row) — exposed whole for
  /// serialization, so a snapshot can persist them instead of re-sorting
  /// on restore.
  const std::vector<uint32_t>& sorted_run() const { return sorted_; }
  const std::vector<std::pair<uint32_t, math::Rational>>& exact_entries()
      const {
    return exact_;
  }

  /// Replaces the table's contents wholesale with deserialized state.
  /// Every invariant the build path establishes is re-validated here —
  /// column lengths agree, the sorted run is a strictly-increasing (in
  /// lexicographic row order) permutation, exact entries are sorted by
  /// row and in range — because the input comes from disk and must not
  /// be trusted. Returns kDataLoss on any violation, leaving the table
  /// unchanged.
  Status RestoreRows(std::vector<std::vector<uint32_t>> columns,
                     std::vector<double> probs, std::vector<uint32_t> sorted,
                     std::vector<std::pair<uint32_t, math::Rational>> exact);

  /// Releases over-allocation after a bulk build.
  void ShrinkToFit();

  int64_t ApproxBytes() const;

 private:
  /// Lexicographic row order over the id columns.
  bool RowLess(int64_t a, int64_t b) const;

  std::vector<std::vector<uint32_t>> columns_;
  std::vector<double> probs_;
  /// Row indices in lexicographic column order.
  std::vector<uint32_t> sorted_;
  /// Sparse exact marginals, sorted by row.
  std::vector<std::pair<uint32_t, math::Rational>> exact_;
};

// Inline: the lifted walk narrows once per group it visits.
inline RunRange ColumnTable::Narrow(const uint32_t* rows, RunRange range,
                                    int col, const uint32_t* key,
                                    int len) const {
  IPDB_CHECK_LE(col + len, arity());
  if (range.empty() || len <= 0) return range;
  const auto compare = [this, rows, col, key, len](int64_t k) {
    const size_t row = rows[k];
    for (int j = 0; j < len; ++j) {
      const uint32_t v = columns_[static_cast<size_t>(col + j)][row];
      if (v != key[j]) return v < key[j] ? -1 : 1;
    }
    return 0;
  };
  // Lower bound. A merge that walks a run group by group usually finds
  // its key at the front, so that position is probed alone first.
  int64_t lo = range.begin;
  const int front = compare(lo);
  if (front > 0) return {lo, lo};
  if (front < 0) {
    // Branch-free halving over (begin, end): the probe outcome feeds a
    // conditional move instead of a mispredicted jump, and both possible
    // next probes are prefetched while this one resolves.
    ++lo;
    for (int64_t n = range.end - lo; n > 1;) {
      const int64_t half = n / 2;
      __builtin_prefetch(rows + lo + half / 2 - 1);
      __builtin_prefetch(rows + lo + half + (n - half) / 2 - 1);
      lo = compare(lo + half - 1) < 0 ? lo + half : lo;
      n -= half;
    }
    if (lo < range.end && compare(lo) < 0) ++lo;
    if (lo == range.end || compare(lo) != 0) return {lo, lo};
  }
  // Upper bound: gallop from the match, whose length is small next to
  // the range it is cut from, then search the last step.
  int64_t last = lo;  // a matching position
  int64_t step = 1;
  while (last + step < range.end && compare(last + step) == 0) {
    last += step;
    step *= 2;
  }
  int64_t first_past = last + 1;
  int64_t hi = std::min(last + step, range.end);
  while (first_past < hi) {
    const int64_t mid = first_past + (hi - first_past) / 2;
    if (compare(mid) == 0) {
      first_past = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {lo, first_past};
}

}  // namespace storage
}  // namespace ipdb

#endif  // IPDB_STORAGE_COLUMN_TABLE_H_
