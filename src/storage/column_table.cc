#include "storage/column_table.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace ipdb {
namespace storage {

namespace {

/// Rows are addressed by uint32_t inside the sorted run; the last value
/// is reserved as a sentinel-free ceiling.
constexpr int64_t kMaxRows = 0xfffffffell;

}  // namespace

ColumnTable::ColumnTable(int arity) {
  IPDB_CHECK_GE(arity, 0);
  columns_.resize(static_cast<size_t>(arity));
}

void ColumnTable::Reserve(int64_t rows) {
  IPDB_CHECK_GE(rows, 0);
  for (auto& column : columns_) column.reserve(static_cast<size_t>(rows));
  probs_.reserve(static_cast<size_t>(rows));
  sorted_.reserve(static_cast<size_t>(rows));
}

void ColumnTable::AppendRow(const uint32_t* ids, double prob) {
  IPDB_CHECK_LT(num_rows(), kMaxRows) << "column table overflow";
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].push_back(ids[c]);
  probs_.push_back(prob);
}

bool ColumnTable::RowLess(int64_t a, int64_t b) const {
  for (const auto& column : columns_) {
    const uint32_t va = column[static_cast<size_t>(a)];
    const uint32_t vb = column[static_cast<size_t>(b)];
    if (va != vb) return va < vb;
  }
  return false;
}

Status ColumnTable::FinishBuild(int64_t* duplicate_row) {
  sorted_.resize(static_cast<size_t>(num_rows()));
  std::iota(sorted_.begin(), sorted_.end(), 0u);
  std::sort(sorted_.begin(), sorted_.end(), [this](uint32_t a, uint32_t b) {
    if (RowLess(a, b)) return true;
    if (RowLess(b, a)) return false;
    // Stable tie-break by row index so rebuilds are deterministic.
    return a < b;
  });
  for (size_t k = 1; k < sorted_.size(); ++k) {
    const int64_t prev = sorted_[k - 1];
    const int64_t cur = sorted_[k];
    if (!RowLess(prev, cur) && !RowLess(cur, prev)) {
      if (duplicate_row != nullptr) *duplicate_row = cur;
      return IPDB_STATUS(StatusCode::kInvalidArgument)
             << "duplicate fact at rows " << prev << " and " << cur;
    }
  }
  return Status::Ok();
}

int64_t ColumnTable::FindRow(const uint32_t* ids) const {
  const RunRange match = PrefixRange(ids, arity());
  if (match.empty()) return -1;
  return static_cast<int64_t>(sorted_row(match.begin));
}

StatusOr<int64_t> ColumnTable::Insert(const uint32_t* ids, double prob) {
  const RunRange match = PrefixRange(ids, arity());
  if (!match.empty()) {
    return IPDB_STATUS(StatusCode::kInvalidArgument)
           << "insert of duplicate fact";
  }
  IPDB_CHECK_LT(num_rows(), kMaxRows) << "column table overflow";
  const int64_t row = num_rows();
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].push_back(ids[c]);
  probs_.push_back(prob);
  // Splice the new row into the sorted run at its lower bound, where the
  // empty match begins.
  sorted_.insert(sorted_.begin() + static_cast<ptrdiff_t>(match.begin),
                 static_cast<uint32_t>(row));
  return row;
}

void ColumnTable::EraseRow(int64_t row) {
  IPDB_CHECK_GE(row, 0);
  IPDB_CHECK_LT(row, num_rows());
  const uint32_t erased = static_cast<uint32_t>(row);
  // The row's run entry: rows are distinct, so narrowing on its full key
  // is one lower bound.
  std::vector<uint32_t> key(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) key[c] = columns_[c][erased];
  const RunRange match = PrefixRange(key.data(), arity());
  IPDB_CHECK(!match.empty() && sorted_row(match.begin) == erased);
  sorted_.erase(sorted_.begin() + static_cast<ptrdiff_t>(match.begin));
  // Every row index above it shifts down (a branch-free pass).
  for (uint32_t& entry : sorted_) entry -= entry > erased ? 1 : 0;
  for (auto& column : columns_) {
    column.erase(column.begin() + static_cast<ptrdiff_t>(row));
  }
  probs_.erase(probs_.begin() + static_cast<ptrdiff_t>(row));
  // The exact side table is sorted by row: drop the row's entry and
  // renumber the ones after it.
  auto pos = std::lower_bound(
      exact_.begin(), exact_.end(), erased,
      [](const auto& entry, uint32_t k) { return entry.first < k; });
  if (pos != exact_.end() && pos->first == erased) pos = exact_.erase(pos);
  for (; pos != exact_.end(); ++pos) --pos->first;
}

void ColumnTable::SetProbability(int64_t row, double prob) {
  IPDB_CHECK_GE(row, 0);
  IPDB_CHECK_LT(row, num_rows());
  probs_[static_cast<size_t>(row)] = prob;
}

void ColumnTable::SetExact(int64_t row, math::Rational value) {
  IPDB_CHECK_GE(row, 0);
  IPDB_CHECK_LT(row, num_rows());
  const uint32_t key = static_cast<uint32_t>(row);
  auto pos = std::lower_bound(
      exact_.begin(), exact_.end(), key,
      [](const auto& entry, uint32_t k) { return entry.first < k; });
  if (pos != exact_.end() && pos->first == key) {
    pos->second = std::move(value);
  } else {
    exact_.insert(pos, {key, std::move(value)});
  }
}

void ColumnTable::ClearExact(int64_t row) {
  const uint32_t key = static_cast<uint32_t>(row);
  auto pos = std::lower_bound(
      exact_.begin(), exact_.end(), key,
      [](const auto& entry, uint32_t k) { return entry.first < k; });
  if (pos != exact_.end() && pos->first == key) exact_.erase(pos);
}

const math::Rational* ColumnTable::ExactAt(int64_t row) const {
  const uint32_t key = static_cast<uint32_t>(row);
  auto pos = std::lower_bound(
      exact_.begin(), exact_.end(), key,
      [](const auto& entry, uint32_t k) { return entry.first < k; });
  if (pos != exact_.end() && pos->first == key) return &pos->second;
  return nullptr;
}

Status ColumnTable::RestoreRows(
    std::vector<std::vector<uint32_t>> columns, std::vector<double> probs,
    std::vector<uint32_t> sorted,
    std::vector<std::pair<uint32_t, math::Rational>> exact) {
  if (columns.size() != columns_.size()) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "restored table has " << columns.size() << " columns, schema says "
           << columns_.size();
  }
  const size_t n = probs.size();
  if (static_cast<int64_t>(n) > kMaxRows) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "restored table has " << n << " rows (cap " << kMaxRows << ")";
  }
  for (const auto& column : columns) {
    if (column.size() != n) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "restored column length " << column.size()
             << " disagrees with probability column length " << n;
    }
  }
  if (sorted.size() != n) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "restored sorted run has " << sorted.size() << " entries for "
           << n << " rows";
  }
  // The run must be a permutation of [0, n) in lexicographic row order
  // with the build path's row-index tie-break; equal adjacent rows would
  // mean duplicate facts, which Finish/Insert never admit.
  const auto row_less = [&columns](uint32_t a, uint32_t b) {
    for (const auto& column : columns) {
      const uint32_t va = column[a];
      const uint32_t vb = column[b];
      if (va != vb) return va < vb;
    }
    return false;
  };
  std::vector<bool> seen(n, false);
  for (size_t k = 0; k < sorted.size(); ++k) {
    const uint32_t row = sorted[k];
    if (row >= n || seen[row]) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "restored sorted run is not a permutation at position " << k;
    }
    seen[row] = true;
    if (k > 0) {
      const uint32_t prev = sorted[k - 1];
      if (row_less(row, prev)) {
        return IPDB_STATUS(StatusCode::kDataLoss)
               << "restored sorted run out of order at position " << k;
      }
      if (!row_less(prev, row)) {
        if (prev >= row) {
          return IPDB_STATUS(StatusCode::kDataLoss)
                 << "restored table has duplicate rows " << prev << " and "
                 << row;
        }
      }
    }
  }
  for (size_t i = 0; i < exact.size(); ++i) {
    if (exact[i].first >= n) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "restored exact entry " << i << " names row " << exact[i].first
             << " of " << n;
    }
    if (i > 0 && exact[i - 1].first >= exact[i].first) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "restored exact side table not strictly sorted at entry " << i;
    }
  }
  columns_ = std::move(columns);
  probs_ = std::move(probs);
  sorted_ = std::move(sorted);
  exact_ = std::move(exact);
  return Status::Ok();
}

void ColumnTable::ShrinkToFit() {
  for (auto& column : columns_) column.shrink_to_fit();
  probs_.shrink_to_fit();
  sorted_.shrink_to_fit();
  exact_.shrink_to_fit();
}

int64_t ColumnTable::ApproxBytes() const {
  int64_t bytes = 0;
  for (const auto& column : columns_) {
    bytes += static_cast<int64_t>(column.capacity() * sizeof(uint32_t));
  }
  bytes += static_cast<int64_t>(probs_.capacity() * sizeof(double));
  bytes += static_cast<int64_t>(sorted_.capacity() * sizeof(uint32_t));
  // The Rational payloads own heap BigInts; count the entry footprint
  // only — exactness is sparse by design.
  bytes += static_cast<int64_t>(exact_.capacity() *
                                sizeof(std::pair<uint32_t, math::Rational>));
  return bytes;
}

}  // namespace storage
}  // namespace ipdb
