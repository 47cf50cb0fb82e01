#include "storage/ti_store.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace ipdb {
namespace storage {

TiStore::Builder::Builder(rel::Schema schema)
    : store_(std::shared_ptr<TiStore>(new TiStore())) {
  store_->schema_ = std::move(schema);
  const int num_relations = store_->schema_.num_relations();
  store_->tables_.reserve(static_cast<size_t>(num_relations));
  for (rel::RelationId r = 0; r < num_relations; ++r) {
    store_->tables_.emplace_back(store_->schema_.arity(r));
  }
  store_->row_global_.resize(static_cast<size_t>(num_relations));
}

void TiStore::Builder::Reserve(int64_t n) {
  IPDB_CHECK(store_ != nullptr) << "Builder already finished";
  store_->fact_loc_.reserve(static_cast<size_t>(n));
}

void TiStore::Builder::Add(const rel::Fact& fact, double prob) {
  IPDB_CHECK(store_ != nullptr) << "Builder already finished";
  if (!deferred_error_.ok()) return;
  if (!fact.MatchesSchema(store_->schema_)) {
    deferred_error_ = InvalidArgumentError(
        "fact does not match the schema: " + fact.ToString(store_->schema_));
    return;
  }
  if (!(prob >= 0.0) || prob > 1.0 + 1e-12) {
    deferred_error_ =
        InvalidArgumentError("marginal probability outside [0, 1]");
    return;
  }
  const rel::RelationId r = fact.relation();
  ColumnTable& table = store_->tables_[static_cast<size_t>(r)];
  store_->InternArgs(fact, &scratch_ids_);
  const uint32_t row = static_cast<uint32_t>(table.num_rows());
  table.AppendRow(scratch_ids_.data(), std::min(prob, 1.0));
  store_->row_global_[static_cast<size_t>(r)].push_back(
      store_->num_facts());
  store_->fact_loc_.emplace_back(r, row);
}

void TiStore::Builder::AddExact(const rel::Fact& fact,
                                const math::Rational& prob) {
  IPDB_CHECK(store_ != nullptr) << "Builder already finished";
  if (!deferred_error_.ok()) return;
  // A schema mismatch is Add's to report first, as for double marginals.
  if (fact.MatchesSchema(store_->schema_) &&
      (prob.is_negative() || prob.ToDouble() > 1.0 + 1e-12)) {
    deferred_error_ =
        InvalidArgumentError("marginal probability outside [0, 1]");
    return;
  }
  const int64_t before = store_->num_facts();
  Add(fact, std::min(prob.ToDouble(), 1.0));
  if (!deferred_error_.ok() || store_->num_facts() == before) return;
  const auto [r, row] = store_->fact_loc_.back();
  store_->tables_[static_cast<size_t>(r)].SetExact(row, prob);
}

StatusOr<std::shared_ptr<TiStore>> TiStore::Builder::Finish() {
  IPDB_CHECK(store_ != nullptr) << "Builder already finished";
  std::shared_ptr<TiStore> store = std::move(store_);
  if (!deferred_error_.ok()) return deferred_error_;
  // Release the append slack of every table before any sort allocates
  // its run, so the runs reuse that memory instead of adding to the
  // instance's resident set.
  for (rel::RelationId r = 0; r < store->schema_.num_relations(); ++r) {
    store->tables_[static_cast<size_t>(r)].ShrinkToFit();
    store->row_global_[static_cast<size_t>(r)].shrink_to_fit();
  }
  store->fact_loc_.shrink_to_fit();
  for (rel::RelationId r = 0; r < store->schema_.num_relations(); ++r) {
    int64_t duplicate_row = -1;
    Status built =
        store->tables_[static_cast<size_t>(r)].FinishBuild(&duplicate_row);
    if (!built.ok()) {
      if (duplicate_row >= 0) {
        const int64_t g = store->global_index(r, duplicate_row);
        return InvalidArgumentError("duplicate fact: " +
                                    store->FactAt(g).ToString(store->schema_));
      }
      return built;
    }
  }
  return store;
}

bool TiStore::InternArgs(const rel::Fact& fact, std::vector<uint32_t>* ids) {
  ids->clear();
  for (const rel::Value& v : fact.args()) ids->push_back(dict_.Intern(v));
  return true;
}

bool TiStore::ResolveArgs(const rel::Fact& fact,
                          std::vector<uint32_t>* ids) const {
  ids->clear();
  for (const rel::Value& v : fact.args()) {
    const uint32_t id = dict_.Find(v);
    if (id == Dictionary::kNotFound) return false;
    ids->push_back(id);
  }
  return true;
}

rel::Fact TiStore::FactAt(int64_t i) const {
  IPDB_CHECK_GE(i, 0);
  IPDB_CHECK_LT(i, num_facts());
  const auto [r, row] = fact_loc_[static_cast<size_t>(i)];
  const ColumnTable& table = tables_[static_cast<size_t>(r)];
  std::vector<rel::Value> args;
  args.reserve(static_cast<size_t>(table.arity()));
  for (int c = 0; c < table.arity(); ++c) {
    args.push_back(dict_.ValueAt(table.id(c, row)));
  }
  return rel::Fact(r, std::move(args));
}

double TiStore::ProbAt(int64_t i) const {
  const auto [r, row] = fact_loc_[static_cast<size_t>(i)];
  return tables_[static_cast<size_t>(r)].prob(row);
}

const math::Rational* TiStore::ExactAt(int64_t i) const {
  const auto [r, row] = fact_loc_[static_cast<size_t>(i)];
  return tables_[static_cast<size_t>(r)].ExactAt(row);
}

int64_t TiStore::FindFact(const rel::Fact& fact) const {
  if (!schema_.has_relation(fact.relation()) ||
      schema_.arity(fact.relation()) != fact.arity()) {
    return -1;
  }
  std::vector<uint32_t> ids;
  if (!ResolveArgs(fact, &ids)) return -1;
  const int64_t row =
      tables_[static_cast<size_t>(fact.relation())].FindRow(ids.data());
  if (row < 0) return -1;
  return global_index(fact.relation(), row);
}

double TiStore::Marginal(const rel::Fact& fact) const {
  const int64_t i = FindFact(fact);
  return i < 0 ? 0.0 : ProbAt(i);
}

std::vector<rel::Value> TiStore::SortedDomain() const {
  std::vector<rel::Value> domain;
  domain.reserve(static_cast<size_t>(dict_.size()));
  for (uint32_t id = 0; id < static_cast<uint32_t>(dict_.size()); ++id) {
    domain.push_back(dict_.ValueAt(id));
  }
  std::sort(domain.begin(), domain.end());
  return domain;
}

StatusOr<int64_t> TiStore::Insert(const rel::Fact& fact, double prob) {
  if (!fact.MatchesSchema(schema_)) {
    return InvalidArgumentError("fact does not match the schema: " +
                                fact.ToString(schema_));
  }
  if (!(prob >= 0.0) || prob > 1.0 + 1e-12) {
    return InvalidArgumentError("marginal probability outside [0, 1]");
  }
  std::vector<uint32_t> ids;
  InternArgs(fact, &ids);
  const rel::RelationId r = fact.relation();
  ColumnTable& table = tables_[static_cast<size_t>(r)];
  StatusOr<int64_t> row = table.Insert(ids.data(), std::min(prob, 1.0));
  if (!row.ok()) {
    return IPDB_STATUS_FORWARD(row.status())
           << "duplicate fact: " << fact.ToString(schema_);
  }
  const int64_t g = num_facts();
  row_global_[static_cast<size_t>(r)].push_back(g);
  fact_loc_.emplace_back(r, static_cast<uint32_t>(row.value()));
  BumpStructure();
  return g;
}

Status TiStore::Erase(const rel::Fact& fact) {
  const int64_t g = FindFact(fact);
  if (g < 0) {
    return InvalidArgumentError("fact not in the store: " +
                                fact.ToString(schema_));
  }
  const auto [r, row] = fact_loc_[static_cast<size_t>(g)];
  tables_[static_cast<size_t>(r)].EraseRow(row);
  // Rows of relation r above `row` shifted down; global indices above
  // `g` shift down. Renumber both maps in one pass each.
  std::vector<int64_t>& globals = row_global_[static_cast<size_t>(r)];
  globals.erase(globals.begin() + static_cast<ptrdiff_t>(row));
  fact_loc_.erase(fact_loc_.begin() + static_cast<ptrdiff_t>(g));
  for (auto& [rel_id, rel_row] : fact_loc_) {
    if (rel_id == r && rel_row > row) --rel_row;
  }
  for (std::vector<int64_t>& per_rel : row_global_) {
    for (int64_t& global : per_rel) {
      if (global > g) --global;
    }
  }
  BumpStructure();
  return Status::Ok();
}

Status TiStore::UpdateProbability(const rel::Fact& fact, double prob) {
  if (!(prob >= 0.0) || prob > 1.0 + 1e-12) {
    return InvalidArgumentError("marginal probability outside [0, 1]");
  }
  const int64_t g = FindFact(fact);
  if (g < 0) {
    return InvalidArgumentError("fact not in the store: " +
                                fact.ToString(schema_));
  }
  const auto [r, row] = fact_loc_[static_cast<size_t>(g)];
  ColumnTable& table = tables_[static_cast<size_t>(r)];
  table.SetProbability(row, std::min(prob, 1.0));
  table.ClearExact(row);
  probability_generation_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status TiStore::UpdateProbabilityExact(const rel::Fact& fact,
                                       const math::Rational& prob) {
  if (prob.is_negative() || prob.ToDouble() > 1.0 + 1e-12) {
    return InvalidArgumentError("marginal probability outside [0, 1]");
  }
  const int64_t g = FindFact(fact);
  if (g < 0) {
    return InvalidArgumentError("fact not in the store: " +
                                fact.ToString(schema_));
  }
  const auto [r, row] = fact_loc_[static_cast<size_t>(g)];
  ColumnTable& table = tables_[static_cast<size_t>(r)];
  table.SetProbability(row, std::min(prob.ToDouble(), 1.0));
  table.SetExact(row, prob);
  probability_generation_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

void TiStore::BumpStructure() {
  structure_generation_.fetch_add(1, std::memory_order_release);
  // Dependent compiled artifacts were fingerprinted from lineages over
  // the old fact set; hand them to the evictor outside the lock.
  std::vector<std::pair<uint64_t, uint64_t>> stale;
  std::function<void(uint64_t, uint64_t)> evictor;
  {
    std::lock_guard<std::mutex> lock(artifact_mutex_);
    stale.swap(dependent_artifacts_);
    evictor = artifact_evictor_;
  }
  if (evictor) {
    for (const auto& [hi, lo] : stale) evictor(hi, lo);
  }
}

void TiStore::RegisterDependentArtifact(uint64_t hi, uint64_t lo) const {
  std::lock_guard<std::mutex> lock(artifact_mutex_);
  for (const auto& [h, l] : dependent_artifacts_) {
    if (h == hi && l == lo) return;
  }
  dependent_artifacts_.emplace_back(hi, lo);
}

void TiStore::SetArtifactEvictor(
    std::function<void(uint64_t, uint64_t)> evictor) const {
  std::lock_guard<std::mutex> lock(artifact_mutex_);
  artifact_evictor_ = std::move(evictor);
}

int64_t TiStore::num_dependent_artifacts() const {
  std::lock_guard<std::mutex> lock(artifact_mutex_);
  return static_cast<int64_t>(dependent_artifacts_.size());
}

int64_t TiStore::ApproxBytes() const {
  int64_t bytes = dict_.ApproxBytes();
  for (const ColumnTable& table : tables_) bytes += table.ApproxBytes();
  bytes += static_cast<int64_t>(fact_loc_.capacity() *
                                sizeof(std::pair<rel::RelationId, uint32_t>));
  for (const std::vector<int64_t>& per_rel : row_global_) {
    bytes += static_cast<int64_t>(per_rel.capacity() * sizeof(int64_t));
  }
  return bytes;
}

}  // namespace storage
}  // namespace ipdb
