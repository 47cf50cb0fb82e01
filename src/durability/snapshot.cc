#include "durability/snapshot.h"

#include <cstring>
#include <utility>
#include <vector>

#include "durability/crc32c.h"
#include "durability/encoding.h"
#include "durability/io.h"
#include "math/rational.h"
#include "obs/obs.h"
#include "relational/value.h"
#include "util/fault.h"

namespace ipdb {
namespace durability {

namespace {

enum SectionType : uint32_t {
  kSectionSchema = 1,
  kSectionDictionary = 2,
  kSectionTable = 3,
  kSectionGlobalIndex = 4,
};

// magic | version | section_count | last_lsn | header crc32c.
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4;
constexpr size_t kHeaderCrcCoverage = kHeaderBytes - 4;

void AppendSection(std::string* out, uint32_t type,
                   const std::string& payload) {
  ByteWriter w(out);
  w.PutU32(type);
  w.PutU64(payload.size());
  w.PutU32(Crc32c(payload.data(), payload.size()));
  w.PutBytes(payload.data(), payload.size());
}

bool ReadU32Vector(ByteReader* r, size_t n, std::vector<uint32_t>* out) {
  if (r->remaining() < n * sizeof(uint32_t)) return false;
  out->resize(n);
  return r->GetBytes(out->data(), n * sizeof(uint32_t));
}

bool ReadF64Vector(ByteReader* r, size_t n, std::vector<double>* out) {
  if (r->remaining() < n * sizeof(double)) return false;
  out->resize(n);
  return r->GetBytes(out->data(), n * sizeof(double));
}

}  // namespace

StatusOr<std::string> SnapshotCodec::Encode(const storage::TiStore& store,
                                            uint64_t last_lsn) {
  const int num_relations = store.schema().num_relations();
  std::string out;
  out.reserve(kHeaderBytes +
              static_cast<size_t>(store.ApproxBytes()) / 2);
  {
    ByteWriter w(&out);
    w.PutBytes(kMagic, sizeof(kMagic));
    w.PutU32(kVersion);
    w.PutU32(static_cast<uint32_t>(3 + num_relations));
    w.PutU64(last_lsn);
    // The sections each carry their own CRC; this one covers the header
    // fields above so a flipped bit in last_lsn or section_count cannot
    // silently change replay semantics.
    w.PutU32(Crc32c(out.data(), kHeaderCrcCoverage));
  }

  std::string payload;
  {
    payload.clear();
    ByteWriter w(&payload);
    w.PutU32(static_cast<uint32_t>(num_relations));
    for (rel::RelationId r = 0; r < num_relations; ++r) {
      w.PutString(store.schema().relation_name(r));
      w.PutU32(static_cast<uint32_t>(store.schema().arity(r)));
    }
    AppendSection(&out, kSectionSchema, payload);
  }

  {
    payload.clear();
    ByteWriter w(&payload);
    const storage::Dictionary& dict = store.dictionary();
    w.PutU64(static_cast<uint64_t>(dict.size()));
    for (int64_t id = 0; id < dict.size(); ++id) {
      EncodeValue(&w, dict.ValueAt(static_cast<uint32_t>(id)));
    }
    AppendSection(&out, kSectionDictionary, payload);
  }

  for (rel::RelationId r = 0; r < num_relations; ++r) {
    const storage::ColumnTable& table = store.table(r);
    payload.clear();
    ByteWriter w(&payload);
    w.PutU32(static_cast<uint32_t>(r));
    w.PutU32(static_cast<uint32_t>(table.arity()));
    const size_t rows = static_cast<size_t>(table.num_rows());
    w.PutU64(rows);
    for (int c = 0; c < table.arity(); ++c) {
      const std::vector<uint32_t>& column = table.column(c);
      w.PutBytes(column.data(), column.size() * sizeof(uint32_t));
    }
    w.PutBytes(table.probs().data(), rows * sizeof(double));
    w.PutBytes(table.sorted_run().data(), rows * sizeof(uint32_t));
    const auto& exact = table.exact_entries();
    w.PutU64(exact.size());
    for (const auto& [row, value] : exact) {
      w.PutU32(row);
      w.PutString(value.ToString());
    }
    AppendSection(&out, kSectionTable, payload);
  }

  {
    payload.clear();
    ByteWriter w(&payload);
    const int64_t n = store.num_facts();
    w.PutU64(static_cast<uint64_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      w.PutU32(static_cast<uint32_t>(store.fact_rel(i)));
      w.PutU32(static_cast<uint32_t>(store.fact_row(i)));
    }
    AppendSection(&out, kSectionGlobalIndex, payload);
  }
  return out;
}

namespace {

/// Reads one section header + payload out of `reader`, CRC-verified,
/// returning a reader over the payload region of the backing buffer.
Status TakeSection(ByteReader* reader, const char* base, uint32_t expected,
                   const char* what, ByteReader* payload) {
  uint32_t type = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
  if (!reader->GetU32(&type) || !reader->GetU64(&size) ||
      !reader->GetU32(&crc)) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot truncated in " << what << " section header";
  }
  if (type != expected) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot section type " << type << " where " << what
           << " was expected";
  }
  if (size > reader->remaining()) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot " << what << " section claims " << size
           << " bytes but only " << reader->remaining() << " remain";
  }
  const char* start = base + reader->position();
  const size_t payload_size = static_cast<size_t>(size);
  *payload = ByteReader(start, payload_size);
  reader->Skip(payload_size);  // bounds checked above
  if (Crc32c(start, payload_size) != crc) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot " << what << " section failed its CRC32C check";
  }
  return Status::Ok();
}

}  // namespace

StatusOr<SnapshotResult> SnapshotCodec::Decode(const std::string& bytes) {
  ByteReader reader(bytes);
  char magic[sizeof(kMagic)];
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint64_t last_lsn = 0;
  uint32_t header_crc = 0;
  if (!reader.GetBytes(magic, sizeof(magic)) || !reader.GetU32(&version) ||
      !reader.GetU32(&section_count) || !reader.GetU64(&last_lsn) ||
      !reader.GetU32(&header_crc)) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot shorter than its header (" << bytes.size()
           << " bytes)";
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return IPDB_STATUS(StatusCode::kDataLoss) << "snapshot magic mismatch";
  }
  if (version != kVersion) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot version " << version << " unsupported (expected "
           << kVersion << ")";
  }
  if (Crc32c(bytes.data(), kHeaderCrcCoverage) != header_crc) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot header failed its CRC32C check";
  }
  if (section_count < 3) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot section count " << section_count << " is impossible";
  }

  std::shared_ptr<storage::TiStore> store(new storage::TiStore());

  // Schema.
  ByteReader payload(nullptr, 0);
  IPDB_RETURN_IF_ERROR(
      TakeSection(&reader, bytes.data(), kSectionSchema, "schema", &payload));
  uint32_t num_relations = 0;
  if (!payload.GetU32(&num_relations) ||
      num_relations != section_count - 3) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot schema relation count disagrees with section count";
  }
  for (uint32_t r = 0; r < num_relations; ++r) {
    std::string name;
    uint32_t arity = 0;
    if (!payload.GetString(&name) || !payload.GetU32(&arity) ||
        arity > 0xffffu) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot schema entry " << r << " malformed";
    }
    auto added =
        store->schema_.AddRelation(name, static_cast<int>(arity));
    if (!added.ok()) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot schema rejected: " << added.status().ToString();
    }
  }

  // Dictionary: values re-interned in id order reproduce the original
  // id assignment exactly (interning is deterministic and sequential).
  IPDB_RETURN_IF_ERROR(TakeSection(&reader, bytes.data(), kSectionDictionary,
                                   "dictionary", &payload));
  uint64_t dict_size = 0;
  if (!payload.GetU64(&dict_size) || dict_size > 0xffffffffull) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot dictionary size malformed";
  }
  for (uint64_t id = 0; id < dict_size; ++id) {
    rel::Value value;
    if (!DecodeValue(&payload, &value)) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot dictionary value " << id << " malformed";
    }
    const uint32_t assigned = store->dict_.Intern(value);
    if (assigned != static_cast<uint32_t>(id)) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot dictionary has duplicate value at id " << id;
    }
  }

  // Tables.
  store->tables_.reserve(num_relations);
  for (uint32_t r = 0; r < num_relations; ++r) {
    IPDB_RETURN_IF_ERROR(
        TakeSection(&reader, bytes.data(), kSectionTable, "table", &payload));
    uint32_t rel_id = 0;
    uint32_t arity = 0;
    uint64_t rows = 0;
    if (!payload.GetU32(&rel_id) || !payload.GetU32(&arity) ||
        !payload.GetU64(&rows) || rel_id != r ||
        static_cast<int>(arity) !=
            store->schema_.arity(static_cast<rel::RelationId>(r))) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot table section " << r << " header malformed";
    }
    const size_t n = static_cast<size_t>(rows);
    std::vector<std::vector<uint32_t>> columns(arity);
    for (uint32_t c = 0; c < arity; ++c) {
      if (!ReadU32Vector(&payload, n, &columns[c])) {
        return IPDB_STATUS(StatusCode::kDataLoss)
               << "snapshot table " << r << " column " << c << " truncated";
      }
      for (uint32_t id : columns[c]) {
        if (static_cast<int64_t>(id) >= store->dict_.size()) {
          return IPDB_STATUS(StatusCode::kDataLoss)
                 << "snapshot table " << r << " references dictionary id "
                 << id << " of " << store->dict_.size();
        }
      }
    }
    std::vector<double> probs;
    std::vector<uint32_t> sorted;
    if (!ReadF64Vector(&payload, n, &probs) ||
        !ReadU32Vector(&payload, n, &sorted)) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot table " << r << " columns truncated";
    }
    uint64_t num_exact = 0;
    if (!payload.GetU64(&num_exact) || num_exact > rows) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot table " << r << " exact count malformed";
    }
    std::vector<std::pair<uint32_t, math::Rational>> exact;
    exact.reserve(static_cast<size_t>(num_exact));
    for (uint64_t i = 0; i < num_exact; ++i) {
      uint32_t row = 0;
      std::string text;
      if (!payload.GetU32(&row) || !payload.GetString(&text)) {
        return IPDB_STATUS(StatusCode::kDataLoss)
               << "snapshot table " << r << " exact entry " << i
               << " truncated";
      }
      auto value = math::Rational::FromString(text);
      if (!value.ok()) {
        return IPDB_STATUS(StatusCode::kDataLoss)
               << "snapshot table " << r << " exact entry " << i
               << " unparsable: " << value.status().ToString();
      }
      exact.emplace_back(row, std::move(value).value());
    }
    storage::ColumnTable table(static_cast<int>(arity));
    IPDB_RETURN_IF_ERROR(table.RestoreRows(std::move(columns),
                                           std::move(probs), std::move(sorted),
                                           std::move(exact)));
    store->tables_.push_back(std::move(table));
  }

  // Global fact index; rebuilding row_global_ checks bijectivity.
  IPDB_RETURN_IF_ERROR(TakeSection(&reader, bytes.data(), kSectionGlobalIndex,
                                   "global index", &payload));
  uint64_t num_facts = 0;
  if (!payload.GetU64(&num_facts)) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot global index truncated";
  }
  uint64_t total_rows = 0;
  for (const storage::ColumnTable& table : store->tables_) {
    total_rows += static_cast<uint64_t>(table.num_rows());
  }
  if (num_facts != total_rows) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot global index covers " << num_facts << " facts, tables "
           << "hold " << total_rows;
  }
  store->fact_loc_.reserve(static_cast<size_t>(num_facts));
  store->row_global_.resize(num_relations);
  for (uint32_t r = 0; r < num_relations; ++r) {
    store->row_global_[r].assign(
        static_cast<size_t>(store->tables_[r].num_rows()), -1);
  }
  // Rows and global indices both follow insertion order (TiStore::Erase
  // relies on it): each relation's rows appear in the index in row order.
  std::vector<uint32_t> next_row(num_relations, 0);
  for (uint64_t i = 0; i < num_facts; ++i) {
    uint32_t rel_id = 0;
    uint32_t row = 0;
    if (!payload.GetU32(&rel_id) || !payload.GetU32(&row)) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot global index entry " << i << " truncated";
    }
    if (rel_id >= num_relations ||
        static_cast<int64_t>(row) >= store->tables_[rel_id].num_rows()) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot global index entry " << i << " out of range";
    }
    if (row != next_row[rel_id]++) {
      return IPDB_STATUS(StatusCode::kDataLoss)
             << "snapshot global index maps row (" << rel_id << ", " << row
             << ") out of row order";
    }
    store->row_global_[rel_id][row] = static_cast<int64_t>(i);
    store->fact_loc_.emplace_back(static_cast<rel::RelationId>(rel_id), row);
  }
  if (reader.remaining() != 0) {
    return IPDB_STATUS(StatusCode::kDataLoss)
           << "snapshot has " << reader.remaining()
           << " trailing bytes after the last section";
  }

  SnapshotResult result;
  result.store = std::move(store);
  result.last_lsn = last_lsn;
  return result;
}

Status WriteSnapshot(const storage::TiStore& store, uint64_t last_lsn,
                     const std::string& path) {
  IPDB_OBS_SPAN("dur.snapshot.write", "durability");
  IPDB_OBS_SCOPED_TIMER("dur.snapshot.write_ns");
  IPDB_FAULT_POINT("dur.snapshot.write");
  auto bytes = SnapshotCodec::Encode(store, last_lsn);
  if (!bytes.ok()) return bytes.status();
  const std::string tmp = path + ".tmp";
  IPDB_RETURN_IF_ERROR(WriteFileSync(tmp, *bytes));
  IPDB_FAULT_POINT("dur.rename");
  IPDB_RETURN_IF_ERROR(RenameSync(tmp, path));
  IPDB_OBS_COUNT("dur.snapshot.writes", 1);
  IPDB_OBS_COUNT("dur.snapshot.bytes_written",
                 static_cast<int64_t>(bytes->size()));
  return Status::Ok();
}

StatusOr<SnapshotResult> ReadSnapshot(const std::string& path) {
  IPDB_OBS_SPAN("dur.snapshot.read", "durability");
  IPDB_OBS_SCOPED_TIMER("dur.snapshot.read_ns");
  std::string bytes;
  IPDB_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  auto result = SnapshotCodec::Decode(bytes);
  if (result.ok()) {
    IPDB_OBS_COUNT("dur.snapshot.reads", 1);
    IPDB_OBS_COUNT("dur.snapshot.bytes_read",
                   static_cast<int64_t>(bytes.size()));
  } else {
    IPDB_OBS_COUNT("dur.snapshot.read_errors", 1);
  }
  return result;
}

}  // namespace durability
}  // namespace ipdb
