// The closed-loop query-service load shared by serve_circuit and
// serve_lifted: clients (one tenant each, default TenantConfig) drive an
// Engine with one worker per client, every answer is checked against the
// workload's own oracle, and the traced run replays each served query
// through the layers in the order pqe::QueryProbability calls them.

#ifndef PERFBENCH_BENCH_SERVE_H_
#define PERFBENCH_BENCH_SERVE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "pdb/ti_pdb.h"
#include "storage/ti_store.h"
#include "util/status.h"

namespace perfbench {

struct ServeOp {
  std::string text;
  int op_class = 0;  // index into ServeSpec::classes
};

struct ServeSpec {
  std::string name;
  std::vector<std::string> classes;
  /// Every `block` consecutive operations of the stream hold a fixed
  /// number of each class, and runs end on a block boundary, so the class
  /// shares (and with them the cache hit ratio) are exact in every run.
  int block = 20;
  /// Closed-loop clients (at most 2), one tenant each; the engine gets one
  /// worker per client.
  int clients = 2;
  /// Set-ups per run; setup_s is their median.
  int setups = 9;
  /// Builds the instance through TiStore::Builder + TiPdb::FromStore,
  /// recording storage.finish / storage.from_store on `spans` (may be
  /// null).
  std::function<ipdb::StatusOr<ipdb::pdb::TiPdb<double>>(SpanRecorder* spans)>
      build;
  /// Served once, in order, after registration: fills the artifact cache
  /// and faults the instance in.
  std::vector<std::string> warmup;
  /// Operation `index` of the seeded stream.
  std::function<ServeOp(int64_t index)> make_op;
  /// The oracle's answer for operation `index`, from the generator's own
  /// marginals.
  std::function<double(int64_t index)> expected;
};

Result RunServe(const ServeSpec& spec, const Options& options);

/// Finishes a built store and wraps it as the engine's instance type,
/// recording storage.finish and storage.from_store on `spans`.
ipdb::StatusOr<ipdb::pdb::TiPdb<double>> FinishInstance(
    ipdb::storage::TiStore::Builder* builder, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_SERVE_H_
