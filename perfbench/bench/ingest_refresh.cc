// ingest_refresh: writes beside reads. One writer applies batches of
// journaled probability updates to a durable store of 10^5 facts,
// flushes the WAL, and re-answers four standing circuit queries through
// PreparedQuery; every 8th batch also erases and re-inserts facts, which
// makes every standing circuit re-ground and recompile.

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "durability/manager.h"
#include "kc/cache.h"
#include "layers.h"
#include "logic/parser.h"
#include "pqe/prepared.h"
#include "storage/ti_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ipdb::Status;
using ipdb::StatusOr;
using ipdb::rel::Fact;
using ipdb::rel::Value;

constexpr int kKeys = 5000;
constexpr int kSPerKey = 19;
constexpr int kYValues = 2000;
/// Updated facts: R(x), S(x, y0) and S(x, y1) of the first kPoolKeys keys.
constexpr int kPoolKeys = 4096;
constexpr int kPool = 3 * kPoolKeys;
constexpr int kUpdatesPerBatch = 2000;
/// Every 8th batch is structural: p99 falls inside that 12.5% class.
constexpr int kStructuralEvery = 8;
/// Facts inserted and erased per structural batch. They come from a ring
/// of groups of S(x, y18) facts of the last keys; the group a batch
/// inserts is the one an earlier batch erased, so the fact set and the
/// dictionary keep their size.
constexpr int kChurnFacts = 4;
constexpr int kChurnGroups = 16;
/// Checkpoints run between batches; their fdatasync stays out of the
/// timed operations.
constexpr int kCheckpointEvery = 64;
constexpr int kStanding = 4;
constexpr int kDisjuncts = 4;
/// A set-up takes ~60 ms, most of it Manager::Create's synced snapshot,
/// and single set-ups vary by up to 2x within a run; setup_s is the
/// median of 31.
constexpr int kSetups = 31;
constexpr double kReferenceShare = 0.3;
constexpr char kName[] = "ingest";

constexpr ipdb::rel::RelationId kR = 0;
constexpr ipdb::rel::RelationId kS = 1;

std::string Key(int x) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "k%06d", x);
  return buffer;
}

int YValue(int x, int d) { return (x + 7 * d) % kYValues; }

/// Keeps the first error of a sequence of calls.
void KeepFirst(Status* first, const Status& next) {
  if (first->ok() && !next.ok()) *first = next;
}

double Prob(uint64_t seed, int relation, int x, int d) {
  return Uniform(0.05, 0.95, seed, relation, x, d);
}

Fact RFact(int x) { return Fact(kR, {Value::Symbol(Key(x))}); }
Fact SFact(int x, int d) {
  return Fact(kS, {Value::Symbol(Key(x)), Value::Int(YValue(x, d))});
}

/// The churn fact `k` of group `g`.
int ChurnKey(int g, int k) {
  return kKeys - kChurnGroups * kChurnFacts + g * kChurnFacts + k;
}

struct Live {
  std::string dir;
  std::unique_ptr<ipdb::durability::Manager> manager;
  std::unique_ptr<ipdb::durability::DurableStore> durable;
  std::vector<ipdb::logic::Formula> sentences;
  std::vector<std::unique_ptr<ipdb::pqe::PreparedQuery>> standing;
  std::vector<ipdb::rel::Value> sorted_domain;
};

class IngestWorkload {
 public:
  IngestWorkload(const Options& options) : options_(options) {
    for (int p = 0; p < kPool; ++p) {
      const int x = p / 3;
      pool_.push_back(p % 3 == 0 ? RFact(x) : SFact(x, p % 3 - 1));
    }
    Rng rng(options.seed);
    const std::vector<int> keys =
        SampleDistinct(kPoolKeys, kStanding * kDisjuncts, &rng);
    for (int q = 0; q < kStanding; ++q) {
      std::string text;
      std::vector<int> xs;
      for (int i = 0; i < kDisjuncts; ++i) {
        const int x = keys[static_cast<size_t>(q * kDisjuncts + i)];
        const std::string key = "'" + Key(x) + "'";
        if (i > 0) text += " | ";
        text += "(R(" + key + ") & S(" + key + ", " +
                std::to_string(YValue(x, 0)) + ") & !S(" + key + ", " +
                std::to_string(YValue(x, 1)) + "))";
        xs.push_back(x);
      }
      texts_.push_back(text);
      standing_keys_.push_back(xs);
    }
  }

  Result Run();

 private:
  /// Pool marginal as the generator set it.
  double InitialProb(int p) const {
    return Prob(options_.seed, p % 3 == 0 ? kR : kS, p / 3,
                p % 3 == 0 ? 0 : p % 3 - 1);
  }

  /// P(standing query q) from the shadow marginals: the disjuncts use
  /// disjoint facts, so they are independent.
  double Oracle(int q) const {
    double none = 1;
    for (int x : standing_keys_[static_cast<size_t>(q)]) {
      none *= 1 - shadow_[3 * x] * shadow_[3 * x + 1] * (1 - shadow_[3 * x + 2]);
    }
    return 1 - none;
  }

  Status BuildLive(int setup, SpanRecorder* spans, Live* live,
                   double* bytes_per_fact);
  void Teardown(Live* live);

  struct Pass {
    int64_t batches = 0;
    double busy_s = 0;  // measured wall time minus checkpoints
    std::vector<double> latency_ms;
    int64_t failed = 0;
    int64_t wal_bytes = 0;
    int64_t mutations = 0;
    int64_t invalidations = 0;  // replay-cache entries dropped as stale
    /// Busy time at each block's start, then at the pass's end (see
    /// BlockRate).
    std::vector<int64_t> block_ns;
    SpanRecorder spans;
    ReplayCounts counts;
  };
  /// Runs batches for `seconds` then to the end of the current block of
  /// 8, or exactly `fixed_batches`. `replay_cache` non-null = traced.
  void RunPass(Live* live, double seconds, int64_t fixed_batches,
               ipdb::kc::CompiledQueryCache* replay_cache, Pass* pass,
               Result* result);
  /// Flushes, reloads the store with Manager::Load and checks that the
  /// standing answers are reproduced exactly.
  bool CheckRecovery(Live* live, SpanRecorder* spans, Result* result);

  Options options_;
  std::vector<Fact> pool_;
  std::vector<std::string> texts_;
  std::vector<std::vector<int>> standing_keys_;
  std::vector<double> shadow_;
};

Status IngestWorkload::BuildLive(int setup, SpanRecorder* spans, Live* live,
                                 double* bytes_per_fact) {
  const int64_t rss_before = CurrentRssBytes();
  ipdb::storage::TiStore::Builder builder(
      ipdb::rel::Schema({{"R", 1}, {"S", 2}}));
  builder.Reserve(static_cast<int64_t>(kKeys) * (1 + kSPerKey));
  for (int x = 0; x < kKeys; ++x) {
    builder.Add(RFact(x), Prob(options_.seed, kR, x, 0));
    for (int d = 0; d < kSPerKey; ++d) {
      // Churn group 0 starts erased.
      if (d == kSPerKey - 1 && x >= ChurnKey(0, 0) && x < ChurnKey(1, 0)) {
        continue;
      }
      builder.Add(SFact(x, d), Prob(options_.seed, kS, x, d));
    }
  }
  StatusOr<std::shared_ptr<ipdb::storage::TiStore>> store = [&] {
    ScopedSpan span(spans, "storage.finish", -1);
    return builder.Finish();
  }();
  if (!store.ok()) return store.status();
  if (bytes_per_fact != nullptr) {
    *bytes_per_fact = static_cast<double>(CurrentRssBytes() - rss_before) /
                      static_cast<double>(store.value()->num_facts());
  }
  live->dir = options_.work_dir + "/durable-" + std::to_string(getpid()) +
              "-" + std::to_string(setup);
  std::error_code error;
  std::filesystem::remove_all(live->dir, error);
  std::filesystem::create_directories(live->dir, error);
  if (error) return ipdb::InternalError("cannot create " + live->dir);
  live->manager = std::make_unique<ipdb::durability::Manager>(live->dir);
  {
    ScopedSpan span(spans, "durability.create", -1);
    StatusOr<std::unique_ptr<ipdb::durability::DurableStore>> durable =
        live->manager->Create(kName, store.value());
    if (!durable.ok()) return durable.status();
    live->durable = std::move(durable).value();
  }
  for (const std::string& text : texts_) {
    StatusOr<ipdb::logic::Formula> sentence = [&] {
      ScopedSpan span(spans, "logic.parse", -1);
      return ipdb::logic::ParseSentence(text, store.value()->schema());
    }();
    if (!sentence.ok()) return sentence.status();
    ScopedSpan span(spans, "pqe.prepare", -1);
    StatusOr<ipdb::pqe::PreparedQuery> prepared =
        ipdb::pqe::PreparedQuery::Prepare(live->durable->shared_store(),
                                          sentence.value());
    if (!prepared.ok()) return prepared.status();
    if (prepared.value().lifted()) {
      return ipdb::InternalError("standing query took the lifted rung");
    }
    live->sentences.push_back(std::move(sentence).value());
    live->standing.push_back(std::make_unique<ipdb::pqe::PreparedQuery>(
        std::move(prepared).value()));
  }
  shadow_.clear();
  for (int p = 0; p < kPool; ++p) shadow_.push_back(InitialProb(p));
  return Status::Ok();
}

void IngestWorkload::Teardown(Live* live) {
  const std::string dir = live->dir;
  *live = Live{};
  malloc_trim(0);
  ipdb::kc::GlobalCompiledQueryCache().Clear();
  std::error_code error;
  if (!dir.empty()) std::filesystem::remove_all(dir, error);
}

void IngestWorkload::RunPass(Live* live, double seconds, int64_t fixed_batches,
                             ipdb::kc::CompiledQueryCache* replay_cache,
                             Pass* pass, Result* result) {
  SpanRecorder* spans = replay_cache != nullptr ? &pass->spans : nullptr;
  ipdb::durability::DurableStore& durable = *live->durable;
  const std::string wal = live->manager->WalPath(kName);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t paused_ns = 0;
  std::vector<std::pair<int, double>> plan(kUpdatesPerBatch);
  std::vector<double> answers(kStanding);
  std::vector<std::pair<uint64_t, uint64_t>> replayed_keys(kStanding);
  for (int64_t batch = 0;; ++batch) {
    if (fixed_batches >= 0 ? batch >= fixed_batches
                           : batch % kStructuralEvery == 0 &&
                                 NowNs() >= deadline) {
      break;
    }
    if (batch % kStructuralEvery == 0) {
      pass->block_ns.push_back(NowNs() - paused_ns);
    }
    // The batch's inputs, drawn before its clock starts.
    Rng rng(Hash(options_.seed, 0xba7c, static_cast<uint64_t>(batch)));
    for (auto& [p, prob] : plan) {
      p = static_cast<int>(rng.Below(kPool));
      prob = rng.Uniform(0.05, 0.95);
    }
    const bool structural = batch % kStructuralEvery == kStructuralEvery - 1;
    const int64_t structural_index = batch / kStructuralEvery;
    const int insert_group = static_cast<int>(structural_index % kChurnGroups);
    const int erase_group = (insert_group + 1) % kChurnGroups;
    std::error_code error;
    const int64_t wal_before =
        static_cast<int64_t>(std::filesystem::file_size(wal, error));

    Status status;
    const int64_t begin = NowNs();
    {
      ScopedSpan batch_span(spans, "batch", batch);
      {
        ScopedSpan span(spans, "durability.mutate", batch);
        for (const auto& [p, prob] : plan) {
          KeepFirst(&status, durable.UpdateProbability(pool_[p], prob));
        }
        span.set_calls(kUpdatesPerBatch);
      }
      if (structural) {
        for (int k = 0; k < kChurnFacts; ++k) {
          const int x = ChurnKey(insert_group, k);
          ScopedSpan span(spans, "durability.structural", batch);
          KeepFirst(&status,
                    durable
                        .Insert(SFact(x, kSPerKey - 1),
                                Prob(options_.seed, kS, x, kSPerKey - 1))
                        .status());
        }
        for (int k = 0; k < kChurnFacts; ++k) {
          ScopedSpan span(spans, "durability.structural", batch);
          KeepFirst(&status, durable.Erase(
                                 SFact(ChurnKey(erase_group, k), kSPerKey - 1)));
        }
      }
      {
        ScopedSpan span(spans, "durability.flush", batch);
        KeepFirst(&status, durable.Flush());
      }
      for (int q = 0; q < kStanding; ++q) {
        ScopedSpan span(spans, structural ? "pqe.rebuild" : "pqe.refresh",
                        batch);
        StatusOr<double> answer = live->standing[q]->Query();
        KeepFirst(&status, answer.status());
        answers[q] = answer.ok() ? answer.value() : -1;
      }
    }
    pass->latency_ms.push_back((NowNs() - begin) * 1e-6);
    ++pass->batches;
    const int64_t wal_after =
        static_cast<int64_t>(std::filesystem::file_size(wal, error));
    pass->wal_bytes += wal_after - wal_before;
    pass->mutations += kUpdatesPerBatch + (structural ? 2 * kChurnFacts : 0);

    // Check the batch against the oracle's shadow marginals.
    for (const auto& [p, prob] : plan) shadow_[p] = prob;
    bool ok = status.ok();
    for (int q = 0; q < kStanding && ok; ++q) ok = Agrees(answers[q], Oracle(q));
    if (replay_cache != nullptr && structural) {
      // The structural change evicted the standing circuits from the
      // served cache (the store's dependent-artifact registry); evict
      // them from the replay cache too, so the replay misses as the
      // served rebuild did.
      for (const auto& [hi, lo] : replayed_keys) {
        pass->invalidations += replay_cache->EraseFingerprint(hi, lo);
      }
      for (int q = 0; q < kStanding; ++q) {
        StatusOr<double> replayed = [&] {
          ScopedSpan span(spans, "replay", batch);
          return ReplayCircuit(
              durable.store(), live->sentences[q],
              [&durable](std::vector<double>* probs) {
                const ipdb::storage::TiStore& store = durable.store();
                probs->reserve(static_cast<size_t>(store.num_facts()));
                for (int64_t i = 0; i < store.num_facts(); ++i) {
                  probs->push_back(store.ProbAt(i));
                }
              },
              replay_cache, spans, batch, &pass->counts, &replayed_keys[q]);
        }();
        ok = ok && replayed.ok() && replayed.value() == answers[q];
        pass->counts.domain_values.push_back(
            DomainValues(live->sorted_domain, live->sentences[q]));
      }
    }
    if (!ok && ++pass->failed <= 3) {
      result->report.push_back("FAILED batch " + std::to_string(batch) + ": " +
                               status.ToString());
    }
    if ((batch + 1) % kCheckpointEvery == 0) {
      const int64_t pause = NowNs();
      {
        ScopedSpan span(spans, "durability.checkpoint", batch);
        status = durable.Checkpoint();
      }
      paused_ns += NowNs() - pause;
      if (!status.ok()) {
        result->checks_ok = false;
        result->report.push_back("checkpoint failed: " + status.ToString());
      }
    }
  }
  pass->block_ns.push_back(NowNs() - paused_ns);
  pass->busy_s = static_cast<double>(NowNs() - start - paused_ns) * 1e-9;
}

bool IngestWorkload::CheckRecovery(Live* live, SpanRecorder* spans,
                                   Result* result) {
  Status status = live->durable->Flush();
  std::vector<double> answers;
  for (auto& standing : live->standing) {
    StatusOr<double> answer = standing->Query();
    KeepFirst(&status, answer.status());
    answers.push_back(answer.ok() ? answer.value() : -1);
  }
  StatusOr<std::unique_ptr<ipdb::durability::DurableStore>> loaded = [&] {
    ScopedSpan span(spans, "durability.recover", -1);
    return live->manager->Load(kName);
  }();
  bool exact = status.ok() && loaded.ok();
  for (int q = 0; q < kStanding && exact; ++q) {
    StatusOr<ipdb::pqe::PreparedQuery> prepared =
        ipdb::pqe::PreparedQuery::Prepare(loaded.value()->shared_store(),
                                          live->sentences[q]);
    if (!prepared.ok()) {
      exact = false;
      break;
    }
    StatusOr<double> answer = prepared.value().Query();
    exact = answer.ok() && answer.value() == answers[q] &&
            Agrees(answer.value(), Oracle(q));
  }
  result->report.push_back(
      std::string("recovery with Manager::Load: ") +
      (exact ? "standing answers reproduced exactly" : "MISMATCH") +
      (loaded.ok() ? "" : " (" + loaded.status().ToString() + ")"));
  return exact;
}

Result IngestWorkload::Run() {
  Result result;
  result.meta["clients"] = "1";
  result.meta["workers"] = "0";
  result.meta["setups_per_run"] = std::to_string(kSetups);
  result.meta["flush_policy"] =
      "Flush (write to the page cache) after every batch; WAL group-commit "
      "buffer 64 KiB; no Sync in batches";
  result.meta["checkpoint_cadence"] =
      "every " + std::to_string(kCheckpointEvery) +
      " batches, between batches, excluded from batch latency and qps";
  result.meta["instance"] = std::to_string(kKeys * (1 + kSPerKey) - kChurnFacts) +
                            " facts over R(x), S(x, y); " +
                            std::to_string(kUpdatesPerBatch) +
                            " updates per batch";

  Live live;
  SpanRecorder setup_spans;
  SpanRecorder* recorder = options_.trace ? &setup_spans : nullptr;
  std::vector<double> setup_s;
  double bytes_per_fact = 0;
  for (int s = 0; s < kSetups; ++s) {
    Teardown(&live);
    const ScopedCpuPin pin(s);
    const int64_t begin = NowNs();
    Status status =
        BuildLive(s, recorder, &live, s == 0 ? &bytes_per_fact : nullptr);
    if (!status.ok()) {
      result.checks_ok = false;
      result.report.push_back("set-up failed: " + status.ToString());
      Teardown(&live);
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - begin) * 1e-9);
  }
  result.report.push_back(SetupLine(setup_s));
  result.meta["durability_dir"] = live.dir;
  result.meta["durability_fs"] = FilesystemType(live.dir);

  auto report_pass = [&result](const Pass& pass, const std::string& label) {
    std::vector<double> plain;
    std::vector<double> structural;
    for (size_t i = 0; i < pass.latency_ms.size(); ++i) {
      (i % kStructuralEvery == kStructuralEvery - 1 ? structural : plain)
          .push_back(pass.latency_ms[i]);
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "%s pass: batches=%lld busy=%.3f s mean rate=%.2f /s "
                  "samples_beyond_p99=%lld wal_bytes=%lld",
                  label.c_str(), static_cast<long long>(pass.batches),
                  pass.busy_s, static_cast<double>(pass.batches) / pass.busy_s,
                  static_cast<long long>(SamplesBeyond(pass.batches, 0.99)),
                  static_cast<long long>(pass.wal_bytes));
    result.report.push_back(line);
    result.report.push_back(ClassLine("refresh", plain));
    result.report.push_back(ClassLine("structural", structural));
  };

  if (!options_.trace) {
    Pass pass;
    RunPass(&live, options_.seconds, -1, nullptr, &pass, &result);
    result.attempted = pass.batches;
    result.failed = pass.failed;
    report_pass(pass, "measured");
    RequireTail(pass.batches, &result);
    result.metrics["qps"] = {BlockRate(pass.block_ns, kStructuralEvery),
                             "1/s"};
    result.metrics["p50_ms"] = {Percentile(pass.latency_ms, 0.5), "ms"};
    result.metrics["p99_ms"] = {Percentile(pass.latency_ms, 0.99), "ms"};
    result.metrics["setup_s"] = {Median(setup_s), "s"};
    // Before recovery: reloading holds a second copy of the store, and the
    // WAL it replays depends on where the run stopped.
    result.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    if (!CheckRecovery(&live, nullptr, &result)) result.checks_ok = false;
  } else {
    Pass reference;
    RunPass(&live, options_.seconds * kReferenceShare, -1, nullptr, &reference,
            &result);
    report_pass(reference, "untraced reference");
    Teardown(&live);
    Status status = BuildLive(kSetups, nullptr, &live, nullptr);
    if (!status.ok()) {
      result.checks_ok = false;
      result.report.push_back("set-up failed: " + status.ToString());
      Teardown(&live);
      return result;
    }
    live.sorted_domain = live.durable->store().SortedDomain();
    ipdb::kc::CompiledQueryCache replay_cache(
        ipdb::kc::GlobalCompiledQueryCache().capacity());
    Pass traced;
    // At least one checkpoint cadence, so every durability layer is timed.
    RunPass(&live, 0, std::max<int64_t>(reference.batches, kCheckpointEvery),
            &replay_cache, &traced, &result);
    report_pass(traced, "traced");
    result.attempted = reference.batches + traced.batches;
    result.failed = reference.failed + traced.failed;
    if (!CheckRecovery(&live, &traced.spans, &result)) result.checks_ok = false;

    const SpanSummary summary = Summarize({&traced.spans}, "replay");
    PutMedianSelf(summary, "durability.mutate", "durability.mutate_us", 1e3,
                  "us", &result);
    PutMedianSelf(summary, "durability.structural", "durability.structural_us",
                  1e3, "us", &result);
    PutMedianSelf(summary, "durability.flush", "durability.flush_us", 1e3, "us",
                  &result);
    PutMedianSelf(summary, "durability.checkpoint", "durability.checkpoint_ms",
                  1e6, "ms", &result);
    PutMedianSelf(summary, "durability.recover", "durability.recover_ms", 1e6,
                  "ms", &result);
    PutMedianSelf(summary, "pqe.refresh", "pqe.refresh_us", 1e3, "us", &result);
    PutMedianSelf(summary, "pqe.rebuild", "pqe.rebuild_ms", 1e6, "ms", &result);
    PutMedianSelf(summary, "pqe.ground", "pqe.ground_ms", 1e6, "ms", &result);
    PutMedianSelf(summary, "kc.fingerprint", "kc.fingerprint_us", 1e3, "us",
                  &result);
    PutMedianSelf(summary, "kc.probe", "kc.probe_us", 1e3, "us", &result);
    PutMedianSelf(summary, "kc.compile", "kc.compile_ms", 1e6, "ms", &result);
    PutMedianSelf(summary, "kc.evaluate", "kc.evaluate_us", 1e3, "us",
                  &result);
    PutReplayCounts(traced.counts, &result);
    if (traced.counts.probes > 0) {
      result.metrics["pqe.ground_share"] = {
          summary.layers.at("pqe.ground").total_self_ns /
              summary.layers.at("replay").total_ns,
          "ratio"};
      // Capacity evictions only: the cache counts invalidations as
      // evictions too.
      result.metrics["kc.evictions"] = {
          static_cast<double>(replay_cache.evictions() - traced.invalidations),
          "count"};
    }
    result.metrics["durability.wal_bytes_per_mutation"] = {
        static_cast<double>(traced.wal_bytes) /
            static_cast<double>(traced.mutations),
        "B/mutation"};

    const SpanSummary setup_summary = Summarize({&setup_spans}, "");
    PutMedianSelf(setup_summary, "storage.finish", "storage.build_s", 1e9, "s",
                  &result);
    PutMedianSelf(setup_summary, "durability.create", "durability.create_s",
                  1e9, "s", &result);
    PutMedianSelf(setup_summary, "logic.parse", "logic.parse_us", 1e3, "us",
                  &result);
    result.metrics["storage.bytes_per_fact"] = {bytes_per_fact, "B/fact"};

    ReportLayers(summary, "batch", &result);
    const double untraced_p50 = Percentile(reference.latency_ms, 0.5);
    const double traced_p50 = Percentile(traced.latency_ms, 0.5);
    result.report.push_back(
        "tracing overhead: p50 untraced=" + Num(untraced_p50) +
        " ms traced=" + Num(traced_p50) + " ms (" +
        Num((traced_p50 / untraced_p50 - 1) * 100) + " %)");
    const std::string span_file = options_.work_dir + "/spans-ingest_refresh-" +
                                  std::to_string(options_.seed) + ".jsonl";
    result.report.push_back(WriteSpanFile(span_file, {&traced.spans})
                                ? "span file: " + span_file
                                : "span file not written: " + span_file);
  }
  Teardown(&live);
  return result;
}

}  // namespace

Result RunIngestRefresh(const Options& options) {
  return IngestWorkload(options).Run();
}

}  // namespace perfbench
