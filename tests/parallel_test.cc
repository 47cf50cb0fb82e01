#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/paper_examples.h"
#include "logic/parser.h"
#include "pdb/sampling.h"
#include "pdb/ti_pdb.h"
#include "pqe/expected_answers.h"
#include "pqe/monte_carlo.h"
#include "util/budget.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/status.h"

namespace ipdb {
namespace {

pdb::TiPdb<double> MakeTi(int n) {
  rel::Schema schema({{"U", 1}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < n; ++i) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(i)}),
                       0.5 / (i + 1.0));
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  const int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100 * 99 / 2);
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonBatches) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(1, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, SequentialFallbackPreservesOrder) {
  // threads == 1 must run in index order on the calling thread.
  std::vector<int64_t> order;
  ParallelFor(1, 10, [&](int64_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// The free functions share one process-wide pool. Concurrent callers,
// and a ParallelFor nested inside fn, must each run every index exactly
// once.
TEST(ParallelForTest, ConcurrentAndNestedCallsRunEveryIndexOnce) {
  constexpr int kCallers = 4;
  constexpr int64_t kOuter = 64;
  constexpr int64_t kInner = 16;
  std::vector<std::atomic<int>> outer(kCallers * kOuter);
  std::vector<std::atomic<int>> inner(kOuter * kInner);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      ParallelFor(4, kOuter, [&, c](int64_t i) {
        outer[c * kOuter + i].fetch_add(1, std::memory_order_relaxed);
        if (c != 0) return;
        ParallelFor(4, kInner, [&, i](int64_t j) {
          inner[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t k = 0; k < outer.size(); ++k) {
    EXPECT_EQ(outer[k].load(), 1) << "outer index " << k;
  }
  for (size_t k = 0; k < inner.size(); ++k) {
    EXPECT_EQ(inner[k].load(), 1) << "inner index " << k;
  }
}

TEST(ParallelAccumulateTest, BitIdenticalAcrossThreadCounts) {
  pdb::TiPdb<double> ti = MakeTi(10);
  Pcg32 base(2024, 11);
  auto sampler = [&ti](Pcg32* rng) { return ti.Sample(rng); };
  pdb::SamplingOptions options;
  options.threads = 1;
  pdb::EmpiricalDistribution one =
      pdb::Accumulate(sampler, 20000, base, options);
  options.threads = 2;
  pdb::EmpiricalDistribution two =
      pdb::Accumulate(sampler, 20000, base, options);
  options.threads = 8;
  pdb::EmpiricalDistribution eight =
      pdb::Accumulate(sampler, 20000, base, options);
  EXPECT_EQ(one.total(), 20000);
  EXPECT_EQ(one.counts(), two.counts());
  EXPECT_EQ(one.counts(), eight.counts());
}

TEST(ParallelAccumulateTest, MatchesTargetDistribution) {
  pdb::TiPdb<double> ti = MakeTi(4);
  Pcg32 base(7);
  pdb::SamplingOptions options;
  options.threads = 4;
  pdb::EmpiricalDistribution empirical = pdb::Accumulate(
      [&ti](Pcg32* rng) { return ti.Sample(rng); }, 50000, base, options);
  EXPECT_LT(empirical.TvDistance(ti.Expand()), 0.02);
}

TEST(ParallelAccumulateTest, UnevenShardSplitCoversAllSamples) {
  pdb::TiPdb<double> ti = MakeTi(3);
  Pcg32 base(5);
  pdb::SamplingOptions options;
  options.threads = 3;
  options.shards = 7;  // 100 = 7*14 + 2: shards get uneven sample counts
  pdb::EmpiricalDistribution empirical = pdb::Accumulate(
      [&ti](Pcg32* rng) { return ti.Sample(rng); }, 100, base, options);
  EXPECT_EQ(empirical.total(), 100);
}

TEST(ParallelEstimateTest, FiniteBitIdenticalAcrossThreadCounts) {
  pdb::TiPdb<double> ti = MakeTi(8);
  logic::Formula query =
      logic::ParseSentence("exists x. U(x)", ti.schema()).value();
  Pcg32 base(42, 54);
  pdb::SamplingOptions options;
  std::vector<double> estimates;
  for (int threads : {1, 2, 8}) {
    options.threads = threads;
    auto result =
        pqe::EstimateQueryProbability(ti, query, 20000, base, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    estimates.push_back(result.value().estimate);
    EXPECT_EQ(result.value().samples, 20000);
  }
  EXPECT_EQ(estimates[0], estimates[1]);
  EXPECT_EQ(estimates[0], estimates[2]);
  // And the estimate is near the exact probability 1 - Π(1 - p_i).
  double exact = 1.0;
  for (const auto& [fact, p] : ti.facts()) exact *= 1.0 - p;
  exact = 1.0 - exact;
  EXPECT_NEAR(estimates[0], exact, 0.02);
}

TEST(ParallelEstimateTest, CountableBitIdenticalAcrossThreadCounts) {
  pdb::CountableTiPdb ti = core::Example56Ti();
  logic::Formula query =
      logic::ParseSentence("exists x. U(x)", ti.schema()).value();
  Pcg32 base(99, 3);
  pdb::SamplingOptions options;
  std::vector<double> estimates;
  for (int threads : {1, 2, 8}) {
    options.threads = threads;
    auto result = pqe::EstimateQueryProbability(ti, query, 2000, base,
                                                options, 0.99, 1e-3);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    estimates.push_back(result.value().estimate);
    EXPECT_DOUBLE_EQ(result.value().sampler_bias, 1e-3);
  }
  EXPECT_EQ(estimates[0], estimates[1]);
  EXPECT_EQ(estimates[0], estimates[2]);
}

TEST(ParallelEstimateTest, ValidatesArguments) {
  pdb::TiPdb<double> ti = MakeTi(4);
  logic::Formula sentence =
      logic::ParseSentence("exists x. U(x)", ti.schema()).value();
  logic::Formula open =
      logic::ParseFormula("U(x)", ti.schema()).value();
  Pcg32 base(1);
  pdb::SamplingOptions options;
  EXPECT_EQ(pqe::EstimateQueryProbability(ti, sentence, 0, base, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pqe::EstimateQueryProbability(ti, sentence, 100, base, options,
                                          1.5)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pqe::EstimateQueryProbability(ti, open, 100, base, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  pdb::CountableTiPdb countable = core::Example56Ti();
  logic::Formula countable_query =
      logic::ParseSentence("exists x. U(x)", countable.schema())
          .value();
  EXPECT_EQ(pqe::EstimateQueryProbability(countable, countable_query, 100,
                                          base, options, 0.99, 0.0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ParallelExpectedAnswersTest, MatchesSequentialResult) {
  rel::Schema schema({{"R", 2}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) {
      facts.emplace_back(
          rel::Fact(0, {rel::Value::Int(i), rel::Value::Int(10 + j)}),
          0.1 + 0.05 * (i + j));
    }
  }
  pdb::TiPdb<double> ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
  logic::Formula query =
      logic::ParseFormula("exists y. R(x, y)", ti.schema()).value();
  pdb::SamplingOptions sequential;
  sequential.threads = 1;
  pdb::SamplingOptions parallel;
  parallel.threads = 4;
  auto seq = pqe::RankedAnswers(ti, query, {"x"}, sequential);
  auto par = pqe::RankedAnswers(ti, query, {"x"}, parallel);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  ASSERT_EQ(seq.value().size(), par.value().size());
  for (size_t i = 0; i < seq.value().size(); ++i) {
    EXPECT_EQ(seq.value()[i].tuple, par.value()[i].tuple);
    EXPECT_EQ(seq.value()[i].probability, par.value()[i].probability);
  }
  auto seq_count = pqe::ExpectedAnswerCount(ti, query, {"x"}, sequential);
  auto par_count = pqe::ExpectedAnswerCount(ti, query, {"x"}, parallel);
  ASSERT_TRUE(seq_count.ok());
  ASSERT_TRUE(par_count.ok());
  EXPECT_EQ(seq_count.value(), par_count.value());
}

TEST(TryParallelForTest, AllOkRunsEveryIndexOnce) {
  ThreadPool pool(4);
  const int64_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  Status status = pool.TryParallelFor(n, [&](int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(TryParallelForTest, FirstErrorCancelsBatchAndPoolStaysUsable) {
  ThreadPool pool(4);
  const int64_t n = 10000;
  std::atomic<int64_t> executed{0};
  Status status = pool.TryParallelFor(n, [&](int64_t i) -> Status {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (i >= 100) return OutOfRangeError("boom " + std::to_string(i));
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(status.message().rfind("boom ", 0), 0u) << status.message();

  // Regression: the drain must still claim every remaining index so the
  // batch completes (no deadlock) and the pool accepts the next batch.
  std::atomic<int64_t> second{0};
  Status again = pool.TryParallelFor(1000, [&](int64_t) {
    second.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  });
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(second.load(), 1000);
}

TEST(TryParallelForTest, PreCancelledTokenSkipsAllWork) {
  CancelToken token;
  token.Cancel();
  std::atomic<int64_t> executed{0};
  Status status = TryParallelFor(4, 256, [&](int64_t) {
    executed.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }, &token);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(executed.load(), 0);
}

TEST(TryParallelForTest, SequentialFastPathStopsAtFirstError) {
  std::vector<int64_t> executed;
  Status status = TryParallelFor(1, 100, [&](int64_t i) -> Status {
    executed.push_back(i);
    if (i == 3) return InternalError("boom 3");
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "boom 3");
  EXPECT_EQ(executed, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(TryParallelForTest, MidBatchCancellationReportsCancelled) {
  CancelToken token;
  std::atomic<int64_t> executed{0};
  Status status = TryParallelFor(4, 50000, [&](int64_t i) {
    if (i == 0) token.Cancel();
    executed.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }, &token);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  // Cooperative: some indices ran, but the batch stopped early.
  EXPECT_LT(executed.load(), 50000);
}

}  // namespace
}  // namespace ipdb
