// Reproduces Example 5.5 and Theorem 5.3: a PDB of *unbounded* instance
// size (|D_i| = i, P(D_i) = 2^{-i²}/x) that satisfies the growth
// criterion with c = 1 and therefore lies in FO(TI). The table shows the
// criterion terms i·P^{1/i} shrinking geometrically; the paper bounds
// their sum by 2/x.

#include <cstdio>

#include "core/growth_criterion.h"
#include "core/paper_examples.h"
#include "core/segment_construction.h"
#include "core/size_moments.h"

int main() {
  namespace core = ipdb::core;

  std::printf("=== Example 5.5 / Theorem 5.3: unbounded size, still in "
              "FO(TI) ===\n\n");

  core::CriterionFamily criterion = core::Example55Criterion();
  ipdb::Series series = core::CriterionSeries(criterion, 1);
  std::printf("  %-4s %-10s %-16s %-16s\n", "i", "|D_i|", "term i*P^(1/i)",
              "partial sum");
  double partial = 0.0;
  for (int64_t i = 0; i < 12; ++i) {
    double term = series.term(i);
    partial += term;
    std::printf("  %-4lld %-10lld %-16.8f %-16.8f\n",
                static_cast<long long>(i + 1),
                static_cast<long long>(criterion.size_at(i)), term,
                partial);
  }

  core::GrowthCriterionResult result =
      core::FindCriterionWitness(criterion, 3);
  std::printf("\n%s\n", result.ToString().c_str());

  // Moments also all finite (consistency with Prop. 3.4).
  ipdb::pdb::CountablePdb ex55 = core::Example55();
  core::FiniteMomentsReport moments = core::CheckFiniteMoments(ex55, 4);
  std::printf("moments 1..4 finite: %s; E|D| enclosure %s\n",
              moments.all_finite_certified ? "yes" : "NO",
              moments.moments[0].enclosure.ToString().c_str());

  // Constructive side: run the Lemma 5.1 construction on a truncation
  // and verify the reconstruction.
  auto prefix = ex55.TruncateAndRenormalize(3);
  if (prefix.ok()) {
    auto built = core::BuildSegmentConstruction(prefix.value(), 1);
    if (built.ok()) {
      auto tv = core::VerifySegmentConstruction(prefix.value(),
                                                built.value());
      std::printf(
          "Lemma 5.1 on the 3-world truncation: %lld segment facts, "
          "TV = %.3g\n",
          static_cast<long long>(built.value().ti.num_facts()),
          tv.ok() ? tv.value() : -1.0);
    }
  }
  return 0;
}
