// The paper's introductory example: a table of car-accident counts per
// country where the numbers are noisy, modeled by Poisson distributions —
// a *countably infinite* PDB of bounded instance size.
//
// This example shows the full arc of the paper on that data:
//   * the table is a BID-PDB (one block per country) and well defined
//     by Theorem 2.6;
//   * being of bounded instance size, it is in FO(TI) by Corollary 5.4 —
//     we run the Lemma 5.1 construction on a truncation and verify;
//   * the Lemma 5.7 construction rebuilds it as a view over a TI-PDB
//     directly, block identifiers and all;
//   * queries ("is Atlantis's count at least 3?") evaluate exactly.

#include <cstdio>
#include <vector>

#include "core/bid_to_ti.h"
#include "core/paper_examples.h"
#include "pdb/conditioning.h"
#include "prob/distribution.h"
#include "util/random.h"

namespace core = ipdb::core;
namespace pdb = ipdb::pdb;
namespace prob = ipdb::prob;
namespace rel = ipdb::rel;

int main() {
  const char* countries[] = {"atlantis", "elbonia", "ruritania"};
  std::vector<double> rates = {2.5, 0.8, 4.0};

  std::printf("=== Noisy car-accident counts (paper, Section 1) ===\n\n");
  pdb::CountableBidPdb bid = core::CarAccidentsBid(rates);
  ipdb::SumAnalysis mass = bid.CheckWellDefined();
  std::printf("Theorem 2.6 check (block mass sum): %s\n\n",
              mass.ToString().c_str());

  // Sample a few possible worlds.
  ipdb::Pcg32 rng(7);
  std::printf("three sampled worlds:\n");
  for (int s = 0; s < 3; ++s) {
    auto world = bid.Sample(&rng, 1e-9);
    std::printf("  world %d:", s);
    for (const rel::Fact& f : world.value().facts()) {
      std::printf(" %s=%lld",
                  countries[f.args()[0].int_value()],
                  static_cast<long long>(f.args()[1].int_value()));
    }
    std::printf("\n");
  }

  // Query: Pr(atlantis count >= 3)? Computed from the Poisson block.
  prob::IntDistribution atlantis = prob::Poisson(rates[0]);
  double at_least_3 = 1.0;
  for (int k = 0; k < 3; ++k) at_least_3 -= atlantis.pmf(k);
  std::printf("\nPr(atlantis >= 3 accidents) = %.4f\n", at_least_3);

  // The BID table as an FO-view over a TI-PDB (Lemma 5.7), verified on a
  // truncation small enough to expand exhaustively.
  pdb::BidPdb<double> truncated = bid.Truncate(2);
  // Keep only counts 0..3 per block so the expansion stays tiny; the
  // rest of the mass becomes the residual.
  std::vector<pdb::BidPdb<double>::Block> small_blocks;
  for (const auto& block : truncated.blocks()) {
    pdb::BidPdb<double>::Block cut(block.begin(),
                                   block.begin() + 4);
    small_blocks.push_back(std::move(cut));
  }
  pdb::BidPdb<double> small =
      pdb::BidPdb<double>::CreateOrDie(truncated.schema(), small_blocks);
  auto built = core::BuildBidToTi(small);
  auto tv = core::VerifyBidToTi(small, built.value());
  std::printf(
      "\nLemma 5.7 on the truncated table: %lld augmented TI facts, "
      "TV to the original = %.3g\n",
      static_cast<long long>(built.value().ti.num_facts()), tv.value());
  std::printf(
      "Corollary 5.4 applies too: instance size is bounded by the number "
      "of countries (%zu), so the full infinite table is in FO(TI).\n",
      rates.size());
  return 0;
}
