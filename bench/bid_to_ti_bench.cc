// Theorem 5.9 (BID ⊆ FO(TI)) across block structures: exact verification
// of the Lemma 5.7 construction on finite BID-PDBs of varying shapes,
// plus the countable Proposition D.3 family handled by truncation.

#include <cstdio>
#include <vector>

#include "core/bid_to_ti.h"
#include "core/paper_examples.h"

namespace {

using ipdb::math::Rational;
namespace core = ipdb::core;
namespace pdb = ipdb::pdb;
namespace rel = ipdb::rel;

rel::Fact U(int64_t v) { return rel::Fact(0, {rel::Value::Int(v)}); }

void Run(const char* label, const pdb::BidPdb<Rational>& bid) {
  auto built = core::BuildBidToTi(bid);
  if (!built.ok()) {
    std::printf("  %-34s failed: %s\n", label,
                built.status().ToString().c_str());
    return;
  }
  auto tv = core::VerifyBidToTi(bid, built.value());
  int facts = built.value().ti.num_facts();
  std::printf("  %-34s blocks=%-3lld facts=%-3d condition size=%-5d "
              "TV=%s\n",
              label, static_cast<long long>(bid.num_blocks()), facts,
              built.value().condition.Size(),
              tv.ok() ? (tv.value() == 0.0 ? "0 (exact)" : "nonzero!")
                      : "error");
}

}  // namespace

int main() {
  std::printf("=== Theorem 5.9: BID as FO-views over TI ===\n\n");

  rel::Schema schema({{"U", 1}});

  Run("Example B.2 (residual 0)", core::ExampleB2());

  Run("two blocks, positive residuals",
      pdb::BidPdb<Rational>::CreateOrDie(
          schema, {{{U(1), Rational::Ratio(1, 3)},
                    {U(2), Rational::Ratio(1, 3)}},
                   {{U(3), Rational::Ratio(1, 4)}}}));

  Run("mixed residuals",
      pdb::BidPdb<Rational>::CreateOrDie(
          schema, {{{U(1), Rational::Ratio(2, 3)},
                    {U(2), Rational::Ratio(1, 3)}},
                   {{U(3), Rational::Ratio(1, 2)}},
                   {{U(4), Rational::Ratio(1, 5)},
                    {U(5), Rational::Ratio(1, 5)}}}));

  {
    rel::Schema multi({{"A", 1}, {"B", 2}});
    rel::Fact a(0, {rel::Value::Int(1)});
    rel::Fact b(1, {rel::Value::Int(1), rel::Value::Int(2)});
    Run("multi-relation block",
        pdb::BidPdb<Rational>::CreateOrDie(
            multi, {{{a, Rational::Ratio(1, 2)},
                     {b, Rational::Ratio(1, 2)}}}));
  }

  // Countable: the Proposition D.3 family via a truncated prefix (each
  // block finite; the tail certificate bounds the ignored mass).
  {
    pdb::CountableBidPdb countable = core::PropositionD3Bid();
    pdb::BidPdb<double> prefix = countable.Truncate(3);
    auto built = core::BuildBidToTi(prefix);
    if (built.ok()) {
      auto tv = core::VerifyBidToTi(prefix, built.value());
      std::printf(
          "  %-34s blocks=%-3lld facts=%-3lld condition size=%-5d "
          "TV=%.3g\n",
          "Prop. D.3 truncation (double)",
          static_cast<long long>(prefix.num_blocks()),
          static_cast<long long>(built.value().ti.num_facts()),
          built.value().condition.Size(),
          tv.ok() ? tv.value() : -1.0);
    }
  }

  std::printf("\nEvery BID-PDB rebuilt as condition + projection over an "
              "augmented TI-PDB.\n");
  return 0;
}
