// A sensor-network scenario (the paper's other motivating domain,
// Section 1 / [19, 48]): readings arrive from unreliable sensors. Each
// sensor either reports one discretized temperature (mutually exclusive
// outcomes — a BID block) or drops out (the residual). Sensor links are
// independently up or down — a TI relation.
//
// The example demonstrates mixing BID and TI data in one schema,
// sampling joint worlds, answering an exact query through lineage WMC
// on the TI part, and conditioning the BID part on an FO constraint.

#include <cstdio>
#include <vector>

#include "logic/parser.h"
#include "pdb/bid_pdb.h"
#include "pdb/conditioning.h"
#include "pdb/ti_pdb.h"
#include "pqe/wmc.h"
#include "util/random.h"

namespace pdb = ipdb::pdb;
namespace rel = ipdb::rel;
namespace logic = ipdb::logic;

int main() {
  // Schema: Reading(sensor, temp_bucket), Link(sensor, sensor).
  rel::Schema schema({{"Reading", 2}, {"Link", 2}});
  auto reading = [](int64_t s, int64_t t) {
    return rel::Fact(0, {rel::Value::Int(s), rel::Value::Int(t)});
  };
  auto link = [](int64_t a, int64_t b) {
    return rel::Fact(1, {rel::Value::Int(a), rel::Value::Int(b)});
  };

  // Readings: one block per sensor over buckets {18, 19, 20}; sensor 2
  // is flaky (high residual = frequent dropout).
  pdb::BidPdb<double> readings = pdb::BidPdb<double>::CreateOrDie(
      schema, {{{reading(0, 18), 0.2},
                {reading(0, 19), 0.5},
                {reading(0, 20), 0.3}},
               {{reading(1, 19), 0.6}, {reading(1, 20), 0.4}},
               {{reading(2, 18), 0.3}, {reading(2, 19), 0.2}}});

  // Links: independent.
  pdb::TiPdb<double> links = pdb::TiPdb<double>::CreateOrDie(
      schema, {{link(0, 1), 0.9}, {link(1, 2), 0.7}, {link(0, 2), 0.1}});

  std::printf("=== Sensor network: BID readings + TI links ===\n\n");
  std::printf("readings (block-independent disjoint):\n%s\n",
              readings.ToString().c_str());
  std::printf("links (tuple-independent):\n%s\n",
              links.ToString().c_str());

  // Joint sampling (the two parts are independent probability spaces).
  ipdb::Pcg32 rng(11);
  std::printf("three joint samples:\n");
  for (int s = 0; s < 3; ++s) {
    rel::Instance world = rel::Instance::Union(readings.Sample(&rng),
                                               links.Sample(&rng));
    std::printf("  %s\n", world.ToString(schema).c_str());
  }

  // Exact query on the TI part: does sensor 0 reach sensor 2?
  logic::Formula reach =
      logic::ParseSentence(
          "Link(0, 2) | (Link(0, 1) & Link(1, 2))", schema)
          .value();
  auto p = ipdb::pqe::QueryProbability(links, reach);
  std::printf("\nPr(sensor 0 reaches sensor 2) = %.4f\n", p.value());

  // Condition the readings on an FO constraint: "no sensor reports a
  // bucket below 19" — the conditioned distribution renormalizes and
  // keeps the block structure.
  pdb::FinitePdb<double> expanded = readings.Expand();
  logic::Formula constraint =
      logic::ParseSentence("!(exists s. Reading(s, 18))", schema).value();
  auto conditioned = pdb::Condition(expanded, constraint);
  std::printf(
      "\nafter conditioning on 'no 18-degree readings' (%lld worlds "
      "remain):\n",
      static_cast<long long>(conditioned.value().num_worlds()));
  rel::Fact probe = reading(0, 19);
  std::printf("  marginal of Reading(0, 19): %.4f -> %.4f\n",
              expanded.Marginal(probe),
              conditioned.value().Marginal(probe));
  return 0;
}
