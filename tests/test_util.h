#ifndef IPDB_TESTS_TEST_UTIL_H_
#define IPDB_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "logic/formula.h"
#include "math/rational.h"
#include "pdb/finite_pdb.h"
#include "pdb/ti_pdb.h"
#include "relational/fact.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "util/random.h"

namespace ipdb {
namespace testing_util {

/// A random τ-instance over a small integer universe [0, universe):
/// each candidate fact is included with probability `density`.
rel::Instance RandomInstance(const rel::Schema& schema, int universe,
                             double density, Pcg32* rng);

/// A random finite PDB with `num_worlds` worlds of random instances and
/// random rational probabilities (denominator `denom`) summing to one.
pdb::FinitePdb<math::Rational> RandomRationalPdb(const rel::Schema& schema,
                                                 int num_worlds,
                                                 int universe,
                                                 double density, int denom,
                                                 Pcg32* rng);

/// The double shadow of a rational PDB.
pdb::FinitePdb<double> ToDoublePdb(const pdb::FinitePdb<math::Rational>& q);

/// A random finite TI-PDB with rational marginals k/denom.
pdb::TiPdb<math::Rational> RandomRationalTi(const rel::Schema& schema,
                                            int num_facts, int universe,
                                            int denom, Pcg32* rng);

/// Exact brute-force oracle: Σ over the 2^n worlds satisfying the
/// sentence of the world's rational probability.
math::Rational BruteForceRational(const pdb::TiPdb<math::Rational>& ti,
                                  const logic::Formula& sentence);

}  // namespace testing_util
}  // namespace ipdb

#endif  // IPDB_TESTS_TEST_UTIL_H_
