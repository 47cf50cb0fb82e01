#ifndef IPDB_KC_EVALUATE_H_
#define IPDB_KC_EVALUATE_H_

#include <cstdint>
#include <vector>

#include "kc/circuit.h"
#include "math/rational.h"
#include "util/budget.h"
#include "util/interval.h"
#include "util/status.h"

namespace ipdb {
namespace kc {

/// Circuit-linear inference over a compiled d-DNNF: decomposable AND
/// multiplies, deterministic OR adds, a positive literal of variable v
/// contributes probs[v] and a negative one 1 − probs[v]. Because the
/// pass is generic over the value type, one compiled artifact serves
///
///  * `double`        — the fast serving path,
///  * `math::Rational`— exact end-to-end PQE (no rounding anywhere:
///                      grounding, compilation and evaluation are all
///                      exact), and
///  * `util::Interval`— certified enclosures from interval marginals,
///
/// plus reverse-mode differentiation (`EvaluateGradient`): all tuple
/// sensitivities ∂Pr/∂pᵢ in one forward + one backward traversal.

/// Additive/multiplicative identities of the value types accepted by
/// the evaluators.
template <typename T>
struct SemiringTraits;

template <>
struct SemiringTraits<double> {
  static double Zero() { return 0.0; }
  static double One() { return 1.0; }
};

template <>
struct SemiringTraits<math::Rational> {
  static math::Rational Zero() { return math::Rational(); }
  static math::Rational One() { return math::Rational(1); }
};

template <>
struct SemiringTraits<Interval> {
  static Interval Zero() { return Interval::Point(0.0); }
  static Interval One() { return Interval::Point(1.0); }
};

/// Rejects probability vectors with entries outside [0, 1] (NaN
/// included) — the shared input gate of the double-valued entry points.
Status ValidateProbabilities(const std::vector<double>& probs);

/// Budget-governed exact evaluation: EvaluateCircuit<math::Rational>
/// with `budget->max_bigint_limbs` enforced through a math::ScopedLimbCap
/// around the whole pass (exact weights grow without bound; the cap is
/// what keeps one adversarial query from eating the heap) and the
/// deadline/cancel token polled per node. Returns kResourceExhausted
/// when any intermediate exceeded the limb cap — partial over-cap values
/// are never returned. A null/unlimited budget is the plain exact pass.
StatusOr<math::Rational> EvaluateCircuitExact(
    const Circuit& circuit, NodeId root,
    const std::vector<math::Rational>& probs,
    const ExecutionBudget* budget = nullptr);

/// The weighted model count of the circuit under `probs` (marginal of
/// variable v at probs[v]): a std::vector<T>, or any type with size()
/// and operator[] that reads marginals where they live; only the
/// circuit's literal variables are read. Requires probs.size() >=
/// num_variables().
/// Correct only on valid d-DNNF circuits (see the Check* methods); the
/// compiler guarantees validity by construction.
///
/// `meter`, when non-null, is charged one unit per circuit node so a
/// governed caller's deadline/cancel token is polled amortized during
/// long evaluations; a tripped meter aborts with its error. Null keeps
/// the loop exactly as cheap as before (one pointer test per node).
template <typename T, typename Probs = std::vector<T>>
StatusOr<T> EvaluateCircuit(const Circuit& circuit, NodeId root,
                            const Probs& probs,
                            BudgetMeter* meter = nullptr) {
  if (root < 0 || root >= circuit.size()) {
    return InvalidArgumentError("circuit root out of range");
  }
  if (static_cast<int64_t>(probs.size()) < circuit.num_variables()) {
    return InvalidArgumentError(
        "probability vector shorter than the circuit's variable count");
  }
  std::vector<T> value(static_cast<size_t>(root) + 1,
                       SemiringTraits<T>::Zero());
  for (NodeId id = 0; id <= root; ++id) {
    if (meter != nullptr) {
      Status status = meter->Charge();
      if (!status.ok()) return status;
    }
    switch (circuit.kind(id)) {
      case CircuitKind::kTrue:
        value[id] = SemiringTraits<T>::One();
        break;
      case CircuitKind::kFalse:
        value[id] = SemiringTraits<T>::Zero();
        break;
      case CircuitKind::kLiteral: {
        const T& p = probs[circuit.variable(id)];
        value[id] =
            circuit.positive(id) ? p : SemiringTraits<T>::One() - p;
        break;
      }
      case CircuitKind::kAnd: {
        T product = SemiringTraits<T>::One();
        for (NodeId c : circuit.children(id)) product = product * value[c];
        value[id] = std::move(product);
        break;
      }
      case CircuitKind::kOr: {
        T sum = SemiringTraits<T>::Zero();
        for (NodeId c : circuit.children(id)) sum = sum + value[c];
        value[id] = std::move(sum);
        break;
      }
    }
  }
  return value[root];
}

/// All marginal sensitivities in one reverse pass: returns g with
/// g[v] = ∂ Pr[circuit] / ∂ probs[v], sized like `probs` (zero for
/// variables outside the root's support). Because Pr is
/// multilinear in the marginals, g[v] also equals
/// Pr(· | v = 1) − Pr(· | v = 0) — the *tuple influence* of fact v.
/// Requires a ring (subtraction): double or math::Rational.
template <typename T>
StatusOr<std::vector<T>> EvaluateGradient(const Circuit& circuit, NodeId root,
                                          const std::vector<T>& probs) {
  if (root < 0 || root >= circuit.size()) {
    return InvalidArgumentError("circuit root out of range");
  }
  if (static_cast<int>(probs.size()) < circuit.num_variables()) {
    return InvalidArgumentError(
        "probability vector shorter than the circuit's variable count");
  }
  const T zero = SemiringTraits<T>::Zero();
  const T one = SemiringTraits<T>::One();
  // Forward values.
  std::vector<T> value(static_cast<size_t>(root) + 1, zero);
  for (NodeId id = 0; id <= root; ++id) {
    switch (circuit.kind(id)) {
      case CircuitKind::kTrue:
        value[id] = one;
        break;
      case CircuitKind::kFalse:
        break;
      case CircuitKind::kLiteral: {
        const T& p = probs[circuit.variable(id)];
        value[id] = circuit.positive(id) ? p : one - p;
        break;
      }
      case CircuitKind::kAnd: {
        T product = one;
        for (NodeId c : circuit.children(id)) product = product * value[c];
        value[id] = std::move(product);
        break;
      }
      case CircuitKind::kOr: {
        T sum = zero;
        for (NodeId c : circuit.children(id)) sum = sum + value[c];
        value[id] = std::move(sum);
        break;
      }
    }
  }
  // Reverse pass: adjoint[n] = ∂ value[root] / ∂ value[n]. Ids are
  // topologically ordered, so one descending sweep suffices.
  std::vector<T> adjoint(static_cast<size_t>(root) + 1, zero);
  adjoint[root] = one;
  std::vector<T> prefix;
  std::vector<T> suffix;
  for (NodeId id = root; id >= 0; --id) {
    if (adjoint[id] == zero) continue;
    const std::vector<NodeId>& kids = circuit.children(id);
    switch (circuit.kind(id)) {
      case CircuitKind::kAnd: {
        // ∂(Π value[c_j]) / ∂ value[c_i] = Π_{j≠i} value[c_j], via
        // prefix/suffix products (division-free: values may be zero).
        const size_t k = kids.size();
        prefix.assign(k + 1, one);
        suffix.assign(k + 1, one);
        for (size_t i = 0; i < k; ++i) {
          prefix[i + 1] = prefix[i] * value[kids[i]];
        }
        for (size_t i = k; i > 0; --i) {
          suffix[i - 1] = suffix[i] * value[kids[i - 1]];
        }
        for (size_t i = 0; i < k; ++i) {
          adjoint[kids[i]] =
              adjoint[kids[i]] + adjoint[id] * prefix[i] * suffix[i + 1];
        }
        break;
      }
      case CircuitKind::kOr:
        for (NodeId c : kids) adjoint[c] = adjoint[c] + adjoint[id];
        break;
      default:
        break;
    }
  }
  // Literal adjoints fold into per-variable gradients: d(p)/dp = 1 for
  // a positive literal, d(1−p)/dp = −1 for a negative one.
  std::vector<T> gradient(probs.size(), zero);
  for (NodeId id = 0; id <= root; ++id) {
    if (circuit.kind(id) != CircuitKind::kLiteral) continue;
    T& g = gradient[circuit.variable(id)];
    if (circuit.positive(id)) {
      g = g + adjoint[id];
    } else {
      g = g - adjoint[id];
    }
  }
  return gradient;
}

}  // namespace kc
}  // namespace ipdb

#endif  // IPDB_KC_EVALUATE_H_
