#ifndef IPDB_LOGIC_PARSER_H_
#define IPDB_LOGIC_PARSER_H_

#include <string>

#include "logic/formula.h"
#include "relational/schema.h"
#include "util/status.h"

namespace ipdb {
namespace logic {

/// Parses an ASCII first-order formula against a schema.
///
/// Grammar (precedence from loosest to tightest):
///
///   formula := iff
///   iff     := implies ( "<->" implies )*
///   implies := or ( "->" implies )?            (right associative)
///   or      := and ( "|" and )*
///   and     := unary ( "&" unary )*
///   unary   := "!" unary | quantified | primary
///   quantified := ("exists" | "forall") ident+ "." formula
///   primary := "(" formula ")" | "true" | "false"
///            | Relation "(" term ("," term)* ")"      -- atom
///            | term "=" term | term "!=" term         -- (in)equality
///   term    := ident          -- a variable
///            | integer        -- an integer constant
///            | "'" name "'"   -- a symbol constant
///            | "null"         -- the dummy element ⊥
///
/// A quantifier's body extends as far right as possible. Identifiers used
/// as relation names must exist in the schema; all other identifiers in
/// term position denote variables.
///
/// A formula nests at most kMaxFormulaDepth levels: its depth() and the
/// parentheses, negations, quantified variables and implications open at
/// any point of the input each stay within it, and deeper input is
/// kInvalidArgument. The bound keeps parsing, and every pass that
/// recurses over the parsed formula, far from the stack limit.
///
/// Examples:
///   "exists x. R(x, 7) & !S(x)"
///   "forall i. exists j. Edge(i, j) -> i = j"
inline constexpr int kMaxFormulaDepth = 256;

StatusOr<Formula> ParseFormula(const std::string& text,
                               const rel::Schema& schema);

/// Parses a formula that must be a sentence (no free variables).
StatusOr<Formula> ParseSentence(const std::string& text,
                                const rel::Schema& schema);

}  // namespace logic
}  // namespace ipdb

#endif  // IPDB_LOGIC_PARSER_H_
