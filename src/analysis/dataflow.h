// Def-use chains and liveness over the SOAC IR.
//
// def_use records every binder in a program — inputs, size parameters,
// lets, loop params and indices, lambda and seg-space params — with its
// use count.  In a pure expression language with single-assignment
// binders, classic backward liveness degenerates to "is the binding
// referenced anywhere in its scope", so a zero use count *is* the
// dead-code verdict (dead_defs), which lint reports as dead-binding.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/ir/expr.h"

namespace incflat {
namespace analysis {

enum class DefKind {
  Input,
  SizeParam,
  Let,
  LoopParam,
  LoopIndex,
  LambdaParam,
  SegParam,
  CombineParam,
};

const char* def_kind_name(DefKind k);

struct DefInfo {
  DefKind kind = DefKind::Let;
  int uses = 0;
};

/// Def-use summary of one program.  Binder names are assumed globally
/// unique (the pipeline's NameGen guarantees it); shadowed re-definitions
/// merge their use counts, which only ever *over*-approximates liveness.
struct DefUse {
  std::map<std::string, DefInfo> defs;
};

DefUse def_use(const Program& p);

/// Names of let/loop/lambda/seg bindings with zero uses — dead code.
/// Inputs and size parameters are excluded (an unused input is an API
/// choice, not dead IR).
std::vector<std::string> dead_defs(const DefUse& du);

}  // namespace analysis
}  // namespace incflat
