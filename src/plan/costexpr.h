// Symbolic cost expressions: the arithmetic of the gpusim cost walker,
// captured once at plan-build time as a flat arena of DAG nodes and
// re-evaluated per dataset in a single forward pass.
//
// The cost of a kernel (flops, global/local bytes, thread count, loop trip
// multipliers, scratchpad need) depends on the dataset only through size
// variables and on the device only through a handful of profile fields
// (tile size, workgroup limit, scratchpad capacity).  A CostArena records
// every arithmetic step the IR walker would perform — same
// operations, same operand order, same integer truncations — so evaluating
// the arena against a SizeEnv reproduces the walker's results bit for bit
// without touching the IR again.
//
// Node ids are indices into the arena vector; nodes only reference earlier
// nodes, so one forward sweep computes every value, dispatching once per
// node.  Unbound size variables, and int64 sums, differences, products and
// quotients that overflow (src/support/checked.h), poison their dependents
// (valid bit) instead of throwing, because a node may sit on a code-version
// path the current traversal never takes; the error surfaces only if a
// traversal actually reads a poisoned value — exactly when the walker would
// have thrown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/gpusim/device.h"
#include "src/ir/type.h"

namespace incflat {

enum class COp : uint8_t {
  ConstF,       // payload f
  ConstI,       // payload i
  SizeVar,      // payload i = index into the arena's size-variable table
  DevTileF,     // static_cast<double>(dev.tile_size)
  DevMaxGroupI, // int64_t(dev.max_group_size)
  DevLocalMemF, // static_cast<double>(dev.local_mem_bytes)
  AddF, MulF, DivF, MinF, MaxF,
  AddI, SubI, MulI, DivI, MinI, MaxI,  // DivI: y == 0 -> 0 (walker semantics)
  IntToF,       // static_cast<double>(int64_t)
  GeF, GtF,     // double comparison -> 0/1
  SelF, SelI,   // a ? b : c
  CeilF, Log2F,
  Invalid,      // build-time "this would throw": poisons dependents
};

/// One arena node; a/b/c index earlier nodes.
struct CNode {
  COp op = COp::ConstF;
  int32_t a = -1, b = -1, c = -1;
  double f = 0;
  int64_t i = 0;
};

/// Append-only expression arena.  Binary ops on two constants fold at build
/// time (computing the same operation earlier is bitwise-identical; an
/// integer overflow folds to an Invalid node);
/// x + 0.0 and x * 1.0 fold because cost quantities are never -0.0 / NaN.
/// Each constant value and size variable has one node: constants compare
/// by their bits, except that 0.0 and -0.0 share the first one made, and
/// size variables by name.
class CostArena {
 public:
  int constf(double v);
  int consti(int64_t v);
  int size_var(const std::string& name);
  int dev_tile_f();
  int dev_max_group_i();
  int dev_local_mem_f();
  int invalid();

  int addf(int a, int b);
  int mulf(int a, int b);
  int divf(int a, int b);
  int minf(int a, int b);
  int maxf(int a, int b);

  int addi(int a, int b);
  int subi(int a, int b);
  int muli(int a, int b);
  int divi(int a, int b);
  int mini(int a, int b);
  int maxi(int a, int b);

  int i2f(int a);
  int gef(int a, int b);
  int gtf(int a, int b);
  int self(int cond, int a, int b);
  int seli(int cond, int a, int b);
  int ceilf_(int a);
  int log2f_(int a);

  const std::vector<CNode>& nodes() const { return nodes_; }
  const std::vector<std::string>& size_vars() const { return var_names_; }
  size_t size() const { return nodes_.size(); }

 private:
  int push(CNode n);
  int fold2(COp op, int a, int b);
  bool is_constf(int id, double* v) const;
  bool is_consti(int id, int64_t* v) const;

  /// A constant's op and bits; 0.0 and -0.0 have the same bits here.
  struct ConstKey {
    COp op;
    uint64_t bits;
    bool operator==(const ConstKey&) const = default;
  };
  struct ConstKeyHash {
    size_t operator()(const ConstKey& k) const {
      return std::hash<uint64_t>{}(k.bits) ^ static_cast<size_t>(k.op);
    }
  };

  /// The ConstF or ConstI node `n` with key `bits`, pushed when there is
  /// none yet.
  int intern(const CNode& n, uint64_t bits);

  std::vector<CNode> nodes_;
  std::vector<std::string> var_names_;
  std::unordered_map<ConstKey, int, ConstKeyHash> consts_;
  std::unordered_map<std::string, int> vars_;  // name -> SizeVar node
};

/// All node values for one (device, dataset) pair, computed in one forward
/// sweep.  Reading a poisoned node throws EvalError (the walker's
/// behaviour when its lazily-taken path hits an unbound size variable or an
/// overflowing size).
class CostValues {
 public:
  CostValues(const CostArena& arena, const DeviceProfile& dev,
             const SizeEnv& sizes);

  double get_f(int id) const;
  int64_t get_i(int id) const;
  bool is_valid(int id) const { return valid_[static_cast<size_t>(id)]; }

 private:
  struct Val {
    double f = 0;
    int64_t i = 0;
  };
  std::vector<Val> vals_;
  std::vector<uint8_t> valid_;
};

}  // namespace incflat
