#include "src/pass/pass.h"

#include <cstdlib>
#include <cstring>

#include "src/analysis/simplify.h"
#include "src/flatten/fusion.h"
#include "src/flatten/normalize.h"
#include "src/flatten/prune.h"
#include "src/flatten/tiling.h"
#include "src/flatten/transform.h"
#include "src/ir/traverse.h"
#include "src/ir/typecheck.h"
#include "src/ir/verify.h"
#include "src/support/error.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

struct FusionPass final : Pass {
  const char* name() const override { return "fusion"; }
  const char* span_name() const override { return "pass.fusion"; }
  void run(PipelineState& st) const override {
    if (!st.options.fuse) return;  // Sec. 5.3 no-fusion ablation
    st.program = fuse_program(std::move(st.program));
  }
};

struct NormalizePass final : Pass {
  const char* name() const override { return "normalize"; }
  const char* span_name() const override { return "pass.normalize"; }
  void run(PipelineState& st) const override {
    st.program = normalize_program(std::move(st.program));
    if (trace::enabled()) {
      trace::count("flatten.fused_soacs", count_fused(st.program.body));
    }
  }
};

struct TransformPass final : Pass {
  explicit TransformPass(FlattenMode mode) : mode_(mode) {}
  const char* name() const override { return mode_name(mode_); }
  const char* span_name() const override {
    switch (mode_) {
      case FlattenMode::Moderate: return "pass.moderate";
      case FlattenMode::Incremental: return "pass.incremental";
      case FlattenMode::Full: return "pass.full";
    }
    return "pass.?";
  }
  void run(PipelineState& st) const override {
    st.mode = mode_;
    st.program.body = transform_program(st.program, mode_);
  }

 private:
  FlattenMode mode_;
};

struct PruneSegbindsPass final : Pass {
  const char* name() const override { return "prune-segbinds"; }
  const char* span_name() const override { return "pass.prune-segbinds"; }
  void run(PipelineState& st) const override {
    st.program.body = prune_seg_spaces(st.program.body);
  }
};

struct TilingPass final : Pass {
  const char* name() const override { return "tiling"; }
  const char* span_name() const override { return "pass.tiling"; }
  void run(PipelineState& st) const override {
    st.program = apply_tiling(std::move(st.program));
    // The target level discipline is part of the pipeline's contract, not
    // just an opt-in verification — always enforced, as it always was.
    check_level_discipline(st.program.body);
    if (trace::enabled()) {
      trace::count("flatten.tiled_kernels", count_tiled(st.program.body));
    }
  }
};

struct SimplifyGuardsPass final : Pass {
  const char* name() const override { return "simplify-guards"; }
  const char* span_name() const override { return "pass.simplify-guards"; }
  void run(PipelineState& st) const override {
    analysis::simplify_guards(st.program, st.limits);
  }
};

struct PlanBuildPass final : Pass {
  const char* name() const override { return "plan-build"; }
  const char* span_name() const override { return "pass.plan-build"; }
  void run(PipelineState& st) const override {
    st.plan =
        std::make_shared<const KernelPlan>(build_kernel_plan(st.program));
  }
};

bool env_verify_each() {
  const char* v = std::getenv("INCFLAT_VERIFY_EACH");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace

std::unique_ptr<Pass> make_pass(const std::string& name) {
  if (name == "fusion") return std::make_unique<FusionPass>();
  if (name == "normalize") return std::make_unique<NormalizePass>();
  if (name == "moderate") {
    return std::make_unique<TransformPass>(FlattenMode::Moderate);
  }
  if (name == "incremental") {
    return std::make_unique<TransformPass>(FlattenMode::Incremental);
  }
  if (name == "full") {
    return std::make_unique<TransformPass>(FlattenMode::Full);
  }
  if (name == "prune-segbinds") return std::make_unique<PruneSegbindsPass>();
  if (name == "tiling") return std::make_unique<TilingPass>();
  if (name == "simplify-guards") {
    return std::make_unique<SimplifyGuardsPass>();
  }
  if (name == "plan-build") return std::make_unique<PlanBuildPass>();
  std::string known;
  for (const auto& n : pass_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw CompilerError("unknown pass '" + name + "' (known passes: " + known +
                      ")");
}

std::vector<std::string> pass_names() {
  return {"fusion",         "normalize", "moderate",
          "incremental",    "full",      "prune-segbinds",
          "tiling",         "simplify-guards", "plan-build"};
}

PassManager& PassManager::add(std::unique_ptr<Pass> p) {
  passes_.push_back(std::move(p));
  return *this;
}

PassManager& PassManager::add(const std::string& name) {
  return add(make_pass(name));
}

void PassManager::run(PipelineState& st, const PassManagerOptions& opts) const {
  const bool verify_each = opts.verify_each || env_verify_each();
  for (const auto& p : passes_) {
    {
      trace::Span span(p->span_name(), "pass");
      p->run(st);
    }
    if (verify_each) {
      verify_program(st.program,
                     "after pass '" + std::string(p->name()) + "'");
    }
    if (opts.after_pass) opts.after_pass(*p, st);
  }
}

PassManager flatten_pipeline(FlattenMode mode) {
  PassManager pm;
  pm.add("fusion").add("normalize").add(mode_name(mode));
  pm.add("prune-segbinds").add("tiling");
  return pm;
}

PassManager compile_pipeline(FlattenMode mode, bool simplify) {
  PassManager pm = flatten_pipeline(mode);
  if (simplify) {
    // The prune rerun removes seg-space bindings whose only consumer was a
    // version simplify-guards deleted.
    pm.add("simplify-guards").add("prune-segbinds");
  }
  pm.add("plan-build");
  return pm;
}

}  // namespace incflat
