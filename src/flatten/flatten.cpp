#include "src/flatten/flatten.h"

#include "src/pass/pass.h"
#include "src/support/error.h"
#include "src/support/trace.h"

namespace incflat {

const char* mode_name(FlattenMode m) {
  switch (m) {
    case FlattenMode::Moderate: return "moderate";
    case FlattenMode::Incremental: return "incremental";
    case FlattenMode::Full: return "full";
  }
  return "?";
}

FlattenMode mode_from_name(const std::string& name) {
  if (name == "moderate") return FlattenMode::Moderate;
  if (name == "incremental") return FlattenMode::Incremental;
  if (name == "full") return FlattenMode::Full;
  throw CompilerError("unknown flattening mode '" + name +
                      "' (valid modes: moderate, incremental, full)");
}

FlattenResult flatten(const Program& src, FlattenMode mode,
                      const FlattenOptions& opts) {
  require_typed_source(src);
  trace::Span span_all("flatten");
  PipelineState st;
  st.program = src;
  st.mode = mode;
  st.options = opts;
  flatten_pipeline(mode).run(st);
  ThresholdRegistry thresholds(st.program.body);
  return FlattenResult{std::move(st.program), std::move(thresholds)};
}

void require_typed_source(const Program& src) {
  if (!src.body || src.body->types.empty()) {
    INCFLAT_FAIL("program '" + src.name +
                 "' is not type-annotated: run typecheck_program on it "
                 "before compiling");
  }
}

}  // namespace incflat
