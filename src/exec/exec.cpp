#include "src/exec/exec.h"

#include <memory>
#include <sstream>
#include <utility>

#include "src/pass/pass.h"
#include "src/support/str.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

/// Kernel-launch / bytes-moved counters for one priced run (gpusim
/// estimates; bytes are the model's global+local traffic).
void trace_estimate(const RunEstimate& est) {
  if (!trace::enabled()) return;
  trace::count("exec.simulations");
  trace::count("exec.kernel_launches", est.kernel_launches);
  trace::count("exec.global_bytes", static_cast<int64_t>(est.total.gbytes));
  trace::count("exec.local_bytes", static_cast<int64_t>(est.total.lbytes));
}

}  // namespace

Compiled compile(const Program& src, FlattenMode mode,
                 const CompileOptions& opts) {
  require_typed_source(src);
  trace::Span span("compile");

  PassManager pm;
  if (opts.passes.empty()) {
    pm = compile_pipeline(mode, opts.simplify);
  } else {
    for (const auto& name : opts.passes) {
      pm.add(name == "transform" ? mode_name(mode) : name);
    }
  }

  PipelineState st;
  st.program = src;
  st.mode = mode;
  st.options = opts.flatten;
  st.limits = opts.limits;

  PassManagerOptions po;
  po.verify_each = opts.verify_each;
  if (opts.after_pass) {
    po.after_pass = [&opts](const Pass& p, const PipelineState& s) {
      opts.after_pass(p.name(), s.program);
    };
  }
  pm.run(st, po);

  Compiled c;
  c.source = src;
  c.mode = mode;
  ThresholdRegistry thresholds(st.program.body);
  c.flat = FlattenResult{std::move(st.program), std::move(thresholds)};
  c.plan = std::move(st.plan);
  return c;
}

std::shared_ptr<const KernelPlan> plan_of(const Compiled& c) {
  if (c.plan) return c.plan;
  return std::make_shared<const KernelPlan>(build_kernel_plan(c.flat.program));
}

RunEstimate simulate(const DeviceProfile& dev, const Compiled& c,
                     const SizeEnv& sizes, const ThresholdEnv& thresholds) {
  trace::Span span("exec.simulate");
  RunEstimate est = plan_estimate_run(*plan_of(c), dev, sizes, thresholds);
  trace_estimate(est);
  return est;
}

Values execute(const DeviceProfile& dev, const Compiled& c,
               const SizeEnv& sizes, const ThresholdEnv& thresholds,
               const std::vector<Value>& inputs) {
  trace::Span span("exec.execute");
  InterpCtx ctx;
  ctx.sizes = sizes;
  ctx.thresholds = thresholds;
  ctx.max_group_size = dev.max_group_size;
  return run_program(ctx, c.flat.program, inputs);
}

Values execute_source(const Compiled& c, const SizeEnv& sizes,
                      const std::vector<Value>& inputs) {
  InterpCtx ctx;
  ctx.sizes = sizes;
  return run_program(ctx, c.source, inputs);
}

std::string estimate_str(const RunEstimate& e) {
  std::ostringstream os;
  os << fmt_us(e.time_us) << " (" << e.kernel_launches << " launches, "
     << fmt_double(e.total.gbytes / 1e6, 2) << " MB global, "
     << fmt_double(e.total.flops / 1e6, 2) << " Mflop)";
  return os.str();
}

}  // namespace incflat
