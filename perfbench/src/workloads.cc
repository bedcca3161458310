#include "perfbench/src/workloads.h"

#include <chrono>

#include "src/analysis/access_analysis.h"
#include "src/interp/compiler.h"
#include "src/pipeline/optimizer.h"
#include "src/pipeline/planner.h"
#include "src/support/check.h"
#include "src/workloads/workloads.h"

namespace mira::perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using pipeline::SystemKind;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t LocalBytes(const workloads::Workload& w, int percent) {
  return w.footprint_bytes * static_cast<uint64_t>(percent) / 100;
}

pipeline::PlannerOptions Toggles(bool offload) {
  pipeline::PlannerOptions t;  // every technique on by default
  t.enable_offload = offload;
  return t;
}
// The toggle sets the figure benches call AllOn() and CacheOnly().
pipeline::PlannerOptions AllOn() { return Toggles(true); }
pipeline::PlannerOptions CacheOnly() { return Toggles(false); }

struct Optimized {
  pipeline::CompiledProgram program;
  double seconds = 0;
  uint64_t sims = 0;
  uint64_t rollbacks = 0;
  uint64_t chosen_ns = 0;
};

// One full IterativeOptimizer::Optimize (3 iterations) of `w` at `local`.
Optimized Optimize(const workloads::Workload& w, uint64_t local,
                   const pipeline::PlannerOptions& toggles, int jobs,
                   const WorkloadConfig& config) {
  pipeline::OptimizeOptions opts;
  opts.entry = w.entry;
  opts.local_bytes = local;
  opts.max_iterations = 3;
  opts.planner = toggles;
  opts.train_seed = config.data_seed;
  opts.engine = config.engine;
  opts.jobs = jobs;
  pipeline::IterativeOptimizer optimizer(w.module.get(), opts);
  Optimized out;
  const uint64_t sims0 = interp::SimulationsRun();
  const auto t0 = Clock::now();
  out.program = optimizer.Optimize();
  out.seconds = SecondsSince(t0);
  out.sims = interp::SimulationsRun() - sims0;
  out.chosen_ns = optimizer.baseline_swap_ns();
  for (const pipeline::IterationLog& it : optimizer.log()) {
    if (it.rolled_back) {
      ++out.rollbacks;
    } else {
      out.chosen_ns = it.time_ns;
    }
  }
  return out;
}

struct DeepDive {
  ir::Module module;
  runtime::CachePlan plan;
  double analysis_s = 0;
  double plan_s = 0;
  double passes_s = 0;
};

// The deep-dive compilation: one profiling run on the generic swap
// configuration, then AccessAnalysis::Run → DerivePlan → CompileWithPlan at
// full analysis scope, each step timed.
DeepDive DeepDiveCompile(const workloads::Workload& w, uint64_t local,
                         const pipeline::PlannerOptions& toggles, const WorkloadConfig& config) {
  pipeline::World world = pipeline::MakeWorld(SystemKind::kMira, local);
  interp::InterpOptions iopts;
  iopts.seed = config.data_seed;
  iopts.profiling = true;
  iopts.engine = config.engine;
  interp::Interpreter prof(w.module.get(), world.backend.get(), iopts);
  const auto run = prof.Run(w.entry);
  MIRA_CHECK_MSG(run.ok(), "deep-dive profiling run failed");
  world.backend->Drain(prof.clock());

  DeepDive out;
  auto t = Clock::now();
  analysis::AccessAnalysis access(w.module.get());
  access.Run();
  out.analysis_s = SecondsSince(t);

  pipeline::PlannerOptions popts = toggles;
  popts.local_bytes = local;
  popts.func_frac = 1.0;
  popts.obj_frac = 1.0;
  t = Clock::now();
  pipeline::PlanDraft draft =
      pipeline::DerivePlan(*w.module, access, prof.profile(), sim::CostModel::Default(), popts);
  out.plan_s = SecondsSince(t);

  t = Clock::now();
  out.module = pipeline::CompileWithPlan(*w.module, draft, popts, w.entry);
  out.passes_s = SecondsSince(t);
  out.plan = std::move(draft.plan);
  return out;
}

// Host seconds to lower each module to bytecode (outside the code cache).
double CompileSeconds(const std::vector<const ir::Module*>& modules) {
  const auto t = Clock::now();
  for (const ir::Module* m : modules) {
    const interp::bytecode::BytecodeModule code = interp::bytecode::CompileModule(*m);
    (void)code;
  }
  return SecondsSince(t);
}

// Fills the process-wide code cache so no pass pays a first compilation.
void WarmCodeCache(const ir::Module& module) { (void)interp::bytecode::SharedBytecode(module); }

// gpt2 with default parameters at 10% of its footprint: FastSwap, Leap and
// Mira (plan from a set-up Optimize with the cache-only toggles), serially.
class Gpt2SwapLowmem : public Workload {
 public:
  explicit Gpt2SwapLowmem(const WorkloadConfig& config) : Workload(config) {}
  const char* name() const override { return "gpt2_swap_lowmem"; }

  void Setup() override {
    w_ = workloads::BuildGpt2();
    local_ = LocalBytes(w_, 10);
    RunNativeReference(*w_.module);
    opt_ = Optimize(w_, local_, CacheOnly(), /*jobs=*/1, config_);
    WarmCodeCache(opt_.program.module);
  }

  PassOutput Pass(bool traced) override {
    PassOutput out;
    const SimOptions opts = BaseSimOptions(traced);
    out.sims.push_back(RunSim(*w_.module, SystemKind::kFastSwap, local_, {}, opts));
    out.sims.push_back(RunSim(*w_.module, SystemKind::kLeap, local_, {}, opts));
    out.sims.push_back(
        RunSim(opt_.program.module, SystemKind::kMira, local_, opt_.program.plan, opts));
    return out;
  }

  LayerExtras TraceExtras() override {
    LayerExtras x;
    x.compile_s = CompileSeconds({w_.module.get(), &opt_.program.module});
    x.optimize_s = opt_.seconds;
    x.optimize_sims = opt_.sims;
    x.rollbacks = opt_.rollbacks;
    const DeepDive dd = DeepDiveCompile(w_, local_, CacheOnly(), config_);
    x.analysis_s = dd.analysis_s;
    x.plan_s = dd.plan_s;
    x.passes_s = dd.passes_s;
    const Optimized pooled = Optimize(w_, local_, CacheOnly(), config_.pool_jobs, config_);
    x.pool_speedup = pooled.seconds > 0 ? opt_.seconds / pooled.seconds : 0;
    return x;
  }

 private:
  workloads::Workload w_;
  uint64_t local_ = 0;
  Optimized opt_;
};

// Graph traversal with the third (uniformly random) array, one epoch, at
// 25%: each pass is one full serial Optimize (all techniques on) followed by
// one run of the chosen plan and the two swap baselines. One epoch instead
// of four keeps a pass near 4 s, so a run holds about ten.
class GraphOptimize : public Workload {
 public:
  explicit GraphOptimize(const WorkloadConfig& config) : Workload(config) {}
  const char* name() const override { return "graph_optimize"; }

  void Setup() override {
    workloads::GraphParams p;
    p.third_array = true;
    p.epochs = 1;
    w_ = workloads::BuildGraphTraversal(p);
    local_ = LocalBytes(w_, 25);
    RunNativeReference(*w_.module);
  }

  PassOutput Pass(bool traced) override {
    PassOutput out;
    Optimized opt = Optimize(w_, local_, AllOn(), /*jobs=*/1, config_);
    out.optimize_s = opt.seconds;
    out.optimize_sims = opt.sims;
    out.rollbacks = opt.rollbacks;
    out.chosen_ns = opt.chosen_ns;
    const SimOptions opts = BaseSimOptions(traced);
    out.sims.push_back(
        RunSim(opt.program.module, SystemKind::kMira, local_, opt.program.plan, opts));
    out.sims.push_back(RunSim(*w_.module, SystemKind::kFastSwap, local_, {}, opts));
    out.sims.push_back(RunSim(*w_.module, SystemKind::kLeap, local_, {}, opts));
    last_ = std::move(opt.program);
    return out;
  }

  LayerExtras TraceExtras() override {
    LayerExtras x;
    x.compile_s = CompileSeconds({w_.module.get(), &last_.module});
    const DeepDive dd = DeepDiveCompile(w_, local_, AllOn(), config_);
    x.analysis_s = dd.analysis_s;
    x.plan_s = dd.plan_s;
    x.passes_s = dd.passes_s;
    const Optimized serial = Optimize(w_, local_, AllOn(), /*jobs=*/1, config_);
    const Optimized pooled = Optimize(w_, local_, AllOn(), config_.pool_jobs, config_);
    x.pool_speedup = pooled.seconds > 0 ? serial.seconds / pooled.seconds : 0;
    return x;
  }

 private:
  workloads::Workload w_;
  uint64_t local_ = 0;
  pipeline::CompiledProgram last_;
};

// Dataframe with 24k rows (a pass near 3 s instead of 12 s with the default
// 120k; other parameters default) at 25% on a 3-node, 1-replica cluster
// with integrity attached, under seeded silent corruption plus one node
// crash early in the network-active phase. Each pass runs Mira (set-up
// deep-dive plan), FastSwap and Leap under the same fault schedule.
class DataframeFaults : public Workload {
 public:
  explicit DataframeFaults(const WorkloadConfig& config) : Workload(config) {}
  const char* name() const override { return "dataframe_faults"; }

  void Setup() override {
    workloads::DataFrameParams p;
    p.rows = 24'000;
    w_ = workloads::BuildDataFrame(p);
    local_ = LocalBytes(w_, 25);
    RunNativeReference(*w_.module);
    dd_ = DeepDiveCompile(w_, local_, AllOn(), config_);
    WarmCodeCache(dd_.module);
    plan_ = net::FaultPlan::SilentCorruption(config_.fault_seed);
    plan_.node_crashes.push_back({/*node=*/1, kCrashNs, /*rejoin_ns=*/0});
    cluster_.num_nodes = 3;
    cluster_.replicas = 1;
    // Fault-free reference: the compiled plan must reproduce the native
    // result before any fault is injected.
    references_.push_back(RunSim(dd_.module, SystemKind::kMira, local_, dd_.plan,
                                 Workload::BaseSimOptions(false)));
  }

  PassOutput Pass(bool traced) override {
    PassOutput out;
    const SimOptions opts = BaseSimOptions(traced);
    out.sims.push_back(RunSim(dd_.module, SystemKind::kMira, local_, dd_.plan, opts));
    out.sims.push_back(RunSim(*w_.module, SystemKind::kFastSwap, local_, {}, opts));
    out.sims.push_back(RunSim(*w_.module, SystemKind::kLeap, local_, {}, opts));
    return out;
  }

  std::string CheckSim(const SimRecord& sim) const override {
    if (!sim.has_integrity || !sim.has_cluster) {
      return "integrity and cluster must be attached";
    }
    const integrity::IntegrityStats& is = sim.integrity;
    if (is.detected == 0) {
      return "the fault plan injected no detectable corruption";
    }
    if (is.healed != is.detected) {
      return "healed != detected";
    }
    if (is.quarantined != 0) {
      return "quarantined granules";
    }
    const farmem::ClusterStats& cs = sim.cluster;
    if (cs.crashes == 0 || cs.failovers == 0) {
      return "the node crash was not failed over";
    }
    if (cs.lost_reads + cs.lost_writes != 0 || cs.quarantined_chunks != 0) {
      return "lost accesses";
    }
    return "";
  }

  LayerExtras TraceExtras() override {
    LayerExtras x;
    x.compile_s = CompileSeconds({w_.module.get(), &dd_.module});
    x.analysis_s = dd_.analysis_s;
    x.plan_s = dd_.plan_s;
    x.passes_s = dd_.passes_s;
    return x;
  }

 private:
  // Node 1 (primary for a third of the chunks) dies 0.4 ms into the run,
  // inside the network-active phase, and never returns.
  static constexpr uint64_t kCrashNs = 400'000;

  SimOptions BaseSimOptions(bool traced) const {
    SimOptions opts = Workload::BaseSimOptions(traced);
    opts.faults.plan = &plan_;
    opts.faults.integrity = &integrity_;
    opts.faults.cluster = &cluster_;
    return opts;
  }

  workloads::Workload w_;
  uint64_t local_ = 0;
  DeepDive dd_;
  net::FaultPlan plan_;
  integrity::IntegrityConfig integrity_;
  farmem::ClusterConfig cluster_;
};

}  // namespace

void Workload::RunNativeReference(const ir::Module& module) {
  const SimRecord native = RunSim(module, SystemKind::kNative, 0, {}, BaseSimOptions(false));
  MIRA_CHECK_MSG(native.ok, native.error.c_str());
  native_ns_ = native.sim_ns;
  native_result_ = native.result;
}

SimOptions Workload::BaseSimOptions(bool traced) const {
  SimOptions opts;
  opts.seed = config_.data_seed;
  opts.engine = config_.engine;
  opts.traced = traced;
  return opts;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"gpt2_swap_lowmem", "graph_optimize",
                                                  "dataframe_faults"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadConfig& config) {
  if (name == "gpt2_swap_lowmem") {
    return std::make_unique<Gpt2SwapLowmem>(config);
  }
  if (name == "graph_optimize") {
    return std::make_unique<GraphOptimize>(config);
  }
  if (name == "dataframe_faults") {
    return std::make_unique<DataframeFaults>(config);
  }
  return nullptr;
}

}  // namespace mira::perfbench
