// The benchmark's three workloads. Each one builds its world(s) in Setup()
// — the program, the native reference run, any compiled plan and fault-free
// reference — and then runs a fixed unit of work, a *pass*, as often as the
// run's time allows. See perfbench/README.md for why each was chosen.

#ifndef MIRA_PERFBENCH_WORKLOADS_H_
#define MIRA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/sim_run.h"
#include "src/interp/bytecode.h"
#include "src/net/fault_injector.h"

namespace mira::perfbench {

struct WorkloadConfig {
  uint64_t data_seed = 1;   // InterpOptions::seed of every simulation
  uint64_t fault_seed = 1;  // FaultPlan seed (dataframe_faults)
  interp::EngineKind engine = interp::EngineKind::kBytecode;
  // Host threads of the optimizer's evaluation pool in the traced run's
  // support.pool_speedup measurement. Passes always run serially.
  int pool_jobs = 1;
};

// The simulations and optimizer work of one pass.
struct PassOutput {
  std::vector<SimRecord> sims;  // in a fixed order, identical every pass
  double optimize_s = 0;        // host seconds inside IterativeOptimizer::Optimize
  uint64_t optimize_sims = 0;   // interp::SimulationsRun() delta across it
  uint64_t rollbacks = 0;
  uint64_t chosen_ns = 0;  // the optimizer's best simulated time (0 = none)
};

// Per-layer host times that only the traced run measures, outside passes.
struct LayerExtras {
  double compile_s = 0;    // interp::bytecode::CompileModule, every executed module
  double optimize_s = 0;   // set-up Optimize (when the plan is compiled in set-up)
  uint64_t optimize_sims = 0;
  uint64_t rollbacks = 0;
  double analysis_s = 0;   // analysis::AccessAnalysis::Run
  double plan_s = 0;       // pipeline::DerivePlan
  double passes_s = 0;     // pipeline::CompileWithPlan
  double pool_speedup = 0; // serial Optimize s / Optimize s at pool_jobs threads
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  // Builds everything a pass needs; runs the native (fault-free) reference.
  virtual void Setup() = 0;
  virtual PassOutput Pass(bool traced) = 0;
  virtual LayerExtras TraceExtras() = 0;
  // Workload-specific invariants of one pass simulation beyond result
  // equality; returns a description of the first violation, or "".
  virtual std::string CheckSim(const SimRecord& sim) const { return ""; }

  uint64_t native_ns() const { return native_ns_; }
  uint64_t native_result() const { return native_result_; }
  // Fault-free reference simulations run in Setup(), checked like pass
  // simulations.
  const std::vector<SimRecord>& references() const { return references_; }

 protected:
  explicit Workload(const WorkloadConfig& config) : config_(config) {}
  // Runs the native full-local-memory reference for `module`.
  void RunNativeReference(const ir::Module& module);
  SimOptions BaseSimOptions(bool traced) const;

  WorkloadConfig config_;
  uint64_t native_ns_ = 0;
  uint64_t native_result_ = 0;
  std::vector<SimRecord> references_;
};

const std::vector<std::string>& WorkloadNames();
// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadConfig& config);

}  // namespace mira::perfbench

#endif  // MIRA_PERFBENCH_WORKLOADS_H_
