// One simulation on a fresh world, driven only through public entry points
// (pipeline::MakeWorld + Attach*, interp::Interpreter::Run, Backend::Drain),
// with every per-run count read from objects the run owns.

#ifndef MIRA_PERFBENCH_SIM_RUN_H_
#define MIRA_PERFBENCH_SIM_RUN_H_

#include <cstdint>
#include <map>
#include <string>

#include "perfbench/src/timed_backend.h"
#include "src/farmem/cluster.h"
#include "src/integrity/integrity.h"
#include "src/interp/interpreter.h"
#include "src/net/fault_injector.h"
#include "src/net/transport.h"
#include "src/pipeline/world.h"
#include "src/runtime/plan.h"

namespace mira::perfbench {

// Fault environment of a run: each pointer is optional (null = absent).
struct FaultSetup {
  const net::FaultPlan* plan = nullptr;
  const integrity::IntegrityConfig* integrity = nullptr;
  const farmem::ClusterConfig* cluster = nullptr;
};

// Cache counters summed over every section of one backend (the generic swap
// section included), read back from Backend::PublishMetrics into a private
// registry.
struct CacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t prefetch_useful = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t inflight_joins = 0;
  uint64_t coalesced_lines = 0;
  uint64_t runtime_ns = 0;
  uint64_t stall_ns = 0;
  void Add(const CacheCounts& o);
};

struct SimRecord {
  pipeline::SystemKind kind = pipeline::SystemKind::kNative;
  bool ok = false;
  std::string error;
  uint64_t sim_ns = 0;
  uint64_t result = 0;
  uint64_t instrs = 0;
  uint64_t host_ns = 0;  // Interpreter::Run + Backend::Drain, host clock
  net::NetworkStats net;
  net::FaultStats faults;
  net::InflightStats inflight;
  bool has_integrity = false;
  integrity::IntegrityStats integrity;
  bool has_cluster = false;
  farmem::ClusterStats cluster;
  CacheCounts cache;
  // Traced runs only: backend call totals by kind, and (Mira) the stall
  // profiler's simulated ns by verb.
  CallTotals calls;
  std::map<std::string, uint64_t> stall_ns_by_verb;
};

struct SimOptions {
  uint64_t seed = 42;
  interp::EngineKind engine = interp::EngineKind::kDefault;
  bool traced = false;
  FaultSetup faults;
};

SimRecord RunSim(const ir::Module& module, pipeline::SystemKind kind, uint64_t local_bytes,
                 const runtime::CachePlan& plan, const SimOptions& options);

}  // namespace mira::perfbench

#endif  // MIRA_PERFBENCH_SIM_RUN_H_
