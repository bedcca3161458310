#include "perfbench/src/sim_run.h"

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "src/telemetry/metrics.h"
#include "src/telemetry/profiler.h"

namespace mira::perfbench {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(),
                                                suffix) == 0;
}

// Sums the per-section "cache.swap.*" / "cache.section.<name>.*" counters a
// backend published into `registry` (walked through its CSV form, the only
// enumeration the registry offers).
CacheCounts ReadCacheCounts(const telemetry::MetricsRegistry& registry) {
  CacheCounts c;
  std::istringstream csv(registry.ToCsv());
  std::string line;
  while (std::getline(csv, line)) {
    const size_t a = line.find(',');
    const size_t b = line.find(',', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      continue;
    }
    const std::string name = line.substr(0, a);
    if (line.compare(a + 1, b - a - 1, "counter") != 0) {
      continue;
    }
    const uint64_t v = std::strtoull(line.c_str() + b + 1, nullptr, 10);
    if (name == "cache.prefetch.useful") {
      c.prefetch_useful = v;
      continue;
    }
    if (name == "cache.prefetch.wasted") {
      c.prefetch_wasted = v;
      continue;
    }
    if (name.rfind("cache.swap.", 0) != 0 && name.rfind("cache.section.", 0) != 0) {
      continue;
    }
    if (EndsWith(name, ".hits")) {
      c.hits += v;
    } else if (EndsWith(name, ".misses")) {
      c.misses += v;
    } else if (EndsWith(name, ".evictions") && !EndsWith(name, ".hint_evictions")) {
      c.evictions += v;
    } else if (EndsWith(name, ".writebacks")) {
      c.writebacks += v;
    } else if (EndsWith(name, ".inflight.joins")) {
      c.inflight_joins += v;
    } else if (EndsWith(name, ".coalesced.lines")) {
      c.coalesced_lines += v;
    } else if (EndsWith(name, ".runtime_ns")) {
      c.runtime_ns += v;
    } else if (EndsWith(name, ".stall_ns")) {
      c.stall_ns += v;
    }
  }
  return c;
}

}  // namespace

void CacheCounts::Add(const CacheCounts& o) {
  hits += o.hits;
  misses += o.misses;
  evictions += o.evictions;
  writebacks += o.writebacks;
  prefetch_useful += o.prefetch_useful;
  prefetch_wasted += o.prefetch_wasted;
  inflight_joins += o.inflight_joins;
  coalesced_lines += o.coalesced_lines;
  runtime_ns += o.runtime_ns;
  stall_ns += o.stall_ns;
}

SimRecord RunSim(const ir::Module& module, pipeline::SystemKind kind, uint64_t local_bytes,
                 const runtime::CachePlan& plan, const SimOptions& options) {
  SimRecord rec;
  rec.kind = kind;
  pipeline::World world = pipeline::MakeWorld(kind, local_bytes, plan);
  if (options.faults.plan != nullptr) {
    pipeline::AttachFaults(world, *options.faults.plan);
  }
  if (options.faults.cluster != nullptr) {
    pipeline::AttachCluster(world, *options.faults.cluster);
  }
  if (options.faults.integrity != nullptr) {
    pipeline::AttachIntegrity(world, *options.faults.integrity);
  }

  std::unique_ptr<TimedBackend> timed;
  backends::Backend* backend = world.backend.get();
  if (options.traced) {
    timed = std::make_unique<TimedBackend>(backend);
    backend = timed.get();
  }
  telemetry::StallProfiler& profiler = telemetry::Profiler();
  const bool profile = options.traced && kind == pipeline::SystemKind::kMira;
  if (profile) {
    profiler.Clear();
    profiler.Enable(true);
  }

  interp::InterpOptions iopts;
  iopts.seed = options.seed;
  iopts.engine = options.engine;
  const auto t0 = std::chrono::steady_clock::now();
  interp::Interpreter interp(&module, backend, iopts);
  auto result = interp.Run("main");
  if (result.ok()) {
    backend->Drain(interp.clock());
  }
  const auto t1 = std::chrono::steady_clock::now();
  rec.host_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());

  if (profile) {
    profiler.Enable(false);
    rec.stall_ns_by_verb = profiler.Snapshot().TotalsByVerb();
    profiler.Clear();
  }
  if (timed != nullptr) {
    rec.calls = timed->totals();
  }
  rec.instrs = interp.instrs_executed();
  if (!result.ok()) {
    rec.error = result.status().ToString();
    return rec;
  }
  rec.ok = true;
  rec.sim_ns = interp.clock().now_ns();
  rec.result = result.value();
  rec.net = world.net->stats();
  rec.faults = world.net->fault_stats();
  rec.inflight = world.net->inflight_stats();
  if (world.integrity != nullptr) {
    rec.has_integrity = true;
    rec.integrity = world.integrity->stats();
  }
  if (world.cluster != nullptr) {
    rec.has_cluster = true;
    rec.cluster = world.cluster->stats();
  }
  telemetry::MetricsRegistry registry;
  world.backend->PublishMetrics(registry);
  rec.cache = ReadCacheCounts(registry);
  return rec;
}

}  // namespace mira::perfbench
