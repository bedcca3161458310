#include "perfbench/src/report.h"

#include <cmath>
#include <cstdio>

#include "src/support/str.h"

namespace mira::perfbench {

namespace {

using pipeline::SystemKind;

constexpr SystemKind kSystems[] = {SystemKind::kFastSwap, SystemKind::kLeap, SystemKind::kMira};

const char* const kCallKindNames[] = {"load", "store", "batch", "hint", "drain", "other"};

// Stall verbs reported from the Mira simulation's profile.
const char* const kStallSites[] = {"demand_fetch",    "prefetch_wait",  "inflight_wait",
                                   "writeback_drain", "integrity_heal", "failover_wait",
                                   "retry_backoff"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

const SimRecord* Find(const PassOutput& pass, SystemKind kind) {
  for (const SimRecord& sim : pass.sims) {
    if (sim.kind == kind) return &sim;
  }
  return nullptr;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

MetricList EndToEndMetrics(const EndToEnd& e2e, uint64_t native_ns, const PassOutput& first) {
  auto norm = [&](SystemKind kind) {
    const SimRecord* sim = Find(first, kind);
    return sim == nullptr ? 0.0
                          : Ratio(static_cast<double>(native_ns), static_cast<double>(sim->sim_ns));
  };
  return {
      {"setup_s", e2e.setup_s, "s"},
      {"pass_s", e2e.pass_s, "s"},
      {"sims_per_s", e2e.sims_per_s, "1/s"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
      {"mira_norm", norm(SystemKind::kMira), "ratio"},
      {"fastswap_norm", norm(SystemKind::kFastSwap), "ratio"},
      {"leap_norm", norm(SystemKind::kLeap), "ratio"},
      // Always 0 in an accepted run, so it rides in the table; the JSON line
      // carries it as "failed"/"attempted".
      {"failed_frac", e2e.failed_frac, "ratio", false},
      {"passes", static_cast<double>(e2e.passes), "count", false},
      {"setups", static_cast<double>(e2e.setups), "count", false},
      {"setup_wall_s", e2e.setup_wall_s, "s", false},
      {"pass_wall_s", e2e.pass_wall_s, "s", false},
      {"host_speed", e2e.host_speed, "ratio", false},
  };
}

MetricList LayerMetrics(const std::vector<PassOutput>& passes, double traced_pass_s,
                        double untraced_pass_s, double host_speed, const LayerExtras& extras) {
  MetricList m;
  const double n = static_cast<double>(passes.size());
  const PassOutput& first = passes.front();

  // interp: host time in Run outside backend calls, per pass.
  double self_ns = 0;
  for (const PassOutput& pass : passes) {
    for (const SimRecord& sim : pass.sims) {
      const uint64_t backend_ns = sim.calls.TotalNs();
      self_ns += sim.host_ns > backend_ns ? static_cast<double>(sim.host_ns - backend_ns) : 0;
    }
  }
  self_ns /= n;
  uint64_t instrs = 0;
  for (const SimRecord& sim : first.sims) instrs += sim.instrs;
  m.push_back({"interp.self_s", self_ns / 1e9, "s"});
  m.push_back({"interp.share", Ratio(self_ns / 1e9, traced_pass_s), "ratio"});
  m.push_back({"interp.instrs", static_cast<double>(instrs), "count"});
  m.push_back({"interp.ns_per_instr", Ratio(self_ns, static_cast<double>(instrs)), "ns"});
  m.push_back({"interp.compile_s", extras.compile_s, "s"});

  // backends.<system>: host time inside each call kind, per pass.
  for (SystemKind kind : kSystems) {
    const std::string p = std::string("backends.") + pipeline::SystemName(kind) + ".";
    CallTotals sum;
    for (const PassOutput& pass : passes) {
      if (const SimRecord* sim = Find(pass, kind)) sum.Add(sim->calls);
    }
    auto secs = [&](CallKind k) { return static_cast<double>(sum.ns[static_cast<size_t>(k)]) / n / 1e9; };
    m.push_back({p + "load_s", secs(CallKind::kLoad), "s"});
    m.push_back({p + "store_s", secs(CallKind::kStore), "s"});
    m.push_back({p + "batch_s", secs(CallKind::kBatch), "s"});
    m.push_back({p + "hint_s", secs(CallKind::kHint), "s"});
    m.push_back({p + "drain_s", secs(CallKind::kDrain), "s"});
    m.push_back({p + "calls", static_cast<double>(sum.TotalCalls()) / n, "count"});
    m.push_back({p + "ns_per_call",
                 Ratio(static_cast<double>(sum.TotalNs()), static_cast<double>(sum.TotalCalls())),
                 "ns"});
  }

  // cache.<system> and net.<system>: counts of the first traced pass (every
  // pass repeats them exactly).
  for (SystemKind kind : kSystems) {
    const std::string c = std::string("cache.") + pipeline::SystemName(kind) + ".";
    const SimRecord* sim = Find(first, kind);
    const CacheCounts cc = sim != nullptr ? sim->cache : CacheCounts{};
    const double lookups = static_cast<double>(cc.hits + cc.misses);
    const double prefetch_base = static_cast<double>(cc.prefetch_useful + cc.prefetch_wasted);
    m.push_back({c + "hits", static_cast<double>(cc.hits), "count"});
    m.push_back({c + "misses", static_cast<double>(cc.misses), "count"});
    m.push_back({c + "miss_ratio", Ratio(static_cast<double>(cc.misses), lookups), "ratio"});
    m.push_back({c + "evictions", static_cast<double>(cc.evictions), "count"});
    m.push_back({c + "writebacks", static_cast<double>(cc.writebacks), "count"});
    m.push_back({c + "prefetch_accuracy",
                 Ratio(static_cast<double>(cc.prefetch_useful), prefetch_base), "ratio"});
    m.push_back({c + "prefetch_base", prefetch_base, "count"});
    m.push_back({c + "inflight_joins", static_cast<double>(cc.inflight_joins), "count"});
    m.push_back({c + "coalesced_lines", static_cast<double>(cc.coalesced_lines), "count"});
    m.push_back({c + "runtime_ms", static_cast<double>(cc.runtime_ns) / 1e6, "ms"});
    m.push_back({c + "stall_ms", static_cast<double>(cc.stall_ns) / 1e6, "ms"});
    const std::string nn = std::string("net.") + pipeline::SystemName(kind) + ".";
    m.push_back({nn + "verbs", sim != nullptr ? static_cast<double>(sim->net.messages) : 0, "count"});
    m.push_back({nn + "mb", sim != nullptr ? static_cast<double>(sim->net.total_bytes()) / 1e6 : 0,
                 "MB"});
  }

  // net, integrity and cluster totals over the first traced pass.
  net::InflightStats inflight;
  net::FaultStats faults;
  integrity::IntegrityStats is;
  farmem::ClusterStats cs;
  for (const SimRecord& sim : first.sims) {
    inflight.registered += sim.inflight.registered;
    inflight.joined += sim.inflight.joined;
    faults.retries += sim.faults.retries;
    faults.drops += sim.faults.drops;
    faults.timeouts += sim.faults.timeouts;
    faults.unavailable += sim.faults.unavailable;
    faults.backoff_ns += sim.faults.backoff_ns;
    faults.lost_wait_ns += sim.faults.lost_wait_ns;
    is.fetches_verified += sim.integrity.fetches_verified;
    is.commits += sim.integrity.commits;
    is.detected += sim.integrity.detected;
    is.healed += sim.integrity.healed;
    is.refetch_rounds += sim.integrity.refetch_rounds;
    is.quarantined += sim.integrity.quarantined;
    cs.failovers += sim.cluster.failovers;
    cs.rereplicated_chunks += sim.cluster.rereplicated_chunks;
    cs.lost_reads += sim.cluster.lost_reads;
    cs.lost_writes += sim.cluster.lost_writes;
  }
  const double join_base = static_cast<double>(inflight.registered + inflight.joined);
  m.push_back({"net.inflight.join_ratio", Ratio(static_cast<double>(inflight.joined), join_base),
               "ratio"});
  m.push_back({"net.inflight.join_base", join_base, "count"});
  m.push_back({"net.retries", static_cast<double>(faults.retries), "count"});
  m.push_back({"net.faulted_attempts", static_cast<double>(faults.faulted_attempts()), "count"});
  m.push_back({"net.wasted_ms", static_cast<double>(faults.wasted_ns()) / 1e6, "ms"});
  m.push_back({"integrity.fetches_verified", static_cast<double>(is.fetches_verified), "count"});
  m.push_back({"integrity.commits", static_cast<double>(is.commits), "count"});
  m.push_back({"integrity.detected", static_cast<double>(is.detected), "count"});
  m.push_back({"integrity.healed", static_cast<double>(is.healed), "count"});
  m.push_back({"integrity.refetch_rounds", static_cast<double>(is.refetch_rounds), "count"});
  m.push_back({"integrity.quarantined", static_cast<double>(is.quarantined), "count"});
  m.push_back({"farmem.cluster.failovers", static_cast<double>(cs.failovers), "count"});
  m.push_back({"farmem.cluster.rereplicated_chunks", static_cast<double>(cs.rereplicated_chunks),
               "count"});
  m.push_back({"farmem.cluster.lost_accesses", static_cast<double>(cs.lost_reads + cs.lost_writes),
               "count"});

  // pipeline / analysis / passes / support. A workload that optimizes in
  // every pass reports the per-pass optimizer; the others their set-up one.
  double optimize_s = extras.optimize_s;
  double optimize_sims = static_cast<double>(extras.optimize_sims);
  double rollbacks = static_cast<double>(extras.rollbacks);
  if (first.optimize_sims > 0) {
    optimize_s = 0;
    for (const PassOutput& pass : passes) optimize_s += pass.optimize_s;
    optimize_s /= n;
    optimize_sims = static_cast<double>(first.optimize_sims);
    rollbacks = static_cast<double>(first.rollbacks);
  }
  m.push_back({"pipeline.optimize_s", optimize_s, "s"});
  m.push_back({"pipeline.sims", optimize_sims, "count"});
  m.push_back({"pipeline.s_per_sim", Ratio(optimize_s, optimize_sims), "s"});
  m.push_back({"pipeline.rollbacks", rollbacks, "count"});
  m.push_back({"analysis.s", extras.analysis_s, "s"});
  m.push_back({"pipeline.plan_s", extras.plan_s, "s"});
  m.push_back({"passes.s", extras.passes_s, "s"});
  m.push_back({"support.pool_speedup", extras.pool_speedup, "ratio"});

  // sim.stall: simulated stall ms by verb, Mira simulation of the first pass.
  const SimRecord* mira = Find(first, SystemKind::kMira);
  for (const char* site : kStallSites) {
    double ns = 0;
    if (mira != nullptr) {
      const auto it = mira->stall_ns_by_verb.find(site);
      if (it != mira->stall_ns_by_verb.end()) ns = static_cast<double>(it->second);
    }
    m.push_back({std::string("sim.stall.") + site + "_ms", ns / 1e6, "ms"});
  }

  m.push_back({"trace.pass_s", traced_pass_s, "s"});
  m.push_back({"trace.overhead_s", traced_pass_s - untraced_pass_s, "s"});
  m.push_back({"host.speed", host_speed, "ratio"});
  return m;
}

void PrintTable(const std::string& workload, bool correct, uint64_t attempted, uint64_t failed,
                const MetricList& metrics) {
  std::printf("== %s: %s (%llu checks, %llu failed)\n", workload.c_str(),
              correct ? "correct" : "INCORRECT", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const Metric& m : metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricList& metrics) {
  std::string out = support::StrFormat("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                                       "\"metrics\": {",
                                       correct ? "true" : "false",
                                       static_cast<unsigned long long>(attempted),
                                       static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += support::StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                              m.name.c_str(), FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  return out + "}}";
}

void SpanLog::AddPass(const std::string& workload, size_t index, bool traced,
                      std::chrono::nanoseconds start, std::chrono::nanoseconds end,
                      const PassOutput& pass) {
  const uint64_t pass_id = next_id_++;
  auto add = [&](const std::string& body) {
    events_ += events_.empty() ? "\n  " : ",\n  ";
    events_ += body;
  };
  add(support::StrFormat(
      "{\"id\": %llu, \"parent\": 0, \"name\": \"pass\", \"workload\": \"%s\", \"index\": %zu, "
      "\"traced\": %s, \"start_ns\": %lld, \"end_ns\": %lld}",
      static_cast<unsigned long long>(pass_id), workload.c_str(), index, traced ? "true" : "false",
      static_cast<long long>(start.count()), static_cast<long long>(end.count())));
  for (const SimRecord& sim : pass.sims) {
    const uint64_t sim_id = next_id_++;
    const uint64_t backend_ns = sim.calls.TotalNs();
    add(support::StrFormat(
        "{\"id\": %llu, \"parent\": %llu, \"name\": \"simulation\", \"system\": \"%s\", "
        "\"ns\": %llu, \"self_ns\": %llu, \"sim_ns\": %llu}",
        static_cast<unsigned long long>(sim_id), static_cast<unsigned long long>(pass_id),
        pipeline::SystemName(sim.kind), static_cast<unsigned long long>(sim.host_ns),
        static_cast<unsigned long long>(sim.host_ns > backend_ns ? sim.host_ns - backend_ns : 0),
        static_cast<unsigned long long>(sim.sim_ns)));
    for (size_t k = 0; k < static_cast<size_t>(CallKind::kCount); ++k) {
      if (sim.calls.calls[k] == 0) continue;
      add(support::StrFormat(
          "{\"id\": %llu, \"parent\": %llu, \"name\": \"backend.%s\", \"ns\": %llu, "
          "\"calls\": %llu}",
          static_cast<unsigned long long>(next_id_++), static_cast<unsigned long long>(sim_id),
          kCallKindNames[k], static_cast<unsigned long long>(sim.calls.ns[k]),
          static_cast<unsigned long long>(sim.calls.calls[k])));
    }
  }
}

std::string SpanLog::ToJson() const { return "{\"spans\": [" + events_ + "\n]}\n"; }

}  // namespace mira::perfbench
