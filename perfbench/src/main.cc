// The repository benchmark. Runs one workload (or all three, from one
// process), checks every output, and prints every metric by name with its
// unit; the last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exits nonzero when any check fails.
//
//   perfbench --workload gpt2_swap_lowmem|graph_optimize|dataframe_faults|all
//             --seed N --seconds S --trace 0|1
//             [--data-seed N] [--fault-seed N] [--interp tree|bytecode]
//             [--passes N] [--spans-out FILE]
//             [--break-check]
//
// perfbench/README.md defines every metric and the checks.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/calibrate.h"
#include "perfbench/src/report.h"
#include "perfbench/src/workloads.h"
#include "src/support/str.h"
#include "src/support/thread_pool.h"

namespace mira::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool data_seed_set = false;
  uint64_t data_seed = 0;
  bool fault_seed_set = false;
  uint64_t fault_seed = 0;
  double seconds = 10;
  bool trace = false;
  interp::EngineKind engine = interp::EngineKind::kBytecode;
  int pool_jobs = 1;  // threads of the traced run's pool measurement: min(4, nproc)
  int passes = 0;       // 0 = as many as --seconds allows
  std::string spans_out;
  bool break_check = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    auto number = [&]() -> uint64_t {
      const std::string v = value();
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage(("not a whole number: " + arg + " " + v).c_str());
      return n;
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = number();
    } else if (arg == "--data-seed") {
      o.data_seed = number();
      o.data_seed_set = true;
    } else if (arg == "--fault-seed") {
      o.fault_seed = number();
      o.fault_seed_set = true;
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = number() != 0;
    } else if (arg == "--interp") {
      o.engine = interp::ParseEngineName(value());
      if (o.engine == interp::EngineKind::kDefault) Usage("--interp takes tree or bytecode");
    } else if (arg == "--passes") {
      o.passes = static_cast<int>(number());
    } else if (arg == "--spans-out") {
      o.spans_out = value();
    } else if (arg == "--break-check") {
      o.break_check = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  // Default seeds: the data seed is --seed itself; the fault plan's seed is
  // offset so the two streams never coincide.
  if (!o.data_seed_set) o.data_seed = o.seed;
  if (!o.fault_seed_set) o.fault_seed = o.seed + 1000;
  o.pool_jobs =
      static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  return o;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Checks every simulation of a pass (or the set-up references) and tallies
// attempted/failed. The first pass's simulated times become the bit-exact
// reference for every later pass.
class Checker {
 public:
  Checker(const Workload& wl, bool break_check)
      : wl_(wl), expected_(wl.native_result() + (break_check ? 1 : 0)) {}

  void CheckReference(const SimRecord& sim) { CheckResult(sim, "reference"); }

  void CheckPass(const PassOutput& pass, size_t index) {
    for (size_t i = 0; i < pass.sims.size(); ++i) {
      const SimRecord& sim = pass.sims[i];
      if (!CheckResult(sim, "pass")) continue;
      const std::string why = wl_.CheckSim(sim);
      if (!why.empty()) {
        Fail(sim, why);
        continue;
      }
      if (index == 0) {
        first_ns_.push_back(sim.sim_ns);
      } else if (i >= first_ns_.size() || sim.sim_ns != first_ns_[i]) {
        Fail(sim, "simulated time differs from the first pass");
      }
    }
    if (pass.optimize_sims > 0) {
      ++attempted_;
      if (index == 0) {
        first_chosen_ns_ = pass.chosen_ns;
      } else if (pass.chosen_ns != first_chosen_ns_) {
        ++failed_;
        std::fprintf(stderr, "perfbench: CHECK FAILED: optimizer chose a different plan time\n");
      }
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  bool CheckResult(const SimRecord& sim, const char* what) {
    ++attempted_;
    if (!sim.ok) {
      Fail(sim, "simulation failed: " + sim.error);
      return false;
    }
    if (sim.result != expected_) {
      Fail(sim, std::string(what) + " result differs from the native reference");
      return false;
    }
    return true;
  }
  void Fail(const SimRecord& sim, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: CHECK FAILED [%s/%s]: %s\n", wl_.name(),
                 pipeline::SystemName(sim.kind), why.c_str());
  }

  const Workload& wl_;
  const uint64_t expected_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<uint64_t> first_ns_;
  uint64_t first_chosen_ns_ = 0;
};

struct WorkloadRun {
  std::string name;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricList metrics;
};

WorkloadRun RunWorkload(const std::string& name, const Options& o, Clock::time_point start,
                        SpanLog* spans) {
  WorkloadConfig config;
  config.data_seed = o.data_seed;
  config.fault_seed = o.fault_seed;
  config.engine = o.engine;
  config.pool_jobs = o.pool_jobs;

  // Set-up. The one whose workload runs the passes starts at process start;
  // an untraced run repeats it once after every timed pass (discarding the
  // copy), so the median samples the same stretch of time as the passes.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> wl = MakeWorkload(name, config);
  wl->Setup();
  setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());

  Checker checker(*wl, o.break_check);
  for (const SimRecord& ref : wl->references()) {
    checker.CheckReference(ref);
  }

  // Passes. The first one warms up and is not timed into pass_s; it is
  // checked like every other, and in a traced run it is the untraced
  // baseline of the tracing-overhead figure. Measurement starts after it.
  // A calibration round follows every pass (calibrate.h).
  std::vector<PassOutput> passes;
  std::vector<double> round_s;
  std::vector<double> pass_s;
  double untraced_pass_s = 0;
  uint64_t sims_per_pass = 0;
  auto measure_start = Clock::now();
  size_t index = 0;
  for (;;) {
    const bool traced = o.trace && index > 0;
    const uint64_t sims0 = interp::SimulationsRun();
    const auto p0 = Clock::now();
    PassOutput out = wl->Pass(traced);
    const auto p1 = Clock::now();
    const double secs = std::chrono::duration<double>(p1 - p0).count();
    checker.CheckPass(out, index);
    std::string detail;
    for (const SimRecord& sim : out.sims) {
      detail += support::StrFormat(" %s %.3f", pipeline::SystemName(sim.kind),
                                   static_cast<double>(sim.host_ns) / 1e9);
    }
    round_s.push_back(CalibrationRound());
    std::fprintf(stderr, "perfbench: %s pass %zu%s: %.3f s;%s; calibration round %.4f s\n",
                 name.c_str(), index, index == 0 ? " (warm-up)" : (traced ? " (traced)" : ""),
                 secs, detail.c_str(), round_s.back());
    if (index == 0) {
      untraced_pass_s = secs;
      sims_per_pass = interp::SimulationsRun() - sims0;
      measure_start = Clock::now();
    } else {
      pass_s.push_back(secs);
      if (spans != nullptr) spans->AddPass(name, index, traced, p0 - start, p1 - start, out);
      passes.push_back(std::move(out));
      if (!o.trace) {
        const auto s0 = Clock::now();
        MakeWorkload(name, config)->Setup();
        setup_s.push_back(std::chrono::duration<double>(Clock::now() - s0).count());
      }
    }
    ++index;
    const double elapsed = std::chrono::duration<double>(Clock::now() - measure_start).count();
    const bool enough = o.passes > 0 ? static_cast<int>(pass_s.size()) >= o.passes
                                     : elapsed >= o.seconds && !pass_s.empty();
    if (enough) break;
  }

  // Machine speed over the run relative to the nominal one: > 1 is faster.
  const double host_speed = kNominalRoundS / Median(round_s);

  WorkloadRun run;
  run.name = name;
  run.attempted = checker.attempted();
  run.failed = checker.failed();
  run.correct = run.failed == 0;

  const PassOutput& first = passes.front();
  // The first pass's simulated outputs, for engine differentials.
  for (const SimRecord& sim : first.sims) {
    std::printf("sim %s %s sim_ns=%llu result=%llu\n", name.c_str(),
                pipeline::SystemName(sim.kind), static_cast<unsigned long long>(sim.sim_ns),
                static_cast<unsigned long long>(sim.result));
  }
  if (!o.trace) {
    EndToEnd e2e;
    e2e.host_speed = host_speed;
    e2e.setup_wall_s = Median(setup_s);
    e2e.setup_s = e2e.setup_wall_s * host_speed;
    e2e.setups = setup_s.size();
    e2e.pass_wall_s = Median(pass_s);
    e2e.pass_s = e2e.pass_wall_s * host_speed;
    e2e.passes = pass_s.size();
    e2e.sims_per_s = e2e.pass_s > 0 ? static_cast<double>(sims_per_pass) / e2e.pass_s : 0;
    e2e.peak_rss_mb = PeakRssMb();
    e2e.failed_frac =
        run.attempted > 0 ? static_cast<double>(run.failed) / static_cast<double>(run.attempted)
                          : 0;
    run.metrics = EndToEndMetrics(e2e, wl->native_ns(), first);
  } else {
    const LayerExtras extras = wl->TraceExtras();
    run.metrics = LayerMetrics(passes, Median(pass_s), untraced_pass_s, host_speed, extras);
  }
  return run;
}

int Main(int argc, char** argv) {
  const auto start = Clock::now();
  const Options o = ParseArgs(argc, argv);
  std::vector<std::string> names;
  if (o.workload == "all") {
    names = WorkloadNames();
  } else if (std::find(WorkloadNames().begin(), WorkloadNames().end(), o.workload) !=
             WorkloadNames().end()) {
    names.push_back(o.workload);
  } else {
    Usage(("unknown workload " + o.workload).c_str());
  }
  interp::SetDefaultEngine(o.engine);
  support::SetDefaultParallelism(1);

  std::printf("perfbench: seed=%llu data_seed=%llu fault_seed=%llu engine=%s pool_jobs=%d "
              "trace=%d\n",
              static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(o.data_seed),
              static_cast<unsigned long long>(o.fault_seed), interp::EngineName(o.engine),
              o.pool_jobs, o.trace ? 1 : 0);
  SpanLog spans;
  std::vector<WorkloadRun> runs;
  for (const std::string& name : names) {
    WorkloadRun run =
        RunWorkload(name, o, names.size() == 1 ? start : Clock::now(), o.trace ? &spans : nullptr);
    PrintTable(run.name, run.correct, run.attempted, run.failed, run.metrics);
    runs.push_back(std::move(run));
  }
  if (o.trace && !o.spans_out.empty()) {
    std::ofstream out(o.spans_out);
    out << spans.ToJson();
    if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_out.c_str());
  }

  // One result line. With several workloads, metric names carry the
  // workload as a prefix.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricList all;
  for (const WorkloadRun& run : runs) {
    correct = correct && run.correct;
    attempted += run.attempted;
    failed += run.failed;
    for (const Metric& m : run.metrics) {
      if (!m.in_json) continue;
      Metric copy = m;
      if (runs.size() > 1) copy.name = run.name + "." + m.name;
      all.push_back(copy);
    }
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, all).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mira::perfbench

int main(int argc, char** argv) { return mira::perfbench::Main(argc, argv); }
