// Metric derivation and output: end-to-end metrics of an untraced run,
// per-layer metrics of a traced run, the human-readable table, the one-line
// JSON result, and the traced run's span file.

#ifndef MIRA_PERFBENCH_REPORT_H_
#define MIRA_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"

namespace mira::perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool in_json = true;  // false: printed in the table only
};
using MetricList = std::vector<Metric>;

// setup_s, pass_s and sims_per_s are calibrated (calibrate.h); the *_wall_s
// fields hold the wall-clock medians they derive from.
struct EndToEnd {
  double setup_s = 0;  // median
  size_t setups = 0;
  double pass_s = 0;  // median
  size_t passes = 0;
  double setup_wall_s = 0;
  double pass_wall_s = 0;
  double host_speed = 0;  // kNominalRoundS / median calibration round
  double sims_per_s = 0;
  double peak_rss_mb = 0;
  double failed_frac = 0;
};

// `first` is the run's first pass: every pass reproduces its simulated times.
MetricList EndToEndMetrics(const EndToEnd& e2e, uint64_t native_ns, const PassOutput& first);

// `passes` are the traced passes; `traced_pass_s` their median host time and
// `untraced_pass_s` the same run's untraced pass, both wall-clock;
// `host_speed` is the run's calibrated machine speed.
MetricList LayerMetrics(const std::vector<PassOutput>& passes, double traced_pass_s,
                        double untraced_pass_s, double host_speed, const LayerExtras& extras);

void PrintTable(const std::string& workload, bool correct, uint64_t attempted, uint64_t failed,
                const MetricList& metrics);

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricList& metrics);

// Spans of a traced run, kept in memory and written at exit:
// pass → simulation (system) → backend call kind, the latter aggregated to
// one (ns, calls) total per simulation and kind.
class SpanLog {
 public:
  void AddPass(const std::string& workload, size_t index, bool traced,
               std::chrono::nanoseconds start, std::chrono::nanoseconds end,
               const PassOutput& pass);
  std::string ToJson() const;

 private:
  std::string events_;
  uint64_t next_id_ = 1;
};

}  // namespace mira::perfbench

#endif  // MIRA_PERFBENCH_REPORT_H_
