// Host-speed calibration. Shared machines change speed by a quarter and
// more from one minute to the next (other tenants of the same host),
// which would swamp any change to the system's own speed. The
// benchmark therefore times a fixed calibration round next to its passes
// and reports host times scaled to a machine of nominal speed:
//   calibrated = wall * kNominalRoundS / median(round seconds of the run).
// The round's code is the benchmark's own and independent of the system, so
// a change to the system moves only the wall time. Its three kernels mimic
// the simulator's mix: hash-map lookups with LRU eviction and 64-byte line
// copies, a switch-dispatched interpreter loop, and sorting.

#ifndef MIRA_PERFBENCH_CALIBRATE_H_
#define MIRA_PERFBENCH_CALIBRATE_H_

namespace mira::perfbench {

// Median seconds of one round on the recording machine (perfbench/README.md),
// so that there calibrated and wall-clock times agree.
inline constexpr double kNominalRoundS = 0.17;

// Runs one calibration round (each kernel twice); returns its host seconds.
double CalibrationRound();

}  // namespace mira::perfbench

#endif  // MIRA_PERFBENCH_CALIBRATE_H_
