#include "perfbench/src/calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace mira::perfbench {

namespace {

uint64_t XorShift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// A line cache: a hash map from far line to local slot, a clock over the
// slots that evicts the oldest line, and 64-byte copies on a miss; a third
// of the accesses are random, the rest strided.
uint64_t LineCacheKernel() {
  constexpr size_t kLine = 64;
  constexpr size_t kFarLines = (4u << 20) / kLine;
  constexpr size_t kLocalLines = (1u << 20) / kLine;
  std::vector<uint8_t> far(kFarLines * kLine);
  for (size_t i = 0; i < far.size(); ++i) far[i] = static_cast<uint8_t>(i * 131u);
  std::vector<uint8_t> local(kLocalLines * kLine);
  std::unordered_map<uint64_t, uint32_t> map;
  map.reserve(kLocalLines);
  std::vector<uint64_t> slots(kLocalLines, ~uint64_t{0});
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint32_t clock = 0;
  uint64_t acc = 0;
  for (uint64_t k = 0; k < 200'000; ++k) {
    const uint64_t line = k % 3 == 0 ? XorShift(x) % kFarLines : (k * 7) % kFarLines;
    const auto it = map.find(line);
    if (it != map.end()) {
      acc += local[it->second * kLine];
      continue;
    }
    const uint32_t slot = clock++ % kLocalLines;
    if (slots[slot] != ~uint64_t{0}) map.erase(slots[slot]);
    slots[slot] = line;
    map.emplace(line, slot);
    std::memcpy(&local[slot * kLine], &far[line * kLine], kLine);
  }
  return acc;
}

// An interpreter: a switch over a random byte-code stream of adds, xors,
// loads and stores on eight registers and a 64 KiB data array.
uint64_t DispatchKernel() {
  std::vector<uint8_t> code(400'000);
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (uint8_t& c : code) c = static_cast<uint8_t>(XorShift(x));
  std::vector<int64_t> data(8192);
  int64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int rep = 0; rep < 8; ++rep) {
    for (const uint8_t op : code) {
      const int a = op & 7;
      const int b = (op >> 3) & 7;
      switch (op >> 6) {
        case 0: r[a] += r[b]; break;
        case 1: r[a] ^= r[b] * 31; break;
        case 2: r[a] = data[static_cast<uint64_t>(r[b]) & 8191]; break;
        default: data[static_cast<uint64_t>(r[a]) & 8191] = r[b]; break;
      }
    }
  }
  return static_cast<uint64_t>(r[0] + r[7]);
}

// Sorting 200k random keys, then counting a sample of them in a hash map.
uint64_t SortKernel() {
  std::vector<uint64_t> v(200'000);
  uint64_t x = 7;
  for (uint64_t& e : v) e = XorShift(x);
  std::sort(v.begin(), v.end());
  std::unordered_map<uint64_t, uint64_t> counts;
  for (size_t i = 0; i < 20'000; ++i) counts[v[i * 9] & 0xffff] += i;
  return counts.size() + v[100];
}

}  // namespace

double CalibrationRound() {
  static volatile uint64_t sink = 0;
  const auto t = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 2; ++rep) {
    sink = sink + LineCacheKernel() + DispatchKernel() + SortKernel();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
}

}  // namespace mira::perfbench
