#include "obs/bandwidth.hpp"

#include <algorithm>
#include <map>

#include "obs/recorder.hpp"

namespace llpmst::obs {

const char* bound_verdict_name(BoundVerdict v) {
  switch (v) {
    case BoundVerdict::kComputeBound:
      return "compute-bound";
    case BoundVerdict::kMemoryBound:
      return "memory-bound";
    case BoundVerdict::kUnknown:
      break;
  }
  return "unknown";
}

BandwidthSnapshot bandwidth_snapshot(const HwSample* hw) {
  BandwidthSnapshot snap;
  if (hw == nullptr) {
    snap.unavailable_reason = "hardware counters not requested";
    return snap;
  }
  if (!hw->available) {
    snap.unavailable_reason = hw->unavailable_reason;
    return snap;
  }
  snap.available = true;

  // Wall time per phase path, for the bytes/s denominator.
  std::map<std::string, std::uint64_t> wall_us;
  for (const PhaseSample& p : snapshot_phases()) wall_us[p.name] = p.total_us;

  for (const HwPhaseSample& p : snapshot_hw_phases()) {
    PhaseBandwidth b;
    b.name = p.name;
    if (p.totals.cache_misses == kHwAbsent) {
      // No miss counter: the phase appears with verdict "unknown" so the
      // section still enumerates every measured phase.
      snap.phases.push_back(std::move(b));
      continue;
    }
    b.cache_misses = p.totals.cache_misses;
    b.est_bytes = b.cache_misses * kCacheLineBytes;
    const auto it = wall_us.find(p.name);
    if (it != wall_us.end()) b.wall_ms = static_cast<double>(it->second) / 1e3;
    if (b.wall_ms > 0.0) {
      b.est_gbps = static_cast<double>(b.est_bytes) / (b.wall_ms * 1e6);
    }
    if (p.totals.instructions != kHwAbsent && b.est_bytes > 0) {
      b.instr_per_byte = static_cast<double>(p.totals.instructions) /
                         static_cast<double>(b.est_bytes);
      if (b.est_bytes >= kMinBytesForVerdict) {
        b.verdict = b.instr_per_byte < kMemoryBoundInstrPerByte
                        ? BoundVerdict::kMemoryBound
                        : BoundVerdict::kComputeBound;
      }
    }
    snap.phases.push_back(std::move(b));
  }

  std::sort(snap.phases.begin(), snap.phases.end(),
            [](const PhaseBandwidth& a, const PhaseBandwidth& b) {
              if (a.est_bytes != b.est_bytes) return a.est_bytes > b.est_bytes;
              return a.name < b.name;
            });
  return snap;
}


}  // namespace llpmst::obs
