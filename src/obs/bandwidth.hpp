// DRAM-bandwidth phase accounting, derived from the hardware counters the
// obs layer already collects: each phase's last-level cache-miss delta
// (ScopedHwCounters, see obs/hw_counters.hpp) times the cache-line size
// estimates the bytes that phase moved through DRAM; dividing by the
// phase's wall time (snapshot_phases()) gives an estimated sustained
// bandwidth, and instructions-per-byte gives a roofline-style arithmetic
// intensity from which each phase gets a compute-vs-memory-bound verdict.
//
// These are *estimates*: PERF_COUNT_HW_CACHE_MISSES counts LLC misses, so
// prefetched lines and write-allocate traffic are undercounted (treat
// est_bytes as a lower bound), and the verdict is a coarse triage signal —
// "which phases should the next perf PR attack with a cache-blocking or
// layout change" — not a calibrated roofline.  The verdict thresholds are
// deliberately conservative: phases with too few samples to judge say
// "unknown" instead of guessing.
//
// Degradation contract (same as hw_counters): bandwidth_snapshot() never
// fails.  When the counter group was unavailable (or the build is
// LLPMST_OBS=0) it returns {available:false, reason}; the report
// serializes that as the explicit shape instead of dropping the section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/hw_counters.hpp"
#include "obs/metrics.hpp"

namespace llpmst::obs {

/// Bytes per DRAM transfer (one cache line) used for the estimate; 64 on
/// every x86-64 and most AArch64 parts we target.
inline constexpr std::uint64_t kCacheLineBytes = 64;

/// Roofline-style triage verdict for one phase.
enum class BoundVerdict : std::uint8_t {
  kUnknown = 0,       // missing counters or too little signal to judge
  kComputeBound = 1,  // high arithmetic intensity: attack the instructions
  kMemoryBound = 2,   // low arithmetic intensity: attack the data movement
};

[[nodiscard]] const char* bound_verdict_name(BoundVerdict v);

/// One phase's estimated memory traffic.
struct PhaseBandwidth {
  std::string name;  // the PhaseTimer path (joins hw.phases / phases)
  std::uint64_t cache_misses = 0;
  std::uint64_t est_bytes = 0;     // cache_misses * kCacheLineBytes
  double wall_ms = 0.0;            // from the phase-timer aggregate
  double est_gbps = 0.0;           // est_bytes / wall_s / 1e9 (0 if no wall)
  double instr_per_byte = 0.0;     // arithmetic intensity (0 if unknown)
  BoundVerdict verdict = BoundVerdict::kUnknown;
};

struct BandwidthSnapshot {
  bool available = false;
  std::string unavailable_reason;  // non-empty iff !available
  std::uint64_t line_bytes = kCacheLineBytes;
  std::vector<PhaseBandwidth> phases;  // sorted by est_bytes desc
};

/// Arithmetic-intensity threshold for the verdict: below ~8 retired
/// instructions per DRAM byte a modern core is waiting on memory, well
/// above it on execution.  Chosen from machine balance (a few IPC at a few
/// GHz against tens of GB/s) — see docs/observability.md.
inline constexpr double kMemoryBoundInstrPerByte = 8.0;
/// Phases that moved less than this much estimated traffic stay "unknown":
/// a handful of misses is noise, not a roofline position.
inline constexpr std::uint64_t kMinBytesForVerdict = 1u << 20;

/// Joins the per-phase hw-counter aggregates with the phase-timer wall
/// times into bandwidth estimates.  `hw` is the run-level sample (for the
/// availability gate); pass the same pointer the report serializer got.
[[nodiscard]] BandwidthSnapshot bandwidth_snapshot(const HwSample* hw);

}  // namespace llpmst::obs
