// Stable LSD radix sorting over integer keys extracted from records.
//
// One pass is a counting sort on one 11-bit digit: 2^11 counters (16 KiB)
// stay in L1, and the pass reads its input twice (histogram, scatter) and
// writes it once.  Stability is what makes the passes compose: sorting by
// the low digit first and the high digit last leaves the records in full
// key order, and records with equal keys keep their input order — which
// lets callers break ties by position (edge id) without ever sorting on it.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "support/assert.hpp"
#include "support/cancel.hpp"

namespace llpmst {

inline constexpr unsigned kRadixDigitBits = 11;
inline constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixDigitBits;

/// One stable counting pass: writes `src` to `dst` ordered by the
/// kRadixDigitBits-wide digit of key(x) that starts at bit `shift`.
/// stop() is polled every kScanStride records of the histogram and of the
/// scatter; a true answer abandons the pass and returns false, leaving
/// `src` as it was (and `dst` partly written).
template <typename T, typename Key, typename Stop>
bool radix_pass(std::span<const T> src, T* dst, unsigned shift, Key&& key,
                Stop&& stop) {
  constexpr std::uint64_t kMask = kRadixBuckets - 1;
  const auto digit = [&key, shift](const T& x) {
    return (static_cast<std::uint64_t>(key(x)) >> shift) & kMask;
  };
  const std::size_t n = src.size();
  std::array<std::size_t, kRadixBuckets> offset{};
  for (std::size_t lo = 0; lo < n; lo += kScanStride) {
    if (stop()) return false;
    const std::size_t hi = lo + kScanStride < n ? lo + kScanStride : n;
    for (std::size_t i = lo; i < hi; ++i) ++offset[digit(src[i])];
  }
  std::size_t sum = 0;
  for (std::size_t& o : offset) sum += std::exchange(o, sum);
  for (std::size_t lo = 0; lo < n; lo += kScanStride) {
    if (stop()) return false;
    const std::size_t hi = lo + kScanStride < n ? lo + kScanStride : n;
    for (std::size_t i = lo; i < hi; ++i) dst[offset[digit(src[i])]++] = src[i];
  }
  return true;
}

/// Stable LSD radix sort of `data` by key(x).  Digits are kRadixDigitBits
/// wide from bit 0 (a 24-bit key takes 11 + 11 + 2 bits), up to the highest
/// bit set in `varying`.  `varying` has a bit set wherever two keys may
/// differ, and a digit with no varying bit is skipped: its pass would be the
/// identity.  Every pass polls `stop()` every kScanStride records (see
/// radix_pass); a true answer abandons the sort and returns the records,
/// all present but unordered.  Unstopped callers use the overload below,
/// whose never-stop lambda the optimizer folds away.
///
/// The passes alternate between `data` and `scratch` (which must be at least
/// as large); the result is returned as a view of whichever of the two holds
/// it, so a caller that consumes the sorted sequence anyway never pays for a
/// copy back.
template <typename T, typename Key, typename Stop>
std::span<T> lsd_radix_sort(std::span<T> data, std::span<T> scratch,
                            std::uint64_t varying, Key&& key, Stop&& stop) {
  std::span<T> in = data;
  const unsigned width = static_cast<unsigned>(std::bit_width(varying));
  if (width == 0) return in;
  LLPMST_ASSERT(scratch.size() >= data.size());
  std::span<T> out = scratch.first(data.size());
  constexpr std::uint64_t kMask = kRadixBuckets - 1;
  for (unsigned shift = 0; shift < width; shift += kRadixDigitBits) {
    if (((varying >> shift) & kMask) == 0) continue;
    if (!radix_pass(std::span<const T>(in), out.data(), shift, key, stop)) {
      break;
    }
    std::swap(in, out);
  }
  return in;
}

template <typename T, typename Key>
std::span<T> lsd_radix_sort(std::span<T> data, std::span<T> scratch,
                            std::uint64_t varying, Key&& key) {
  return lsd_radix_sort(data, scratch, varying, key, [] { return false; });
}

}  // namespace llpmst
