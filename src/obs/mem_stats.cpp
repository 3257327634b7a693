#include "obs/mem_stats.hpp"

#include "obs/metrics.hpp"  // LLPMST_OBS default

#if defined(__unix__) || defined(__APPLE__)
#define LLPMST_HAVE_GETRUSAGE 1
#include <sys/resource.h>
#else
#define LLPMST_HAVE_GETRUSAGE 0
#endif

#if LLPMST_OBS

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Plain file-scope atomics, NOT obs::Counter: the registry allocates on
// first use, and an allocating path inside operator new would recurse.
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_free_count{0};

void* tracked_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  // malloc(0) may return null legitimately; operator new must not.
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  g_free_count.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Replacement global allocation functions (must live at global scope).
// The nothrow variants are replaced too: the standard library's default
// forwards to the throwing one, but a sanitizer runtime interposes its own,
// whose blocks the delete below would then hand to free() — ASan reports
// that as an alloc-dealloc mismatch (std::stable_sort's temporary buffer
// takes that path).  Aligned allocations keep the (untracked) default —
// safe, merely uncounted.
void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracked_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracked_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}

#endif  // LLPMST_OBS

namespace llpmst::obs {

MemSample mem_sample() {
  MemSample s;
#if LLPMST_HAVE_GETRUSAGE
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    // Linux reports ru_maxrss in kilobytes.
    s.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  }
#endif
#if LLPMST_OBS
  s.alloc_tracking = true;
  s.alloc_count = g_alloc_count.load(std::memory_order_relaxed);
  s.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  s.free_count = g_free_count.load(std::memory_order_relaxed);
#endif
  return s;
}

}  // namespace llpmst::obs
