// The graph catalog: named, immutable, refcounted CSR snapshots.
//
// llpmstd serves many queries over few graphs, so the expensive part —
// parse/generate an edge list, build the CSR, count components — happens
// once per `load`, and every query after that shares the snapshot through
// a shared_ptr.  The memory-footprint contract (after arXiv:2302.12199's
// snapshot-shared execution model) is:
//
//   * a snapshot is IMMUTABLE after load: queries only ever read it, so
//     sharing needs no locks beyond the catalog map's own mutex;
//   * `unload` removes the NAME, not the data — in-flight queries holding
//     the shared_ptr finish against the old snapshot, and the memory is
//     reclaimed when the last holder drops it.  A load over an existing
//     name is rejected (unload first), so a name never silently changes
//     meaning between two queries of one client script;
//   * the component count is computed at load time, which lets every
//     query seed its RunContext's connectivity cache instead of
//     recomputing a union-find per request.
//
// Sources accepted by load():
//   scenario:NAME  — the PR-7 scenario registry (seed overrides supported)
//   road:SIDE      — SIDExSIDE road network (connected)
//   rmat:SCALE     — graph500 RMAT, 2^SCALE vertices (disconnected)
//   er:VERTICES    — Erdos-Renyi G(n, 4n)
//   file:PATH      — read_graph() dispatch (format sniffed from bytes)
//   binfile:PATH   — llpmstb CSR snapshot MOUNTED via mmap: no parse, no
//                    CSR rebuild, arc data paged in on demand — this is how
//                    llpmstd serves graphs larger than resident RAM
//   anything else  — treated as a file path
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "support/status.hpp"

namespace llpmst::serve {

/// One immutable loaded graph.  Everything a query needs is computed at
/// load time; after construction the snapshot is never written again.
struct GraphSnapshot {
  std::string name;
  std::string source;
  std::uint64_t seed = 0;
  CsrGraph graph;
  std::size_t components = 0;
  // -- Load stats (control-op responses and /stats) -----------------------
  /// Storage backend the snapshot lives on: "heap" (built) or "mmap"
  /// (binfile: mount).
  const char* backend = "heap";
  /// Bytes backed by a file mapping (0 for heap snapshots).
  std::size_t bytes_mapped = 0;
  /// Wall time of the load: parse+build for heap sources, open+map+validate
  /// for binfile mounts.
  double load_ms = 0;
};

using SnapshotPtr = std::shared_ptr<const GraphSnapshot>;

class GraphCatalog {
 public:
  /// Parses `source`, builds the CSR, counts components, and registers the
  /// snapshot under `name`.  Errors: kInvalidArgument for a bad name /
  /// duplicate name / unknown scenario / malformed source, and whatever
  /// read_graph() reports for file sources.  `seed` parameterizes
  /// generator-backed sources and is ignored for files.
  Expected<SnapshotPtr> load(const std::string& name,
                             const std::string& source, std::uint64_t seed);

  /// The snapshot registered under `name`; nullptr when absent.  The
  /// returned pointer keeps the snapshot alive past a later unload().
  [[nodiscard]] SnapshotPtr get(const std::string& name) const;

  /// Unregisters `name`.  In-flight holders keep their snapshot; returns
  /// the number of OTHER outstanding references at removal time (0 = memory
  /// reclaimed now), or an error when the name is unknown.
  Expected<std::size_t> unload(const std::string& name);

  struct Entry {
    std::string name;
    std::string source;
    std::uint64_t seed;
    std::size_t vertices;
    std::size_t edges;
    std::size_t components;
    /// Snapshot references held outside the catalog right now (in-flight
    /// or queued queries, plus unloaded-but-held ghosts are NOT counted —
    /// those no longer have a name to list).
    std::size_t pinned;
    /// Storage backend ("heap" | "mmap") and its load stats.
    const char* backend;
    std::size_t bytes_mapped;
    double load_ms;
    /// Bytes currently resident in RAM — exact for heap snapshots, sampled
    /// via mincore at list() time for mmap mounts.
    std::size_t resident_bytes;
  };
  /// Registration-order listing of the live catalog.
  [[nodiscard]] std::vector<Entry> list() const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SnapshotPtr> snapshots_;  // registration order, names unique
};

}  // namespace llpmst::serve
