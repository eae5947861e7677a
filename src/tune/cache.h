// Result store: candidate metrics by config hash, optionally persisted as
// JSON on disk.
//
// Sweeps are incremental: a re-run of any sweep whose candidates were
// already evaluated performs zero simulations (the golden test asserts
// bit-identical metrics and a 100% hit rate). Entries are keyed by the
// candidate's 64-bit config hash, which mixes in a model-version salt --
// bump tune::kModelVersion whenever the simulator's cost model changes and
// every stale entry silently misses.
//
// Entries always live in memory as typed {Candidate, Metrics} rows, so a
// lookup is a map probe and a copy. The file is touched only when the
// store has a path: load() reads it and save() writes it. svc::Server
// keeps every finished result here; tune::Runner consults the store only
// when it is given a path.
//
// File format (schema_version 1, entries sorted by hash so the file is
// byte-stable and diffable):
//   {"schema_version": 1, "salt": "...",
//    "entries": {"<16-hex-digit hash>": {"config": {...}, "metrics": {...}},
//                ...}}
//
// The store itself is not thread-safe: the Runner performs lookups before
// spawning workers and inserts after joining them, and the svc::Server
// serializes all access behind its own mutex. save() is crash-safe
// (atomic temp-file + rename) and load() tolerates torn or hand-mangled
// files, so concurrent *processes* sharing one cache path get
// last-writer-wins rather than corruption.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/obs/json.h"
#include "src/tune/space.h"

namespace smd::tune {

/// Everything measured (or, for pruned candidates, estimated) for one
/// candidate. The result store keeps exactly this struct.
struct Metrics {
  double time_ms = 0.0;
  std::uint64_t cycles = 0;
  std::int64_t mem_words = 0;         ///< memory traffic, words
  std::int64_t srf_peak_words = 0;    ///< SRF pressure
  std::uint64_t kernel_busy_cycles = 0;
  std::uint64_t mem_busy_cycles = 0;
  double solution_gflops = 0.0;
  double max_force_rel_err = 0.0;
  /// "sim" (full cycle-accurate run), "blocked_profile" (scheduled-kernel
  /// estimate of the blocking scheme), or "estimate" (pruned candidate).
  std::string source;

  obs::Json to_json() const;
  static Metrics from_json(const obs::Json& j);
};

/// Version salt mixed into every config hash. Bump when simulator timing
/// or layout changes invalidate previously cached metrics.
inline constexpr const char* kModelVersion = "smd-tune-v1";

class ResultCache {
 public:
  /// An empty path keeps the store in memory only: load() and save() do
  /// nothing, while insert() and lookup() work as with a path.
  explicit ResultCache(std::string path, std::string salt = kModelVersion);

  /// Whether the store is backed by a file.
  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  const std::string& salt() const { return salt_; }

  /// Replace the entries with those of path(). A missing file is an
  /// empty store; a file with a different salt or schema version is
  /// discarded wholesale; a corrupt/truncated file is empty and an entry
  /// whose key, config or metrics do not parse is skipped, each with a
  /// counter (tune.cache.load_corrupt / tune.cache.load_skipped), never
  /// thrown. Returns the number of entries loaded (0 without a path).
  std::size_t load();

  /// Copy the stored metrics for `hash` into *out; false on miss.
  bool lookup(std::uint64_t hash, Metrics* out) const;

  void insert(std::uint64_t hash, const Candidate& cand, const Metrics& m);

  /// Write the store (pretty JSON, sorted by hash) via an atomic
  /// temp-file + rename, so a crash mid-save never leaves a torn file.
  /// No-op without a path or when nothing was inserted since load().
  /// Throws on I/O failure.
  void save();

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Candidate config;
    Metrics metrics;
  };

  std::string path_;
  std::string salt_;
  std::map<std::uint64_t, Entry> entries_;
  bool dirty_ = false;
};

/// "0123456789abcdef" rendering used for cache keys.
std::string hash_hex(std::uint64_t h);

}  // namespace smd::tune
