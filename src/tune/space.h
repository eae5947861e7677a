// Design-space definition for the autotuner.
//
// The paper's best StreamMD mapping is a *search outcome*: `variable`
// beats `expanded` by 84% and `fixed` by 46% (Figure 9), the fixed-list
// length L = 8 is a tuned constant (Section 3.3), and the blocking scheme
// has an interior run-time minimum at a few molecules per cluster
// (Figure 12). A Candidate names one point of that space -- implementation
// variant plus algorithm knobs plus machine overrides relative to the
// Table 1 Merrimac node -- and a ConfigSpace enumerates axes into the
// cartesian candidate list the tune::Runner evaluates.
//
// Every candidate has a stable 64-bit hash over its canonical key string;
// the persistent result cache (tune/cache.h) is keyed by that hash mixed
// with a model-version salt, so cached metrics survive exactly as long as
// the cost model that produced them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/streammd.h"
#include "src/obs/json.h"
#include "src/sim/config.h"

namespace smd::tune {

/// One point in the design space. Defaults reproduce the paper's tuned
/// configuration: `variable` on the Table 1 machine with L = 8.
struct Candidate {
  core::Variant variant = core::Variant::kVariable;
  int fixed_list_length = core::kFixedListLength;  ///< L
  /// Blocking-scheme granularity in cells per box edge; 0 = unblocked
  /// (the candidate runs the plain variant through the full simulator).
  int blocking_cells = 0;
  sim::SdrPolicy sdr_policy = sim::SdrPolicy::kTransferScoped;
  std::int64_t strip_rounds = 0;  ///< strip length in kernel rounds; 0 = auto
  int unroll = 2;
  bool software_pipeline = true;

  // Machine overrides (Table 1 values by default).
  int n_clusters = 16;
  std::int64_t srf_kb = 1024;  ///< SRF size in KB (1 KB = 128 words)
  double dram_gbps = 38.4;     ///< peak DRAM bandwidth
  double cache_gbps = 64.0;    ///< stream cache bandwidth (8 GB/s per bank)

  /// Materialize the machine configuration this candidate runs on.
  sim::MachineConfig machine() const;

  /// Canonical "axis=value|axis=value" form; the hash input, and unique
  /// per distinct candidate.
  std::string key() const;
  /// Short human-readable label for tables ("variable L=8 c16").
  std::string label() const;

  obs::Json to_json() const;
  static Candidate from_json(const obs::Json& j);

  bool operator==(const Candidate& o) const { return key() == o.key(); }
};

/// FNV-1a over key() and the salt: stable across runs and platforms.
std::uint64_t config_hash(const Candidate& c, const std::string& salt = "");

/// The config_hash of the run a candidate simulates: L is set to
/// core::kFixedListLength when the variant does not read it
/// (core::reads_fixed_list_length). Candidates with equal run hashes
/// produce identical metrics, so tune::Runner simulates one per sweep.
std::uint64_t run_hash(const Candidate& c, const std::string& salt = "");

/// The candidate check. Every parser of a candidate (the sweep spec,
/// Candidate::from_json, the svc wire) narrows each int axis through it,
/// and svc::Server::submit re-applies it to a candidate built in code.
/// Returns `value` as the axis's int; throws std::invalid_argument naming
/// the axis when the value is outside int's range, or is an L below 1
/// (blocks of fewer than one neighbor never cover a list).
int check_int_axis(const std::string& axis, std::int64_t value);
void check_candidate(const Candidate& c);

/// Set one axis from its JSON value (the member of Candidate::to_json of
/// the same name). Candidate::from_json and the svc wire both parse
/// through it. Throws std::invalid_argument starting "axis '<axis>': " on
/// a value of the wrong type or one the candidate check rejects, and
/// "unknown axis '<axis>'" on any other name.
void set_axis(Candidate& c, const std::string& axis, const obs::Json& value);

/// Axis names ConfigSpace::set accepts, in canonical order:
///   variant, L, blocking, sdr, strip, unroll, swp, clusters, srf_kb,
///   dram_gbps, cache_gbps
std::vector<std::string> axis_names();

/// A set of axes, each with an explicit value list; enumerate() takes the
/// cartesian product (axes absent from the space keep the base candidate's
/// value).
class ConfigSpace {
 public:
  /// Set one axis. Values are strings parsed per-axis; throws
  /// std::invalid_argument on an unknown axis or an unparsable value.
  ConfigSpace& set(const std::string& axis, std::vector<std::string> values);

  /// Parse a sweep spec: axes separated by ';', values by ','. Numeric
  /// axes also accept lo:hi:step ranges (inclusive ends):
  ///   "variant=fixed,variable;L=4:16:4;clusters=8,16,32"
  static ConfigSpace parse(const std::string& spec);

  /// Number of candidates the cartesian product yields (1 when empty).
  std::int64_t size() const;

  std::vector<Candidate> enumerate(const Candidate& base = {}) const;

  const std::vector<std::pair<std::string, std::vector<std::string>>>& axes()
      const {
    return axes_;
  }

 private:
  std::vector<std::pair<std::string, std::vector<std::string>>> axes_;
};

}  // namespace smd::tune
