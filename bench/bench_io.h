// Shared argument handling for the bench and example binaries. Every
// binary but bench_native_kernels (which hands its flags to
// google-benchmark) first validates argv with check_flags -- an unknown
// flag or a stray argument exits 2 -- then constructs a JsonOut, fills
// its record with the numbers it prints, and ends main with
// `return jout.finish(status)`, which writes the record only for a run
// that completes with status 0 -- so a run with `--json out.json` leaves
// a diffable BENCH_*.json artifact next to the human-readable table
// output, and a run that fails leaves none.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/schema.h"
#include "src/obs/json.h"
#include "src/sim/config.h"
#include "src/util/range.h"

namespace smd::benchio {

/// Value of `--<name> <value>` in argv, or "" when absent.
inline std::string flag_value(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return "";
}

/// Whether the boolean flag `flag` (with its dashes) appears in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Uniform CLI argument-error exit shared by the smd* drivers: one
/// `tool: message` line plus a one-line usage hint, exit status 2 (the
/// same status a missing mode already produces).
[[noreturn]] inline void usage_error(const char* tool, const std::string& msg,
                                     const char* usage) {
  std::fprintf(stderr, "%s: %s\nusage: %s\n", tool, msg.c_str(), usage);
  std::exit(2);
}

/// Strict argv validation for the smd* drivers: every `--token` must be a
/// known value-taking flag (its value, the next argv entry, is skipped --
/// and must exist) or a known boolean flag; anything else exits 2 with
/// the usage hint. A boolean flag need not start with "--" (streammd_cli's
/// `-h`). Any other token is a positional: a tool takes at most
/// `max_positionals` of them (the second baseline of `smdprof --diff A
/// B`, variant_explorer's molecule count), returned in order; one more --
/// a stray word, a single-dash `-molecules` -- exits 2 with the usage hint.
inline std::vector<std::string> check_flags(
    int argc, char** argv, const char* tool, const char* usage,
    std::initializer_list<const char*> value_flags,
    std::initializer_list<const char*> bool_flags,
    std::size_t max_positionals = 0) {
  std::vector<std::string> positionals;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool known = false;
    for (const char* f : bool_flags) {
      if (arg == f) {
        known = true;
        break;
      }
    }
    if (!known) {
      for (const char* f : value_flags) {
        if (arg == f) {
          if (i + 1 >= argc) {
            usage_error(tool, "flag '" + arg + "' expects a value", usage);
          }
          ++i;  // skip the value
          known = true;
          break;
        }
      }
    }
    if (known) continue;
    if (arg.rfind("--", 0) == 0) {
      usage_error(tool, "unknown flag '" + arg + "'", usage);
    }
    if (positionals.size() >= max_positionals) {
      usage_error(tool, "unexpected argument '" + arg + "'", usage);
    }
    positionals.push_back(arg);
  }
  return positionals;
}

/// `v` as an int; a malformed or trailing-garbage value exits 2 through
/// usage_error (naming `what`) instead of throwing out of main.
inline int int_or_exit(const char* tool, const std::string& what,
                       const std::string& v, const char* usage) {
  try {
    std::size_t pos = 0;
    const int parsed = std::stoi(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing garbage");
    return parsed;
  } catch (const std::exception&) {
    usage_error(tool, what + ": bad integer '" + v + "'", usage);
  }
}

/// `--<name> <int>` with a fallback; a malformed value exits 2.
inline int int_flag_or_exit(int argc, char** argv, const char* tool,
                            const std::string& name, int fallback,
                            const char* usage) {
  const std::string v = flag_value(argc, argv, name);
  return v.empty() ? fallback : int_or_exit(tool, "--" + name, v, usage);
}

/// `--<name> <double>` with a fallback; malformed values exit 2.
inline double double_flag_or_exit(int argc, char** argv, const char* tool,
                                  const std::string& name, double fallback,
                                  const char* usage) {
  const std::string v = flag_value(argc, argv, name);
  if (v.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing garbage");
    return parsed;
  } catch (const std::exception&) {
    usage_error(tool, "--" + name + ": bad number '" + v + "'", usage);
  }
}

/// Parse "a,b,c" and "lo:hi:step" (inclusive ends) value lists -- the same
/// syntax and range bounds smdtune sweep axes use (util::expand_range), so
/// humans and the tuner drive the bench binaries uniformly. Throws
/// std::invalid_argument on malformed input.
inline std::vector<double> parse_value_list(const std::string& spec) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(start, end - start);
    if (token.empty()) throw std::invalid_argument("empty value in '" + spec + "'");
    if (token.find(':') == std::string::npos) {
      out.push_back(std::stod(token));
    } else {
      for (const double v : util::expand_range(token)) out.push_back(v);
    }
    start = end + 1;
  }
  return out;
}

/// `--engine stepped|event|lockstep` (default event): the simulation core
/// bench_table3_variants times and cross-checks (sim::parse_engine). The
/// engines are bit-identical in every reported statistic -- stepped is
/// the reference, lockstep runs both and throws on divergence (DESIGN.md
/// section 10). A bad value exits 2.
inline sim::SimEngine engine_flag(int argc, char** argv) {
  const std::string v = flag_value(argc, argv, "engine");
  try {
    return v.empty() ? sim::SimEngine::kEvent : sim::parse_engine(v);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--engine: %s\n", e.what());
    std::exit(2);
  }
}

/// `--kernel-backend interp|vm|lockstep` (default vm): the functional
/// kernel executor inside the simulator (kernel::parse_kernel_backend),
/// bench_table3_variants' other cross-check. The backends are
/// bit-identical in every output word and census field -- interp is the
/// reference, lockstep runs both and throws on divergence (DESIGN.md
/// section 17). A bad value exits 2.
inline kernel::KernelBackend kernel_backend_flag(int argc, char** argv) {
  const std::string v = flag_value(argc, argv, "kernel-backend");
  try {
    return v.empty() ? kernel::KernelBackend::kVm
                     : kernel::parse_kernel_backend(v);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--kernel-backend: %s\n", e.what());
    std::exit(2);
  }
}

/// parse_value_list, rounded to int; a value outside int's range throws.
inline std::vector<int> parse_int_list(const std::string& spec) {
  std::vector<int> out;
  for (const double v : parse_value_list(spec)) {
    if (!(v >= std::numeric_limits<int>::min() &&
          v <= std::numeric_limits<int>::max())) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g is outside int's range", v);
      throw std::invalid_argument(buf);
    }
    out.push_back(static_cast<int>(v + (v >= 0 ? 0.5 : -0.5)));
  }
  return out;
}

/// `--<name> a,b,c` / `lo:hi:step` int list with a fallback; a malformed
/// list exits 2 with the usage hint (the PR 6 `--nodes` behavior, now
/// uniform across the drivers).
inline std::vector<int> int_list_flag_or_exit(int argc, char** argv,
                                              const char* tool,
                                              const std::string& name,
                                              std::vector<int> fallback,
                                              const char* usage) {
  const std::string v = flag_value(argc, argv, name);
  if (v.empty()) return fallback;
  try {
    return parse_int_list(v);
  } catch (const std::exception& e) {
    usage_error(tool,
                "--" + name + ": bad value list '" + v + "' (" + e.what() + ")",
                usage);
  }
}

/// What a count flag counts (a singular noun, for the message) and the
/// values it may take.
struct Count {
  const char* unit;
  int lo = 1;
  int hi = std::numeric_limits<int>::max();
};

inline constexpr Count kMolecules{"molecule"};

/// The one rule for counts: `n`, read from `what`, if it lies in
/// [c.lo, c.hi]; otherwise exit 2 through usage_error ("--workers: need at
/// least 1 worker, got 0"), before a negative count wraps through size_t
/// or an empty box "simulates" in 0 cycles.
inline int count_or_exit(const char* tool, const std::string& what, int n,
                         const Count& c, const char* usage) {
  if (n < c.lo || n > c.hi) {
    const bool low = n < c.lo;
    usage_error(tool,
                what + ": need at " + (low ? "least " : "most ") +
                    std::to_string(low ? c.lo : c.hi) + " " + c.unit +
                    ", got " + std::to_string(n),
                usage);
  }
  return n;
}

/// `--<name>` counts under count_or_exit, or `fallback` when the flag is
/// absent; with `list` the flag may name several values (`a,b,c` or
/// `lo:hi:step`, parse_int_list syntax). A malformed value exits 2 too.
inline std::vector<int> counts_or_exit(int argc, char** argv, const char* tool,
                                       const std::string& name, const Count& c,
                                       std::vector<int> fallback,
                                       const char* usage, bool list = false) {
  const std::vector<int> counts =
      list ? int_list_flag_or_exit(argc, argv, tool, name, std::move(fallback),
                                   usage)
           : std::vector<int>{int_flag_or_exit(argc, argv, tool, name,
                                               fallback.front(), usage)};
  for (const int n : counts) count_or_exit(tool, "--" + name, n, c, usage);
  return counts;
}

/// `--molecules`, the water-box size every simulating driver takes.
inline std::vector<int> molecules_or_exit(int argc, char** argv,
                                          const char* tool, int fallback,
                                          const char* usage,
                                          bool list = false) {
  return counts_or_exit(argc, argv, tool, "molecules", kMolecules, {fallback},
                        usage, list);
}

/// Whether `path` can be opened for writing. A file the probe had to
/// create is removed again, so a failed run leaves nothing behind.
inline bool writable(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app)) return false;
  if (!existed) std::remove(path.c_str());
  return true;
}

/// `--<name> <path>` for an output file, or "" when absent. A path that
/// cannot be written exits 1 with `error: cannot open for writing`, so a
/// bad path fails before any work instead of after it.
inline std::string output_path_or_exit(int argc, char** argv,
                                       const std::string& name) {
  std::string path = flag_value(argc, argv, name);
  if (!path.empty() && !writable(path)) {
    std::fprintf(stderr, "error: cannot open for writing: %s\n", path.c_str());
    std::exit(1);
  }
  return path;
}

/// The `--json <path>` record of a binary, written by finish() when the
/// run completes. The constructor checks that the path can be written and
/// exits 1 if not, so an unwritable path fails before any work instead of
/// after it.
class JsonOut {
 public:
  JsonOut(int argc, char** argv, std::string bench_name)
      : path_(output_path_or_exit(argc, argv, "json")),
        root_(obs::Json::object()) {
    root_.set("schema_version", core::kBenchSchemaVersion);
    root_.set("bench", std::move(bench_name));
  }
  JsonOut(const JsonOut&) = delete;
  JsonOut& operator=(const JsonOut&) = delete;

  bool enabled() const { return !path_.empty(); }
  obs::Json& root() { return root_; }

  /// Replace the whole record (used with core::bench_record()); the
  /// original schema_version/bench fields are kept if absent.
  void set_record(obs::Json record) {
    for (const auto& [key, value] : root_.items()) {
      if (!record.contains(key)) record.set(key, value);
    }
    root_ = std::move(record);
  }

  /// The run's last step, `return jout.finish(status);`: with status 0
  /// the record is written (and named on stdout); any other status, like
  /// every exit that never reaches this call, leaves no file. Returns the
  /// exit status: `status`, or 1 when the write fails.
  int finish(int status) {
    if (status != 0 || path_.empty()) return status;
    try {
      obs::write_file(root_, path_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to write %s: %s\n", path_.c_str(), e.what());
      return 1;
    }
    std::printf("json record written to %s\n", path_.c_str());
    return 0;
  }

 private:
  std::string path_;
  obs::Json root_;
};

}  // namespace smd::benchio
