#include "src/tune/space.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "src/core/layouts.h"
#include "src/util/range.h"

namespace smd::tune {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Axis-value parsing and printing; the parsers throw
/// std::invalid_argument on unknown names.
core::Variant parse_variant(const std::string& s) {
  for (core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    if (s == core::variant_name(v)) return v;
  }
  throw std::invalid_argument("unknown variant '" + s + "'");
}

sim::SdrPolicy parse_sdr(const std::string& s) {
  if (s == "conservative") return sim::SdrPolicy::kConservative;
  if (s == "transfer") return sim::SdrPolicy::kTransferScoped;
  throw std::invalid_argument("unknown sdr policy '" + s +
                              "' (conservative|transfer)");
}

const char* sdr_name(sim::SdrPolicy p) {
  return p == sim::SdrPolicy::kConservative ? "conservative" : "transfer";
}

std::int64_t parse_int(const std::string& axis, const std::string& s) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("axis '" + axis + "': bad integer '" + s + "'");
  }
}

double parse_double(const std::string& axis, const std::string& s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("axis '" + axis + "': bad number '" + s + "'");
  }
}

bool parse_bool(const std::string& axis, const std::string& s) {
  if (s == "1" || s == "true" || s == "on") return true;
  if (s == "0" || s == "false" || s == "off") return false;
  throw std::invalid_argument("axis '" + axis + "': bad flag '" + s + "'");
}

/// Apply one axis value to a candidate; the single point where axis names
/// map to Candidate fields (set/enumerate and the CLI both go through it).
void apply(Candidate& c, const std::string& axis, const std::string& value) {
  if (axis == "variant") {
    c.variant = parse_variant(value);
  } else if (axis == "L") {
    c.fixed_list_length = check_int_axis(axis, parse_int(axis, value));
  } else if (axis == "blocking") {
    c.blocking_cells = check_int_axis(axis, parse_int(axis, value));
  } else if (axis == "sdr") {
    c.sdr_policy = parse_sdr(value);
  } else if (axis == "strip") {
    c.strip_rounds = parse_int(axis, value);
  } else if (axis == "unroll") {
    c.unroll = check_int_axis(axis, parse_int(axis, value));
  } else if (axis == "swp") {
    c.software_pipeline = parse_bool(axis, value);
  } else if (axis == "clusters") {
    c.n_clusters = check_int_axis(axis, parse_int(axis, value));
  } else if (axis == "srf_kb") {
    c.srf_kb = parse_int(axis, value);
  } else if (axis == "dram_gbps") {
    c.dram_gbps = parse_double(axis, value);
  } else if (axis == "cache_gbps") {
    c.cache_gbps = parse_double(axis, value);
  } else {
    throw std::invalid_argument("unknown axis '" + axis + "'");
  }
}

bool numeric_axis(const std::string& axis) {
  return axis != "variant" && axis != "sdr";
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// Expand "lo:hi:step" into inclusive values (util::expand_range, whose
/// bounds it shares with the bench drivers); pass plain values through.
std::vector<std::string> expand_range(const std::string& axis,
                                      const std::string& token) {
  if (token.find(':') == std::string::npos) return {token};
  if (!numeric_axis(axis)) {
    throw std::invalid_argument("axis '" + axis + "': bad range '" + token +
                                "' (want lo:hi:step)");
  }
  std::vector<double> values;
  try {
    values = util::expand_range(token);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("axis '" + axis + "': " + e.what());
  }
  const bool integral = axis != "dram_gbps" && axis != "cache_gbps";
  std::vector<std::string> out;
  for (const double v : values) {
    out.push_back(integral ? std::to_string(std::llround(v)) : fmt_double(v));
  }
  return out;
}

}  // namespace

sim::MachineConfig Candidate::machine() const {
  sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  cfg.n_clusters = n_clusters;
  cfg.srf_words = srf_kb * 128;  // 1 KB = 128 64-bit words
  cfg.sdr_policy = sdr_policy;
  cfg.sched.unroll = unroll;
  cfg.sched.software_pipeline = software_pipeline;
  // Bandwidth overrides keep the channel/bank counts of Table 1 and scale
  // per-channel rates, so latency modeling stays comparable across points.
  const double dram_words_per_cycle = dram_gbps / 8.0 / cfg.clock_ghz;
  cfg.mem.dram.channel_words_per_cycle =
      dram_words_per_cycle / cfg.mem.dram.n_channels;
  // One cache bank moves one word/cycle; resize the bank count to match
  // the requested aggregate bandwidth (8 GB/s per bank at 1 GHz).
  cfg.mem.cache.n_banks = std::max(
      1, static_cast<int>(std::llround(cache_gbps / (8.0 * cfg.clock_ghz))));
  return cfg;
}

std::string Candidate::key() const {
  std::string k;
  k += "variant=";
  k += core::variant_name(variant);
  k += "|L=" + std::to_string(fixed_list_length);
  k += "|blocking=" + std::to_string(blocking_cells);
  k += "|sdr=";
  k += sdr_name(sdr_policy);
  k += "|strip=" + std::to_string(strip_rounds);
  k += "|unroll=" + std::to_string(unroll);
  k += "|swp=" + std::string(software_pipeline ? "1" : "0");
  k += "|clusters=" + std::to_string(n_clusters);
  k += "|srf_kb=" + std::to_string(srf_kb);
  k += "|dram_gbps=" + fmt_double(dram_gbps);
  k += "|cache_gbps=" + fmt_double(cache_gbps);
  return k;
}

std::string Candidate::label() const {
  std::string l = core::variant_name(variant);
  if (blocking_cells > 0) l += " blk=" + std::to_string(blocking_cells);
  if (core::reads_fixed_list_length(variant)) {
    l += " L=" + std::to_string(fixed_list_length);
  }
  Candidate base;
  if (sdr_policy != base.sdr_policy) l += " sdr=" + std::string(sdr_name(sdr_policy));
  if (strip_rounds != base.strip_rounds) l += " strip=" + std::to_string(strip_rounds);
  if (unroll != base.unroll) l += " u=" + std::to_string(unroll);
  if (software_pipeline != base.software_pipeline) l += " swp=0";
  if (n_clusters != base.n_clusters) l += " c=" + std::to_string(n_clusters);
  if (srf_kb != base.srf_kb) l += " srf=" + std::to_string(srf_kb) + "K";
  if (dram_gbps != base.dram_gbps) l += " dram=" + fmt_double(dram_gbps);
  if (cache_gbps != base.cache_gbps) l += " cache=" + fmt_double(cache_gbps);
  return l;
}

obs::Json Candidate::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("variant", core::variant_name(variant));
  j.set("L", fixed_list_length);
  j.set("blocking", blocking_cells);
  j.set("sdr", sdr_name(sdr_policy));
  j.set("strip", strip_rounds);
  j.set("unroll", unroll);
  j.set("swp", software_pipeline);
  j.set("clusters", n_clusters);
  j.set("srf_kb", srf_kb);
  j.set("dram_gbps", dram_gbps);
  j.set("cache_gbps", cache_gbps);
  return j;
}

Candidate Candidate::from_json(const obs::Json& j) {
  Candidate c;
  for (const std::string& axis : axis_names()) set_axis(c, axis, j.at(axis));
  return c;
}

int check_int_axis(const std::string& axis, std::int64_t value) {
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("axis '" + axis + "': " +
                                std::to_string(value) +
                                " is outside int's range");
  }
  if (axis == "L" && value < 1) {
    throw std::invalid_argument("axis 'L': fixed-list length " +
                                std::to_string(value) + " is below 1");
  }
  return static_cast<int>(value);
}

void check_candidate(const Candidate& c) {
  // The other int axes are in range once they are ints.
  (void)check_int_axis("L", c.fixed_list_length);
}

void set_axis(Candidate& c, const std::string& axis, const obs::Json& value) {
  const auto fail = [&axis](const std::string& why) {
    return std::invalid_argument("axis '" + axis + "': " + why);
  };
  const auto number = [&]() {
    if (!value.is_number()) throw fail("expected a number");
    return value.as_double();
  };
  const auto integer = [&]() {
    (void)number();
    try {
      return value.as_int();
    } catch (const std::out_of_range& e) {
      throw fail(e.what());
    }
  };
  const auto text = [&]() {
    if (!value.is_string()) throw fail("expected a string");
    return value.as_string();
  };
  const auto choice = [&](auto parse) {
    const std::string s = text();
    try {
      return parse(s);
    } catch (const std::invalid_argument& e) {
      throw fail(e.what());
    }
  };
  if (axis == "variant") {
    c.variant = choice(parse_variant);
  } else if (axis == "L") {
    c.fixed_list_length = check_int_axis(axis, integer());
  } else if (axis == "blocking") {
    c.blocking_cells = check_int_axis(axis, integer());
  } else if (axis == "sdr") {
    c.sdr_policy = choice(parse_sdr);
  } else if (axis == "strip") {
    c.strip_rounds = integer();
  } else if (axis == "unroll") {
    c.unroll = check_int_axis(axis, integer());
  } else if (axis == "swp") {
    if (!value.is_bool()) throw fail("expected true or false");
    c.software_pipeline = value.as_bool();
  } else if (axis == "clusters") {
    c.n_clusters = check_int_axis(axis, integer());
  } else if (axis == "srf_kb") {
    c.srf_kb = integer();
  } else if (axis == "dram_gbps") {
    c.dram_gbps = number();
  } else if (axis == "cache_gbps") {
    c.cache_gbps = number();
  } else {
    throw std::invalid_argument("unknown axis '" + axis + "'");
  }
}

std::uint64_t config_hash(const Candidate& c, const std::string& salt) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  const auto mix = [&h](const std::string& s) {
    for (const char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(c.key());
  mix("#");
  mix(salt);
  return h;
}

std::uint64_t run_hash(const Candidate& c, const std::string& salt) {
  if (core::reads_fixed_list_length(c.variant)) return config_hash(c, salt);
  Candidate run = c;
  run.fixed_list_length = core::kFixedListLength;
  return config_hash(run, salt);
}

std::vector<std::string> axis_names() {
  return {"variant", "L",   "blocking", "sdr",    "strip",     "unroll",
          "swp",     "clusters", "srf_kb", "dram_gbps", "cache_gbps"};
}

ConfigSpace& ConfigSpace::set(const std::string& axis,
                              std::vector<std::string> values) {
  if (values.empty()) {
    throw std::invalid_argument("axis '" + axis + "': empty value list");
  }
  {
    // Validate axis name and every value eagerly so errors surface at
    // parse time, not mid-sweep.
    Candidate probe;
    for (const auto& v : values) apply(probe, axis, v);
  }
  for (auto& [name, vals] : axes_) {
    if (name == axis) {
      vals = std::move(values);
      return *this;
    }
  }
  axes_.emplace_back(axis, std::move(values));
  return *this;
}

ConfigSpace ConfigSpace::parse(const std::string& spec) {
  ConfigSpace space;
  for (const std::string& clause : split(spec, ';')) {
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("bad sweep clause '" + clause +
                                  "' (want axis=v1,v2,...)");
    }
    const std::string axis = clause.substr(0, eq);
    std::vector<std::string> values;
    for (const std::string& token : split(clause.substr(eq + 1), ',')) {
      if (token.empty()) {
        throw std::invalid_argument("axis '" + axis + "': empty value");
      }
      for (auto& v : expand_range(axis, token)) values.push_back(std::move(v));
    }
    space.set(axis, std::move(values));
  }
  return space;
}

std::int64_t ConfigSpace::size() const {
  std::int64_t n = 1;
  for (const auto& [axis, values] : axes_) {
    n *= static_cast<std::int64_t>(values.size());
  }
  return n;
}

std::vector<Candidate> ConfigSpace::enumerate(const Candidate& base) const {
  std::vector<Candidate> out;
  out.reserve(static_cast<std::size_t>(size()));
  std::vector<std::size_t> idx(axes_.size(), 0);
  while (true) {
    Candidate c = base;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      apply(c, axes_[a].first, axes_[a].second[idx[a]]);
    }
    out.push_back(std::move(c));
    // Odometer increment, last axis fastest.
    std::size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes_[a].second.size()) break;
      idx[a] = 0;
      if (a == 0) return out;
    }
    if (axes_.empty()) return out;
  }
}

}  // namespace smd::tune
