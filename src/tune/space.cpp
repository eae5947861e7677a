#include "src/tune/space.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "src/core/layouts.h"
#include "src/util/range.h"

namespace smd::tune {
namespace {

std::string fmt_double(double v, int digits = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

/// A value as the key and the sweep spell it. A double prints %.6g when
/// that reads back as the same double and %.17g otherwise, so distinct
/// values never share a key; label() passes exact = false for plain %.6g.
/// The SDR spelling is the tuner's own.
template <class T>
std::string text(T v, bool exact = true) {
  if constexpr (std::is_same_v<T, core::Variant>) {
    return core::variant_name(v);
  } else if constexpr (std::is_same_v<T, sim::SdrPolicy>) {
    return v == sim::SdrPolicy::kConservative ? "conservative" : "transfer";
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_same_v<T, double>) {
    const std::string s = fmt_double(v);
    return !exact || std::strtod(s.c_str(), nullptr) == v ? s
                                                          : fmt_double(v, 17);
  } else {
    return std::to_string(v);
  }
}

/// A value as to_json() writes it: the variant and SDR policy by name.
template <class T>
obs::Json json(T v) {
  if constexpr (std::is_enum_v<T>) return text(v);
  else return v;
}

/// One Candidate member and the values its axis accepts. The range covers
/// what MachineConfig::validate cannot see: a value lost when the member
/// is narrowed or converted, and axes that are not machine fields.
template <class T>
struct Field {
  T Candidate::*member;
  T min;
  T max;
};

/// The axis kinds: variant, SDR policy, int, int64, bool, double.
using AnyField =
    std::variant<Field<core::Variant>, Field<sim::SdrPolicy>, Field<int>,
                 Field<std::int64_t>, Field<bool>, Field<double>>;

/// When label() shows an axis.
enum class Show {
  kAlways,    ///< always: the variant name leads every label
  kWhenRead,  ///< when the variant reads the axis (L)
  kWhenSet,   ///< when the value differs from the default candidate's
};

struct Axis {
  const char* name;   ///< sweep, JSON and key name
  AnyField field;
  const char* what;   ///< noun of the range errors
  const char* label;  ///< label() text; "{}" stands for the value
  Show show;
  int label_pos;      ///< position in label(), where blk= precedes L=
};

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr double kDoubleMax = std::numeric_limits<double>::max();

/// The design space: every per-axis fact, one row per axis, in the
/// canonical order of key(), to_json() and axis_names().
constexpr Axis kAxes[] = {
    {"variant",
     Field<core::Variant>{&Candidate::variant, core::Variant::kExpanded,
                          core::Variant::kDuplicated},
     "implementation variant", "{}", Show::kAlways, 0},
    // Blocks of fewer than one neighbor never cover a list.
    {"L", Field<int>{&Candidate::fixed_list_length, 1, kIntMax},
     "fixed-list length", "L={}", Show::kWhenRead, 2},
    {"blocking", Field<int>{&Candidate::blocking_cells, 0, kIntMax},
     "blocking granularity", "blk={}", Show::kWhenSet, 1},
    {"sdr",
     Field<sim::SdrPolicy>{&Candidate::sdr_policy,
                           sim::SdrPolicy::kConservative,
                           sim::SdrPolicy::kTransferScoped},
     "SDR policy", "sdr={}", Show::kWhenSet, 3},
    {"strip", Field<std::int64_t>{&Candidate::strip_rounds, 0, kInt64Max},
     "strip length", "strip={}", Show::kWhenSet, 4},
    {"unroll", Field<int>{&Candidate::unroll, kIntMin, kIntMax},
     "unroll factor", "u={}", Show::kWhenSet, 5},
    {"swp", Field<bool>{&Candidate::software_pipeline, false, true},
     "software pipelining", "swp={}", Show::kWhenSet, 6},
    {"clusters", Field<int>{&Candidate::n_clusters, kIntMin, kIntMax},
     "cluster count", "c={}", Show::kWhenSet, 7},
    // machine() scales to words: srf_kb * 128 must fit int64.
    {"srf_kb",
     Field<std::int64_t>{&Candidate::srf_kb, kInt64Min / 128,
                         kInt64Max / 128},
     "SRF size", "srf={}K", Show::kWhenSet, 8},
    {"dram_gbps", Field<double>{&Candidate::dram_gbps, -kDoubleMax, kDoubleMax},
     "DRAM bandwidth", "dram={}", Show::kWhenSet, 9},
    // machine() converts to banks of 8 GB/s: llround(v / 8) must fit int.
    {"cache_gbps",
     Field<double>{&Candidate::cache_gbps, -8.0 * kIntMax, 8.0 * kIntMax},
     "stream cache bandwidth", "cache={}", Show::kWhenSet, 10},
};

const Axis& find_axis(const std::string& name) {
  for (const Axis& a : kAxes) {
    if (name == a.name) return a;
  }
  throw std::invalid_argument("unknown axis '" + name + "'");
}

std::invalid_argument axis_error(const Axis& a, const std::string& why) {
  return std::invalid_argument(std::string("axis '") + a.name + "': " + why);
}

/// `v` as the member's type, once it is inside the row's range. An int
/// member's value arrives as int64 and is narrowed first.
template <class T, class V>
T checked(const Axis& a, const Field<T>& f, V v) {
  if constexpr (std::is_same_v<T, int> && !std::is_same_v<V, int>) {
    if (v < kIntMin || v > kIntMax) {
      throw axis_error(a, std::to_string(v) + " is outside int's range");
    }
  }
  const auto fail = [&](const std::string& why) {
    return axis_error(a, std::string(a.what) + " " + text(v) + " " + why);
  };
  if constexpr (std::is_same_v<T, double>) {
    if (!std::isfinite(v)) throw fail("is not finite");
  }
  if (v < f.min) throw fail("is below " + text(f.min));
  if (v > f.max) throw fail("is above " + text(f.max));
  return static_cast<T>(v);
}

/// A sweep value. The variant and SDR parsers' errors are bare.
template <class T>
auto parse_text(const Axis& a, const Field<T>& f, const std::string& s) {
  const auto bad = [&](const char* kind) {
    return axis_error(a, std::string("bad ") + kind + " '" + s + "'");
  };
  if constexpr (std::is_same_v<T, core::Variant>) {
    return core::parse_variant(s);
  } else if constexpr (std::is_same_v<T, sim::SdrPolicy>) {
    for (int i = static_cast<int>(f.min); i <= static_cast<int>(f.max); ++i) {
      if (s == text(static_cast<T>(i))) return static_cast<T>(i);
    }
    throw std::invalid_argument("unknown sdr policy '" + s +
                                "' (conservative|transfer)");
  } else if constexpr (std::is_same_v<T, bool>) {
    if (s == "1" || s == "true" || s == "on") return true;
    if (s == "0" || s == "false" || s == "off") return false;
    throw bad("flag");
  } else {
    try {
      std::size_t pos = 0;
      if constexpr (std::is_same_v<T, double>) {
        const double v = std::stod(s, &pos);
        if (pos == s.size()) return v;
      } else {
        const std::int64_t v = std::stoll(s, &pos);
        if (pos == s.size()) return v;
      }
    } catch (const std::exception&) {
    }
    throw bad(std::is_same_v<T, double> ? "number" : "integer");
  }
}

/// A JSON value: the member of Candidate::to_json of the same name.
template <class T>
auto parse_json(const Axis& a, const Field<T>& f, const obs::Json& value) {
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) throw axis_error(a, std::string("expected ") + what);
  };
  if constexpr (std::is_same_v<T, bool>) {
    expect(value.is_bool(), "true or false");
    return value.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    expect(value.is_number(), "a number");
    return value.as_double();
  } else if constexpr (std::is_enum_v<T>) {
    expect(value.is_string(), "a string");
    try {
      return parse_text(a, f, value.as_string());
    } catch (const std::invalid_argument& e) {
      throw axis_error(a, e.what());
    }
  } else {
    expect(value.is_number(), "a number");
    try {
      return value.as_int();
    } catch (const std::out_of_range& e) {
      throw axis_error(a, e.what());
    }
  }
}

/// Apply one sweep value to a candidate (set/enumerate go through it).
void apply(Candidate& c, const std::string& axis, const std::string& value) {
  const Axis& a = find_axis(axis);
  std::visit(
      [&](const auto& f) {
        c.*f.member = checked(a, f, parse_text(a, f, value));
      },
      a.field);
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
  const Axis& a = find_axis(axis);
  if (std::holds_alternative<Field<core::Variant>>(a.field) ||
      std::holds_alternative<Field<sim::SdrPolicy>>(a.field)) {
    throw axis_error(a, "bad range '" + token + "' (want lo:hi:step)");
  }
  std::vector<double> values;
  try {
    values = util::expand_range(token);
  } catch (const std::invalid_argument& e) {
    throw axis_error(a, e.what());
  }
  const bool integral = !std::holds_alternative<Field<double>>(a.field);
  std::vector<std::string> out;
  for (const double v : values) {
    out.push_back(integral ? std::to_string(std::llround(v)) : fmt_double(v));
  }
  return out;
}

}  // namespace

sim::MachineConfig Candidate::machine() const {
  check_candidate(*this);
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
  // the requested aggregate bandwidth (8 GB/s per bank at 1 GHz). Below
  // one bank, validate() reports MC010.
  cfg.mem.cache.n_banks =
      static_cast<int>(std::llround(cache_gbps / (8.0 * cfg.clock_ghz)));
  return cfg;
}

std::string Candidate::key() const {
  std::string k;
  for (const Axis& a : kAxes) {
    if (!k.empty()) k += '|';
    k += a.name;
    k += '=';
    k += std::visit([this](const auto& f) { return text(this->*f.member); },
                    a.field);
  }
  return k;
}

std::string Candidate::label() const {
  static const Candidate base;
  std::string l;
  for (int pos = 0; pos < static_cast<int>(std::size(kAxes)); ++pos) {
    const Axis& a = *std::find_if(
        std::begin(kAxes), std::end(kAxes),
        [pos](const Axis& row) { return row.label_pos == pos; });
    std::visit(
        [&](const auto& f) {
          const auto v = this->*f.member;
          if ((a.show == Show::kWhenRead &&
               !core::reads_fixed_list_length(variant)) ||
              (a.show == Show::kWhenSet && v == base.*f.member)) {
            return;
          }
          std::string part = a.label;
          l += (l.empty() ? "" : " ") +
               part.replace(part.find("{}"), 2, text(v, false));
        },
        a.field);
  }
  return l;
}

obs::Json Candidate::to_json() const {
  obs::Json j = obs::Json::object();
  for (const Axis& a : kAxes) {
    std::visit([&](const auto& f) { j.set(a.name, json(this->*f.member)); },
               a.field);
  }
  return j;
}

Candidate Candidate::from_json(const obs::Json& j) {
  Candidate c;
  for (const Axis& a : kAxes) set_axis(c, a.name, j.at(a.name));
  return c;
}

int check_int_axis(const std::string& axis, std::int64_t value) {
  const Axis& a = find_axis(axis);
  const auto* f = std::get_if<Field<int>>(&a.field);
  if (f == nullptr) throw axis_error(a, "not an int axis");
  return checked(a, *f, value);
}

void check_candidate(const Candidate& c) {
  for (const Axis& a : kAxes) {
    std::visit([&](const auto& f) { (void)checked(a, f, c.*f.member); },
               a.field);
  }
}

void set_axis(Candidate& c, const std::string& axis, const obs::Json& value) {
  const Axis& a = find_axis(axis);
  std::visit(
      [&](const auto& f) {
        c.*f.member = checked(a, f, parse_json(a, f, value));
      },
      a.field);
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
  std::vector<std::string> names;
  for (const Axis& a : kAxes) names.emplace_back(a.name);
  return names;
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
