// StreamMD: shared definitions for the four implementation variants.
//
// Variant overview (paper Table 3):
//   expanded   -- fully expanded interaction list
//   fixed      -- fixed-length (L=8) neighbor lists, replicated centrals,
//                 dummy neighbors, in-cluster central-force reduction
//   variable   -- variable-length neighbor lists via conditional streams
//   duplicated -- fixed-length lists, every pair computed twice, no
//                 neighbor partial-force output
#pragma once

#include <array>
#include <stdexcept>
#include <string>

namespace smd::core {

enum class Variant { kExpanded, kFixed, kVariable, kDuplicated };

/// The four variants in Table 3 order.
inline constexpr std::array<Variant, 4> kAllVariants = {
    Variant::kExpanded, Variant::kFixed, Variant::kVariable,
    Variant::kDuplicated};

inline const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kExpanded: return "expanded";
    case Variant::kFixed: return "fixed";
    case Variant::kVariable: return "variable";
    case Variant::kDuplicated: return "duplicated";
  }
  return "?";
}

/// Inverse of variant_name; throws std::invalid_argument
/// "unknown variant '<s>'" on any other name.
inline Variant parse_variant(const std::string& s) {
  for (const Variant v : kAllVariants) {
    if (s == variant_name(v)) return v;
  }
  throw std::invalid_argument("unknown variant '" + s + "'");
}

inline const char* variant_description(Variant v) {
  switch (v) {
    case Variant::kExpanded:
      return "fully expanded interaction list";
    case Variant::kFixed:
      return "fixed length neighbor list of 8 neighbors";
    case Variant::kVariable:
      return "reduction with variable length list (conditional streams)";
    case Variant::kDuplicated:
      return "fixed length lists with duplicated computation";
  }
  return "?";
}

/// Fixed-length neighbor list length L (paper Section 3.3: "a fixed-length
/// list of 8 neighbors was chosen").
inline constexpr int kFixedListLength = 8;

/// Words per position record: 3 atoms x 3 coordinates.
inline constexpr int kPosWords = 9;
/// Words per force record.
inline constexpr int kForceWords = 9;
/// Words of the expanded variant's periodic-boundary record (per-atom shift
/// triples, as in the paper's 27-word input accounting).
inline constexpr int kPbcWords = 9;

}  // namespace smd::core
