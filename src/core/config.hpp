// Shared configuration enums for the PDSLin-style solver pipeline.
#pragma once

#include "hypergraph/metrics.hpp"
#include "util/enum_names.hpp"

namespace pdslin {

/// How the initial doubly-bordered partition (paper Eq. (1)) is computed.
enum class PartitionMethod {
  NGD,  // nested graph dissection baseline (PT-Scotch role)
  RHB,  // recursive hypergraph bisection with dynamic weights (paper §III-C)
};

/// RHB balancing constraints (paper §III-C): w1 alone, or {w1, w2}.
enum class RhbConstraintMode {
  SingleW1,   // balance predicted subdomain nonzeros
  MultiW1W2,  // additionally balance predicted interface nonzeros
};

/// Column ordering for the multi-RHS triangular solves (paper §IV).
enum class RhsOrdering {
  Natural,     // global dissection order, as extracted
  Postorder,   // e-tree postorder + first-nonzero sort (§IV-A)
  Hypergraph,  // row-net hypergraph partitioning of G (§IV-B)
};

inline auto enum_names(PartitionMethod) {
  static constexpr EnumName<PartitionMethod> kNames[] = {
      {PartitionMethod::NGD, "NGD"}, {PartitionMethod::RHB, "RHB"}};
  return std::span(kNames);
}

/// Named by the constraint count, the --constraints vocabulary.
inline auto enum_names(RhbConstraintMode) {
  static constexpr EnumName<RhbConstraintMode> kNames[] = {
      {RhbConstraintMode::SingleW1, "1"}, {RhbConstraintMode::MultiW1W2, "2"}};
  return std::span(kNames);
}

inline auto enum_names(RhsOrdering) {
  static constexpr EnumName<RhsOrdering> kNames[] = {
      {RhsOrdering::Natural, "natural"}, {RhsOrdering::Postorder, "postorder"},
      {RhsOrdering::Hypergraph, "hypergraph"}};
  return std::span(kNames);
}

}  // namespace pdslin
