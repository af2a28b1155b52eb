// Cutsize metrics for k-way hypergraph partitions (paper §II, Eqs. (7)–(9)).
#pragma once

#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/enum_names.hpp"

namespace pdslin {

/// The three standard cutsize metrics.
enum class CutMetric {
  Con1,    // Σ (λ(j) − 1)              — Eq. (7)
  CutNet,  // Σ_{λ(j)>1} 1              — Eq. (8)
  Soed,    // Σ_{λ(j)>1} λ(j)           — Eq. (9)
};

inline auto enum_names(CutMetric) {
  static constexpr EnumName<CutMetric> kNames[] = {{CutMetric::Con1, "con1"},
                                                   {CutMetric::CutNet, "cnet"},
                                                   {CutMetric::Soed, "soed"}};
  return std::span(kNames);
}

/// Connectivity λ(j) of every net under the k-way partition `part`
/// (entries with part[v] < 0 are ignored, supporting separator labels).
std::vector<index_t> net_connectivity(const Hypergraph& h,
                                      const std::vector<index_t>& part,
                                      index_t num_parts);

struct CutSizes {
  long long con1 = 0;
  long long cnet = 0;
  long long soed = 0;
};

/// Evaluate all three metrics at once with unit net costs (the paper's
/// definition; the recursive partitioner's internal costs are an
/// implementation device, not part of the metric).
CutSizes evaluate_cutsizes(const Hypergraph& h, const std::vector<index_t>& part,
                           index_t num_parts);

/// Cutsize under one metric.
long long cutsize(const Hypergraph& h, const std::vector<index_t>& part,
                  index_t num_parts, CutMetric metric);

}  // namespace pdslin
