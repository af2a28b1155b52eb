#include "hypergraph/metrics.hpp"

#include "util/error.hpp"

namespace pdslin {

std::vector<index_t> net_connectivity(const Hypergraph& h,
                                      const std::vector<index_t>& part,
                                      index_t num_parts) {
  PDSLIN_CHECK(part.size() == static_cast<std::size_t>(h.num_vertices));
  std::vector<index_t> lambda(h.num_nets, 0);
  std::vector<index_t> mark(num_parts, -1);
  for (index_t n = 0; n < h.num_nets; ++n) {
    index_t count = 0;
    for (index_t v : h.pins(n)) {
      const index_t p = part[v];
      if (p < 0) continue;
      PDSLIN_CHECK(p < num_parts);
      if (mark[p] != n) {
        mark[p] = n;
        ++count;
      }
    }
    lambda[n] = count;
  }
  return lambda;
}

CutSizes evaluate_cutsizes(const Hypergraph& h, const std::vector<index_t>& part,
                           index_t num_parts) {
  const std::vector<index_t> lambda = net_connectivity(h, part, num_parts);
  CutSizes s;
  for (index_t l : lambda) {
    if (l > 1) {
      s.con1 += l - 1;
      s.cnet += 1;
      s.soed += l;
    }
  }
  return s;
}

long long cutsize(const Hypergraph& h, const std::vector<index_t>& part,
                  index_t num_parts, CutMetric metric) {
  const CutSizes s = evaluate_cutsizes(h, part, num_parts);
  switch (metric) {
    case CutMetric::Con1:   return s.con1;
    case CutMetric::CutNet: return s.cnet;
    case CutMetric::Soed:   return s.soed;
  }
  return 0;
}

}  // namespace pdslin
