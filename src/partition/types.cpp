#include "partition/types.hpp"

#include <algorithm>
#include <cmath>

namespace pdslin::partition {

int value_weight(double absval, double maxabs, ValueMode m) {
  if (m == ValueMode::Off) return 1;
  if (!(absval > 0.0) || !(maxabs > 0.0) || !std::isfinite(absval) ||
      !std::isfinite(maxabs)) {
    return 1;
  }
  if (absval >= maxabs) return kValueWeightMax;
  if (m == ValueMode::LogAbs) {
    // One weight step per power-of-two band below maxabs; ilogb is exact,
    // so the bucket is a pure function of the two magnitudes.
    const int bands = std::ilogb(maxabs) - std::ilogb(absval);
    return std::max(1, kValueWeightMax - bands);
  }
  // Abs: linear quantization of absval / maxabs onto 1..kValueWeightMax.
  const int w = 1 + static_cast<int>((absval * (kValueWeightMax - 1)) / maxabs);
  return std::clamp(w, 1, kValueWeightMax);
}

const char* Stats::engine_label() const {
  if (fallback_subtrees == 0) return "multilevel";
  if (multilevel_subtrees == 0) return "geometric";
  return "hybrid";
}

}  // namespace pdslin::partition
