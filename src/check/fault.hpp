// Fault injection for the differential harness (src/check/): a process-wide
// switch that plants a known bug inside a pipeline stage, so the fuzz driver
// and tests can prove the oracle/invariant gate actually catches and
// minimizes real defects (the "injected bug" acceptance test of ISSUE 5).
//
// The hooks are compiled into release builds — they cost one relaxed atomic
// load per guarded site — but nothing outside tests and `pdslin_fuzz
// --inject-bug` ever arms them.
#pragma once

#include "util/enum_names.hpp"

namespace pdslin::check {

enum class Fault {
  None = 0,
  /// Off-by-one in the Schur gather's R_F row map: subdomain update rows
  /// land one separator row too early (rows > 0 shifted down by one).
  SchurGatherOffByOne,
  /// The Schur drop sweep silently discards the last kept entry of every
  /// separator row with more than one entry (a plausible prefix-sum bug).
  SchurDropLastEntry,
};

using pdslin::to_string;

inline auto enum_names(Fault) {
  static constexpr EnumName<Fault> kNames[] = {
      {Fault::None, "none"},
      {Fault::SchurGatherOffByOne, "schur-gather-off-by-one"},
      {Fault::SchurDropLastEntry, "schur-drop-last-entry"}};
  return std::span(kNames);
}

/// Arm a fault process-wide (Fault::None disarms). Thread-safe.
void inject_fault(Fault f);

/// Currently armed fault (relaxed load; hot-path safe).
Fault injected_fault();

/// RAII arm/disarm for tests — never leaves a fault armed on scope exit.
class FaultGuard {
 public:
  explicit FaultGuard(Fault f) { inject_fault(f); }
  ~FaultGuard() { inject_fault(Fault::None); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

}  // namespace pdslin::check
